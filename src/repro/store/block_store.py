"""Authoritative block directory (what D2-Store collectively stores).

The directory is the simulation's ground truth for *logical* content: the
set of live block keys and their sizes.  Responsibility for a key is always
derived from the ring (``r`` successors), and the *physical* location of
each primary copy is tracked separately by
:class:`repro.store.migration.StorageCoordinator` so that block pointers
(deferred migration) can be modelled exactly.

The directory supports the range queries the load balancer needs — count,
median, and byte volume over an arc ``(lo, hi]`` — via a sorted key index
that is patched, not rebuilt, before each query.  Mutations stay O(1): they
only record the keys added or removed since the last query, and the next
query merges that delta into the index in O(N + d log N) for d pending
mutations, instead of re-sorting all N keys.  Only a query against an
empty index (the first after a bulk load) sorts the live keys outright.
"""

from __future__ import annotations

import bisect
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.dht.keyspace import validate_key


class BlockDirectoryError(Exception):
    """Raised on invalid directory operations (duplicate put, missing key)."""


class BlockDirectory:
    """Sorted index of live block keys and sizes with circular range queries."""

    def __init__(self) -> None:
        self._sizes: Dict[int, int] = {}
        self._sorted: List[int] = []
        # Pending delta since the last query: live keys the index lacks, and
        # indexed keys no longer live.  A key added and removed (or removed
        # and re-added) within one delta cancels out of both.  While the
        # index is empty every live key is pending, so nothing is recorded:
        # a bulk load never queried holds no second copy of its keys.
        self._added: Set[int] = set()
        self._removed: Set[int] = set()
        self.total_bytes = 0

    # ------------------------------------------------------------------
    # mutation

    def add(self, key: int, size: int) -> None:
        """Record a new live block.  Re-adding an existing key is an error."""
        validate_key(key)
        if size < 0:
            raise BlockDirectoryError(f"negative block size {size}")
        if key in self._sizes:
            raise BlockDirectoryError(f"block {key:#x} already present")
        self._sizes[key] = size
        self.total_bytes += size
        self._mark_added(key)

    def put(self, key: int, size: int) -> int:
        """Upsert a block; returns the size delta (new - old)."""
        validate_key(key)
        if size < 0:
            raise BlockDirectoryError(f"negative block size {size}")
        old = self._sizes.get(key)
        self._sizes[key] = size
        if old is None:
            self._mark_added(key)
            self.total_bytes += size
            return size
        self.total_bytes += size - old
        return size - old

    def remove(self, key: int) -> int:
        """Delete a block; returns its size."""
        try:
            size = self._sizes.pop(key)
        except KeyError:
            raise BlockDirectoryError(f"block {key:#x} not present") from None
        self.total_bytes -= size
        self._mark_removed(key)
        return size

    def discard(self, key: int) -> Optional[int]:
        """Delete a block if present; returns its size or None."""
        size = self._sizes.pop(key, None)
        if size is not None:
            self.total_bytes -= size
            self._mark_removed(key)
        return size

    def _mark_added(self, key: int) -> None:
        if key in self._removed:
            self._removed.remove(key)  # still indexed: the removal cancels
        elif self._sorted:
            self._added.add(key)

    def _mark_removed(self, key: int) -> None:
        if key in self._added:
            self._added.remove(key)  # never indexed: the add cancels
        elif self._sorted:
            self._removed.add(key)

    # ------------------------------------------------------------------
    # queries

    def __len__(self) -> int:
        return len(self._sizes)

    def __contains__(self, key: int) -> bool:
        return key in self._sizes

    def size_of(self, key: int) -> int:
        try:
            return self._sizes[key]
        except KeyError:
            raise BlockDirectoryError(f"block {key:#x} not present") from None

    def keys(self) -> Iterator[int]:
        return iter(self._sizes)

    def _index(self) -> List[int]:
        """The sorted live keys, with the pending delta merged in."""
        if not self._sorted:
            self._sorted = sorted(self._sizes)
            return self._sorted
        if self._removed:
            index = self._sorted
            kept: List[int] = []
            start = 0
            for key in sorted(self._removed):
                stop = bisect.bisect_left(index, key, start)
                kept += index[start:stop]
                start = stop + 1
            kept += index[start:]
            self._sorted = kept
            self._removed.clear()
        if self._added:
            # Two sorted runs: list.sort() detects them and merges in
            # O(N) moves plus O(d log N) comparisons.
            self._sorted += sorted(self._added)
            self._sorted.sort()
            self._added.clear()
        return self._sorted

    def keys_in_range(self, lo: int, hi: int) -> List[int]:
        """Live keys in the circular arc ``(lo, hi]``, in clockwise order.

        ``lo == hi`` denotes the full ring (single-node system).
        """
        index = self._index()
        if not index:
            return []
        if lo == hi:
            # Full ring, clockwise starting just after lo.
            start = bisect.bisect_right(index, lo)
            return index[start:] + index[:start]
        if lo < hi:
            start = bisect.bisect_right(index, lo)
            stop = bisect.bisect_right(index, hi)
            return index[start:stop]
        # Wrapping arc: (lo, MAX] ++ [0, hi]
        start = bisect.bisect_right(index, lo)
        stop = bisect.bisect_right(index, hi)
        return index[start:] + index[:stop]

    def count_in_range(self, lo: int, hi: int) -> int:
        """Number of live keys in the arc ``(lo, hi]`` — the primary load."""
        index = self._index()
        if not index:
            return 0
        if lo == hi:
            return len(index)
        start = bisect.bisect_right(index, lo)
        stop = bisect.bisect_right(index, hi)
        if lo < hi:
            return stop - start
        return (len(index) - start) + stop

    def bytes_in_range(self, lo: int, hi: int) -> int:
        """Total byte volume of live blocks in the arc ``(lo, hi]``."""
        return sum(self._sizes[k] for k in self.keys_in_range(lo, hi))

    def median_key_in_range(self, lo: int, hi: int) -> Optional[int]:
        """Split point that leaves half the arc's keys at or below it.

        Returns None when the arc holds fewer than two keys, or when the
        median coincides with *hi* (splitting there would be a no-op).
        """
        keys = self.keys_in_range(lo, hi)
        if len(keys) < 2:
            return None
        median = keys[(len(keys) - 1) // 2]
        if median == hi:
            return None
        return median

    def snapshot_loads(self, boundaries: List[Tuple[int, int, str]]) -> Dict[str, int]:
        """Primary block count per node given ``(lo, hi, name)`` arcs."""
        return {name: self.count_in_range(lo, hi) for lo, hi, name in boundaries}
