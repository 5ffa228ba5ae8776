"""Model-based (stateful) tests: caches vs brute-force reference models."""

import random

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from repro.core.lookup_cache import LookupCache
from repro.dht.keyspace import in_interval
from repro.fs.blocks import BlockKind
from repro.fs.fslayer import BlockOp
from repro.fs.writeback_cache import WritebackCache

SMALL_KEYS = st.integers(min_value=0, max_value=999)
# Mostly a crowded corner, so range ends collide, arcs share endpoints and
# same-end replacements happen often.
ARC_KEYS = st.integers(min_value=0, max_value=15) | SMALL_KEYS


def linear_find(cache, key):
    """Reference for ``LookupCache._find``: the original linear scan.

    Every entry is tested in range-end order and only a strictly later
    ``expires_at`` replaces the incumbent, so the freshest covering entry
    wins and the lowest range end breaks ties.
    """
    best = None
    for entry in cache.entries():
        if entry.covers(key) and (best is None or entry.expires_at > best.expires_at):
            best = entry
    return best


class LookupCacheMachine(RuleBasedStateMachine):
    """The cache must agree with a naive list-of-ranges model.

    Model: the most recently inserted unexpired range covering a key wins;
    the cache may conservatively miss (e.g. overlapping ranges hide one
    another) but must never return a node the model does not list for the
    key — a wrong *positive* would send clients to arbitrary nodes far
    more often than churn explains.  The indexed probe must also pick the
    very entry the linear reference scan picks.
    """

    def __init__(self):
        super().__init__()
        self.cache = LookupCache(ttl=100.0)
        self.model = []  # list of (lo, hi, node, expires_at), newest last
        self.now = 0.0

    @initialize(capacity=st.sampled_from([None, 2, 5]))
    def bound(self, capacity):
        self.cache.capacity = capacity

    @rule(lo=ARC_KEYS, hi=ARC_KEYS, node=st.sampled_from("abcdef"))
    def insert(self, lo, hi, node):
        self.cache.insert(lo, hi, node, self.now)
        self.model.append((lo, hi, node, self.now + 100.0))

    @rule(at=ARC_KEYS, node=st.sampled_from("abcdef"))
    def insert_full_ring(self, at, node):
        self.insert(at, at, node)

    @rule(delta=st.floats(min_value=0.0, max_value=60.0))
    def advance(self, delta):
        self.now += delta

    @rule(key=ARC_KEYS)
    def invalidate(self, key):
        self.cache.invalidate(key, self.now)

    @rule(key=ARC_KEYS)
    def find_matches_reference(self, key):
        assert self.cache._find(key) is linear_find(self.cache, key)

    @rule(key=ARC_KEYS)
    def probe(self, key):
        got = self.cache.probe(key, self.now)
        if got is not None:
            candidates = {
                node
                for lo, hi, node, expires in self.model
                if expires > self.now and (lo == hi or in_interval(key, lo, hi))
            }
            assert got in candidates, (
                f"cache returned {got!r} for key {key}, model allows {candidates}"
            )

    @invariant()
    def stats_consistent(self):
        stats = self.cache.stats
        assert stats.hits + stats.misses == stats.lookups
        assert 0.0 <= stats.miss_rate <= 1.0


TestLookupCacheModel = LookupCacheMachine.TestCase
TestLookupCacheModel.settings = settings(max_examples=40, deadline=None)


def test_find_at_longest_arc_boundary():
    # The scan stops before ends >= key + longest arc; the longest arc
    # itself must still be found at its first covered key.
    cache = LookupCache(ttl=100.0)
    cache.insert(0, 10, "long", 0.0)
    cache.insert(10, 12, "short", 0.0)
    assert cache._find(1).node == "long"
    assert cache._find(11).node == "short"
    assert cache._find(0) is None


@pytest.mark.parametrize("seed", range(6))
def test_find_matches_linear_scan_under_random_ops(seed):
    # A long seeded run per seed: many more same-end replacements, expiry
    # sweeps and evictions than the stateful machine reaches.
    rng = random.Random(seed)
    cache = LookupCache(ttl=50.0, capacity=rng.choice([None, 4, 16]))
    now = 0.0
    for _ in range(1500):
        roll = rng.random()
        lo, hi = rng.randrange(64), rng.randrange(64)
        if roll < 0.35:
            cache.insert(lo, lo if roll < 0.03 else hi, "abc"[lo % 3], now)
        elif roll < 0.45:
            cache.invalidate(lo, now)
        elif roll < 0.6:
            cache.probe(lo, now)
        elif roll < 0.7:
            now += rng.choice([0.0, 5.0, 20.0])
        key = rng.randrange(64)
        assert cache._find(key) is linear_find(cache, key)


class WritebackCacheMachine(RuleBasedStateMachine):
    """The write-back cache must flush exactly the newest version of every
    dirty identity, exactly once, and never resurrect removed identities."""

    idents = [f"f{i}" for i in range(5)]

    def __init__(self):
        super().__init__()
        self.cache = WritebackCache(flush_delay=30.0)
        self.now = 0.0
        self.version = 0
        # Model state: ident -> newest unflushed key, or REMOVED sentinel.
        self.pending = {}
        self.flushed_keys = []

    def _op(self, action, ident, key):
        return BlockOp(action, key, 100, BlockKind.DATA, ident, self.version)

    @rule(ident=st.sampled_from(idents))
    def write(self, ident):
        self.version += 1
        key = self.version  # unique key per version
        ops = [self._op("put", ident, key)]
        self.cache.write(ops, self.now)
        self.pending[ident] = key

    @rule(ident=st.sampled_from(idents))
    def remove(self, ident):
        if self.pending.get(ident) is None:
            return
        key = self.pending[ident]
        self.cache.write([self._op("remove", ident, key)], self.now)
        self.pending[ident] = None  # removed while dirty: must never flush

    @rule(delta=st.floats(min_value=0.1, max_value=40.0))
    def advance_and_flush(self, delta):
        self.now += delta
        for op in self.cache.flush_due(self.now):
            if op.action == "put":
                self.flushed_keys.append((op.ident, op.key))
                assert self.pending.get(op.ident) == op.key, (
                    f"flushed {op.key} but model expected "
                    f"{self.pending.get(op.ident)}"
                )
                self.pending[op.ident] = "FLUSHED"

    @rule()
    def final_flush(self):
        for op in self.cache.flush_all():
            if op.action == "put":
                self.flushed_keys.append((op.ident, op.key))
                assert self.pending.get(op.ident) == op.key
                self.pending[op.ident] = "FLUSHED"

    @invariant()
    def no_duplicate_flushes(self):
        assert len(self.flushed_keys) == len(set(self.flushed_keys))

    @invariant()
    def removed_never_flushed(self):
        flushed_idents_keys = set(self.flushed_keys)
        for ident, state in self.pending.items():
            if state is None:  # removed while dirty
                # None of this ident's unflushed versions may appear.
                assert all(i != ident or (i, k) in flushed_idents_keys
                           for i, k in flushed_idents_keys)


TestWritebackCacheModel = WritebackCacheMachine.TestCase
TestWritebackCacheModel.settings = settings(max_examples=40, deadline=None)


class RingDirectoryMachine(RuleBasedStateMachine):
    """Block directory range queries must match a brute-force set under
    interleaved adds, removes, and queries."""

    def __init__(self):
        super().__init__()
        from repro.store.block_store import BlockDirectory

        self.directory = BlockDirectory()
        self.model = {}

    @rule(key=SMALL_KEYS, size=st.integers(min_value=0, max_value=8192))
    def put(self, key, size):
        self.directory.put(key, size)
        self.model[key] = size

    @rule(key=SMALL_KEYS)
    def discard(self, key):
        self.directory.discard(key)
        self.model.pop(key, None)

    @rule(lo=SMALL_KEYS, hi=SMALL_KEYS)
    def range_query(self, lo, hi):
        got = sorted(self.directory.keys_in_range(lo, hi))
        expected = sorted(
            k for k in self.model if lo == hi or in_interval(k, lo, hi)
        )
        assert got == expected

    @invariant()
    def totals_match(self):
        assert len(self.directory) == len(self.model)
        assert self.directory.total_bytes == sum(self.model.values())


TestRingDirectoryModel = RingDirectoryMachine.TestCase
TestRingDirectoryModel.settings = settings(max_examples=40, deadline=None)
