"""Model-based (stateful) tests: caches and the block directory vs
brute-force reference models."""

import random

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from repro.core.lookup_cache import LookupCache
from repro.dht.keyspace import KEY_SPACE, in_interval
from repro.fs.blocks import BlockKind
from repro.fs.fslayer import BlockOp
from repro.fs.writeback_cache import WritebackCache
from repro.store.block_store import BlockDirectory, BlockDirectoryError

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


def model_arc(model, lo, hi):
    """Reference for ``keys_in_range``: the model's keys in ``(lo, hi]``
    (the full ring when ``lo == hi``), clockwise from just after *lo*."""
    keys = [k for k in model if lo == hi or in_interval(k, lo, hi)]
    return sorted(keys, key=lambda k: (k - lo - 1) % KEY_SPACE)


def model_median(model, lo, hi):
    keys = model_arc(model, lo, hi)
    if len(keys) < 2 or keys[(len(keys) - 1) // 2] == hi:
        return None
    return keys[(len(keys) - 1) // 2]


# One step of a mutation burst: which operation, on which key, what size.
# Keys crowd a corner so one burst often touches a key twice.
BURST_OPS = st.lists(
    st.tuples(
        st.sampled_from(["put", "discard", "add", "remove", "flip"]),
        ARC_KEYS,
        st.integers(min_value=0, max_value=8192),
    ),
    max_size=12,
)


class RingDirectoryMachine(RuleBasedStateMachine):
    """Block directory range queries must match a brute-force set under
    interleaved adds, removes, and queries.

    Mutations between two queries form one pending delta of the index, so
    the burst and flip rules put same-key add/remove pairs in one delta.
    """

    def __init__(self):
        super().__init__()
        self.directory = BlockDirectory()
        self.model = {}

    @rule(key=SMALL_KEYS, size=st.integers(min_value=0, max_value=8192))
    def put(self, key, size):
        assert self.directory.put(key, size) == size - self.model.get(key, 0)
        self.model[key] = size

    @rule(key=SMALL_KEYS)
    def discard(self, key):
        assert self.directory.discard(key) == self.model.pop(key, None)

    @rule(key=SMALL_KEYS, size=st.integers(min_value=-2, max_value=8192))
    def add(self, key, size):
        if size < 0 or key in self.model:
            with pytest.raises(BlockDirectoryError):
                self.directory.add(key, size)
            return
        self.directory.add(key, size)
        self.model[key] = size

    @rule(key=SMALL_KEYS)
    def remove(self, key):
        if key not in self.model:
            with pytest.raises(BlockDirectoryError):
                self.directory.remove(key)
            return
        assert self.directory.remove(key) == self.model.pop(key)

    @rule(key=SMALL_KEYS, size=st.integers(min_value=0, max_value=8192))
    def flip(self, key, size):
        """Remove-then-re-add a live key, or add-then-remove a dead one."""
        if key in self.model:
            self.remove(key)
            self.add(key, size)
        else:
            self.add(key, size)
            self.remove(key)

    @rule(ops=BURST_OPS)
    def burst(self, ops):
        for op, key, size in ops:
            if op in ("put", "add", "flip"):
                getattr(self, op)(key, size)
            else:
                getattr(self, op)(key)

    @rule(lo=SMALL_KEYS, hi=SMALL_KEYS)
    def range_query(self, lo, hi):
        assert self.directory.keys_in_range(lo, hi) == model_arc(self.model, lo, hi)

    @rule(at=SMALL_KEYS)
    def full_ring_query(self, at):
        self.range_query(at, at)
        assert self.directory.count_in_range(at, at) == len(self.model)

    @rule(lo=SMALL_KEYS, hi=SMALL_KEYS)
    def count_query(self, lo, hi):
        assert self.directory.count_in_range(lo, hi) == len(model_arc(self.model, lo, hi))

    @rule(lo=SMALL_KEYS, hi=SMALL_KEYS)
    def median_query(self, lo, hi):
        assert self.directory.median_key_in_range(lo, hi) == model_median(
            self.model, lo, hi
        )

    @rule(lo=SMALL_KEYS, hi=SMALL_KEYS)
    def bytes_query(self, lo, hi):
        assert self.directory.bytes_in_range(lo, hi) == sum(
            self.model[k] for k in model_arc(self.model, lo, hi)
        )

    @invariant()
    def totals_match(self):
        assert len(self.directory) == len(self.model)
        assert self.directory.total_bytes == sum(self.model.values())


TestRingDirectoryModel = RingDirectoryMachine.TestCase
TestRingDirectoryModel.settings = settings(max_examples=40, deadline=None)


@pytest.mark.parametrize("seed", range(6))
def test_directory_index_matches_sorted_model(seed):
    # Random 512-bit keys; recently removed keys are re-added often, so
    # deltas of every length hold same-key add/remove pairs.
    rng = random.Random(seed)
    directory = BlockDirectory()
    model = {}
    graveyard = []
    for _ in range(2000):
        roll = rng.random()
        if roll < 0.45:
            key = graveyard.pop() if graveyard and rng.random() < 0.5 else rng.randrange(KEY_SPACE)
            size = rng.randrange(8192)
            if rng.random() < 0.5:
                directory.add(key, size)
            else:
                directory.put(key, size)
            model[key] = size
        elif roll < 0.8 and model:
            key = rng.choice(list(model))
            if rng.random() < 0.5:
                assert directory.remove(key) == model.pop(key)
            else:
                assert directory.discard(key) == model.pop(key)
            graveyard.append(key)
        elif roll < 0.9 and model:
            key = rng.choice(list(model))
            model[key] = rng.randrange(8192)
            directory.put(key, model[key])
        else:
            # A query ends the delta: the patched index must equal a sort.
            lo, hi = rng.randrange(KEY_SPACE), rng.randrange(KEY_SPACE)
            assert directory.count_in_range(lo, hi) == len(model_arc(model, lo, hi))
            assert directory._index() == sorted(model)
    assert directory._index() == sorted(model)
    assert directory.total_bytes == sum(model.values())
