"""Microbenchmarks of the hot-path data structures.

Unlike the experiment benches (single-shot simulations), these use
pytest-benchmark's statistical timing: they are the operations the
simulators execute millions of times, so their throughput bounds how far
the reproduction can scale.
"""

import random
import time

from repro.core.keys import decode_key, encode_path_key, volume_id
from repro.core.lookup_cache import LookupCache
from repro.dht.consistent_hashing import random_node_ids
from repro.dht.keyspace import KEY_SPACE
from repro.dht.ring import Ring
from repro.dht.routing import route
from repro.store.block_store import BlockDirectory

VOL = volume_id("bench")


def build_ring(n, seed=0):
    ring = Ring()
    rng = random.Random(seed)
    for i, node_id in enumerate(random_node_ids(n, rng)):
        ring.join(f"n{i}", node_id)
    return ring, rng


def test_ring_successor_lookup(benchmark):
    ring, rng = build_ring(1000)
    keys = [rng.randrange(KEY_SPACE) for _ in range(512)]

    def lookup_many():
        for key in keys:
            ring.successor(key)

    benchmark(lookup_many)


def test_ring_replica_group_lookup(benchmark):
    """Replay hot path: replica-group resolution for a recurring key set.

    Replay loops resolve the same block keys over and over between
    membership changes, which is exactly what the version-keyed successor
    memo accelerates."""
    ring, rng = build_ring(1000)
    keys = [rng.randrange(KEY_SPACE) for _ in range(512)]

    def group_many():
        for key in keys:
            ring.successors(key, 4)

    benchmark(group_many)


def test_routing_hops(benchmark):
    ring, rng = build_ring(1000)
    keys = [rng.randrange(KEY_SPACE) for _ in range(64)]

    def route_many():
        for key in keys:
            route(ring, "n0", key)

    benchmark(route_many)


def test_key_encode(benchmark):
    paths = [(i % 64 + 1, i % 32 + 1, i % 16 + 1) for i in range(256)]

    def encode_many():
        for path in paths:
            encode_path_key(VOL, path, block_number=3, version=7)

    benchmark(encode_many)


def test_key_decode(benchmark):
    keys = [
        encode_path_key(VOL, (i % 64 + 1, i % 32 + 1), block_number=i, version=i)
        for i in range(256)
    ]

    def decode_many():
        for key in keys:
            decode_key(key)

    benchmark(decode_many)


def test_directory_range_queries(benchmark):
    rng = random.Random(1)
    directory = BlockDirectory()
    for _ in range(20_000):
        directory.put(rng.randrange(KEY_SPACE), 8192)
    arcs = [(rng.randrange(KEY_SPACE), rng.randrange(KEY_SPACE)) for _ in range(256)]

    def query_many():
        for lo, hi in arcs:
            directory.count_in_range(lo, hi)

    benchmark(query_many)


def test_directory_refresh_after_burst():
    """Gate: a query after a 1% mutation burst patches the sorted index.

    Balancing probes query the directory between bursts of web-cache
    inserts and evictions; merging the pending delta must cost well under
    a full re-sort of the live keys (before: ~1x, i.e. a re-sort).
    """
    rng = random.Random(4)
    directory = BlockDirectory()
    live = [rng.randrange(KEY_SPACE) for _ in range(40_000)]
    for key in live:
        directory.put(key, 8192)
    directory.count_in_range(0, 1)
    refresh_best = sort_best = float("inf")
    for _ in range(7):
        for _ in range(200):
            directory.discard(live.pop(rng.randrange(len(live))))
            live.append(rng.randrange(KEY_SPACE))
            directory.put(live[-1], 8192)
        started = time.perf_counter()
        directory.count_in_range(0, 1)
        refresh_best = min(refresh_best, time.perf_counter() - started)
        started = time.perf_counter()
        sorted(directory.keys())
        sort_best = min(sort_best, time.perf_counter() - started)
    ratio = refresh_best / sort_best
    print(f"\nindex refresh after a 1% burst: {refresh_best * 1e3:.2f} ms, "
          f"full sort {sort_best * 1e3:.2f} ms ({ratio:.2f}x)")
    assert ratio <= 1 / 3, f"index refresh costs {ratio:.2f}x a full re-sort"


def test_lookup_cache_probe(benchmark):
    rng = random.Random(2)
    cache = LookupCache(ttl=1e9)
    ring, _ = build_ring(500, seed=2)
    for name in list(ring.names())[:250]:
        lo, hi = ring.range_of(name)
        cache.insert(lo, hi, name, now=0.0)
    keys = [rng.randrange(KEY_SPACE) for _ in range(512)]

    def probe_many():
        for key in keys:
            cache.probe(key, now=1.0)

    benchmark(probe_many)
