"""Microbenchmark: span tracing overhead on the disabled and traced paths.

The satellite contract for the tracing subsystem is that a deployment
running with tracing off (``REPRO_TRACE_SAMPLE=0`` → :class:`NullTracer`)
pays only a truthiness check at each instrumentation site, keeping a
fig16-style replay loop within a couple percent of fully untraced code.
Wall-clock asserts on shared CI boxes are noisy, so the hard assert is
generous (25%) while the printed ratio is what a human (or perf
regression sweep) reads against the < 2% design target.

The traced path has a scaling gate instead: a start/finish pair must cost
the same whatever the ring-buffer capacity, because finishing a span
reaches its parent through a direct reference rather than a buffer scan.
"""

import time

from repro.core.system import build_deployment
from repro.obs.spans import NullTracer, Tracer


def _balance_workload(deployment, files=60):
    """A fig16-flavored hot loop: create files, then balance to stable."""
    deployment.bootstrap_volume()
    for i in range(files):
        deployment.apply_fs_ops(deployment.fs.create(f"/f{i}.dat", size=16_000))
    deployment.stabilize(max_rounds=60)
    return deployment.store.moves_executed


def _timed_run(spans_factory):
    deployment = build_deployment("d2", 24, seed=11)
    deployment.spans = spans_factory(deployment)
    deployment.store.spans = deployment.spans
    if deployment.balancer is not None:
        deployment.balancer._spans = deployment.spans
    started = time.perf_counter()
    moves = _balance_workload(deployment)
    return time.perf_counter() - started, moves, deployment


def test_disabled_tracing_overhead_is_negligible(benchmark):
    # Interleave to keep cache/thermal drift symmetric between variants.
    null_times, traced_times = [], []
    for _ in range(3):
        elapsed, null_moves, _ = _timed_run(lambda d: NullTracer())
        null_times.append(elapsed)
        elapsed, traced_moves, traced = _timed_run(
            lambda d: Tracer(sample=1.0, seed=0)
        )
        traced_times.append(elapsed)
    assert null_moves == traced_moves  # tracing must not perturb behavior
    assert traced.spans.counts().get("balance.move", 0) >= 1

    null_best, traced_best = min(null_times), min(traced_times)
    ratio = null_best / traced_best if traced_best else 1.0
    print(f"\nnull-tracer / full-tracer best-of-3: {ratio:.4f} "
          f"(null {null_best:.3f}s, traced {traced_best:.3f}s)")
    # Design target < 2%; hard gate is loose for noisy shared runners.
    # The *disabled* path must never be slower than the fully-traced one
    # by more than noise.
    assert null_best <= traced_best * 1.25

    # Statistical timing of the pure instrumentation-site cost: a null
    # tracer start/finish pair is just two truthiness checks.
    tracer = NullTracer()

    def disabled_sites():
        for i in range(1000):
            if tracer:
                span = tracer.start_trace("fetch", float(i))
                tracer.finish(span, float(i))

    benchmark(disabled_sites)


def test_null_tracer_allocates_nothing_per_span():
    from repro.obs.spans import NULL_SPAN

    tracer = NullTracer()
    spans = {id(tracer.start_trace("op", float(i))) for i in range(100)}
    assert spans == {id(NULL_SPAN)}  # one shared singleton, zero allocation
    children = {id(tracer.start_span("c", 0.0, NULL_SPAN)) for _ in range(100)}
    assert children == {id(NULL_SPAN)}


def _lookup_pairs_wall(capacity, lookups=2000, runs=5):
    """Best-of-*runs* wall time of *lookups* two-span traced lookups.

    The buffer is filled to capacity first, so any per-finish scan of it
    would cost its full length on every root.
    """
    tracer = Tracer(capacity=capacity, sample=1.0, seed=0)
    for i in range(capacity):
        tracer.finish(tracer.start_trace("warm", float(i)), float(i))
    best = float("inf")
    for _ in range(runs):
        started = time.perf_counter()
        for i in range(lookups):
            root = tracer.start_trace("lookup", float(i))
            tracer.finish(tracer.start_span("dht.route", float(i), root), float(i))
            tracer.finish(root, float(i))
        best = min(best, time.perf_counter() - started)
    return best


def test_traced_span_cost_independent_of_capacity():
    small = _lookup_pairs_wall(16)
    large = _lookup_pairs_wall(4096)
    print(f"\ntraced two-span lookup: {small / 2000 * 1e6:.1f} us at capacity 16, "
          f"{large / 2000 * 1e6:.1f} us at capacity 4096")
    assert large <= 2.0 * small, (
        f"traced span cost grows with buffer capacity: {large:.4f}s at 4096 "
        f"vs {small:.4f}s at 16"
    )
