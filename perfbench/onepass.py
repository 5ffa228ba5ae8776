"""One measured pass of one workload, in a fresh process.

    python3 perfbench/onepass.py WORKLOAD SEED PROFILE TRACED

``run.py`` starts this once per pass with a pinned environment, so every
pass starts cold: trace generation and image build land in its set-up time
and no in-process memo survives from one pass to the next.  The last line
of stdout is one JSON object (see ``main``).

Every pass installs light hooks: set-up timers around the once-per-cell
calls that build a cell's inputs, capture of each cell's deployments (for
the program's own work counters), a replay and skip tally on
``Deployment.replay_record`` and a tally of the lookup-cache misses of the
read harness's untimed warm-up.  An untraced pass also runs the host-speed
probe (:class:`HostProbe`); a traced pass (TRACED=1) instead installs the
layer wrappers of ``layers.py``.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import resource
import signal
import sys
import time
from typing import Any, Callable, Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: Calls that build a cell's inputs before its first replayed op; their
#: outermost time, summed over cells, is the pass's ``setup_s``.
SETUP_CALLS = (
    "repro.experiments.workload_cache:harvard_trace",
    "repro.experiments.workload_cache:web_trace",
    "repro.workloads.scale:replicate_filesystem",
    "repro.workloads.shift:shift_stream",
    "repro.core.system:build_deployment",
    "repro.core.system:Deployment.load_initial_image",
    "repro.core.system:Deployment.bootstrap_volume",
    "repro.core.system:Deployment.stabilize",
    # the accel cell's image build (its load_initial_image)
    "repro.analysis.accel:_build_file_keys",
)

#: Modules holding every call site the hooks and layer wrappers must see.
ENTRY_MODULES = (
    "repro.runner.executor",
    "repro.analysis.performance",
    "repro.analysis.balance",
    "repro.analysis.accel",
    "repro.experiments.churn_storm",
    "repro.experiments.fig9_lookup_traffic",
    "repro.experiments.fig10_speedup",
    "repro.experiments.fig17_imbalance_webcache",
    "repro.experiments.accel_matrix",
    "repro.experiments.balance_runs",
    "repro.experiments.perf_runs",
    "repro.dht.membership",
    "repro.store.repair",
    "repro.obs.health",
    "repro.obs.timeseries",
    "repro.workloads.harvard",
    "repro.workloads.web",
    "repro.workloads.shift",
    "repro.workloads.scale",
    "repro.workloads.tasks",
)


#: The probe's mean duration on the reference host: a probe this long means
#: the host runs at reference speed.  Sets the scale of the normalized times.
REFERENCE_PROBE_S = 300e-6
PROBE_INTERVAL_S = 0.02
_PROBE_TABLE = {i: i * 7 for i in range(512)}


def _probe_kernel() -> int:
    """A fixed slice of interpreter work: dict lookups, arithmetic, branches."""
    table, acc = _PROBE_TABLE, 0
    for i in range(2000):
        acc += table[(i * 31) & 511]
        if acc & 1:
            acc >>= 1
    return acc


class HostProbe:
    """Samples the host's speed while a pass runs.

    The host's speed swings by 2x over seconds (other tenants of the
    machine), and wall-clock seconds with it.  Every ``PROBE_INTERVAL_S`` a
    timer signal runs :func:`_probe_kernel` on the pass's own thread and
    records how long it took, binned by whether the pass was in set-up or
    in replay.  A time measured in a bin is normalized to the reference host
    by ``REFERENCE_PROBE_S / mean(probe durations in the bin)``, after the
    probes' own time is taken out of it.  The probe is benchmark code, so a
    change to the program moves the normalized times exactly as it moves
    the raw ones.
    """

    def __init__(self, hooks: "CellHooks") -> None:
        self.hooks = hooks
        self.samples: Dict[str, List[float]] = {"setup": [], "replay": []}

    def _tick(self, signum: int, frame: Any) -> None:
        started = time.perf_counter()
        _probe_kernel()
        phase = "setup" if self.hooks.in_setup else "replay"
        self.samples[phase].append(time.perf_counter() - started)

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def normalized(self, phase: str, raw_s: float) -> float:
        """*raw_s* seconds of *phase*, without the probes, at reference speed."""
        samples = self.samples[phase] or self.samples["setup"] + self.samples["replay"]
        if not samples:
            return raw_s
        work = raw_s - sum(self.samples[phase])
        return work * REFERENCE_PROBE_S * len(samples) / sum(samples)


class CellHooks:
    """Once-per-cell bookkeeping shared by untraced and traced passes."""

    def __init__(self) -> None:
        self.setup_s = 0.0
        self._setup_depth = 0
        self.cells: List[Dict[str, Any]] = []
        self._deployments: List[Any] = []
        self._replays = 0
        self._skipped = 0
        self._warm_misses = 0

    @property
    def in_setup(self) -> bool:
        return self._setup_depth > 0

    def setup_timer(self, fn: Callable) -> Callable:
        generator = inspect.isgeneratorfunction(fn)

        @functools.wraps(fn)
        def timed(*args: Any, **kwargs: Any) -> Any:
            self._setup_depth += 1
            started = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return list(result) if generator else result
            finally:
                self._setup_depth -= 1
                if self._setup_depth == 0:
                    self.setup_s += time.perf_counter() - started

        return timed

    def capture_deployment(self, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def build(*args: Any, **kwargs: Any) -> Any:
            deployment = fn(*args, **kwargs)
            self._deployments.append(deployment)
            return deployment

        return build

    def tally_replay(self, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def replay_record(deployment: Any, record: Any) -> Any:
            outcome = fn(deployment, record)
            self._replays += 1
            self._skipped += outcome.skipped
            return outcome

        return replay_record

    def tally_warm_misses(self, fn: Callable) -> Callable:
        """Lookup-cache misses of the untimed warm-up, which never routes."""
        @functools.wraps(fn)
        def warm_access(harness: Any, user: str, *args: Any, **kwargs: Any) -> Any:
            client = harness.clients.get(user)
            before = client.lookup_cache.stats.misses if client is not None else 0
            fn(harness, user, *args, **kwargs)
            self._warm_misses += harness.clients[user].lookup_cache.stats.misses - before

        return warm_access

    def per_cell(self, fn: Callable) -> Callable:
        from workloads import cell_counts

        @functools.wraps(fn)
        def execute_cell(kind: str, params: Any) -> Any:
            self._deployments = []
            self._replays = self._skipped = self._warm_misses = 0
            result = fn(kind, params)
            self.cells.append({
                "params": dict(params),
                "counts": cell_counts(self._deployments),
                "replays": self._replays,
                "skipped": self._skipped,
                "warm_misses": self._warm_misses,
            })
            self._deployments = []  # let the cell's state go before the next
            return result

        return execute_cell


def main(argv: List[str]) -> int:
    workload, seed, profile, traced = argv[0], int(argv[1]), argv[2], argv[3] == "1"
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"onepass: no program source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    sys.path.insert(1, HERE)
    import importlib

    import repro

    if os.path.dirname(os.path.abspath(repro.__file__)) != os.path.join(SRC, "repro"):
        print(f"onepass: imported repro from {repro.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    for name in ENTRY_MODULES:
        importlib.import_module(name)
    from repro.obs.spans import sample_rate_from_env

    import layers
    import workloads

    hooks = CellHooks()
    for target in SETUP_CALLS:
        layers.patch(target, lambda fn, site: hooks.setup_timer(fn))
    layers.patch("repro.core.system:build_deployment",
                 lambda fn, site: hooks.capture_deployment(fn))
    layers.patch("repro.core.system:Deployment.replay_record",
                 lambda fn, site: hooks.tally_replay(fn))
    layers.patch("repro.analysis.performance:PerformanceHarness.warm_access",
                 lambda fn, site: hooks.tally_warm_misses(fn))
    layers.patch("repro.runner.executor:execute_cell",
                 lambda fn, site: hooks.per_cell(fn))

    clock = probe = None
    if traced:
        clock = layers.LayerClock()
        layers.install(clock)
    else:
        probe = HostProbe(hooks)

    size = workloads.SIZES[profile][workload]
    if probe is not None:
        probe.start()
    started = time.perf_counter()
    try:
        output = workloads.run(workload, size, seed)
    finally:
        wall = time.perf_counter() - started
        if probe is not None:
            probe.stop()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    summary = workloads.summarize(workload, size, seed, output, hooks.cells)
    totals: Dict[str, int] = {}
    for cell in hooks.cells:
        for key, value in cell["counts"].items():
            totals[key] = totals.get(key, 0) + value
    result = {
        "raw_wall_s": wall,
        "raw_setup_s": hooks.setup_s,
        "peak_rss_mb": peak_rss_mb,
        "trace_sample_rate": sample_rate_from_env(),
        "counts": totals,
        **summary,
    }
    if probe is not None:
        result["setup_s"] = probe.normalized("setup", hooks.setup_s)
        result["replay_s"] = probe.normalized("replay", wall - hooks.setup_s)
        result["probes"] = {phase: len(v) for phase, v in probe.samples.items()}
    if clock is not None:
        result["layers"] = layers.layer_metrics(clock, wall, totals)
        result["targets"] = clock.totals
        if workload == "paper-read":
            counted = clock.extra["route.perf_messages"]
            result["invariants"]["fig9_counted_routes_match"] = [
                counted == summary["fig9_messages"],
                f"{counted} route messages counted at the harness call site vs "
                f"{summary['fig9_messages']} lookup_messages",
            ]
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
