"""Per-layer attribution from outside the program: self-time timers and counters.

The traced pass wraps the public entry points of each layer (plus the
private methods the event engine calls back into directly, so that time is
not charged to ``sim.engine``) in a ``perf_counter`` timer and a call
counter.  A wrapper is installed wherever a caller looks the name up: on the
class for methods (and on every subclass that overrides them), and in every
loaded ``repro`` module namespace that holds the function object for module
functions.  So ``repro.analysis.performance.route`` is timed as well as
``repro.dht.routing.route``, and ``src/`` is never edited.

Self time: each wrapper pushes a child-time accumulator on one shared stack;
on return it charges ``elapsed - children`` to its layer and adds
``elapsed`` to its caller's accumulator.  An outermost call (empty stack
on return) also adds ``elapsed`` to ``outer_s``, which must equal the sum of
all self times.  Time spent outside every wrapped call is
``unattributed_s``.  Nothing here is imported by an untraced pass.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

#: layer -> wrapped targets, ``"module:function"`` or ``"module:Class.method"``.
#: A method target also covers each subclass that overrides the method.
LAYERS: Dict[str, Tuple[str, ...]] = {
    "core.keys": (
        "repro.core.keys:encode_path_key",
        # what the file_key_maker closures call per block
        "repro.core.keys:compose_block_key",
        "repro.core.keys:version_hash",
        "repro.dht.consistent_hashing:hashed_key",
        "repro.fs.keyschemes:storage_identity",
        "repro.fs.keyschemes:KeyScheme.file_key_maker",
        "repro.fs.keyschemes:KeyScheme.file_block_key",
        "repro.fs.keyschemes:KeyScheme.directory_block_key",
    ),
    "fs.fslayer": (
        "repro.fs.fslayer:DhtFileSystem.create",
        "repro.fs.fslayer:DhtFileSystem.write",
        "repro.fs.fslayer:DhtFileSystem.remove",
        "repro.fs.fslayer:DhtFileSystem.makedirs",
        "repro.fs.fslayer:DhtFileSystem.rename",
        "repro.fs.fslayer:apply_ops",
    ),
    "store.migration": (
        "repro.store.migration:StorageCoordinator.write",
        "repro.store.migration:StorageCoordinator.remove",
        "repro.store.migration:StorageCoordinator.execute_move",
        "repro.store.migration:StorageCoordinator.flush_all_pointers",
        # event-engine callbacks
        "repro.store.migration:StorageCoordinator._expire",
        "repro.store.migration:StorageCoordinator._stabilize",
    ),
    "dht.ring": (
        "repro.dht.ring:Ring.successor",
        "repro.dht.ring:Ring.successors",
        "repro.dht.ring:Ring.range_of",
    ),
    "dht.routing": (
        "repro.dht.routing:route",
        "repro.dht.routing:route_many",
    ),
    "dht.load_balance": (
        "repro.dht.load_balance:KargerRuhlBalancer.probe",
        "repro.dht.load_balance:KargerRuhlBalancer.probe_round",
        "repro.dht.load_balance:KargerRuhlBalancer.balance_until_stable",
    ),
    "store.repair": (
        "repro.store.repair:RepairScheduler.reconcile",
        "repro.store.repair:RepairScheduler.reconcile_range",
        "repro.store.repair:RepairScheduler.on_node_crashed",
        "repro.store.repair:RepairScheduler.on_node_left",
        "repro.store.repair:RepairScheduler.on_node_joined",
        # event-engine callbacks
        "repro.store.repair:RepairScheduler._finish",
        "repro.store.repair:RepairScheduler._relaunch",
        "repro.dht.membership:MembershipService.join",
        "repro.dht.membership:MembershipService.leave",
        "repro.dht.membership:MembershipService.crash",
    ),
    "core.lookup_cache": (
        "repro.core.lookup_cache:LookupCache.probe",
        "repro.core.lookup_cache:LookupCache.insert",
        "repro.core.lookup_cache:LookupCache.invalidate",
    ),
    "dht.learned": (
        "repro.dht.learned:LearnedIndex.predict",
        "repro.dht.learned:LearnedIndex.observe",
        "repro.dht.learned:LearnedIndex.lookup",
        "repro.core.accel:LookupAccelerator.lookup",
    ),
    "sim.engine": (
        "repro.sim.engine:Simulator.run",
        "repro.sim.engine:Simulator.schedule",
        "repro.sim.engine:Simulator.schedule_batch",
    ),
    "sim.transport": (
        "repro.sim.transport:TcpTransport.transfer",
        "repro.sim.engine:TokenBucket.reserve",
        "repro.sim.network:LatencyModel.rtt",
        "repro.sim.network:LatencyModel.one_way",
        "repro.sim.network:LatencyModel.path_latency",
    ),
    "obs.spans": (
        "repro.obs.spans:Tracer.start_trace",
        "repro.obs.spans:Tracer.start_span",
        "repro.obs.spans:Tracer.finish",
    ),
    "obs.timeseries": (
        "repro.obs.timeseries:TimeSeries.sample",
        "repro.obs.health:HealthMonitor.sample",
    ),
    "obs.metrics": (
        "repro.obs.metrics:Counter.inc",
        "repro.obs.metrics:Histogram.observe",
        "repro.obs.events:EventTracer.emit",
    ),
    "workloads": (
        "repro.workloads.harvard:generate_harvard",
        "repro.workloads.web:generate_web",
        "repro.workloads.scale:replicate_filesystem",
        "repro.workloads.shift:shift_stream",
        "repro.workloads.tasks:segment_access_groups",
    ),
}


class LayerClock:
    """Shared self-time stack plus per-target counters for one traced pass."""

    def __init__(self) -> None:
        self.stack: List[float] = []
        #: elapsed time of the outermost wrapped calls
        self.outer_s = 0.0
        #: target -> [calls, self seconds]
        self.totals: Dict[str, List[float]] = {}
        #: extra counts gathered from arguments and return values
        self.extra: Dict[str, float] = {
            "fs.block_ops": 0,
            "route.calls": 0,
            "route.hops": 0,
            "route.perf_messages": 0,
            "balance.moves": 0,
            "cache.probes": 0,
            "cache.probe_hits": 0,
            "cache.entries_at_probe": 0,
            "transport.transfers": 0,
            "transport.warm": 0,
        }


def _timed(fn: Callable, cell: List[float], clock: LayerClock,
           observe: Optional[Callable[..., None]], consume: bool) -> Callable:
    stack = clock.stack
    now = time.perf_counter

    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        cell[0] += 1
        stack.append(0.0)
        started = now()
        try:
            result = fn(*args, **kwargs)
            if consume:
                result = list(result)
        finally:
            elapsed = now() - started
            cell[1] += elapsed - stack.pop()
            if stack:
                stack[-1] += elapsed
            else:
                clock.outer_s += elapsed
        if observe is not None:
            observe(args, result)
        return result

    return wrapper


def _observers(clock: LayerClock) -> Dict[str, Callable[..., None]]:
    extra = clock.extra

    def block_ops(args, result) -> None:
        ops = args[1]
        if hasattr(ops, "__len__"):
            extra["fs.block_ops"] += len(ops)

    def routed(results) -> None:
        for res in results:
            extra["route.calls"] += 1
            extra["route.hops"] += res.hops

    def probe(args, result) -> None:
        extra["balance.moves"] += result is not None

    def cache_probe(args, result) -> None:
        extra["cache.probes"] += 1
        extra["cache.probe_hits"] += result is not None

    def transfer(args, result) -> None:
        extra["transport.transfers"] += 1
        extra["transport.warm"] += not result.restarted

    return {
        "repro.fs.fslayer:apply_ops": block_ops,
        "repro.dht.routing:route": lambda args, result: routed((result,)),
        "repro.dht.routing:route_many": lambda args, result: routed(result),
        "repro.dht.load_balance:KargerRuhlBalancer.probe": probe,
        "repro.core.lookup_cache:LookupCache.probe": cache_probe,
        "repro.sim.transport:TcpTransport.transfer": transfer,
    }


def _entries_before_probe(clock: LayerClock, fn: Callable) -> Callable:
    """Inner wrapper: scan length of ``LookupCache._find`` at each probe."""
    extra = clock.extra

    @functools.wraps(fn)
    def probe(self, *args: Any, **kwargs: Any) -> Any:
        extra["cache.entries_at_probe"] += len(self)
        return fn(self, *args, **kwargs)

    return probe


def _perf_route(clock: LayerClock, fn: Callable) -> Callable:
    """Inner wrapper for the Fig 9 call site: routes billed by the read harness."""
    extra = clock.extra

    @functools.wraps(fn)
    def route(*args: Any, **kwargs: Any) -> Any:
        result = fn(*args, **kwargs)
        extra["route.perf_messages"] += result.messages
        return result

    return route


def patch(target: str, make: Callable[[Callable, Any], Callable]) -> None:
    """Replace *target* wherever a caller looks it up with ``make(fn, site)``.

    A method is replaced on its class and on every subclass that overrides
    it (*site* is the class); a module function in every loaded ``repro``
    module that holds it (*site* is the module).  *fn* is what the site
    held, so patches stack.
    """
    module_name, qualname = target.split(":")
    module = importlib.import_module(module_name)
    if "." in qualname:
        class_name, method = qualname.split(".")
        for cls in _class_and_subclasses(getattr(module, class_name)):
            raw = cls.__dict__.get(method)
            if raw is None:
                continue
            kind = type(raw) if isinstance(raw, (staticmethod, classmethod)) else None
            wrapped = make(raw.__func__ if kind else raw, cls)
            setattr(cls, method, kind(wrapped) if kind else wrapped)
        return
    base = inspect.unwrap(getattr(module, qualname))
    for name, site in sorted(sys.modules.items()):
        if site is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for attr, value in list(vars(site).items()):
            # An earlier patch may have wrapped the function at this site.
            if value is base or (hasattr(value, "__wrapped__")
                                 and inspect.unwrap(value) is base):
                setattr(site, attr, make(value, site))


def install(clock: LayerClock) -> None:
    """Wrap every target of :data:`LAYERS` in a self-time timer."""
    observers = _observers(clock)
    for targets in LAYERS.values():
        for target in targets:
            cell = clock.totals.setdefault(target, [0, 0.0])
            observe = observers.get(target)

            def make(fn: Callable, site: Any, target: str = target,
                     cell: List[float] = cell, observe: Any = observe) -> Callable:
                if target == "repro.core.lookup_cache:LookupCache.probe":
                    fn = _entries_before_probe(clock, fn)
                elif target == "repro.dht.routing:route" and \
                        getattr(site, "__name__", "") == "repro.analysis.performance":
                    fn = _perf_route(clock, fn)
                return _timed(fn, cell, clock, observe, inspect.isgeneratorfunction(fn))

            patch(target, make)


def _class_and_subclasses(cls: type) -> List[type]:
    seen: List[type] = []
    todo = [cls]
    while todo:
        current = todo.pop()
        if current not in seen:
            seen.append(current)
            todo.extend(current.__subclasses__())
    return seen


#: Units of the per-layer metrics that are not ``<layer>.calls`` (count) or
#: seconds (``*_s``).
UNITS = {
    "fs.block_ops": "count",
    "store.puts": "count",
    "store.moves": "count",
    "dht.routing.hops_per_route": "hops",
    "dht.load_balance.moves_per_probe": "ratio",
    "store.repair.jobs": "count",
    "store.repair.retries": "count",
    "store.repair.completed_per_job": "ratio",
    "core.lookup_cache.hit_ratio": "ratio",
    "core.lookup_cache.stale_faults": "count",
    "core.lookup_cache.mean_entries_at_probe": "entries",
    "dht.learned.hit_ratio": "ratio",
    "dht.learned.retrains": "count",
    "sim.engine.events_fired": "count",
    "sim.engine.us_per_event": "us",
    "sim.transport.warm_fraction": "ratio",
    "obs.spans.spans": "count",
}


def unit_of(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    if name.endswith(".calls"):
        return "count"
    return "ratio" if name.endswith(".self_share") else "s"


def layer_metrics(clock: LayerClock, wall: float,
                  counts: Dict[str, int]) -> Dict[str, float]:
    """Per-layer ``calls``/``self_s`` plus the extra ratios of the layer table.

    *counts* are the program's own counters summed over the pass's cells
    (see ``workloads.cell_counts``).
    """
    out: Dict[str, float] = {}
    attributed = 0.0
    for layer, targets in LAYERS.items():
        calls = sum(clock.totals[t][0] for t in targets)
        self_s = sum(clock.totals[t][1] for t in targets)
        attributed += self_s
        out[f"{layer}.calls"] = calls
        out[f"{layer}.self_s"] = self_s
        out[f"{layer}.self_share"] = self_s / wall
    x = clock.extra
    totals = clock.totals

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    out["fs.block_ops"] = x["fs.block_ops"]
    out["store.puts"] = totals["repro.store.migration:StorageCoordinator.write"][0]
    out["store.moves"] = totals["repro.store.migration:StorageCoordinator.execute_move"][0]
    out["dht.routing.hops_per_route"] = ratio(x["route.hops"], x["route.calls"])
    out["dht.load_balance.moves_per_probe"] = ratio(
        x["balance.moves"],
        totals["repro.dht.load_balance:KargerRuhlBalancer.probe"][0],
    )
    out["store.repair.jobs"] = counts["repair_jobs"]
    out["store.repair.retries"] = counts["repair_retries"]
    out["store.repair.completed_per_job"] = ratio(
        counts["repair_completed"], counts["repair_jobs"]
    )
    out["core.lookup_cache.hit_ratio"] = ratio(x["cache.probe_hits"], x["cache.probes"])
    out["core.lookup_cache.stale_faults"] = counts["stale_faults"]
    out["core.lookup_cache.mean_entries_at_probe"] = ratio(
        x["cache.entries_at_probe"], x["cache.probes"]
    )
    out["dht.learned.hit_ratio"] = ratio(
        counts["learned_hits"],
        totals["repro.dht.learned:LearnedIndex.lookup"][0],
    )
    out["dht.learned.retrains"] = counts["learned_retrains"]
    out["sim.engine.events_fired"] = counts["sim_events"]
    out["sim.engine.us_per_event"] = 1e6 * ratio(
        out["sim.engine.self_s"], counts["sim_events"]
    )
    out["sim.transport.warm_fraction"] = ratio(
        x["transport.warm"], x["transport.transfers"]
    )
    out["obs.spans.spans"] = (
        totals["repro.obs.spans:Tracer.start_trace"][0]
        + totals["repro.obs.spans:Tracer.start_span"][0]
    )
    out["traced_wall_s"] = wall
    out["outer_s"] = clock.outer_s
    out["unattributed_s"] = wall - attributed
    return out
