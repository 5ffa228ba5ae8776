"""The four benchmark workloads: what each runs, checks and reports.

Everything that touches ``repro`` is imported inside functions, so the
parent process (``run.py``) can read the workload table without loading
the program; only the per-pass child (``onepass.py``) imports it.

Each workload runs through the program's public experiment entry points,
which execute their cells serially through ``repro.runner``:

* ``paper-read``     -- ``run_fig9`` / ``run_fig10`` over the performance grid
* ``churn-repair``   -- ``run_churn_storm`` with one storm cell
* ``webcache-write`` -- ``summarize_fig17`` over ``webcache_balance_matrix``
* ``lookup-shift``   -- ``run_accel`` over ``accel_cells``

The benchmark seed is the only input a workload takes from outside; every
cell gets it as its ``seed`` parameter.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from typing import Any, Dict, List, Tuple

#: ``repro.experiments.common.SEED``: the seed the paper reproduction uses.
DEFAULT_SEED = 11

#: name -> why, in the order ``--workload all`` runs them.
WHY: Dict[str, str] = {
    "paper-read": "Figs 9-15 read path: FS image build, warmed lookup caches, "
                  "routing on misses, TCP transfers and default span tracing",
    "churn-repair": "write and failure path: join/leave/crash, replica repair, "
                    "health series and the event engine; no lookup cache or routing",
    "webcache-write": "Fig 17 insert/evict writes through key encoding, migration "
                      "and Karger-Ruhl balancing; no FS namespace, no lookup cache",
    "lookup-shift": "accel matrix: routes on every op (mode none), bounded-cache "
                    "eviction, adaptive sizing and the learned index",
}

#: Instance sizes.  ``full`` is what the benchmark measures; ``tiny`` keeps
#: every grid dimension but shrinks the sizes, for the smoke test.
SIZES: Dict[str, Dict[str, Dict[str, Any]]] = {
    "full": {
        "paper-read": {"users": 2, "days": 1.0, "node_sizes": (60, 120)},
        "churn-repair": {"users": 2, "days": 0.25, "n_nodes": 48},
        "webcache-write": {"days": 2.0, "n_nodes": 48},
        "lookup-shift": {"n_nodes": 64, "clients": 12, "pre_ops": 800,
                         "post_ops": 1200},
    },
    "tiny": {
        "paper-read": {"users": 2, "days": 0.6, "node_sizes": (12, 24)},
        "churn-repair": {"users": 1, "days": 0.05, "n_nodes": 12},
        "webcache-write": {"days": 0.25, "n_nodes": 12},
        "lookup-shift": {"n_nodes": 16, "clients": 4, "pre_ops": 120,
                         "post_ops": 180},
    },
}

#: Seconds budgeted for one instance of each workload; a run replays
#: ``--seconds`` / this many instances, rounded.
NOMINAL_PASS_S: Dict[str, Dict[str, float]] = {
    "full": {"paper-read": 3.5, "churn-repair": 4.0, "webcache-write": 4.5,
             "lookup-shift": 6.5},
    "tiny": {"paper-read": 1.0, "churn-repair": 1.0, "webcache-write": 1.0,
             "lookup-shift": 1.0},
}

PERF_SYSTEMS = ("d2", "traditional", "traditional-file")
PERF_MODES = ("seq",)
PERF_BANDWIDTH = 1500.0


def _perf_kwargs(size: Dict[str, Any], seed: int) -> Dict[str, Any]:
    return {
        "systems": PERF_SYSTEMS,
        "modes": PERF_MODES,
        "node_sizes": tuple(size["node_sizes"]),
        "bandwidths_kbps": (PERF_BANDWIDTH,),
        "users": size["users"],
        "days": size["days"],
        "seed": seed,
        "jobs": 1,
    }


def run(workload: str, size: Dict[str, Any], seed: int) -> Any:
    """The timed part of one pass: the workload's public entry points."""
    if workload == "paper-read":
        from repro.experiments.fig10_speedup import run_fig10
        from repro.experiments.fig9_lookup_traffic import run_fig9

        kwargs = _perf_kwargs(size, seed)
        return {"fig9": run_fig9(**kwargs), "fig10": run_fig10(**kwargs)}
    if workload == "churn-repair":
        from repro.experiments.churn_storm import run_churn_storm

        # No correlated outages: each crashes a fifth of the founding nodes
        # at once, and the repair backlog they pile up costs time quadratic
        # in its size, which made a pass vary 3x from seed to seed.
        return run_churn_storm(
            levels=("steady",), correlated=(0,), trials=1, users=size["users"],
            days=size["days"], n_nodes=size["n_nodes"], seed=seed, jobs=1,
        )
    if workload == "webcache-write":
        from repro.experiments.fig17_imbalance_webcache import summarize_fig17

        return summarize_fig17(
            n_nodes=size["n_nodes"], days=size["days"], seed=seed, jobs=1
        )
    if workload == "lookup-shift":
        from repro.experiments.accel_matrix import accel_cells, run_accel

        return run_accel(cells=accel_cells(seed=seed, **size), jobs=1)
    raise ValueError(f"unknown workload {workload!r}")


# ----------------------------------------------------------------------
# After the timed part: per-cell payloads, figure rows and model metrics.

def _digest(payload: Any) -> str:
    text = json.dumps(payload, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def cell_counts(deployments: List[Any]) -> Dict[str, int]:
    """The program's own work counters for one cell, summed over its deployments."""
    totals = {
        "sim_events": 0, "cache_probes": 0, "stale_faults": 0,
        "route_messages": 0, "block_ops": 0, "migrated_bytes": 0,
        "repair_jobs": 0, "repair_retries": 0, "repair_completed": 0,
        "learned_hits": 0, "learned_retrains": 0,
    }
    for deployment in deployments:
        registry = deployment.metrics

        def value(name: str) -> int:
            metric = registry.get(name)
            return int(metric.value) if metric is not None else 0

        routed = registry.get("lookup.route_messages")
        totals["sim_events"] += value("sim.events_fired")
        totals["cache_probes"] += value("lookup.hits") + value("lookup.misses")
        totals["stale_faults"] += value("lookup.stale_hits")
        totals["route_messages"] += value("accel.messages") + (
            int(routed.total) if routed is not None else 0
        )
        totals["block_ops"] += value("store.writes") + value("store.removes")
        totals["migrated_bytes"] += value("store.migrated_bytes")
        totals["learned_hits"] += value("dht.learned.hit")
        totals["learned_retrains"] += value("dht.learned.retrain")
        repair = getattr(deployment, "repair", None)
        if repair is not None:
            totals["repair_jobs"] += repair.stats.scheduled
            totals["repair_retries"] += repair.stats.retries
            totals["repair_completed"] += repair.stats.completed
    return totals


def summarize(workload: str, size: Dict[str, Any], seed: int, output: Any,
              cells: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Fingerprints, model metrics, invariants and op counts of one pass.

    *cells* holds, per executed cell in order, the cell ``params``, its
    ``counts`` (:func:`cell_counts`) and the ``replays``/``skipped`` tallies
    of ``Deployment.replay_record``.  Returns ``cells`` (label, fingerprint,
    ops, failed ops per cell), ``rows_fp``, ``sim`` (name -> [value, unit,
    better]), ``invariants`` (name -> [ok, detail]) and ``notes`` (lines).
    """
    if workload == "paper-read":
        return _summarize_paper_read(size, seed, output, cells)
    if workload == "churn-repair":
        return _summarize_churn(output, cells)
    if workload == "webcache-write":
        return _summarize_webcache(size, seed, output, cells)
    return _summarize_lookup_shift(output, cells)


def _cell_entry(label: str, payload: Any, cell: Dict[str, Any], ops: int,
                failed: int) -> Dict[str, Any]:
    return {
        "label": label,
        "fp": _digest({"cell": payload, "counts": cell["counts"]}),
        "ops": ops,
        "failed": failed,
    }


def _summarize_paper_read(size, seed, output, cells) -> Dict[str, Any]:
    from repro.experiments.perf_runs import performance_matrix

    matrix = performance_matrix(**_perf_kwargs(size, seed))  # memo hit
    entries, notes, invariants = [], [], {}
    decomposition_ok = True
    for cell in cells:
        p = cell["params"]
        result = matrix[(p["system"], p["mode"], p["n_nodes"], p["bandwidth_kbps"])]
        payload = {
            "lookup_messages": result.lookup_messages,
            "lookups": result.lookups,
            "cache_hits": result.cache_hits,
            "cache_misses": result.cache_misses,
            "per_user_miss_rate": result.per_user_miss_rate,
            "groups": [[t.user, t.start, t.fetches, t.completion]
                       for t in result.group_timings],
        }
        label = f"{p['system']}/{p['mode']}/n={p['n_nodes']}"
        # ops: every replayed record, plus every timed fetch the windows
        # issue (the costly, traced part of a read).
        entries.append(_cell_entry(label, payload, cell,
                                   cell["replays"] + result.lookups,
                                   cell["skipped"]))
        # Fig 9 decomposition: probes x routed/probes x messages/routed.  The
        # routed count comes from the lookup caches (timed misses plus stale
        # faults), the messages per route from the route histogram, so the
        # product equals lookup_messages only if every miss and every stale
        # fault routed exactly once.
        histogram = result.metrics["histograms"]["lookup.route_messages"]
        stale = int(result.metrics["counters"].get("lookup.stale_hits", 0))
        misses = result.cache_misses - cell["warm_misses"]
        routed = misses + stale
        probes = result.lookups
        miss_rate = Fraction(routed, probes) if probes else Fraction(0)
        routes = int(histogram["count"])
        per_route = Fraction(histogram["total"]) / routes if routes else Fraction(0)
        product = probes * miss_rate * per_route
        exact = product == result.lookup_messages
        decomposition_ok &= exact
        notes.append(
            f"fig9 {label}: {probes} probes x ({misses} misses + {stale} stale)"
            f"/{probes} x {float(per_route):.4f} msgs/route = {float(product):.0f}"
            f" {'==' if exact else '!='} lookup_messages {result.lookup_messages}"
        )
    invariants["fig9_decomposition_exact"] = [
        decomposition_ok,
        "probes x (misses + stale)/probes x msgs/route == lookup_messages",
    ]
    fig9, fig10 = output["fig9"], output["fig10"]
    top = max(size["node_sizes"])
    d2_msgs = next(row["msgs_per_node_d2"] for row in fig9
                   if row["mode"] == "seq" and row["n_nodes"] == top)
    speedup = next(row["speedup"] for row in fig10
                   if row["mode"] == "seq" and row["n_nodes"] == top)
    return {
        "cells": entries,
        "rows_fp": _digest({"fig9": fig9, "fig10": fig10}),
        "sim": {
            "sim_d2_msgs_per_node": [d2_msgs, "msgs/node", "lower"],
            "sim_d2_speedup": [speedup, "x", "higher"],
        },
        "invariants": invariants,
        "notes": notes,
        "fig9_messages": sum(
            matrix[(c["params"]["system"], c["params"]["mode"],
                    c["params"]["n_nodes"], c["params"]["bandwidth_kbps"])]
            .lookup_messages for c in cells
        ),
    }


def _summarize_churn(rows, cells) -> Dict[str, Any]:
    entries, invariants = [], {}
    for row, cell in zip(rows, cells):
        label = f"{row['level']}/correlated={row['correlated']}/trial={row['trial']}"
        drained = row["backlog_drained"] == 0
        failed = cell["skipped"] + int(row["lost_keys"])
        invariants[f"backlog_drained[{label}]"] = [
            drained, f"backlog_drained={row['backlog_drained']}"
        ]
        # The storm's repair copies are this workload's operations; the
        # trace records it replays number only a few hundred.
        ops = cell["replays"] + int(row["repair_scheduled"])
        if not drained:
            failed = ops
        entries.append(_cell_entry(label, row, cell, ops, failed))
    row = rows[0]
    return {
        "cells": entries,
        "rows_fp": _digest(rows),
        "sim": {
            "sim_loss_prob": [row["loss_prob"], "ratio", "lower"],
            "sim_fully_replicated": [row["fully_replicated"], "ratio", "higher"],
        },
        "invariants": invariants,
        "notes": [
            f"churn {row['joins']} joins, {row['leaves']} leaves, {row['crashes']} crashes;"
            f" {row['repair_scheduled']} repair jobs, backlog peak {row['backlog_peak']},"
            f" lost keys {row['lost_keys']}"
        ],
    }


def _summarize_webcache(size, seed, summary, cells) -> Dict[str, Any]:
    from repro.experiments.balance_runs import webcache_balance_matrix
    from repro.experiments.workload_cache import web_trace

    matrix = webcache_balance_matrix(n_nodes=size["n_nodes"], days=size["days"],
                                     seed=seed)  # memo hit
    records = len(web_trace(days=size["days"], seed=seed).records)
    entries = []
    for cell in cells:
        system = cell["params"]["system"]
        result = matrix[system]
        payload = {
            "samples": [[s.time, s.nsd, s.max_over_mean, s.total_bytes,
                         s.nodes_with_data] for s in result.samples],
            "daily_written": result.daily_written,
            "daily_removed": result.daily_removed,
            "daily_migrated": result.daily_migrated,
            "bytes_at_day_start": result.bytes_at_day_start,
            "moves": result.moves,
        }
        entries.append(_cell_entry(system, payload, cell, records, 0))
    d2 = matrix["d2"]
    table4 = {"overhead": d2.overhead_rows(),
              "migration_over_write": d2.migration_over_write()}
    d2_summary = next(row for row in summary if row["system"] == "d2")
    return {
        "cells": entries,
        "rows_fp": _digest({"fig17": summary, "table4": table4}),
        "sim": {
            "sim_d2_max_over_mean": [d2_summary["mean_max_over_mean"], "ratio", "lower"],
            "sim_d2_migrated_per_written": [d2.migration_over_write(), "ratio", "lower"],
        },
        "invariants": {},
        "notes": [
            f"webcache {row['system']}: mean nsd {row['mean_nsd']:.4f}, "
            f"mean max/mean {row['mean_max_over_mean']:.4f}, moves {row['moves']}"
            for row in summary
        ],
    }


def _summarize_lookup_shift(results, cells) -> Dict[str, Any]:
    entries, invariants = [], {}
    checksums: Dict[str, set] = {}
    for result, cell in zip(results, cells):
        checksums.setdefault(result.scenario, set()).add(result.checksum)
    for scenario, sums in sorted(checksums.items()):
        invariants[f"owner_checksum_agrees[{scenario}]"] = [
            len(sums) == 1, ",".join(sorted(sums))
        ]
    for result, cell in zip(results, cells):
        agree = len(checksums[result.scenario]) == 1
        entries.append(_cell_entry(
            f"{result.scenario}/{result.mode}", result.deterministic_row(), cell,
            result.lookups, 0 if agree else result.lookups,
        ))
    per_mode: Dict[str, List[int]] = {}
    for r in results:
        if r.mode != "none":
            tally = per_mode.setdefault(r.mode, [0, 0])
            tally[0] += r.messages
            tally[1] += r.lookups
    recovered = [r.hit_recovered for r in results if r.mode == "cache+adaptive"]
    return {
        "cells": entries,
        "rows_fp": _digest([r.deterministic_row() for r in results]),
        "sim": {
            "sim_msgs_per_lookup": [
                sum(msgs / lookups for msgs, lookups in per_mode.values()),
                "msgs/lookup", "lower",
            ],
            "sim_hit_recovered": [min(recovered) if recovered else 0.0,
                                  "ratio", "higher"],
        },
        "invariants": invariants,
        "notes": [
            f"accel {r.scenario}/{r.mode}: {r.messages} msgs over {r.lookups} lookups,"
            f" hit_recovered {r.hit_recovered:.4f}, checksum {r.checksum}"
            for r in results
        ],
    }


def ops_of(entries: List[Dict[str, Any]]) -> Tuple[int, int]:
    return sum(e["ops"] for e in entries), sum(e["failed"] for e in entries)
