"""The repo benchmark: paper-pipeline workloads, end-to-end and per-layer.

    python3 perfbench/run.py --workload paper-read [--seed 11] [--seconds S] [--trace 0]

A run replays K independent instances of one workload, each in a fresh
child process (``onepass.py``, nothing shared between passes), and reports
the median instance.  Instance i of seed s runs the program with seed
``s + 1000 * i``; K is ``--seconds`` over the workload's nominal pass time
(at least ``MIN_INSTANCES``), so a run measures about ``--seconds`` and the
same seed and seconds always give the same inputs.  Load model: a
closed-loop batch replay, one replay loop in one process, no worker pool.

``--trace 0`` reports the end-to-end metrics.  Their times are
host-normalized seconds: each pass samples the host's speed with a fixed
probe and scales its set-up and replay seconds to a reference speed (see
``onepass.HostProbe``); the raw wall-clock medians are printed beside them.  ``--trace 1`` runs pairs
of an untraced and a traced pass of instance 0, as many as fit in
``--seconds`` (at least one), and reports the per-layer metrics of the
median traced pass, the wrappers' overhead and the layer predictions.

Every pass is checked: its cell fingerprints must agree with every other
pass of the same instance and, for the default seed, with
``reference.json``, and the workload's invariants must hold.  A failed
check makes the run exit 1.  The last stdout line is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from layers import unit_of  # noqa: E402
from workloads import DEFAULT_SEED, NOMINAL_PASS_S, SIZES, WHY, ops_of  # noqa: E402

REFERENCE = os.path.join(HERE, "reference.json")
MIN_INSTANCES = 2
INSTANCE_STRIDE = 1000
#: A run starts no pass that could end after this many seconds.
RUN_BUDGET_S = 150.0
PASS_TIMEOUT_S = 170.0

#: (name, unit, better) of the end-to-end metrics of the result line.
#: Times are in host-normalized seconds (see ``onepass.HostProbe``).
#: ``wall_s`` is printed beside them but left out: it grows with the amount
#: of work a seed draws (a storm's crash count, a user's file system), so
#: across seeds it measures the input; ``setup_s`` plus the work-normalized
#: ``ops_per_s`` cover the same time.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("ops_per_s", "ops/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
)
#: Printed only: the raw wall-clock times the normalized ones come from.
PRINTED = (("wall_s", "s", "lower"),) + END_TO_END + (
    ("raw_wall_s", "s", "lower"),
    ("raw_setup_s", "s", "lower"),
    ("raw_ops_per_s", "ops/s", "higher"),
)


def pass_env() -> Tuple[Dict[str, str], List[str]]:
    """The pinned child environment and the ``REPRO_*`` names it cleared."""
    cleared = sorted(k for k in os.environ if k.startswith("REPRO_"))
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["REPRO_JOBS"] = "1"
    env.pop("PYTHONPATH", None)
    return env, cleared


def environment_record() -> Dict[str, Any]:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "commit": git_commit(),
    }


def git_commit() -> str:
    """HEAD of the checkout, or "unknown" if the checkout is not a git work tree."""
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"  # not the work tree's root: a parent's HEAD is not ours
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30, check=False)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def run_seconds() -> float:
    """``run_seconds`` of ``BENCHMARK.json``: the default length of a run."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return float(json.load(handle)["run_seconds"])


def run_pass(workload: str, seed: int, profile: str, traced: bool,
             env: Dict[str, str]) -> Dict[str, Any]:
    command = [sys.executable, os.path.join(HERE, "onepass.py"), workload,
               str(seed), profile, "1" if traced else "0"]
    proc = subprocess.run(command, env=env, cwd=ROOT, capture_output=True,
                          text=True, timeout=PASS_TIMEOUT_S, check=False)
    if proc.returncode != 0 or not proc.stdout.strip():
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"perfbench: {workload} pass failed (exit {proc.returncode})")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["seed"] = seed
    result["traced"] = traced
    return result


def instances(workload: str, profile: str, seconds: float) -> int:
    return max(MIN_INSTANCES, round(seconds / NOMINAL_PASS_S[profile][workload]))


def measure(workload: str, seed: int, profile: str, seconds: float, trace: bool,
            env: Dict[str, str]) -> List[dict]:
    """All passes of one run (see the module docstring)."""
    passes: List[dict] = []
    started = time.perf_counter()
    longest = 0.0
    if not trace:
        for i in range(instances(workload, profile, seconds)):
            if passes and time.perf_counter() - started + longest > RUN_BUDGET_S:
                print(f"perfbench: stopped after {i} instances to end within the "
                      f"run budget", file=sys.stderr)
                break
            began = time.perf_counter()
            passes.append(run_pass(workload, seed + INSTANCE_STRIDE * i, profile,
                                   False, env))
            longest = max(longest, time.perf_counter() - began)
        return passes
    while not passes or (time.perf_counter() - started + longest <= seconds):
        began = time.perf_counter()
        passes.append(run_pass(workload, seed, profile, False, env))
        passes.append(run_pass(workload, seed, profile, True, env))
        longest = max(longest, time.perf_counter() - began)
    return passes


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def load_reference() -> Dict[str, Any]:
    if not os.path.exists(REFERENCE):
        return {}
    with open(REFERENCE, encoding="utf-8") as handle:
        return json.load(handle)


def check(passes: List[dict],
          reference: Dict[str, Any]) -> Tuple[bool, int, int, List[str]]:
    """Correctness of a run: ``(correct, attempted, failed, problems)``.

    *reference* maps program seeds to their recorded fingerprints.
    """
    problems: List[str] = []
    attempted = failed = 0
    firsts: Dict[int, dict] = {}
    for p in passes:
        a, f = ops_of(p["cells"])
        attempted += a
        bad_cells = set()
        first = firsts.setdefault(p["seed"], p)
        for mine, theirs in zip(p["cells"], first["cells"]):
            if mine["fp"] != theirs["fp"]:
                bad_cells.add(mine["label"])
                problems.append(f"seed {p['seed']} cell {mine['label']} differs "
                                f"between passes")
        if p["rows_fp"] != first["rows_fp"] or p["sim"] != first["sim"]:
            problems.append(f"seed {p['seed']} figure rows differ between passes")
        expected = reference.get(str(p["seed"]))
        if expected is not None:
            for cell in p["cells"]:
                if expected["cells"].get(cell["label"]) != cell["fp"]:
                    bad_cells.add(cell["label"])
                    problems.append(
                        f"seed {p['seed']} cell {cell['label']} fingerprint {cell['fp']}"
                        f" != reference {expected['cells'].get(cell['label'])}")
            if expected["rows_fp"] != p["rows_fp"]:
                problems.append(f"seed {p['seed']} figure rows differ from the reference")
        for name, (ok, detail) in sorted(p["invariants"].items()):
            if not ok:
                problems.append(f"seed {p['seed']} invariant {name} failed: {detail}")
        failed += f + sum(c["ops"] - c["failed"] for c in p["cells"]
                          if c["label"] in bad_cells)
    return not problems, attempted, failed, sorted(set(problems))


def record_reference(workload: str, profile: str, passes: List[dict]) -> None:
    reference = load_reference()
    recorded = reference.setdefault(profile, {}).setdefault(workload, {})
    for p in passes:
        recorded[str(p["seed"])] = {
            "cells": {c["label"]: c["fp"] for c in p["cells"]},
            "rows_fp": p["rows_fp"],
            "sim": p["sim"],
        }
    with open(REFERENCE, "w", encoding="utf-8") as handle:
        json.dump(reference, handle, indent=1, sort_keys=True)
        handle.write("\n")


def end_to_end(passes: List[dict]) -> Dict[str, List[float]]:
    series: Dict[str, List[float]] = {name: [] for name, _, _ in PRINTED}
    for p in passes:
        ops, _ = ops_of(p["cells"])
        series["wall_s"].append(p["setup_s"] + p["replay_s"])
        series["setup_s"].append(p["setup_s"])
        series["ops_per_s"].append(ops / p["replay_s"])
        series["peak_rss_mb"].append(p["peak_rss_mb"])
        series["raw_wall_s"].append(p["raw_wall_s"])
        series["raw_setup_s"].append(p["raw_setup_s"])
        series["raw_ops_per_s"].append(ops / (p["raw_wall_s"] - p["raw_setup_s"]))
    return series


def median_pass(passes: List[dict]) -> dict:
    ordered = sorted(passes, key=lambda p: p["raw_wall_s"])
    return ordered[(len(ordered) - 1) // 2]


# ----------------------------------------------------------------------
# Layer predictions that one traced run can check (the rest of the
# layer -> end-to-end table in README.md needs a before/after pair).

def predictions(workload: str, layers: Dict[str, float],
                targets: Dict[str, List[float]]) -> List[Tuple[str, bool]]:
    def calls(target: str) -> float:
        return targets[target][0]

    shares = sorted(((layers[k], k[:-len(".self_share")]) for k in layers
                     if k.endswith(".self_share")), reverse=True)
    rank = {name: i for i, (_, name) in enumerate(shares)}
    out: List[Tuple[str, bool]] = []
    if workload in ("churn-repair", "webcache-write"):
        for target in ("repro.core.lookup_cache:LookupCache.probe",
                       "repro.dht.routing:route",
                       "repro.sim.transport:TcpTransport.transfer"):
            out.append((f"{target.split(':')[1]} has 0 calls", calls(target) == 0))
    if workload != "churn-repair":
        out.append(("store.repair has 0 calls (churn-repair only)",
                    layers["store.repair.calls"] == 0))
    if workload != "lookup-shift":
        out.append(("dht.learned has 0 calls (lookup-shift only)",
                    layers["dht.learned.calls"] == 0))
    if workload == "webcache-write":
        out.append(("obs.spans is a small share (< 5%)",
                    layers["obs.spans.self_share"] < 0.05))
    if workload == "lookup-shift":
        out.append(("obs.spans is among the 3 largest layers",
                    rank["obs.spans"] < 3))
    if workload == "churn-repair":
        out.append(("store.repair is the largest layer", rank["store.repair"] == 0))
    return out


def report_workload(workload: str, seed: int, profile: str, seconds: float,
                    trace: bool, record: bool, env: Dict[str, str],
                    cleared: List[str]) -> Tuple[bool, int, int, Dict[str, Any]]:
    passes = measure(workload, seed, profile, seconds, trace, env)
    reference: Dict[str, Any] = {}
    if seed == DEFAULT_SEED and not record:
        reference = load_reference().get(profile, {}).get(workload, {})
    correct, attempted, failed, problems = check(passes, reference)
    plain = [p for p in passes if not p["traced"]]
    first = passes[0]
    record_env = environment_record()
    record_env.update(trace_sample_rate=first["trace_sample_rate"],
                      cleared_env=cleared, seed=seed, profile=profile,
                      program_seeds=sorted({p["seed"] for p in passes}),
                      passes=len(plain), traced_passes=len(passes) - len(plain))
    print(f"== {workload}: {WHY[workload]}")
    print("env " + json.dumps(record_env, sort_keys=True))
    for line in first["notes"]:
        print(f"  [seed {first['seed']}] {line}")
    invariants: Dict[str, Any] = {}
    for p in passes:
        if p["seed"] == first["seed"]:
            invariants.update(p["invariants"])
    for name, (ok, detail) in sorted(invariants.items()):
        print(f"  [seed {first['seed']}] invariant {name}: "
              f"{'ok' if ok else 'FAILED'} ({detail})")
    for problem in problems:
        print("  CHECK FAILED: " + problem)
    series = end_to_end(plain)
    print(f"  end-to-end, median [q1, q3] over {len(plain)} untraced passes; "
          f"ops = {attempted}, failed = {failed} (all passes):")
    metrics: Dict[str, Any] = {}
    for name, unit, better in PRINTED:
        q1, med, q3 = quartiles(series[name])
        print(f"    {name:<12} {med:12.4f} {unit:<6} [{q1:.4f}, {q3:.4f}] "
              f"({better} is better)")
        if (name, unit, better) in END_TO_END:
            metrics[name] = {"value": med, "unit": unit}
    print(f"    {'fail_ratio':<12} {failed / attempted:12.6f} {'ratio':<6} "
          f"(lower is better)")
    for name, (value, unit, better) in sorted(first["sim"].items()):
        print(f"    {name:<28} {value:.6g} {unit} ({better} is better; "
              f"seed {first['seed']})")
    if trace:
        metrics = report_layers(workload, passes)
    if record:
        if seed != DEFAULT_SEED or problems:
            raise SystemExit("perfbench: reference not recorded (seed or checks)")
        record_reference(workload, profile, passes)
        print(f"  recorded reference for {workload} ({profile})")
    return correct, attempted, failed, metrics


def report_layers(workload: str, passes: List[dict]) -> Dict[str, Any]:
    traced = [p for p in passes if p["traced"]]
    untraced = statistics.median(p["raw_wall_s"] for p in passes if not p["traced"])
    chosen = median_pass(traced)
    layers = dict(chosen["layers"])
    wall = layers["traced_wall_s"]
    layers["trace_overhead_s"] = (statistics.median(p["raw_wall_s"] for p in traced)
                                  - untraced)
    print(f"  per-layer, traced pass of {wall:.3f} s (median of {len(traced)}); "
          f"untraced median {untraced:.3f} s; wrapper overhead "
          f"{layers['trace_overhead_s']:.3f} s:")
    share_sum = 0.0
    for key in sorted(k for k in layers if k.endswith(".self_s")):
        layer = key[:-len(".self_s")]
        share = layers[layer + ".self_share"]
        share_sum += share
        print(f"    {layer:<20} calls {int(layers[layer + '.calls']):>10}  "
              f"self {layers[key]:9.4f} s  {100 * share:6.2f}%")
    unattributed = layers["unattributed_s"] / wall
    print(f"    {'unattributed':<20} {'':>16}  self {layers['unattributed_s']:9.4f} s"
          f"  {100 * unattributed:6.2f}%")
    total = share_sum + unattributed
    self_sum = sum(layers[k] for k in layers if k.endswith(".self_s"))
    outer = layers.pop("outer_s")
    sane = (abs(outer - self_sum) <= 1e-6 * max(1.0, outer) and outer <= wall
            and layers["unattributed_s"] >= 0.0)
    print(f"    attribution: outermost wrapped calls {outer:.6f} s, sum of self times "
          f"{self_sum:.6f} s, traced wall {wall:.6f} s; layer shares + unattributed "
          f"= {100 * total:.6f}% ({'ok' if sane else 'FAILED'})")
    if not sane:
        raise SystemExit("perfbench: layer attribution does not add up")
    for key in sorted(k for k in layers
                      if not k.endswith((".self_s", ".self_share", ".calls"))):
        print(f"    {key:<40} {layers[key]:.6g} {unit_of(key)}")
    for text, ok in predictions(workload, layers, chosen["targets"]):
        print(f"    prediction {'held' if ok else 'FAILED'}: {text}")
    # Self time goes out as a share of the traced wall: a layer a workload
    # never calls has a self time of exactly 0 s on every run.
    return {key: {"value": value, "unit": unit_of(key)}
            for key, value in sorted(layers.items()) if not key.endswith(".self_s")}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=["all", *WHY])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--profile", choices=sorted(SIZES), default="full",
                        help="grid sizes; 'tiny' is for the smoke test")
    parser.add_argument("--record-reference", action="store_true",
                        help="write this run's fingerprints to reference.json "
                             "(default seed only)")
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"perfbench: no program source under {ROOT}/src", file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = run_seconds()
    env, cleared = pass_env()
    names = list(WHY) if args.workload == "all" else [args.workload]
    all_correct, attempted, failed, metrics = True, 0, 0, {}
    for name in names:
        correct, a, f, m = report_workload(
            name, args.seed, args.profile, args.seconds, bool(args.trace),
            args.record_reference, env, cleared,
        )
        all_correct &= correct
        attempted += a
        failed += f
        if len(names) == 1:
            metrics = m
        else:
            metrics.update({f"{name}/{k}": v for k, v in m.items()})
    print(json.dumps({"correct": all_correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
