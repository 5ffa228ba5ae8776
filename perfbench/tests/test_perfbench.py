"""Smoke tests of the benchmark command on the tiny grid.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
WORKLOADS = ("paper-read", "churn-repair", "webcache-write", "lookup-shift")
sys.path.insert(0, BENCH)

import onepass  # noqa: E402


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def _run(*args, root=ROOT):
    command = [sys.executable, os.path.join(root, "perfbench", "run.py"),
               "--profile", "tiny", "--seconds", "0", *args]
    return subprocess.run(command, cwd=root, capture_output=True, text=True,
                          timeout=600, check=False)


def _last_json(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


def test_every_workload_prints_every_end_to_end_metric():
    proc = _run("--workload", "all")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = _last_json(proc.stdout)
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True
    assert result["attempted"] > 0
    for workload in WORKLOADS:
        assert f"== {workload}:" in proc.stdout
        for metric in _spec()["end_to_end"]:
            entry = result["metrics"][f"{workload}/{metric['name']}"]
            assert entry["unit"] == metric["unit"]
            assert entry["value"] > 0
    assert "fig9 d2/seq/n=24" in proc.stdout
    assert "invariant owner_checksum_agrees[churn]: ok" in proc.stdout


def test_traced_run_reports_every_layer_and_adds_up():
    proc = _run("--workload", "churn-repair", "--trace", "1")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    metrics = _last_json(proc.stdout)["metrics"]
    assert sorted(metrics) == sorted(m["name"] for m in _spec()["per_layer"])
    attribution = next(line for line in proc.stdout.splitlines()
                       if "attribution:" in line)
    assert attribution.endswith("(ok)"), attribution
    assert metrics["core.lookup_cache.calls"]["value"] == 0
    assert metrics["store.repair.calls"]["value"] > 0
    assert "prediction held: LookupCache.probe has 0 calls" in proc.stdout


def test_probe_normalizes_each_phase_to_the_reference_speed():
    ref = onepass.REFERENCE_PROBE_S
    probe = onepass.HostProbe(hooks=None)
    # set-up ran at half the reference speed, replay at the reference speed
    probe.samples = {"setup": [2 * ref, 2 * ref], "replay": [ref]}
    assert probe.normalized("setup", 1.0 + 4 * ref) == pytest.approx(0.5)
    assert probe.normalized("replay", 2.0 + ref) == pytest.approx(2.0)
    # a phase without probes borrows the speed of the whole pass
    probe.samples = {"setup": [], "replay": [2 * ref]}
    assert probe.normalized("setup", 1.0) == pytest.approx(0.5)


def _copy_benchmark(tmp_path, with_source):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    if with_source:
        os.symlink(os.path.join(ROOT, "src"), tmp_path / "src")
    return str(tmp_path)


def test_fingerprint_mismatch_fails_the_run(tmp_path):
    root = _copy_benchmark(tmp_path, with_source=True)
    path = os.path.join(root, "perfbench", "reference.json")
    with open(path, encoding="utf-8") as handle:
        reference = json.load(handle)
    cells = reference["tiny"]["webcache-write"]["11"]["cells"]
    cells["d2"] = "0" * 16
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(reference, handle)
    proc = _run("--workload", "webcache-write", root=root)
    assert proc.returncode == 1
    result = _last_json(proc.stdout)
    assert result["correct"] is False
    assert 0 < result["failed"] < result["attempted"]
    assert "cell d2 fingerprint" in proc.stdout


def test_without_the_program_it_fails_without_a_result(tmp_path):
    root = _copy_benchmark(tmp_path, with_source=False)
    proc = _run("--workload", "webcache-write", root=root)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
