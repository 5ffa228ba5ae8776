"""Tests for the parallel grid runner, its disk cache, and the memo knobs."""

import json
import os
import pickle

import pytest

from repro.experiments import common
from repro.experiments.perf_runs import emit_performance_metrics, performance_matrix
from repro.runner import (
    CACHE_ENV,
    JOBS_ENV,
    RunCache,
    SCHEMA_VERSION,
    cache_key,
    cell_kind,
    execute_cell,
    last_stats,
    resolve_jobs,
    run_cells,
)

# A 2-cell performance grid small enough for tests but large enough to
# exercise real simulation (trace replay, metrics snapshots, pickling).
TINY_GRID = dict(
    systems=("d2",),
    modes=("seq", "para"),
    node_sizes=(12,),
    bandwidths_kbps=(1500.0,),
    users=2,
    days=0.25,
    n_windows=1,
    seed=5,
)

TINY_CELL = {
    "system": "d2",
    "mode": "seq",
    "n_nodes": 12,
    "bandwidth_kbps": 1500.0,
    "users": 2,
    "days": 0.25,
    "n_windows": 1,
    "scale_with_size": True,
    "base_size": 12,
    "seed": 5,
}


class FakeResult:
    """Picklable stand-in for a run result carrying a metrics snapshot."""

    def __init__(self, value, events=0):
        self.value = value
        self.metrics = {"counters": {"sim.events_fired": events}, "gauges": {}}

    def __eq__(self, other):
        return isinstance(other, FakeResult) and self.value == other.value


@cell_kind("test-echo")
def _echo_cell(params):
    return FakeResult(params["x"] * 2, events=params.get("events", 0))


@pytest.fixture(autouse=True)
def clean_runner_env(monkeypatch):
    """Isolate each test from the process memo and the runner env knobs."""
    common.clear_cache()
    for var in (CACHE_ENV, JOBS_ENV, common.MEMO_DISABLE_ENV, common.MEMO_MAX_ENV):
        monkeypatch.delenv(var, raising=False)
    yield
    common.clear_cache()


class TestCacheKey:
    def test_order_independent(self):
        assert cache_key("k", {"a": 1, "b": 2}) == cache_key("k", {"b": 2, "a": 1})

    def test_sensitive_to_params_and_kind(self):
        base = cache_key("k", {"a": 1})
        assert cache_key("k", {"a": 2}) != base
        assert cache_key("other", {"a": 1}) != base

    def test_stable_across_calls(self):
        assert cache_key("k", dict(TINY_CELL)) == cache_key("k", dict(TINY_CELL))

    def test_default_env_matches_legacy_scheme(self, monkeypatch):
        # Byte-identity guard: with no ambient vars set, keys must equal the
        # pre-fingerprint formula, so existing on-disk caches stay warm.
        import hashlib

        from repro.runner.cache import AMBIENT_ENV_KEYS

        for name in AMBIENT_ENV_KEYS:
            monkeypatch.delenv(name, raising=False)
        params = dict(TINY_CELL)
        legacy = hashlib.sha256(
            repr((SCHEMA_VERSION, "k", tuple(sorted(params.items())))).encode("utf-8")
        ).hexdigest()
        assert cache_key("k", params) == legacy

    def test_ambient_env_changes_key(self, monkeypatch):
        monkeypatch.delenv("REPRO_TRACE_SAMPLE", raising=False)
        base = cache_key("k", dict(TINY_CELL))
        monkeypatch.setenv("REPRO_TRACE_SAMPLE", "0.5")
        assert cache_key("k", dict(TINY_CELL)) != base
        # Empty string counts as unset: same bytes as the default key.
        monkeypatch.setenv("REPRO_TRACE_SAMPLE", "")
        assert cache_key("k", dict(TINY_CELL)) == base

    @pytest.mark.parametrize("raw", ["1", "1.0", "7", "junk"])
    def test_default_rate_spellings_share_legacy_key(self, monkeypatch, raw):
        # Every spelling the tracer reads as the default rate does the same
        # work, so it must hit the same (legacy) entry as an unset variable.
        monkeypatch.delenv("REPRO_TRACE_SAMPLE", raising=False)
        base = cache_key("k", dict(TINY_CELL))
        monkeypatch.setenv("REPRO_TRACE_SAMPLE", raw)
        assert cache_key("k", dict(TINY_CELL)) == base

    def test_key_hashes_effective_rate(self, monkeypatch):
        def key_for(raw):
            monkeypatch.setenv("REPRO_TRACE_SAMPLE", raw)
            return cache_key("k", dict(TINY_CELL))

        assert key_for("0") == key_for("-1") == key_for("0.0")  # all clamp to 0
        assert key_for("0.5") == key_for(" 0.50 ")
        assert len({key_for("0"), key_for("0.5"), key_for("1")}) == 3


class TestRunCache:
    def test_disabled_without_env(self):
        cache = RunCache.from_env()
        assert not cache.enabled
        hit, value = cache.get("k", {"a": 1})
        assert (hit, value) == (False, None)
        assert cache.put("k", {"a": 1}, 42) is None
        assert cache.misses == 1

    def test_roundtrip(self, tmp_path):
        cache = RunCache(str(tmp_path))
        params = {"a": 1, "b": 2.5}
        assert cache.get("k", params) == (False, None)
        path = cache.put("k", params, {"rows": [1, 2]})
        assert path is not None and os.path.exists(path)
        hit, value = cache.get("k", params)
        assert hit and value == {"rows": [1, 2]}
        assert (cache.hits, cache.misses) == (1, 1)

    def test_corrupted_entry_recovers(self, tmp_path):
        cache = RunCache(str(tmp_path))
        params = {"a": 1}
        path = cache.put("k", params, "good")
        with open(path, "wb") as handle:
            handle.write(b"not a pickle")
        assert cache.get("k", params) == (False, None)
        assert cache.corrupt == 1
        assert not os.path.exists(path)  # dropped, will be recomputed
        cache.put("k", params, "recomputed")
        assert cache.get("k", params) == (True, "recomputed")

    def test_schema_mismatch_is_miss(self, tmp_path):
        cache = RunCache(str(tmp_path))
        params = {"a": 1}
        path = cache.put("k", params, "v")
        with open(path, "rb") as handle:
            payload = pickle.load(handle)
        payload["schema"] = SCHEMA_VERSION + 1
        with open(path, "wb") as handle:
            pickle.dump(payload, handle)
        assert cache.get("k", params) == (False, None)
        assert cache.corrupt == 1

    def test_tilde_root_expands(self, tmp_path, monkeypatch):
        monkeypatch.setenv("HOME", str(tmp_path))
        cache = RunCache("~/cache")
        path = cache.path_for("k", {"a": 1})
        assert path.startswith(str(tmp_path))


class TestResolveJobs:
    def test_default_serial(self):
        assert resolve_jobs() == 1
        assert resolve_jobs(None) == 1

    def test_env_value(self, monkeypatch):
        monkeypatch.setenv(JOBS_ENV, "4")
        assert resolve_jobs() == 4

    def test_env_garbage_falls_back(self, monkeypatch):
        monkeypatch.setenv(JOBS_ENV, "many")
        assert resolve_jobs() == 1

    def test_zero_means_cpu_count(self):
        assert resolve_jobs(0) == (os.cpu_count() or 1)

    def test_explicit_overrides_env(self, monkeypatch):
        monkeypatch.setenv(JOBS_ENV, "8")
        assert resolve_jobs(2) == 2

    def test_negative_clamped(self):
        assert resolve_jobs(-3) == 1


class TestRunCells:
    def test_results_in_cell_order(self):
        cells = [{"x": i} for i in range(5)]
        values = run_cells("test-echo", cells)
        assert [v.value for v in values] == [0, 2, 4, 6, 8]

    def test_unknown_kind_raises(self):
        with pytest.raises(ValueError, match="unknown cell kind"):
            execute_cell("no-such-kind", {})

    def test_stats_without_cache(self):
        run_cells("test-echo", [{"x": 1}, {"x": 2}])
        stats = last_stats("test-echo")
        assert stats.cells_total == 2
        assert stats.cells_computed == 2
        assert stats.cells_cached == 0
        assert stats.cache_dir is None

    def test_cache_hit_and_miss(self, tmp_path):
        cache = RunCache(str(tmp_path))
        cells = [{"x": 1, "events": 7}, {"x": 2, "events": 9}]
        first = run_cells("test-echo", cells, cache=cache)
        s1 = last_stats("test-echo")
        assert (s1.cells_computed, s1.cells_cached) == (2, 0)
        assert s1.events_fired == 16  # fresh work is counted...
        second = run_cells("test-echo", cells, cache=cache)
        s2 = last_stats("test-echo")
        assert (s2.cells_computed, s2.cells_cached) == (0, 2)
        assert s2.events_fired == 0  # ...cached work is not
        assert first == second

    def test_cache_via_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv(CACHE_ENV, str(tmp_path))
        run_cells("test-echo", [{"x": 3}])
        run_cells("test-echo", [{"x": 3}])
        assert last_stats("test-echo").cells_cached == 1

    def test_partial_cache_mixes_sources(self, tmp_path):
        cache = RunCache(str(tmp_path))
        run_cells("test-echo", [{"x": 1}], cache=cache)
        values = run_cells("test-echo", [{"x": 1}, {"x": 2}], cache=cache)
        stats = last_stats("test-echo")
        assert (stats.cells_cached, stats.cells_computed) == (1, 1)
        assert [v.value for v in values] == [2, 4]

    def test_stats_report_emitted(self, tmp_path):
        run_cells(
            "test-echo",
            [{"x": 1, "events": 5}],
            metrics_name="runner_echo",
            metrics_dir=str(tmp_path),
        )
        with open(tmp_path / "runner_echo.json") as handle:
            report = json.load(handle)
        counters = report["runs"][0]["counters"]
        assert counters["runner.cells_total"] == 1
        assert counters["runner.cells_computed"] == 1
        assert counters["sim.events_fired"] == 5


class TestParallelEquivalence:
    def test_parallel_matches_serial(self, tmp_path):
        serial = performance_matrix(**TINY_GRID)
        common.clear_cache()
        parallel = performance_matrix(**TINY_GRID, jobs=2)
        assert last_stats("performance").jobs == 2
        assert sorted(serial) == sorted(parallel)
        for key in serial:
            assert serial[key] == parallel[key], key
        # The emitted figure report must match byte for byte as well.
        serial_path = emit_performance_metrics(
            "eq_serial", serial, {}, metrics_dir=str(tmp_path)
        )
        parallel_path = emit_performance_metrics(
            "eq_parallel", parallel, {}, metrics_dir=str(tmp_path)
        )
        with open(serial_path) as handle:
            serial_report = json.load(handle)
        with open(parallel_path) as handle:
            parallel_report = json.load(handle)
        serial_report["name"] = parallel_report["name"] = "normalized"
        assert serial_report == parallel_report

    def test_second_run_does_zero_simulation_work(self, tmp_path, monkeypatch):
        monkeypatch.setenv(CACHE_ENV, str(tmp_path))
        performance_matrix(**TINY_GRID)
        first = last_stats("performance")
        assert first.cells_computed == 2
        assert first.events_fired > 0
        common.clear_cache()  # drop the in-process memo; only the disk remains
        performance_matrix(**TINY_GRID)
        second = last_stats("performance")
        assert (second.cells_cached, second.cells_computed) == (2, 0)
        assert second.events_fired == 0


class TestCliJobs:
    def test_jobs_flag_sets_env(self, capsys):
        from repro.__main__ import main

        assert main(["--jobs", "3", "list"]) == 0
        assert os.environ[JOBS_ENV] == "3"
        os.environ.pop(JOBS_ENV, None)

    def test_negative_jobs_rejected(self, capsys):
        from repro.__main__ import main

        with pytest.raises(SystemExit):
            main(["--jobs", "-1", "list"])

    def test_jobs_default_leaves_env_alone(self, capsys):
        from repro.__main__ import main

        assert main(["list"]) == 0
        assert JOBS_ENV not in os.environ


class TestMemoKnobs:
    def test_fifo_eviction(self, monkeypatch):
        monkeypatch.setenv(common.MEMO_MAX_ENV, "3")
        calls = []

        def make(key):
            return common.cached(("memo-test", key), lambda: calls.append(key))

        for key in range(5):
            make(key)
        assert len(common._CACHE) == 3  # oldest two evicted
        make(0)  # was evicted -> recomputed
        assert calls == [0, 1, 2, 3, 4, 0]
        make(4)  # still resident -> memo hit
        assert calls == [0, 1, 2, 3, 4, 0]

    def test_kill_switch_bypasses_memo(self, monkeypatch):
        monkeypatch.setenv(common.MEMO_DISABLE_ENV, "1")
        calls = []
        for _ in range(3):
            common.cached(("memo-test", "x"), lambda: calls.append(1))
        assert len(calls) == 3
        assert not common._CACHE

    def test_bad_memo_max_falls_back(self, monkeypatch):
        monkeypatch.setenv(common.MEMO_MAX_ENV, "lots")
        assert common.memo_max_entries() == common.DEFAULT_MEMO_MAX
        monkeypatch.setenv(common.MEMO_MAX_ENV, "-5")
        assert common.memo_max_entries() == 1


@cell_kind("test-health-row")
def _health_row_cell(params):
    """A churn-shaped result: a plain dict whose ``health`` key carries
    the monitor export (rows + summary)."""
    return {
        "level": params["level"],
        "health": {
            "window": 900.0,
            "summary": {
                "alerts_fired": params["fired"],
                "alerts_resolved": params["fired"],
                "alerts_active": 0,
                "by_severity": {"critical": params["fired"]},
            },
            "rows": [
                {"type": "series", "name": "ring.nodes", "kind": "gauge",
                 "labels": {}, "window": 0, "start": 0.0, "end": 900.0,
                 "count": 1, "value": 8},
            ],
        },
    }


class TestHealthExport:
    """Dict-shaped cell rows must surface their ``health`` payload.

    Regression: ``_iter_results`` flattens mappings into values, which
    strips the ``health`` key off churn-style dict rows — the runner
    then exported no health files and merged no alert counters.
    """

    def test_dict_rows_export_health_files_and_counters(
        self, tmp_path, monkeypatch
    ):
        metrics_dir = tmp_path / "metrics"
        monkeypatch.setenv(common.METRICS_DIR_ENV, str(metrics_dir))
        cells = [
            {"level": "calm", "fired": 1},
            {"level": "storm", "fired": 2},
        ]
        run_cells("test-health-row", cells, jobs=1, metrics_name="runner_hx")

        files = sorted(os.listdir(metrics_dir))
        assert files == [
            "runner_hx.health0.jsonl", "runner_hx.health1.jsonl",
            "runner_hx.json",
        ]
        with open(metrics_dir / "runner_hx.json") as fh:
            report = json.load(fh)
        assert report["params"]["health"] == [
            "runner_hx.health0.jsonl", "runner_hx.health1.jsonl",
        ]
        counters = report["runs"][0]["counters"]
        assert counters["health.alerts_fired"] == 3
        assert counters["health.alerts_fired.critical"] == 3
        assert counters["health.alerts_resolved"] == 3
        with open(metrics_dir / "runner_hx.health1.jsonl") as fh:
            rows = [json.loads(line) for line in fh]
        assert rows and rows[0]["name"] == "ring.nodes"
