"""Unit tests for the bench-history store and `repro bench --compare`."""

import copy
import importlib.util
import json
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]


def _load(name: str):
    spec = importlib.util.spec_from_file_location(
        name, REPO_ROOT / "benchmarks" / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def benchlib():
    return _load("benchlib")


def _report(wall_general=1.0, wall_batched=0.2, digest="abc"):
    return {
        "bench": "engine_scaling",
        "mode": "smoke",
        "workloads": {
            "alg1-er-n1000-d8": {
                "kind": "alg1",
                "general": {
                    "wall_s": wall_general, "peak_rss_kb": 40000,
                    "rounds": 39, "supersteps": 156, "state_digest": digest,
                },
                "batched": {
                    "wall_s": wall_batched, "peak_rss_kb": 35000,
                    "rounds": 39, "supersteps": 156, "state_digest": digest,
                },
                "identical": True,
            }
        },
    }


class TestHistoryStore:
    def test_entry_extracts_tier_rows_only(self, benchlib):
        entry = benchlib.history_entry_from_report(_report())
        assert entry["schema"] == benchlib.HISTORY_SCHEMA
        tiers = entry["workloads"]["alg1-er-n1000-d8"]["tiers"]
        assert set(tiers) == {"general", "batched"}
        assert tiers["general"]["wall_s"] == 1.0
        # non-tier keys (kind, identical) must not leak into tiers
        assert "kind" not in tiers

    def test_host_fingerprint_is_stable(self, benchlib):
        a, b = benchlib.host_fingerprint(), benchlib.host_fingerprint()
        assert a == b
        assert len(a["fingerprint"]) == 12

    def test_append_and_read_round_trip(self, benchlib, tmp_path):
        path = tmp_path / "history.jsonl"
        first = benchlib.history_entry_from_report(_report())
        second = benchlib.history_entry_from_report(_report(wall_general=0.9))
        benchlib.append_bench_history(first, path)
        benchlib.append_bench_history(second, path)
        entries = benchlib.read_bench_history(path)
        assert len(entries) == 2
        assert entries[0] == first
        assert entries[1] == second

    def test_newer_schema_rejected(self, benchlib, tmp_path):
        path = tmp_path / "history.jsonl"
        path.write_text(json.dumps({"schema": 999}) + "\n")
        with pytest.raises(ValueError, match="newer"):
            benchlib.read_bench_history(path)

    def test_committed_seed_is_readable(self, benchlib):
        entries = benchlib.read_bench_history(benchlib.DEFAULT_HISTORY)
        assert entries, "seeded bench_history.jsonl must not be empty"
        assert "alg1-er-n10000-d8" in entries[-1]["workloads"]


class TestCompareEntries:
    def test_identical_entries_pass(self, benchlib):
        entry = benchlib.history_entry_from_report(_report())
        result = benchlib.compare_entries(entry, copy.deepcopy(entry))
        assert result["ok"] is True
        assert result["same_host"] is True
        assert not any(v["verdict"] == "regression" for v in result["verdicts"])

    def test_injected_2x_slowdown_is_flagged(self, benchlib):
        baseline = benchlib.history_entry_from_report(_report())
        slow = benchlib.history_entry_from_report(
            _report(wall_general=2.0, wall_batched=0.4)
        )
        result = benchlib.compare_entries(slow, baseline)
        assert result["ok"] is False
        walls = [v for v in result["verdicts"] if v["kind"] == "wall"]
        assert any(v["verdict"] == "regression" for v in walls)
        # the slowdown was uniform, so the speedup ratio did NOT regress
        speedups = [v for v in result["verdicts"] if v["kind"] == "speedup"]
        assert all(v["verdict"] == "ok" for v in speedups)

    def test_cross_host_skips_wall_but_gates_speedup(self, benchlib):
        baseline = benchlib.history_entry_from_report(
            _report(), host={"fingerprint": "other-host"}
        )
        # batched tier lost its edge: speedup 5x -> 1.25x
        current = benchlib.history_entry_from_report(_report(wall_batched=0.8))
        result = benchlib.compare_entries(current, baseline)
        assert result["same_host"] is False
        walls = [v for v in result["verdicts"] if v["kind"] == "wall"]
        assert walls and all(v["verdict"] == "skipped" for v in walls)
        speedups = [v for v in result["verdicts"] if v["kind"] == "speedup"]
        assert any(v["verdict"] == "regression" for v in speedups)
        assert result["ok"] is False

    def test_digest_change_is_informational(self, benchlib):
        baseline = benchlib.history_entry_from_report(_report(digest="abc"))
        current = benchlib.history_entry_from_report(_report(digest="xyz"))
        result = benchlib.compare_entries(current, baseline)
        assert result["ok"] is True  # digest drift alone never fails
        assert any(v["verdict"] == "digest-changed" for v in result["verdicts"])

    def test_no_shared_workloads(self, benchlib):
        entry = benchlib.history_entry_from_report(_report())
        empty = benchlib.history_entry_from_report({"workloads": {}})
        result = benchlib.compare_entries(entry, empty)
        assert result["compared"] == 0
        assert result["ok"] is False

    def test_format_compare_verdict_lines(self, benchlib):
        baseline = benchlib.history_entry_from_report(_report())
        slow = benchlib.history_entry_from_report(
            _report(wall_general=2.0, wall_batched=0.4)
        )
        text = benchlib.format_compare(benchlib.compare_entries(slow, baseline))
        assert "FAIL" in text and "[regression]" in text
        ok = benchlib.format_compare(
            benchlib.compare_entries(baseline, copy.deepcopy(baseline))
        )
        assert "PASS" in ok


class TestBenchScriptWiring:
    def test_load_compare_baseline_from_report(self):
        bench = _load("bench_engine_scaling")
        entry = bench._load_compare_baseline(REPO_ROOT / "BENCH_engine.json")
        assert entry is not None
        assert "alg1-er-n1000-d8" in entry["workloads"]

    def test_load_compare_baseline_from_history(self):
        bench = _load("bench_engine_scaling")
        entry = bench._load_compare_baseline(
            REPO_ROOT / "benchmarks" / "out" / "bench_history.jsonl"
        )
        assert entry is not None
        assert entry["schema"] == 1

    def test_sweep_report_gates_every_algorithm_row(
        self, tmp_path, monkeypatch, capsys
    ):
        # A report shaped like run_sweep's, used as its own baseline,
        # gates every row on the kernels' edge over the per-node loop:
        # it passes unchanged, and fails on every row once the kernels
        # lose that edge.
        bench = _load("bench_engine_scaling")

        def measure(spec, mode, telemetry):
            return {
                "telemetry": {"supersteps": 4},
                "wall_s": 0.1 if mode == "vectorized" else 1.0,
                "supersteps": 4,
                "rounds": 1,
                "rounds_per_s": 1.0,
                "messages_delivered": 8,
                "delivered_per_s": 8.0,
                "peak_rss_kb": 1,
                "metrics": {"supersteps": 4, "messages_delivered": 8},
                "state_digest": "d",
            }

        monkeypatch.setattr(bench, "_measure", measure)
        report = bench.run_sweep(smoke=False, repeats=1)
        assert set(report["workloads"]) >= {
            "alg1-er-n1000-d8",
            "alg1-er-n10000-d8",
            "alg1-sf-n10000-m4",
            "dima2ed-er-n1000-d6",
        }
        baseline = tmp_path / "BENCH_engine.json"
        baseline.write_text(json.dumps(report))
        capsys.readouterr()
        assert bench.check_against(report, baseline, 0.2) == 0
        out = capsys.readouterr().out
        for name in report["workloads"]:
            assert f"check [{name}] vectorized/general baseline x10.00 now x10.00" in out
        slowed = copy.deepcopy(report)
        for entry in slowed["workloads"].values():
            entry["speedup_vectorized_over_general"] = 1.0
        assert bench.check_against(slowed, baseline, 0.2) == 1
        assert capsys.readouterr().out.count("REGRESSED") == len(report["workloads"])

    def test_parser_accepts_history_and_compare(self):
        bench = _load("bench_engine_scaling")
        # argparse wiring only — the sweep itself is exercised in CI
        import inspect

        src = inspect.getsource(bench.main)
        assert "--history" in src and "--compare" in src
