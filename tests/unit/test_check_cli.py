"""Tests for the ``repro check`` and ``repro fuzz`` subcommands."""

import argparse

import pytest

from repro.cli import (
    _parse_budget,
    _parse_tiers,
    check_main,
    fuzz_main,
    repro_main,
)
from repro.graphs.generators import cycle_graph
from repro.graphs.io import write_edge_list
from repro.verify.differential import TIERS
from repro.verify.fuzz import Counterexample


@pytest.fixture
def graph_file(tmp_path):
    path = tmp_path / "net.edges"
    write_edge_list(cycle_graph(6), path)
    return path


class TestBudgetParsing:
    @pytest.mark.parametrize(
        "text,seconds",
        [("60", 60.0), ("60s", 60.0), ("2m", 120.0), ("1h", 3600.0), ("0.5m", 30.0)],
    )
    def test_accepted(self, text, seconds):
        assert _parse_budget(text) == seconds

    @pytest.mark.parametrize("text", ["", "fast", "-3s", "0"])
    def test_rejected(self, text):
        with pytest.raises(argparse.ArgumentTypeError):
            _parse_budget(text)


class TestTierParsing:
    def test_all_means_default(self):
        assert _parse_tiers("all") is None

    def test_subset(self):
        assert _parse_tiers("general,vectorized") == ["general", "vectorized"]

    def test_unknown_rejected(self):
        with pytest.raises(argparse.ArgumentTypeError):
            _parse_tiers("general,warp")


class TestCheckCommand:
    def test_agreeing_graph_exits_zero(self, graph_file, capsys):
        assert check_main([str(graph_file), "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "algorithm=alg1" in out and "algorithm=dima2ed" in out
        assert "all tiers agree" in out

    def test_single_algorithm_and_tier_subset(self, graph_file, capsys):
        code = check_main(
            [str(graph_file), "--algorithm", "alg1", "--tiers", "general,fastpath"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "dima2ed" not in out
        assert "vectorized" not in out

    def test_replay_clean_counterexample(self, tmp_path, capsys):
        ce = Counterexample(
            algorithm="alg1",
            seed=5,
            tiers=list(TIERS),
            edges=[(0, 1), (1, 2), (2, 0)],
        )
        path = ce.save(tmp_path / "ce.json")
        assert check_main(["--replay", str(path)]) == 0
        assert "all tiers agree" in capsys.readouterr().out

    def test_graph_and_replay_are_exclusive(self, graph_file, tmp_path, capsys):
        assert check_main([str(graph_file), "--replay", "x.json"]) == 2
        assert check_main([]) == 2

    def test_umbrella_dispatch(self, graph_file):
        assert repro_main(["check", str(graph_file), "--algorithm", "alg1"]) == 0


class TestFuzzCommand:
    def test_small_clean_campaign(self, tmp_path, capsys):
        code = fuzz_main(
            ["--iterations", "3", "--seed", "11", "--out", str(tmp_path), "--quiet"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "3 configurations" in out
        assert "no divergence" in out

    def test_divergence_exits_nonzero(self, tmp_path, capsys, monkeypatch):
        import repro.core.vectorized as vectorized
        from repro.core.palette import planes_popcount

        orig = vectorized.planes_lowest_free
        monkeypatch.setattr(
            vectorized,
            "planes_lowest_free",
            lambda planes: orig(planes) + (planes_popcount(planes) >= 2),
        )
        code = fuzz_main(
            [
                "--iterations", "25",
                "--seed", "2",
                "--algorithms", "alg1",
                "--out", str(tmp_path),
                "--quiet",
            ]
        )
        assert code == 1
        out = capsys.readouterr().out
        assert "DIVERGENCE FOUND" in out
        assert "--replay" in out
        assert list(tmp_path.glob("counterexample-*.json"))

    def test_umbrella_dispatch(self, tmp_path):
        assert (
            repro_main(
                ["fuzz", "--iterations", "1", "--out", str(tmp_path), "--quiet"]
            )
            == 0
        )
