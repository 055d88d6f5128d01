"""Unit tests for the experiments CLI --selfcheck option."""

import repro.core.vectorized as vectorized
from repro.core.palette import planes_popcount
from repro.experiments.cli import main, run_selfcheck


class TestSelfcheck:
    def test_passes_and_runs_experiment(self, capsys):
        code = main(["fig3", "--scale", "0.02", "--selfcheck"])
        assert code == 0
        out = capsys.readouterr().out
        assert "selfcheck passed" in out
        assert "all tiers agree" in out

    def test_divergence_aborts_the_run(self, capsys, monkeypatch):
        orig = vectorized.planes_lowest_free
        monkeypatch.setattr(
            vectorized,
            "planes_lowest_free",
            lambda planes: orig(planes) + (planes_popcount(planes) >= 2),
        )
        code = main(["fig3", "--scale", "0.02", "--selfcheck"])
        assert code == 1
        out = capsys.readouterr().out
        assert "selfcheck FAILED" in out
        # The experiment itself must not have started.
        assert "rounds" not in out.split("selfcheck FAILED")[1]

    def test_helper_returns_bool(self, capsys):
        assert run_selfcheck(3) is True
