"""End-to-end tests of the differential correctness harness.

The headline scenario is mutation testing: deliberately break the
vectorized kernel's color picker, then require the whole pipeline to work —
the fuzz loop finds the divergence, the delta-debugging shrinker
minimizes the instance to a handful of vertices, the counterexample
round-trips through JSON, and replaying it reproduces the divergence
under the bug and agreement once the bug is gone.
"""

import json

import pytest

import repro.core.vectorized as vectorized
from repro.core.palette import planes_popcount
from repro.graphs.adjacency import Graph
from repro.graphs.generators import (
    complete_graph,
    erdos_renyi_avg_degree,
    path_graph,
)
from repro.verify.differential import TIERS, diff_tiers, run_tier
from repro.verify.fuzz import Counterexample, fuzz, load_counterexample, replay
from repro.verify.shrink import shrink_graph


@pytest.fixture
def broken_vectorized_palette(monkeypatch):
    """Off-by-one in the vectorized kernel's color pick, once ≥2 colors
    are taken — invisible on tiny first rounds, divergent soon after."""
    orig = vectorized.planes_lowest_free

    def buggy(planes):
        return orig(planes) + (planes_popcount(planes) >= 2)

    monkeypatch.setattr(vectorized, "planes_lowest_free", buggy)
    return buggy


class TestTiersAgree:
    @pytest.mark.parametrize("algorithm", ["alg1", "dima2ed"])
    def test_all_tiers_agree(self, algorithm):
        g = erdos_renyi_avg_degree(22, 4.0, seed=13)
        report = diff_tiers(g, algorithm=algorithm, seed=7)
        assert report.ok, report.summary()
        ran = set(report.runs) | set(report.skipped)
        assert ran == set(TIERS)

    def test_non_contiguous_labels(self):
        g = Graph([(10, 20), (20, 31), (31, 10), (31, 47)])
        report = diff_tiers(g, algorithm="alg1", seed=5)
        assert report.ok, report.summary()
        assert all((10, 20) in run.colors for run in report.runs.values())

    def test_single_tier_runs_standalone(self):
        g = path_graph(6)
        run = run_tier("vectorized", g, algorithm="alg1", seed=1)
        assert run.tier == "vectorized"
        assert len(run.colors) == 5


class TestInjectedKernelBugIsCaught:
    """The ISSUE's acceptance scenario, end to end."""

    def test_fuzz_catches_shrinks_and_replays(
        self, broken_vectorized_palette, tmp_path, monkeypatch
    ):
        result = fuzz(
            max_iterations=25,
            seed=2,
            algorithms=("alg1",),
            out=tmp_path,
            shrink_tests=300,
        )
        assert not result.ok, "fuzz failed to catch the injected kernel bug"
        ce = result.counterexample
        # Shrunk to a trivially inspectable instance.
        assert ce.graph().num_nodes <= 10
        assert ce.graph().num_edges <= 10
        assert result.saved_to is not None and result.saved_to.is_file()
        # The divergence names the vectorized tier against the baseline.
        assert any(d.tier == "vectorized" for d in result.report.divergences)

        # Replay under the bug still diverges...
        replay_report = replay(result.saved_to)
        assert not replay_report.ok

        # ...and agrees once the kernel is fixed.
        monkeypatch.undo()
        fixed_report = replay(result.saved_to)
        assert fixed_report.ok, fixed_report.summary()

    def test_divergence_is_deterministic(self, broken_vectorized_palette):
        # A triangle forces three distinct colors, tripping the off-by-one.
        g = complete_graph(3)
        first = diff_tiers(g, algorithm="alg1", seed=3, tiers=["general", "vectorized"])
        second = diff_tiers(g, algorithm="alg1", seed=3, tiers=["general", "vectorized"])
        assert not first.ok
        assert [str(d) for d in first.divergences] == [
            str(d) for d in second.divergences
        ]

    def test_crashing_tier_is_reported_not_raised(self, monkeypatch):
        def boom(planes):
            raise RuntimeError("kernel exploded")

        monkeypatch.setattr(vectorized, "planes_lowest_free", boom)
        report = diff_tiers(
            complete_graph(4), algorithm="alg1", seed=1, tiers=["general", "vectorized"]
        )
        assert not report.ok
        assert "RuntimeError" in report.errors["vectorized"]
        assert "general" in report.runs


class TestShrinker:
    def test_shrinks_to_minimal_triangle(self):
        # Failure = "contains a triangle"; ddmin must land on exactly one.
        g = erdos_renyi_avg_degree(24, 5.0, seed=11)

        def has_triangle(h):
            for u in h.nodes():
                nbrs = sorted(h.neighbors(u))
                for i, v in enumerate(nbrs):
                    if any(h.has_edge(v, w) for w in nbrs[i + 1 :]):
                        return True
            return False

        assert has_triangle(g)
        result = shrink_graph(g, has_triangle)
        assert result.graph.num_nodes == 3
        assert result.graph.num_edges == 3
        assert result.tests > 1
        assert result.history, "accepted reductions must be recorded"

    def test_passing_input_returned_unchanged(self):
        g = path_graph(5)
        result = shrink_graph(g, lambda h: False)
        assert result.graph.edge_list() == g.edge_list()
        assert result.tests == 1

    def test_budget_is_respected(self):
        g = erdos_renyi_avg_degree(30, 6.0, seed=9)
        result = shrink_graph(g, lambda h: h.num_edges > 0, max_tests=10)
        assert result.tests <= 11  # initial check + budget


class TestCounterexampleFormat:
    def test_json_roundtrip(self, tmp_path):
        ce = Counterexample(
            algorithm="alg1",
            seed=42,
            tiers=["general", "vectorized"],
            edges=[(0, 1), (1, 2)],
            family="structured",
            summary="demo",
            original_nodes=20,
            original_edges=40,
        )
        path = ce.save(tmp_path / "ce.json")
        loaded = load_counterexample(path)
        assert loaded == ce
        assert loaded.graph().num_edges == 2

    def test_newer_format_rejected(self, tmp_path):
        path = tmp_path / "future.json"
        path.write_text(
            json.dumps(
                {
                    "format": 99,
                    "algorithm": "alg1",
                    "seed": 1,
                    "tiers": [],
                    "edges": [],
                }
            )
        )
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            load_counterexample(path)

    def test_replayable_clean_config_agrees(self, tmp_path):
        ce = Counterexample(
            algorithm="dima2ed",
            seed=8,
            tiers=list(TIERS),
            edges=[(0, 1), (1, 2), (2, 0)],
        )
        path = ce.save(tmp_path / "clean.json")
        assert replay(path).ok


class TestFuzzLoop:
    def test_clean_campaign_covers_families(self):
        result = fuzz(max_iterations=6, seed=4)
        assert result.ok
        assert result.iterations == 6
        assert len(result.per_family) >= 4

    def test_iteration_budget(self):
        result = fuzz(max_iterations=2, seed=1)
        assert result.iterations == 2

    def test_requires_some_budget(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            fuzz()
