"""Unit tests for the differential runner's comparison machinery."""

import pytest

from repro.errors import ConfigurationError
from repro.graphs.generators import cycle_graph, path_graph
from repro.verify.differential import (
    TIERS,
    DiffReport,
    Divergence,
    TierRun,
    _diff_runs,
    _first_telemetry_divergence,
    available_tiers,
    colors_digest,
    diff_tiers,
    run_tier,
)


def make_run(tier="general", **overrides):
    base = dict(
        tier=tier,
        colors={(0, 1): 0, (1, 2): 1},
        rounds=3,
        supersteps=12,
        metrics={
            "supersteps": 12,
            "messages_sent": 40,
            "messages_delivered": 80,
            "messages_dropped": 0,
            "words_delivered": 120,
            "messages_discarded_halted": 2,
            "messages_lost_to_crash": 0,
            "messages_duplicated": 0,
        },
        state_histograms=[{"C": 3}, {"W": 2, "L": 1}, {"E": 3}],
        done_per_superstep=[0, 0, 1],
    )
    base.update(overrides)
    return TierRun(**base)


class TestFieldDiffing:
    def test_identical_runs_have_no_divergence(self):
        assert _diff_runs(make_run(), make_run(tier="vectorized")) == []

    def test_color_value_mismatch_lists_the_edge(self):
        other = make_run(tier="vectorized", colors={(0, 1): 0, (1, 2): 5})
        divs = _diff_runs(make_run(), other)
        fields = [d.field for d in divs]
        assert "colors" in fields
        assert "colors[(1, 2)]" in fields
        entry = next(d for d in divs if d.field == "colors[(1, 2)]")
        assert (entry.baseline_value, entry.value) == (1, 5)

    def test_missing_edge_reported(self):
        other = make_run(tier="async", colors={(0, 1): 0})
        divs = _diff_runs(make_run(), other)
        entry = next(d for d in divs if d.field == "colors[(1, 2)]")
        assert entry.value is None

    def test_metric_mismatch_named(self):
        metrics = dict(make_run().metrics, messages_sent=41)
        divs = _diff_runs(make_run(), make_run(tier="vectorized", metrics=metrics))
        assert [d.field for d in divs] == ["metrics.messages_sent"]

    def test_every_as_dict_counter_compared(self):
        # Transport counters included, though make_run leaves them out.
        metrics = dict(make_run().metrics, retransmissions=3)
        divs = _diff_runs(make_run(), make_run(tier="vectorized", metrics=metrics))
        assert [d.field for d in divs] == ["metrics.retransmissions"]
        divs = _diff_runs(make_run(), make_run(tier="async", metrics=metrics))
        assert [d.field for d in divs] == ["metrics.retransmissions"]

    def test_live_node_trace_pins_first_differing_superstep(self):
        base = make_run(live_nodes_per_superstep=[3, 3, 2])
        other = make_run(tier="sharded", live_nodes_per_superstep=[3, 2, 2])
        (div,) = _diff_runs(base, other)
        assert div.field == "metrics.live_nodes_per_superstep"
        assert (div.baseline_value, div.value, div.superstep) == (3, 2, 1)
        # The async tier records no live-node trace, so it is not compared.
        assert _diff_runs(base, make_run(tier="async")) == []

    def test_async_ignores_engine_superstep_counter(self):
        metrics = dict(make_run().metrics, supersteps=0)
        assert _diff_runs(make_run(), make_run(tier="async", metrics=metrics)) == []
        # ...but any synchronous tier must match it.
        divs = _diff_runs(make_run(), make_run(tier="sharded", metrics=metrics))
        assert [d.field for d in divs] == ["metrics.supersteps"]

    def test_telemetry_pins_first_diverging_superstep(self):
        other = make_run(
            tier="sharded",
            colors={(0, 1): 0, (1, 2): 5},
            state_histograms=[{"C": 3}, {"W": 3}, {"E": 3}],
        )
        divs = _diff_runs(make_run(), other)
        assert all(d.superstep == 1 for d in divs if d.field.startswith("colors"))
        assert "superstep: 1" in str(divs[0])

    def test_pure_telemetry_divergence_still_reported(self):
        # Same final answer, different path: still an equivalence failure.
        other = make_run(
            tier="vectorized",
            state_histograms=[{"C": 3}, {"L": 2, "W": 1}, {"E": 3}],
        )
        divs = _diff_runs(make_run(), other)
        assert [d.field for d in divs] == ["telemetry"]
        assert divs[0].superstep == 1

    def test_async_has_no_telemetry_to_pin(self):
        other = make_run(
            tier="async", state_histograms=None, done_per_superstep=None
        )
        assert _first_telemetry_divergence(make_run(), other) is None
        assert _diff_runs(make_run(), other) == []

    def test_length_mismatch_pins_the_shorter_end(self):
        other = make_run(
            tier="vectorized",
            state_histograms=[{"C": 3}, {"W": 2, "L": 1}],
            done_per_superstep=[0, 0],
            supersteps=8,
        )
        assert _first_telemetry_divergence(make_run(), other) == 2


class TestSummary:
    def test_counts_colored_edges_and_palette_apart(self):
        report = DiffReport(algorithm="alg1", seed=7, num_nodes=3, num_edges=2)
        report.runs["general"] = make_run(colors={(0, 1): 0, (1, 2): 0})
        line = report.summary().splitlines()[1]
        assert "colored=2 palette=1 " in line
        assert "colors=" not in line


class TestDigest:
    def test_order_independent(self):
        a = colors_digest({(0, 1): 0, (1, 2): 1})
        b = colors_digest({(1, 2): 1, (0, 1): 0})
        assert a == b

    def test_sensitive_to_values(self):
        assert colors_digest({(0, 1): 0}) != colors_digest({(0, 1): 1})


class TestTierSelection:
    def test_default_is_all_tiers(self):
        runnable, skipped = available_tiers(None)
        assert set(runnable) | set(skipped) == set(TIERS)

    def test_unknown_tier_rejected(self):
        with pytest.raises(ConfigurationError):
            available_tiers(["general", "warp"])

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(ConfigurationError):
            run_tier("general", path_graph(3), algorithm="alg3")
        with pytest.raises(ConfigurationError):
            run_tier("warp", path_graph(3))

    def test_diff_tiers_rejects_unknown_algorithm_upfront(self):
        # A bad algorithm is a caller mistake, not a per-tier crash: it
        # must raise instead of landing in report.errors for every tier.
        with pytest.raises(ConfigurationError):
            diff_tiers(path_graph(3), algorithm="alg3")

    def test_subset_report_only_runs_requested(self):
        report = diff_tiers(cycle_graph(5), tiers=["general", "vectorized"], seed=2)
        assert set(report.runs) == {"general", "vectorized"}
        assert report.ok

    def test_report_counts_graph(self):
        report = diff_tiers(cycle_graph(5), tiers=["general"], seed=2)
        assert (report.num_nodes, report.num_edges) == (5, 5)
        assert report.first_divergence_superstep is None
