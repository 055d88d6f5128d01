"""Observability is free of observer effects.

The license for shipping telemetry/profiling on by default in the
experiment harnesses is that **watching a run never changes it**:

* attaching :class:`AutomatonTelemetry` and/or a :class:`PhaseProfiler`
  leaves colors, rounds, and every metric *counter* bit-identical to an
  unobserved run (wall-clock ``phase_seconds`` is the one sanctioned
  addition, and only when a profiler is attached);
* the telemetry itself is engine-independent: the per-node loop and
  the fused kernels fill identical collectors for the same seed.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.dima2ed import strong_color_arcs
from repro.core.edge_coloring import color_edges
from repro.graphs.generators import erdos_renyi_avg_degree, scale_free, small_world
from repro.runtime.observe import AutomatonTelemetry, PhaseProfiler

RELAXED = settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def family_graphs(draw, max_nodes: int = 40):
    """A graph from one of the paper's random families."""
    n = draw(st.integers(min_value=4, max_value=max_nodes))
    gseed = draw(st.integers(min_value=0, max_value=2**16))
    family = draw(st.sampled_from(["er", "sf", "sw"]))
    if family == "er":
        return erdos_renyi_avg_degree(n, min(4.0, n - 1), seed=gseed)
    if family == "sf":
        return scale_free(n, min(2, n - 1), seed=gseed)
    k = min(4, n - 1 - ((n - 1) % 2))  # small_world needs even k < n
    return small_world(n, max(2, k), 0.2, seed=gseed)


class TestNoObserverEffect:
    @RELAXED
    @given(g=family_graphs(), seed=st.integers(0, 2**16))
    def test_telemetry_and_profiler_leave_alg1_bit_identical(self, g, seed):
        bare = color_edges(g, seed=seed)
        telemetry = AutomatonTelemetry()
        profiler = PhaseProfiler()
        observed = color_edges(
            g, seed=seed, telemetry=telemetry, profiler=profiler
        )
        assert observed.colors == bare.colors
        assert observed.rounds == bare.rounds
        assert observed.supersteps == bare.supersteps
        # Every counter identical; phase_seconds is wall-clock only.
        assert observed.metrics.as_dict() == bare.metrics.as_dict()
        assert (
            observed.metrics.live_nodes_per_superstep
            == bare.metrics.live_nodes_per_superstep
        )
        # And the watcher actually watched.
        assert telemetry.supersteps == bare.metrics.supersteps
        assert profiler.total_seconds > 0.0

    @RELAXED
    @given(g=family_graphs(max_nodes=20), seed=st.integers(0, 2**16))
    def test_telemetry_leaves_dima2ed_bit_identical(self, g, seed):
        dg = g.to_directed()
        bare = strong_color_arcs(dg, seed=seed)
        telemetry = AutomatonTelemetry()
        observed = strong_color_arcs(dg, seed=seed, telemetry=telemetry)
        assert observed.colors == bare.colors
        assert observed.metrics.as_dict() == bare.metrics.as_dict()
        assert telemetry.colored_fraction()[-1] == pytest.approx(1.0)

    @RELAXED
    @given(g=family_graphs(), seed=st.integers(0, 2**16))
    def test_histogram_totals_track_live_counts(self, g, seed):
        telemetry = AutomatonTelemetry()
        result = color_edges(g, seed=seed, telemetry=telemetry)
        live = result.metrics.live_nodes_per_superstep
        assert telemetry.supersteps == len(live)
        for hist, count in zip(telemetry.state_histograms, live):
            assert sum(hist.values()) == count


class TestEngineIndependence:
    @RELAXED
    @given(g=family_graphs(), seed=st.integers(0, 2**16))
    def test_both_cores_fill_identical_telemetry(self, g, seed):
        kernel_t = AutomatonTelemetry()
        pernode_t = AutomatonTelemetry()
        kernel = color_edges(g, seed=seed, telemetry=kernel_t, compute="auto")
        pernode = color_edges(g, seed=seed, telemetry=pernode_t, compute="general")
        assert kernel.colors == pernode.colors
        assert kernel_t.to_dict() == pernode_t.to_dict()
