"""Property-based tests: the coloring algorithms on arbitrary graphs."""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.baselines import greedy_edge_coloring, misra_gries_edge_coloring
from repro.core.edge_coloring import color_edges
from repro.core.dima2ed import strong_color_arcs
from repro.graphs.properties import max_degree
from repro.verify import (
    check_proper_edge_coloring,
    check_strong_arc_coloring,
)

from .strategies import graphs, symmetric_digraphs

RELAXED = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


class TestAlgorithm1Properties:
    @RELAXED
    @given(g=graphs(max_nodes=12), seed=st.integers(0, 2**16))
    def test_always_proper_and_complete(self, g, seed):
        result = color_edges(g, seed=seed)
        assert check_proper_edge_coloring(g, result.colors) == []
        assert check_proper_edge_coloring(g, result.colors, complete=True) == []

    @RELAXED
    @given(g=graphs(max_nodes=12), seed=st.integers(0, 2**16))
    def test_proposition_3_color_bound(self, g, seed):
        result = color_edges(g, seed=seed)
        delta = max_degree(g)
        if delta:
            assert result.num_colors <= 2 * delta - 1

    @RELAXED
    @given(g=graphs(max_nodes=12), seed=st.integers(0, 2**16))
    def test_palette_prefix_property(self, g, seed):
        # Lowest-index selection means used colors form 0..k-1.
        result = color_edges(g, seed=seed)
        assert result.palette == list(range(result.num_colors))

    @RELAXED
    @given(g=graphs(max_nodes=10), seed=st.integers(0, 2**16))
    def test_endpoint_agreement_via_both_programs(self, g, seed):
        # check_consistency=True (default) raises on endpoint mismatch;
        # reaching here at all is the assertion.
        result = color_edges(g, seed=seed)
        assert len(result.colors) == g.num_edges


class TestDiMa2EdProperties:
    @settings(max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(d=symmetric_digraphs(max_nodes=7), seed=st.integers(0, 2**12))
    def test_always_valid_strong_coloring(self, d, seed):
        result = strong_color_arcs(d, seed=seed)
        assert check_strong_arc_coloring(d, result.colors) == []


class TestBaselineProperties:
    @RELAXED
    @given(g=graphs(max_nodes=14))
    def test_greedy_proper_with_bound(self, g):
        colors = greedy_edge_coloring(g)
        assert check_proper_edge_coloring(g, colors) == []
        delta = max_degree(g)
        if delta:
            assert len(set(colors.values())) <= 2 * delta - 1

    @RELAXED
    @given(g=graphs(max_nodes=14))
    def test_misra_gries_vizing_bound(self, g):
        colors = misra_gries_edge_coloring(g)
        assert check_proper_edge_coloring(g, colors) == []
        assert check_proper_edge_coloring(g, colors, complete=True) == []
        delta = max_degree(g)
        assert len(set(colors.values())) <= delta + 1

    @RELAXED
    @given(g=graphs(max_nodes=12), seed=st.integers(0, 2**16))
    def test_distributed_weakly_dominated_by_vizing(self, g, seed):
        # Sanity relation between the two bounds: MG ≤ Δ+1 ≤ our 2Δ−1
        # whenever Δ ≥ 2.
        delta = max_degree(g)
        if delta < 2:
            return
        ours = color_edges(g, seed=seed).num_colors
        vizing = len(set(misra_gries_edge_coloring(g).values()))
        assert vizing <= delta + 1
        assert ours <= 2 * delta - 1
