"""Unit tests for the seeded localized recoloring core."""

import pytest

from repro.core.edge_coloring import EdgeColoringParams, color_edges
from repro.core.dima2ed import strong_color_arcs
from repro.graphs.adjacency import Graph
from repro.graphs.generators import erdos_renyi_avg_degree, small_world
from repro.serve.incremental import (
    FallbackRequired,
    incremental_arc_colors,
    incremental_edge_colors,
)
from repro.types import canonical_edge
from repro.verify.edge_coloring import (
    check_proper_edge_coloring,
)
from repro.verify.strong_coloring import check_strong_arc_coloring


def _colored_graph(n=24, avg=4.0, seed=3):
    g = erdos_renyi_avg_degree(n, avg, seed=seed)
    result = color_edges(g, seed=seed)
    return g, dict(result.colors)


def _non_edge(g):
    nodes = g.nodes()
    for u in nodes:
        for v in nodes:
            if u < v and not g.has_edge(u, v):
                return u, v
    raise AssertionError("graph is complete")


class TestIncrementalEdgeColors:
    def test_single_insertion_stays_proper(self):
        g, colors = _colored_graph()
        u, v = _non_edge(g)
        g.add_edge(u, v)
        out = incremental_edge_colors(g, colors, [(u, v)], seed=1)
        assert set(out.colors) == {canonical_edge(u, v)}
        colors.update(out.colors)
        assert check_proper_edge_coloring(g, colors) == []
        assert check_proper_edge_coloring(g, colors, complete=True) == []
        assert out.subgraph_nodes == 2
        assert out.subgraph_edges == 1
        assert out.rounds >= 1

    def test_batch_insertion_stays_proper(self):
        g, colors = _colored_graph(seed=9)
        new = []
        for _ in range(5):
            u, v = _non_edge(g)
            g.add_edge(u, v)
            new.append((u, v))
        out = incremental_edge_colors(g, colors, new, seed=2)
        assert len(out.colors) == len(new)
        colors.update(out.colors)
        assert check_proper_edge_coloring(g, colors) == []
        assert check_proper_edge_coloring(g, colors, complete=True) == []

    def test_avoids_colors_of_incident_old_edges(self):
        # Star center: every palette color is taken, the new spoke must
        # get a fresh one.
        g = Graph([(0, i) for i in range(1, 6)])
        colors = {canonical_edge(0, i): i - 1 for i in range(1, 6)}
        g.add_edge(0, 6)
        out = incremental_edge_colors(g, colors, [(0, 6)], seed=0)
        assert out.colors[canonical_edge(0, 6)] not in set(colors.values())

    def test_empty_new_edges_is_a_noop(self):
        g, colors = _colored_graph()
        out = incremental_edge_colors(g, colors, [], seed=0)
        assert out.colors == {}
        assert out.rounds == 0

    def test_nonconvergence_raises_fallback(self):
        g, colors = _colored_graph(seed=5)
        new = []
        for _ in range(4):
            u, v = _non_edge(g)
            g.add_edge(u, v)
            new.append((u, v))
        with pytest.raises(FallbackRequired):
            incremental_edge_colors(
                g, colors, new, seed=0, params=EdgeColoringParams(max_rounds=1)
            )

    def test_deterministic_in_seed(self):
        g, colors = _colored_graph(seed=7)
        u, v = _non_edge(g)
        g.add_edge(u, v)
        a = incremental_edge_colors(g, dict(colors), [(u, v)], seed=42)
        b = incremental_edge_colors(g, dict(colors), [(u, v)], seed=42)
        assert a.colors == b.colors and a.rounds == b.rounds


class TestIncrementalArcColors:
    def _colored_digraph(self, n=18, seed=4):
        g = small_world(n, 4, 0.2, seed=seed)
        result = strong_color_arcs(g.to_directed(), seed=seed)
        return g, dict(result.colors)

    def test_single_insertion_stays_strong(self):
        g, colors = self._colored_digraph()
        u, v = _non_edge(g)
        g.add_edge(u, v)
        out = incremental_arc_colors(g, colors, [(u, v)], seed=1)
        assert (u, v) in out.colors and (v, u) in out.colors
        colors.update(out.colors)
        assert check_strong_arc_coloring(
            g.to_directed(), colors, complete=True
        ) == []

    def test_insertion_invalidates_conflicting_old_arcs(self):
        # Path 0-1 and 2-3 carry the same channels on matching arc
        # directions; adding {1, 2} makes (0,1) conflict with (2,3)
        # via the new adjacency, so old arcs must be recolored too.
        g = Graph([(0, 1), (2, 3)])
        colors = {(0, 1): 0, (1, 0): 1, (2, 3): 0, (3, 2): 1}
        assert check_strong_arc_coloring(g.to_directed(), colors) == []
        g.add_edge(1, 2)
        out = incremental_arc_colors(g, colors, [(1, 2)], seed=3)
        colors.update(out.colors)
        assert check_strong_arc_coloring(
            g.to_directed(), colors, complete=True
        ) == []
        # The rerun covered more than just the new edge's two arcs.
        assert len(out.colors) > 2

    def test_batch_insertion_stays_strong(self):
        g, colors = self._colored_digraph(seed=11)
        new = []
        for _ in range(3):
            u, v = _non_edge(g)
            g.add_edge(u, v)
            new.append((u, v))
        out = incremental_arc_colors(g, colors, new, seed=2)
        colors.update(out.colors)
        assert check_strong_arc_coloring(
            g.to_directed(), colors, complete=True
        ) == []

    def test_empty_new_edges_is_a_noop(self):
        g, colors = self._colored_digraph()
        out = incremental_arc_colors(g, colors, [], seed=0)
        assert out.colors == {}
