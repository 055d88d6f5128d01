"""Shared hypothesis strategies for graph-valued properties.

Graphs are drawn as (n, edge-subset) pairs: hypothesis shrinks toward
fewer nodes and fewer edges, which keeps failing examples readable.
"""

from __future__ import annotations

from hypothesis import strategies as st

from repro.graphs.adjacency import DiGraph, Graph


@st.composite
def graphs(draw, max_nodes: int = 12, min_nodes: int = 0) -> Graph:
    """A simple undirected graph with up to ``max_nodes`` nodes."""
    n = draw(st.integers(min_value=min_nodes, max_value=max_nodes))
    g = Graph.from_num_nodes(n)
    if n >= 2:
        all_pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        chosen = draw(
            st.lists(st.sampled_from(all_pairs), unique=True, max_size=len(all_pairs))
        )
        g.add_edges_from(chosen)
    return g


@st.composite
def nonempty_graphs(draw, max_nodes: int = 12) -> Graph:
    """A graph with at least one edge."""
    g = draw(graphs(max_nodes=max_nodes, min_nodes=2))
    if g.num_edges == 0:
        g.add_edge(0, 1)
    return g


@st.composite
def symmetric_digraphs(draw, max_nodes: int = 8):
    """A symmetric digraph (closure of a random undirected graph)."""
    return draw(graphs(max_nodes=max_nodes)).to_directed()


@st.composite
def labeled_graphs(draw, max_nodes: int = 8, min_nodes: int = 0) -> Graph:
    """A graph over arbitrary distinct ids: negative, non-contiguous and
    unordered in insertion, with isolated nodes left in."""
    ids = draw(st.lists(st.integers(-40, 40), unique=True, min_size=min_nodes, max_size=max_nodes))
    g = Graph()
    g.add_nodes_from(ids)
    if len(ids) >= 2:
        all_pairs = [(u, v) for i, u in enumerate(ids) for v in ids[i + 1 :]]
        g.add_edges_from(draw(st.lists(st.sampled_from(all_pairs), unique=True)))
    return g


@st.composite
def digraphs(draw, max_nodes: int = 7, min_nodes: int = 0) -> DiGraph:
    """A digraph, symmetric or not, over arbitrary distinct ids."""
    ids = draw(st.lists(st.integers(-40, 40), unique=True, min_size=min_nodes, max_size=max_nodes))
    d = DiGraph()
    d.add_nodes_from(ids)
    if len(ids) >= 2:
        all_arcs = [(u, v) for u in ids for v in ids if u != v]
        d.add_arcs_from(draw(st.lists(st.sampled_from(all_arcs), unique=True)))
    return d
