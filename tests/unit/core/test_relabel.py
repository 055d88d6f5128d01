"""``relabel_for_engine``: the zero-copy shortcut and its guard rails,
and the run path's identity ids for array-built graphs, on the batched
and the sharded engine."""

import numpy as np
import pytest

from repro.core._coerce import relabel_for_engine
from repro.core.dima2ed import strong_color_arcs
from repro.core.edge_coloring import color_edges
from repro.core.sharded import Alg1ShardKernel
from repro.errors import GraphError
from repro.graphs.adjacency import DiGraph, Graph
from repro.graphs.generators import erdos_renyi_avg_degree
from repro.graphs.io import read_edge_list, write_edge_list
from repro.runtime.sharded import ShardedEngine
from repro.verify import check_proper_edge_coloring, check_strong_arc_coloring


def test_in_order_contiguous_graph_returned_unchanged():
    g = Graph.from_num_nodes(4)
    g.add_edge(0, 1)
    g.add_edge(2, 3)
    work, mapping = relabel_for_engine(g)
    assert work is g
    assert mapping == {0: 0, 1: 1, 2: 2, 3: 3}


def test_shortcut_preserves_csr_cache():
    g = Graph.from_num_nodes(3)
    g.add_edge(0, 1)
    cached = g.to_csr()
    work, _ = relabel_for_engine(g)
    assert work.to_csr()[0] is cached[0]


def test_contiguous_but_out_of_insertion_order_still_relabels():
    # Graph.relabeled() assigns ids by insertion order, so this graph's
    # node 1 becomes 0; the shortcut must not change that behavior.
    g = Graph()
    g.add_node(1)
    g.add_node(0)
    g.add_edge(0, 1)
    work, mapping = relabel_for_engine(g)
    assert work is not g
    assert mapping == {1: 0, 0: 1}
    expected, expected_mapping = g.relabeled()
    assert work == expected
    assert mapping == expected_mapping


def test_noncontiguous_ids_relabel():
    g = Graph()
    g.add_node(10)
    g.add_node(20)
    g.add_edge(10, 20)
    work, mapping = relabel_for_engine(g)
    assert sorted(work.nodes()) == [0, 1]
    assert mapping == {10: 0, 20: 1}
    assert work.has_edge(0, 1)


def _refuse(*args, **kwargs):
    raise AssertionError("an array-built graph needs no per-node relabel")


def test_array_built_runs_build_no_per_node_tables(monkeypatch):
    """An array-built graph's ids are 0..n-1 in order by construction:
    the kernel runs and the verifiers take them as they are, without the
    relabel dict, the label table or a node list."""
    sets = erdos_renyi_avg_degree(300, 6.0, seed=2)
    u, v = (np.array(a) for a in zip(*sets.edges()))
    arrays = Graph.from_edge_arrays(300, u, v)
    want_edges = color_edges(sets, seed=4)
    want_arcs = strong_color_arcs(sets.to_directed(), seed=4)
    monkeypatch.setattr("repro.core.batched.relabel_for_engine", _refuse)
    monkeypatch.setattr("repro.core.batched._label_table", _refuse)
    for cls in (Graph, DiGraph):
        monkeypatch.setattr(cls, "nodes", _refuse)
        monkeypatch.setattr(cls, "__iter__", _refuse)
    edges = color_edges(arrays, seed=4)
    digraph = arrays.to_directed()
    arcs = strong_color_arcs(digraph, seed=4)
    assert check_proper_edge_coloring(arrays, edges.colors, complete=True) == []
    assert check_strong_arc_coloring(digraph, arcs.colors) == []
    assert (edges.colors, edges.rounds) == (want_edges.colors, want_edges.rounds)
    assert (arcs.colors, arcs.rounds) == (want_arcs.colors, want_arcs.rounds)


@pytest.mark.parametrize("order", ["labelled", "out-of-order"])
def test_other_graphs_still_relabel_and_keep_their_labels(order):
    base = erdos_renyi_avg_degree(60, 4.0, seed=8)
    if order == "labelled":
        label = {u: 1000 + 7 * u for u in base.nodes()}
        g = Graph.from_num_nodes(0)
        g.add_nodes_from(label[u] for u in base.nodes())
    else:
        label = {u: u for u in base.nodes()}
        g = Graph()
        g.add_nodes_from(reversed(base.nodes()))
    g.add_edges_from((label[a], label[b]) for a, b in base.edges())
    work, mapping = relabel_for_engine(g)
    assert work is not g
    inverse = {new: old for old, new in mapping.items()}
    result = color_edges(g, seed=5)
    relabelled = color_edges(work, seed=5)
    assert result.colors == {
        tuple(sorted((inverse[a], inverse[b]))): c
        for (a, b), c in relabelled.colors.items()
    }
    assert check_proper_edge_coloring(g, result.colors, complete=True) == []
    digraph = g.to_directed()
    arcs = strong_color_arcs(digraph, seed=5)
    assert check_strong_arc_coloring(digraph, arcs.colors) == []
    assert {a for arc in arcs.colors for a in arc} <= set(g.nodes())


def test_sharded_runs_skip_the_sorted_ids_check_on_read_graphs(tmp_path, monkeypatch):
    """A graph read from a native edge-list file is array-built, so the
    sharded engine takes its ids as they are, as the batched one does."""
    path = tmp_path / "er.edges"
    write_edge_list(erdos_renyi_avg_degree(200, 5.0, seed=6), path)
    graph = read_edge_list(path)
    assert graph.edge_arrays() is not None
    digraph = graph.to_directed()
    want_edges = color_edges(graph, seed=3, compute="auto")
    want_arcs = strong_color_arcs(digraph, seed=3, compute="auto")
    for cls in (Graph, DiGraph):
        monkeypatch.setattr(cls, "nodes", _refuse)
        monkeypatch.setattr(cls, "__iter__", _refuse)
    edges = color_edges(graph, seed=3, compute="sharded", shards=3)
    arcs = strong_color_arcs(digraph, seed=3, compute="sharded", shards=3)
    assert (edges.colors, edges.rounds) == (want_edges.colors, want_edges.rounds)
    assert (arcs.colors, arcs.rounds) == (want_arcs.colors, want_arcs.rounds)


def test_sharded_engine_rejects_non_contiguous_set_built_graphs(tmp_path):
    g = Graph()
    g.add_edge(3, 5)
    with pytest.raises(GraphError, match="contiguous node ids"):
        ShardedEngine(g, Alg1ShardKernel(), spill_dir=tmp_path)
