"""From edge-list file to verified coloring without adjacency sets.

A native file reads into an array-built graph.  Algorithm 1, DiMa2Ed's
``to_directed`` entry, both verifiers and ``repro-color`` (which also
takes Δ) then work from its arrays, so the set builder is patched to
fail here: the pipelines must finish, and give the colorings the
set-built graph gets.
"""

from unittest import mock

import pytest

from repro.cli import check_main, main
from repro.core.dima2ed import strong_color_arcs
from repro.core.edge_coloring import color_edges
from repro.graphs import adjacency
from repro.graphs.generators import erdos_renyi_avg_degree
from repro.graphs.io import read_edge_list, write_edge_list
from repro.graphs.properties import max_degree
from repro.verify import assert_proper_edge_coloring, assert_strong_arc_coloring


@pytest.fixture(params=[".edges", ".edges.gz"])
def er_file(request, tmp_path):
    g = erdos_renyi_avg_degree(400, 6.0, seed=5)
    path = tmp_path / f"er{request.param}"
    write_edge_list(g, path)
    return g, path


def _no_sets():
    return mock.patch.object(
        adjacency, "_adjacency_sets", side_effect=AssertionError("sets were built")
    )


class TestNoSetsOnTheFilePath:
    def test_read_color_verify(self, er_file):
        g, path = er_file
        with _no_sets():
            graph = read_edge_list(path)
            result = color_edges(graph, seed=11)
            assert_proper_edge_coloring(graph, result.colors)
        assert result.colors == color_edges(g, seed=11).colors

    def test_read_to_directed_strong_color_verify(self, er_file):
        g, path = er_file
        with _no_sets():
            digraph = read_edge_list(path).to_directed()
            result = strong_color_arcs(digraph, seed=11)
            assert_strong_arc_coloring(digraph, result.colors)
        assert result.colors == strong_color_arcs(g.to_directed(), seed=11).colors

    def test_max_degree(self, er_file):
        g, path = er_file
        with _no_sets():
            delta = max_degree(read_edge_list(path))
        assert delta == max_degree(g)

    @pytest.mark.parametrize("algorithm", ["alg1", "dima2ed"])
    def test_repro_color(self, er_file, algorithm, tmp_path, capsys):
        g, path = er_file
        out = tmp_path / "colors.tsv"
        argv = [str(path), "--algorithm", algorithm, "--seed", "3", "--out", str(out)]
        with _no_sets():
            assert main(argv) == 0
        header = capsys.readouterr().err
        assert f"# n={g.num_nodes} m={g.num_edges} Δ={max_degree(g)} " in header
        assert out.read_text(encoding="utf-8").count("\n") == (
            g.num_edges if algorithm == "alg1" else 2 * g.num_edges
        )


def test_repro_check_passes_every_tier_on_a_read_graph(tmp_path, capsys):
    path = tmp_path / "er.edges"
    write_edge_list(erdos_renyi_avg_degree(60, 5.0, seed=2), path)
    assert read_edge_list(path).edge_arrays() is not None
    assert check_main([str(path), "--seed", "4", "--tiers", "all"]) == 0
    assert "all tiers agree" in capsys.readouterr().out
