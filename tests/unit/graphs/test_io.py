"""Unit tests for edge/arc list persistence."""

import pytest

from repro.errors import GraphError
from repro.graphs.adjacency import DiGraph, Graph
from repro.graphs.generators import erdos_renyi_gnp
from repro.graphs.io import (
    read_arc_list,
    read_edge_list,
    write_arc_list,
    write_edge_list,
)


class TestEdgeListRoundTrip:
    def test_roundtrip(self, tmp_path):
        g = erdos_renyi_gnp(30, 0.2, seed=4)
        path = tmp_path / "g.edges"
        write_edge_list(g, path)
        assert read_edge_list(path) == g

    def test_isolated_nodes_survive(self, tmp_path):
        g = Graph.from_num_nodes(7)
        g.add_edge(0, 1)
        path = tmp_path / "iso.edges"
        write_edge_list(g, path)
        back = read_edge_list(path)
        assert back.num_nodes == 7
        assert back.num_edges == 1

    def test_empty_graph(self, tmp_path):
        path = tmp_path / "empty.edges"
        write_edge_list(Graph(), path)
        assert read_edge_list(path).num_nodes == 0

    def test_noncontiguous_labels_rejected(self, tmp_path):
        g = Graph([(5, 9)])
        with pytest.raises(GraphError):
            write_edge_list(g, tmp_path / "bad.edges")


class TestArcListRoundTrip:
    def test_roundtrip(self, tmp_path):
        d = DiGraph([(0, 1), (1, 0), (2, 0)])
        path = tmp_path / "d.arcs"
        write_arc_list(d, path)
        assert read_arc_list(path) == d

    def test_direction_preserved(self, tmp_path):
        d = DiGraph([(0, 1)])
        d.add_node(2)
        path = tmp_path / "dir.arcs"
        write_arc_list(d, path)
        back = read_arc_list(path)
        assert back.has_arc(0, 1)
        assert not back.has_arc(1, 0)


class TestParsing:
    def test_comments_and_blank_lines(self, tmp_path):
        path = tmp_path / "manual.edges"
        path.write_text("# a comment\n\n0 1\n# another\n1 2\n")
        g = read_edge_list(path)
        assert g.num_edges == 2

    def test_malformed_line(self, tmp_path):
        path = tmp_path / "bad.edges"
        path.write_text("0 1 2\n")
        with pytest.raises(GraphError):
            read_edge_list(path)

    def test_non_integer(self, tmp_path):
        path = tmp_path / "bad2.edges"
        path.write_text("a b\n")
        with pytest.raises(GraphError):
            read_edge_list(path)

    def test_missing_header_infers_n(self, tmp_path):
        path = tmp_path / "nohdr.edges"
        path.write_text("0 3\n")
        g = read_edge_list(path)
        assert g.num_nodes == 4


class TestMalformedInputNamesThePath:
    """Every malformed input is a GraphError that names the file."""

    def _rejects(self, path, **kwargs):
        with pytest.raises(GraphError, match=path.name):
            read_edge_list(path, **kwargs)

    @pytest.mark.parametrize("value", ["four", "-3", "4.0", ""])
    def test_non_integer_nodes_header(self, tmp_path, value):
        path = tmp_path / "hdr.edges"
        path.write_text(f"# nodes: {value}\n0 1\n")
        self._rejects(path)

    def test_corrupt_gzip(self, tmp_path):
        path = tmp_path / "g.edges.gz"
        path.write_bytes(b"this is not gzip data\n")
        self._rejects(path)

    def test_truncated_gzip(self, tmp_path):
        path = tmp_path / "g.edges.gz"
        write_edge_list(erdos_renyi_gnp(25, 0.2, seed=9), path)
        path.write_bytes(path.read_bytes()[:-12])
        self._rejects(path)

    def test_invalid_utf8(self, tmp_path):
        path = tmp_path / "g.edges"
        path.write_bytes(b"0 1\n1 \xff2\n")
        self._rejects(path)
        self._rejects(path, relabel=True)

    def test_negative_id_in_native_format(self, tmp_path):
        path = tmp_path / "neg.edges"
        path.write_text("# nodes: 4\n-1 3\n")
        with pytest.raises(GraphError, match="negative vertex id -1"):
            read_edge_list(path)

    def test_negative_foreign_id_relabels(self, tmp_path):
        path = tmp_path / "neg.txt"
        path.write_text("-1 3\n")
        g, mapping = read_edge_list(path, relabel=True)
        assert mapping == {-1: 0, 3: 1}
        assert g.edge_list() == [(0, 1)]

    def test_self_loop_in_native_format(self, tmp_path):
        path = tmp_path / "loop.edges"
        path.write_text("2 2\n")
        self._rejects(path)

    def test_non_integer_mtx_size_line(self, tmp_path):
        path = tmp_path / "m.mtx"
        path.write_text("%%MatrixMarket matrix coordinate pattern general\nn n 1\n1 2\n")
        self._rejects(path, relabel=True)


class TestGzipAndForeignFormats:
    def test_gzip_round_trip(self, tmp_path):
        g = erdos_renyi_gnp(25, 0.2, seed=9)
        path = tmp_path / "g.edges.gz"
        write_edge_list(g, path)
        assert read_edge_list(path) == g

    def test_snap_style_relabel(self, tmp_path):
        import gzip

        path = tmp_path / "snap.txt.gz"
        with gzip.open(path, "wt") as fh:
            fh.write("# Directed graph (each unordered pair once)\n")
            fh.write("# Nodes: 3 Edges: 2\n")
            fh.write("9999999\t17\n17\t9999999\n17\t5\n5\t5\n")
        g, mapping = read_edge_list(path, relabel=True)
        # Both-direction arcs collapse, the self-loop is dropped, ids
        # relabel to contiguous first-seen order.
        assert g.num_nodes == 3
        assert g.num_edges == 2
        assert mapping == {9999999: 0, 17: 1, 5: 2}
        assert g.has_edge(0, 1) and g.has_edge(1, 2)

    def test_mtx_banner_size_line_and_weights(self, tmp_path):
        path = tmp_path / "m.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate real symmetric\n"
            "% a comment\n"
            "4 4 3\n"
            "1 2 0.5\n"
            "2 3 1.5\n"
            "3 4 2.5\n"
        )
        g, mapping = read_edge_list(path, relabel=True)
        assert g.num_nodes == 4
        assert g.num_edges == 3

    def test_mtx_gz(self, tmp_path):
        import gzip

        path = tmp_path / "m.mtx.gz"
        with gzip.open(path, "wt") as fh:
            fh.write("%%MatrixMarket matrix coordinate pattern general\n")
            fh.write("2 2 1\n")
            fh.write("1 2\n")
        g, mapping = read_edge_list(path, relabel=True)
        assert g.num_edges == 1

    def test_relabeled_graph_feeds_the_engine(self, tmp_path):
        import gzip

        from repro.core.edge_coloring import color_edges

        path = tmp_path / "snap.txt.gz"
        with gzip.open(path, "wt") as fh:
            for u, v in [(10, 20), (20, 30), (30, 10), (10, 40)]:
                fh.write(f"{u} {v}\n")
        g, _ = read_edge_list(path, relabel=True)
        result = color_edges(g, seed=0)
        assert len(result.colors) == g.num_edges

    def test_percent_comments_without_relabel(self, tmp_path):
        path = tmp_path / "p.txt"
        path.write_text("% not a snap file\n0 1\n1 2\n")
        g = read_edge_list(path)
        assert g.num_nodes == 3 and g.num_edges == 2

    def test_four_fields_still_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("1 2 3 4\n")
        with pytest.raises(GraphError):
            read_edge_list(path)


class TestIsolatedVertexIngestion:
    """Regression: declared sizes and num_vertices= preserve isolated
    vertices that appear in no edge line."""

    MTX_WITH_ISOLATES = (
        "%%MatrixMarket matrix coordinate pattern symmetric\n"
        "6 6 2\n"
        "1 2\n"
        "4 5\n"
    )

    def test_mtx_declared_size_pads_relabel(self, tmp_path):
        path = tmp_path / "iso.mtx"
        path.write_text(self.MTX_WITH_ISOLATES)
        g, mapping = read_edge_list(path, relabel=True)
        # Ids 3 and 6 appear in no coordinate but are declared by the
        # size line: they must come back as isolated vertices with
        # mapping slots, in ascending id order after the edge pass.
        assert g.num_nodes == 6
        assert g.num_edges == 2
        assert set(mapping) == {1, 2, 3, 4, 5, 6}
        assert g.degree(mapping[3]) == 0
        assert g.degree(mapping[6]) == 0

    def test_mtx_declared_size_pads_without_relabel(self, tmp_path):
        path = tmp_path / "iso.mtx"
        path.write_text(self.MTX_WITH_ISOLATES)
        g = read_edge_list(path)
        # 1-based coordinates: a declared dimension of 6 means labels
        # up to 6 exist, so the 0-based graph spans 0..6.
        assert g.num_nodes == 7
        assert g.num_edges == 2

    def test_num_vertices_pads_snap_style(self, tmp_path):
        path = tmp_path / "snap.txt"
        path.write_text("# Nodes: 5 Edges: 2\n10 20\n20 30\n")
        g, mapping = read_edge_list(path, relabel=True, num_vertices=5)
        assert g.num_nodes == 5
        assert g.num_edges == 2
        # The padding nodes are anonymous: no foreign id, no mapping.
        assert len(mapping) == 3
        assert g.degree(3) == 0 and g.degree(4) == 0

    def test_num_vertices_pads_plain_read(self, tmp_path):
        path = tmp_path / "plain.txt"
        path.write_text("0 1\n1 2\n")
        g = read_edge_list(path, num_vertices=6)
        assert g.num_nodes == 6
        assert g.num_edges == 2

    def test_num_vertices_too_small_rejected_relabel(self, tmp_path):
        path = tmp_path / "snap.txt"
        path.write_text("10 20\n20 30\n")
        with pytest.raises(GraphError):
            read_edge_list(path, relabel=True, num_vertices=2)

    def test_num_vertices_too_small_rejected_plain(self, tmp_path):
        path = tmp_path / "plain.txt"
        path.write_text("0 1\n1 5\n")
        with pytest.raises(GraphError):
            read_edge_list(path, num_vertices=3)

    def test_isolated_vertices_color_cleanly(self, tmp_path):
        from repro.core.edge_coloring import color_edges

        path = tmp_path / "iso.mtx"
        path.write_text(self.MTX_WITH_ISOLATES)
        g, _ = read_edge_list(path, relabel=True)
        result = color_edges(g, seed=0)
        assert len(result.colors) == g.num_edges


class TestEndpointsAreAsciiDecimal:
    """``int()`` takes ``+3``, ``1_0`` and non-ASCII digits; the reader
    does not, on either path and in no format."""

    @pytest.mark.parametrize("line", ["0 +3", "1_0 2", "0 ٣"])
    def test_native_endpoint_rejected(self, tmp_path, line):
        path = tmp_path / "g.edges"
        path.write_text(f"{line}\n", encoding="utf-8")
        with pytest.raises(GraphError, match=f"{path.name}:1: non-integer endpoint"):
            read_edge_list(path)

    def test_arabic_indic_nodes_header_rejected(self, tmp_path):
        path = tmp_path / "g.edges"
        path.write_text("# nodes: ٥\n0 1\n", encoding="utf-8")
        with pytest.raises(GraphError, match="'# nodes:' header"):
            read_edge_list(path)

    def test_signed_snap_ids_rejected(self, tmp_path):
        path = tmp_path / "snap.txt"
        path.write_text("+7 -2\n")
        with pytest.raises(GraphError, match=f"{path.name}:1: non-integer endpoint"):
            read_edge_list(path, relabel=True)

    def test_signed_mtx_size_rejected(self, tmp_path):
        path = tmp_path / "m.mtx"
        path.write_text("%%MatrixMarket matrix coordinate pattern general\n+2 2 1\n1 2\n")
        with pytest.raises(GraphError, match="non-integer MatrixMarket size line"):
            read_edge_list(path, relabel=True)

    def test_weight_column_is_not_checked(self, tmp_path):
        path = tmp_path / "m.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate real general\n"
            "3 3 2\n1 2 1.5e+00\n2 3 +2_0\n"
        )
        g, _ = read_edge_list(path, relabel=True)
        assert g.num_edges == 2

    def test_leading_minus_keeps_the_negative_id_message(self, tmp_path):
        path = tmp_path / "neg.edges"
        path.write_text("0 1\n-4 2\n")
        with pytest.raises(GraphError, match="negative vertex id -4"):
            read_edge_list(path)


class TestArcListErrors:
    def test_negative_id_message_has_no_relabel_hint(self, tmp_path):
        path = tmp_path / "neg.arcs"
        path.write_text("# nodes: 3\n-1 2\n")
        with pytest.raises(GraphError, match="negative vertex id -1") as info:
            read_arc_list(path)
        assert "relabel" not in str(info.value)


class TestArrayPath:
    """Native files parse into edge arrays; anything else takes the line
    parser, and the two agree."""

    def _both(self, path, **kwargs):
        from repro.graphs.io import _read_lines

        return read_edge_list(path, **kwargs), _read_lines(path, **kwargs)

    @pytest.mark.parametrize("suffix", [".edges", ".edges.gz"])
    def test_written_file_is_array_built_and_equal(self, tmp_path, suffix):
        g = erdos_renyi_gnp(40, 0.15, seed=2)
        path = tmp_path / f"g{suffix}"
        write_edge_list(g, path)
        fast, lines = self._both(path)
        assert fast.edge_arrays() is not None
        assert lines.edge_arrays() is None
        for a, b in zip(fast.to_csr(), lines.to_csr()):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
        assert fast == lines == g and fast.nodes() == lines.nodes()

    @pytest.mark.parametrize(
        "text",
        [
            "# nodes: 5\r\n0 1\r\n1 2\r\n",  # CRLF line ends
            "\n  # nodes: 6\n%c\n\n 0\t1 \n\n3  2\n",  # blanks, tabs, spaces
            "0 1\n2 3",  # no final line end
            "# nodes: 4\n",  # header only
            "0007 3\n3 7\n",  # leading zeros, a reversed duplicate
            "",
        ],
    )
    def test_canonical_forms_take_the_array_path(self, tmp_path, text):
        path = tmp_path / "g.edges"
        path.write_bytes(text.encode())
        fast, lines = self._both(path)
        assert fast.edge_arrays() is not None
        assert fast == lines and fast.nodes() == lines.nodes()

    @pytest.mark.parametrize(
        "text",
        [
            "0 1\n# late comment\n1 2\n",
            "0 1\r1 2\n",  # a lone carriage return is a line end
            "0 1 2\n",
        ],
    )
    def test_other_forms_take_the_line_parser(self, tmp_path, text):
        path = tmp_path / "g.edges"
        path.write_bytes(text.encode())
        try:
            lines = self._both(path)[1]
        except GraphError as exc:
            with pytest.raises(GraphError) as info:
                read_edge_list(path)
            assert str(info.value) == str(exc)
            return
        assert read_edge_list(path).edge_arrays() is None
        assert read_edge_list(path) == lines

    def test_first_self_loop_in_file_order(self, tmp_path):
        path = tmp_path / "loop.edges"
        path.write_text("0 1\n4 4\n2 2\n")
        with pytest.raises(GraphError, match=r"loop.edges: self-loop \(4, 4\)"):
            read_edge_list(path)

    def test_id_beyond_int64_is_named_exactly(self, tmp_path):
        # The line parser names the id as written; the array path would
        # read it as the int64 maximum, so it declines the file.
        path = tmp_path / "g.edges"
        path.write_text("0 1\n1 99999999999999999999\n")
        with pytest.raises(GraphError, match=r"seen \(99999999999999999999\)"):
            read_edge_list(path, num_vertices=3)

    def test_num_vertices_pads_and_checks(self, tmp_path):
        path = tmp_path / "g.edges"
        path.write_text("0 1\n1 5\n")
        g = read_edge_list(path, num_vertices=9)
        assert g.edge_arrays() is not None and g.num_nodes == 9
        with pytest.raises(GraphError, match="num_vertices=3"):
            read_edge_list(path, num_vertices=3)
