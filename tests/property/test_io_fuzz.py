"""Fuzz the readers over malformed native, arc-list, SNAP, mtx and gzip input.

Each example renders a small graph in one of the formats the readers
ingest — the native format :func:`write_edge_list` writes, the arc list
:func:`write_arc_list` writes (read with :func:`read_arc_list`), a SNAP
dump with foreign ids (read with ``relabel=True``) or a MatrixMarket
coordinate file (read either way) — optionally gzip-compressed, then
applies at most one corruption.  The reader has exactly two acceptable
answers: the intended graph, or :class:`GraphError`.  Any other
exception, or any other graph, fails the property.

A native read takes the array path when the file is in the canonical
form and the line parser otherwise; on every native case, and on noise
drawn byte by byte, both give the same graph or the same error text.

Corruptions that make the input invalid must raise.  A flipped byte in a
``.gz`` file may land in header fields gzip ignores, so there either
answer is accepted.  Truncation keeps at least one byte: a zero-byte
file is the empty edge list in either encoding, not a malformed one.
"""

import gzip
import re
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.errors import GraphError
from repro.graphs.adjacency import DiGraph, Graph
from repro.graphs.io import _read_lines, read_arc_list, read_edge_list

from .strategies import graphs

FUZZ = settings(
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

#: Endpoint tokens that are not ASCII decimal integers (``int()`` takes
#: the last three).
BAD_TOKENS = [
    "x", "1.5", "0x1f", "--1", "1e3", "nan", "+-2", "1\x002", "٣x", "+3", "1_0", "٣",
]
#: ``# nodes:`` values that are not a node count.
BAD_HEADERS = ["x", "-3", "4.0", "", "1_0", "0x4", "3 nodes", "٥"]
#: Byte sequences that are not UTF-8.
BAD_BYTES = [b"\xff", b"\x80", b"\xc3\x28", b"\xed\xa0\x80", b"\xf8\x88\x80\x80\x80"]

#: Corruptions that must raise, and the formats they apply to.
MUST_RAISE = {
    "token": ("native", "arcs", "snap", "mtx"),
    "fields": ("native", "arcs", "snap", "mtx"),
    "header": ("native", "arcs"),
    "negative": ("native", "arcs"),
    "loop": ("native", "arcs"),
    "mtx_size": ("mtx",),
    "utf8": ("native", "arcs", "snap", "mtx"),
    "truncate_gz": ("native", "arcs", "snap", "mtx"),
}

FORMATS = ("native", "arcs", "snap", "mtx")

#: Corruptions of one entry line.
_LINE_CORRUPTIONS = ("token", "fields", "negative", "loop")


@st.composite
def cases(draw, formats=FORMATS):
    """(file bytes, file name, read kwargs, intended graph, must-raise)."""
    g = draw(graphs(max_nodes=10))
    fmt = draw(st.sampled_from(formats))
    compressed = draw(st.booleans())
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    sep = draw(st.sampled_from([" ", "\t", "  "]))
    edges = g.edge_list()

    if fmt == "native":
        header = [f"# nodes: {g.num_nodes}"]
        data = [f"{u}{sep}{v}" for u, v in edges]
        kwargs = {}
        intended = ("native", g)
    elif fmt == "arcs":
        d = DiGraph.from_num_nodes(g.num_nodes)
        for u, v in edges:
            way = draw(st.sampled_from(["forward", "backward", "both"]))
            if way != "backward":
                d.add_arc(u, v)
            if way != "forward":
                d.add_arc(v, u)
        header = [f"# nodes: {g.num_nodes}"]
        data = [f"{u}{sep}{v}" for u, v in d.arc_list()]
        kwargs = {}
        intended = ("arcs", d)
    elif fmt == "snap":
        ids = draw(
            st.lists(
                st.integers(-(2**40), 2**40),
                unique=True,
                min_size=g.num_nodes,
                max_size=g.num_nodes,
            )
        )
        both = draw(st.booleans())
        header = ["# Undirected graph: fuzz", "# FromNodeId\tToNodeId"]
        data = []
        for u, v in edges:
            data.append(f"{ids[u]}{sep}{ids[v]}")
            if both:
                data.append(f"{ids[v]}{sep}{ids[u]}")
        if g.num_nodes and draw(st.booleans()):
            loop = ids[draw(st.integers(0, g.num_nodes - 1))]
            data.insert(draw(st.integers(0, len(data))), f"{loop}{sep}{loop}")
        kwargs = {"relabel": True}
        intended = (
            "relabeled",
            {ids[u] for e in edges for u in e},
            {frozenset((ids[u], ids[v])) for u, v in edges},
        )
    else:
        weight = draw(st.sampled_from(["", f"{sep}1", f"{sep}0.5"]))
        header = [
            "%%MatrixMarket matrix coordinate pattern symmetric",
            "% fuzz",
            f"{g.num_nodes} {g.num_nodes} {len(edges)}",
        ]
        data = [f"{v + 1}{sep}{u + 1}{weight}" for u, v in edges]
        relabel = draw(st.booleans())
        kwargs = {"relabel": relabel}
        if relabel:
            intended = (
                "relabeled",
                set(range(1, g.num_nodes + 1)),
                {frozenset((u + 1, v + 1)) for u, v in edges},
            )
        else:
            shifted = Graph.from_num_nodes(g.num_nodes + 1)
            shifted.add_edges_from((u + 1, v + 1) for u, v in edges)
            intended = ("native", shifted)

    # Benign noise the reader must see through.
    for _ in range(draw(st.integers(0, 2))):
        data.insert(
            draw(st.integers(0, len(data))),
            draw(st.sampled_from(["", "# comment", "% comment", "   "])),
        )

    choices = [name for name, fmts in MUST_RAISE.items() if fmt in fmts]
    if not any(_is_entry(line) for line in data):
        choices = [c for c in choices if c not in _LINE_CORRUPTIONS]
    if not compressed:
        choices.remove("truncate_gz")
    corruption = draw(
        st.sampled_from([None, *choices, *(["flip_gz"] if compressed else [])])
    )

    if corruption == "header":
        header[0] = f"# nodes: {draw(st.sampled_from(BAD_HEADERS))}"
    elif corruption == "mtx_size":
        header[2] = draw(st.sampled_from(["n n m", f"{g.num_nodes} x 1", "3 3 2.5"]))
    elif corruption in _LINE_CORRUPTIONS:
        at = draw(st.sampled_from([i for i, line in enumerate(data) if _is_entry(line)]))
        parts = data[at].split()
        if corruption == "token":
            parts[draw(st.integers(0, 1))] = draw(st.sampled_from(BAD_TOKENS))
        elif corruption == "fields":
            parts = parts[:1] if draw(st.booleans()) else parts[:2] + ["1", "2"]
        elif corruption == "loop":
            parts[1] = parts[0]
        else:
            parts[draw(st.integers(0, 1))] = str(-draw(st.integers(1, 5)))
        data[at] = sep.join(parts)

    raw = eol.join(header + data).encode() + eol.encode()
    if corruption == "utf8":
        at = draw(st.integers(0, len(raw)))
        raw = raw[:at] + draw(st.sampled_from(BAD_BYTES)) + raw[at:]
    suffix = {"native": ".edges", "arcs": ".arcs", "snap": ".txt", "mtx": ".mtx"}[fmt]
    if compressed:
        raw = gzip.compress(raw)
        suffix += ".gz"
        if corruption == "truncate_gz":
            raw = raw[: draw(st.integers(1, len(raw) - 1))]
        elif corruption == "flip_gz":
            at = draw(st.integers(0, len(raw) - 1))
            raw = raw[:at] + bytes([raw[at] ^ draw(st.integers(1, 255))]) + raw[at + 1 :]
    must_raise = corruption is not None and corruption != "flip_gz"
    return raw, "input" + suffix, kwargs, intended, must_raise


def _is_entry(line: str) -> bool:
    return bool(line.strip()) and not line.lstrip().startswith(("#", "%"))


def _matches(result, intended) -> bool:
    if intended[0] in ("native", "arcs"):
        return result == intended[1]
    graph, mapping = result
    inverse = {new: old for old, new in mapping.items()}
    if graph.num_nodes != len(mapping):
        return False
    nodes = {inverse[u] for u in graph.nodes()}
    edges = {frozenset((inverse[u], inverse[v])) for u, v in graph.edge_list()}
    return (nodes, edges) == intended[1:]


class TestReadEdgeListFuzz:
    @FUZZ
    @given(case=cases())
    def test_graph_error_or_the_intended_graph(self, case):
        raw, name, kwargs, intended, must_raise = case
        read = read_arc_list if intended[0] == "arcs" else read_edge_list
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / name
            path.write_bytes(raw)
            try:
                result = read(path, **kwargs)
            except GraphError as exc:
                assert name in str(exc)
                return
        assert not must_raise, "corrupt input loaded without GraphError"
        assert _matches(result, intended)


def _outcome(read, path):
    """What ``read(path)`` gives: the graph's full description, or the
    text of its GraphError."""
    try:
        g = read(path)
    except GraphError as exc:
        return ("error", str(exc))
    csr = tuple((a.dtype.str, a.tobytes()) for a in g.to_csr())
    return ("graph", g.nodes(), g.num_edges, csr, sorted(g.edge_list()))


#: Pieces the noise files are made of: whole lines, small ids, every
#: separator and line end, comment marks and the tokens the readers
#: must reject.
NOISE = ["1 2\n", "0\t3\r\n", " 5  1 \n", "4 4\n", "# c\n", "# nodes: 9\n",
         "0", "1", "7", "10", " ", "\t", "\n", "\r\n", "\r", "#", "%", "-", "+",
         "_", "٣", "x", "\x00"]


class TestBothReaderPaths:
    @FUZZ
    @given(case=cases(formats=("native",)))
    def test_native_cases_agree(self, case):
        raw, name, _, _, _ = case
        self._agree(raw, name)

    @FUZZ
    @given(pieces=st.lists(st.sampled_from(NOISE), max_size=40), gz=st.booleans())
    def test_noise_agrees(self, pieces, gz):
        text = "".join(pieces)
        assume(not re.search("[0-9]{4}", text))  # keeps the line parser's n small
        raw = text.encode()
        self._agree(gzip.compress(raw) if gz else raw, "noise.edges.gz" if gz else "noise.edges")

    @staticmethod
    def _agree(raw, name):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / name
            path.write_bytes(raw)
            fast = _outcome(read_edge_list, path)
            assert fast == _outcome(_read_lines, path)
            if fast[0] == "graph":
                # The same graph compares equal across the two builds.
                assert read_edge_list(path) == _read_lines(path)
