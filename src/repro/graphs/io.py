"""Plain-text edge-list persistence and foreign edge-list ingestion.

The native format is one ``u v`` pair per line, ``#`` comments, plus an
optional ``# nodes: n`` header so isolated nodes survive a round trip.
This is deliberately minimal — it exists so experiment workloads can be
frozen to disk and replayed, not as a general graph-interchange layer.

:func:`read_edge_list` additionally ingests the two formats real
benchmark graphs ship in:

* **SNAP-style** — ``#`` comment banner, tab/space separated pairs,
  arbitrary (sparse, huge) integer ids, often both arc directions and
  the occasional self-loop;
* **MatrixMarket coordinate** (``.mtx``) — ``%`` comments, a
  ``rows cols nnz`` size line before the 1-based entries, optionally a
  weight column.

Both come gzip-compressed as a rule; any ``.gz`` path the line parser
reads is decompressed on the fly (streamed — never materialized).
Foreign ids are relabeled to contiguous ``0..n-1`` in first-seen order
with ``relabel=True``, single pass, returning the mapping alongside the
graph.

Native files take an array path first (``relabel=False``, any suffix
but ``.mtx``).  It reads the whole file as bytes — a ``.gz`` file is
decompressed whole, not streamed — takes the ``# nodes:`` header from
the leading comment block, checks the body in bulk with numpy and parses
it straight into int64 edge arrays, which
:meth:`~repro.graphs.adjacency.Graph.from_edge_arrays` turns into a
graph without adjacency sets.  It takes only the canonical ASCII form:
after the leading block of comment and blank lines, every line is blank
or two runs of digits separated by spaces or tabs, ``\\r`` appears only
before ``\\n``, and every id is below
:data:`~repro.graphs.adjacency.MAX_ARRAY_NODES`.  Anything else goes to
the line parser, so the two paths agree on every input: the same graph,
or the same :class:`~repro.errors.GraphError`.

Every malformed input raises :class:`~repro.errors.GraphError` naming
the path: a bad line or header, a corrupt or truncated ``.gz``, bytes
that are not UTF-8, and (native format) a negative vertex id.  An
endpoint is ASCII decimal digits, optionally after one ``-``, and a
``# nodes:`` value is ASCII digits; ``int()`` alone would also take
``+3``, ``1_0`` and non-ASCII digits.
"""

from __future__ import annotations

import gzip
import io
import zlib
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Optional, Tuple, Union

import numpy as np

from repro.errors import GraphError
from repro.graphs.adjacency import MAX_ARRAY_NODES, DiGraph, Graph

__all__ = ["write_edge_list", "read_edge_list", "write_arc_list", "read_arc_list"]

PathLike = Union[str, Path]

#: Comment prefixes tolerated on input: ``#`` (native, SNAP) and
#: ``%`` (MatrixMarket, including the ``%%MatrixMarket`` banner).
_COMMENT_PREFIXES = ("#", "%")

#: What a corrupt or truncated ``.gz`` stream, or bytes that are not
#: UTF-8, raise while a file is read.
_DECODE_ERRORS = (gzip.BadGzipFile, EOFError, zlib.error, UnicodeDecodeError)


def write_edge_list(g: Graph, path: PathLike) -> None:
    """Write ``g`` to ``path`` as an edge list with a node-count header.

    A ``.gz`` suffix writes gzip-compressed text (readable back by
    :func:`read_edge_list`).
    """
    with _open_text(path, "wt") as fh:
        _write_pairs(fh, sorted(g.nodes()), g.edge_list())


def write_arc_list(d: DiGraph, path: PathLike) -> None:
    """Write digraph ``d`` to ``path`` as an arc list with a node-count header."""
    with _open_text(path, "wt") as fh:
        _write_pairs(fh, sorted(d.nodes()), d.arc_list())


def _open_text(path: PathLike, mode: str):
    """Text handle on ``path``; ``.gz`` suffixes stream through gzip."""
    if str(path).endswith(".gz"):
        return gzip.open(path, mode, encoding="utf-8")
    return open(path, mode.replace("t", ""), encoding="utf-8")


@contextmanager
def _naming(path: PathLike):
    """Prefix a GraphError raised while building the graph (a self-loop
    in the native format) with the path it came from."""
    try:
        yield
    except GraphError as exc:
        raise GraphError(f"{path}: {exc}") from exc


@contextmanager
def _reading(path: PathLike):
    """Text handle for reading ``path``; decoding failures become GraphError.

    The handler wraps the whole read, so it costs nothing per line.
    """
    try:
        with _open_text(path, "rt") as fh:
            yield fh
    except _DECODE_ERRORS as exc:
        raise GraphError(
            f"{path}: cannot decode input ({type(exc).__name__}: {exc})"
        ) from exc


def _check_no_negative_ids(path: PathLike, g, n: int, hint: str = "") -> None:
    """Reject negative ids in a graph built over labels ``0..n-1``.

    ``n`` already exceeds every id read, so a node beyond the ``n``
    pre-built ones can only be negative — an O(1) check, not a scan.
    """
    if g.num_nodes != n:
        raise GraphError(
            f"{path}: negative vertex id {min(g.nodes())}; the native format "
            f"holds ids 0..n-1{hint}"
        )


def _decimal(tokens: str) -> bool:
    """True unless ``tokens`` (one or more tokens, joined) holds a ``+``,
    a ``_`` or a non-ASCII character.  A token ``int()`` reads from such
    text is ASCII ``-?[0-9]+``, the one endpoint form the readers take."""
    return tokens.isascii() and "+" not in tokens and "_" not in tokens


def _leading_line(line: str) -> Tuple[bool, Optional[str]]:
    """``(data, header)`` for a stripped line of a file's leading block:
    ``data`` is False for a blank or comment line, and ``header`` is the
    value a ``# nodes:`` comment declares (None on any other line)."""
    if line and not line.startswith(_COMMENT_PREFIXES):
        return True, None
    body = line[1:].strip()
    if body.startswith("nodes:"):
        return False, body.split(":", 1)[1].strip()
    return False, None


def _node_count(value: str) -> Optional[int]:
    """A ``# nodes:`` value as an int; None unless it is ASCII digits."""
    return int(value) if value.isascii() and value.isdigit() else None


def _write_pairs(fh: io.TextIOBase, nodes, pairs) -> None:
    fh.write(f"# nodes: {len(nodes)}\n")
    if nodes and (nodes[0] != 0 or nodes[-1] != len(nodes) - 1):
        raise GraphError("io layer requires contiguous node labels 0..n-1")
    for u, v in pairs:
        fh.write(f"{u} {v}\n")


def read_edge_list(
    path: PathLike, *, relabel: bool = False, num_vertices: Optional[int] = None
):
    """Read an edge list from ``path`` (gzip and foreign formats included).

    With ``relabel=False`` (default) this reads a file written by
    :func:`write_edge_list` and returns the :class:`Graph` — labels must
    already be contiguous-ish small integers (anything else inflates the
    node count, exactly as before).

    With ``relabel=True`` this is the benchmark-graph ingester: returns
    ``(graph, mapping)`` where ``mapping`` takes each original id to its
    contiguous ``0..n-1`` label (first-seen order, assigned in one
    streaming pass — the original ids are never collected).  Self-loops
    (present in raw SNAP dumps; meaningless to edge coloring) are
    dropped, duplicate pairs and both-direction arcs collapse into the
    one undirected edge.

    **Isolated vertices survive.**  A MatrixMarket size line declaring
    ``n`` rows/columns means the matrix — hence the graph — has ``n``
    vertices, entries or not; ids ``1..n`` absent from every coordinate
    get mapping slots (and isolated graph nodes) after the streaming
    pass, in ascending id order.  SNAP banners carry no reliable size,
    so for SNAP-style files pass ``num_vertices=`` to pad the graph
    with anonymous isolated nodes up to the declared population (these
    have no foreign id, so they get no ``mapping`` entry).
    ``num_vertices`` smaller than the ids actually seen is an error.
    """
    if relabel:
        return _read_relabeled(path, num_vertices)
    if not str(path).endswith((".mtx", ".mtx.gz")):
        g = _read_arrays(path, num_vertices)
        if g is not None:
            return g
    return _read_lines(path, num_vertices)


def _read_lines(path: PathLike, num_vertices: Optional[int] = None) -> Graph:
    """The line parser's native read: what :func:`read_edge_list` returns
    for every input the array path declines."""
    n, pairs = _read_pairs(path, num_vertices)
    g = Graph.from_num_nodes(n)
    with _naming(path):
        g.add_edges_from(pairs)
    _check_no_negative_ids(path, g, n, " (read foreign ids with relabel=True)")
    return g


def read_arc_list(path: PathLike) -> DiGraph:
    """Read a digraph written by :func:`write_arc_list`."""
    n, pairs = _read_pairs(path)
    d = DiGraph.from_num_nodes(n)
    with _naming(path):
        d.add_arcs_from(pairs)
    _check_no_negative_ids(path, d, n)
    return d


# -- the array path -----------------------------------------------------------

def _read_arrays(path: PathLike, num_vertices: Optional[int]) -> Optional[Graph]:
    """A native edge list parsed straight into edge arrays, or None when
    the input is not in the canonical form (see the module docstring)."""
    try:
        data = _read_bytes(path)
    except _DECODE_ERRORS:
        return None
    leading = _leading_block(data)
    if leading is None:
        return None
    start, header = leading
    values = _parse_body(data[start:])
    if values is None:
        return None
    max_label = int(values.max()) if len(values) else -1
    # A token beyond int64 parses as the int64 maximum, which is far
    # above the limit too.
    if max(header or 0, max_label + 1, num_vertices or 0) > MAX_ARRAY_NODES:
        return None
    n = _num_nodes(header or 0, max_label, num_vertices)
    with _naming(path):
        return Graph.from_edge_arrays(n, values[0::2], values[1::2])


def _read_bytes(path: PathLike) -> bytes:
    if str(path).endswith(".gz"):
        with gzip.open(path, "rb") as fh:
            return fh.read()
    with open(path, "rb") as fh:
        return fh.read()


def _leading_block(data: bytes) -> Optional[Tuple[int, Optional[int]]]:
    """``(offset of the first data line, '# nodes:' value or None)``, from
    the leading comment and blank lines read as the line parser reads
    them; None for a line it would split or decode differently, and for
    a header it rejects."""
    pos, header = 0, None
    while pos < len(data):
        end = data.find(b"\n", pos)
        stop = len(data) if end < 0 else end + 1
        raw = data[pos:stop].rstrip(b"\n")
        raw = raw[:-1] if raw.endswith(b"\r") else raw
        if b"\r" in raw:
            return None
        try:
            data_line, value = _leading_line(raw.decode("utf-8").strip())
        except UnicodeDecodeError:
            return None
        if data_line:
            break
        if header is None and value is not None:
            header = _node_count(value)
            if header is None:
                return None
        pos = stop
    return pos, header


def _parse_body(body: bytes) -> Optional[np.ndarray]:
    """The endpoints of ``body`` as one int64 array ``u0 v0 u1 v1 ...``,
    or None unless every line is blank or ``digits ws digits`` and every
    ``\\r`` comes before a ``\\n``."""
    b = np.frombuffer(body, dtype=np.uint8)
    digit = (b - np.uint8(48)) < 10
    newline = b == 10
    if not (digit | newline | (b == 32) | (b == 9) | (b == 13)).all():
        return None
    cr = np.flatnonzero(b == 13)
    if len(cr) and (cr[-1] + 1 == len(b) or not newline[cr + 1].all()):
        return None
    starts = digit.copy()
    starts[1:] &= ~digit[:-1]
    events = np.flatnonzero(starts | newline)
    breaks = np.flatnonzero(newline[events])
    # Tokens between consecutive line ends, and after the last one.
    per_line = np.diff(breaks, prepend=-1, append=len(events)) - 1
    if not ((per_line == 0) | (per_line == 2)).all():
        return None
    tokens = len(events) - len(breaks)
    if not tokens:
        # fromstring reads text without a token as one 0.
        return np.zeros(0, dtype=np.int64)
    # Any whitespace separates numbers for fromstring; the count check
    # holds it to the tokens found above.
    values = np.fromstring(body, dtype=np.int64, sep=" ")
    return values if len(values) == tokens else None


def _num_nodes(header: int, max_label: int, num_vertices: Optional[int]) -> int:
    """The node count of a native read: the header, the largest id plus
    one and ``num_vertices``, whichever is largest."""
    n = header
    if num_vertices is not None:
        if num_vertices < max_label + 1:
            raise GraphError(
                f"num_vertices={num_vertices} is smaller than the largest "
                f"vertex id seen ({max_label})"
            )
        n = max(n, num_vertices)
    return max(n, max_label + 1)


# -- the line parser ----------------------------------------------------------


def _parse_lines(
    path: PathLike, *, lenient: bool = False, declared: Optional[dict] = None
):
    """Yield ``(lineno, u, v)`` endpoint pairs from one edge-list file.

    Handles gzip transparently, skips blank and comment lines, and
    consumes the MatrixMarket size line (first data line of a ``.mtx``
    file), recording its declared dimensions into ``declared`` (as
    ``declared["size"] = max(rows, cols)``) when a dict is passed — the
    ingester uses it to keep isolated vertices.  A trailing weight
    column is tolerated only on the foreign formats (``lenient=True``,
    i.e. relabel-mode ingestion, or a ``.mtx`` suffix) — the strict
    native format written by :func:`write_edge_list` never has one, so
    a third field there is corruption, not data.
    """
    name = str(path)
    is_mtx = name.endswith((".mtx", ".mtx.gz"))
    header_pending = is_mtx
    allowed = (2, 3) if (lenient or is_mtx) else (2,)
    with _reading(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith(_COMMENT_PREFIXES):
                continue
            parts = line.split()
            if header_pending:
                # MatrixMarket "rows cols nnz" size line: sizes, not an
                # entry — consumed once, before the first coordinate.
                header_pending = False
                if len(parts) == 3:
                    try:
                        if not _decimal("".join(parts)):
                            raise ValueError(line)
                        size = max(int(parts[0]), int(parts[1]))
                        int(parts[2])
                    except ValueError as exc:
                        raise GraphError(
                            f"{path}:{lineno}: non-integer MatrixMarket "
                            f"size line {line!r}"
                        ) from exc
                    if declared is not None:
                        declared["size"] = size
                    continue
            if len(parts) not in allowed:
                raise GraphError(f"{path}:{lineno}: expected 'u v', got {line!r}")
            try:
                # Both endpoints in one test; a weight column is not checked.
                if not _decimal(parts[0] + parts[1]):
                    raise ValueError(line)
                u, v = int(parts[0]), int(parts[1])
            except ValueError as exc:
                raise GraphError(f"{path}:{lineno}: non-integer endpoint") from exc
            yield lineno, u, v


def _read_pairs(path: PathLike, num_vertices: Optional[int] = None):
    n = 0
    pairs = []
    header = _read_nodes_header(path)
    if header is not None:
        n = header
    declared: dict = {}
    for _, u, v in _parse_lines(path, declared=declared):
        pairs.append((u, v))
    if "size" in declared:
        # MatrixMarket coordinates are 1-based, so a declared dimension
        # of n means ids 1..n — labels 0..n, i.e. n + 1 nodes here.
        n = max(n, declared["size"] + 1)
    max_label = max((max(u, v) for u, v in pairs), default=-1)
    return _num_nodes(n, max_label, num_vertices), pairs


def _read_nodes_header(path: PathLike):
    """The ``# nodes: n`` header value, scanning comments only."""
    with _reading(path) as fh:
        for raw in fh:
            data_line, value = _leading_line(raw.strip())
            if data_line:
                return None
            if value is not None:
                count = _node_count(value)
                if count is None:
                    raise GraphError(
                        f"{path}: '# nodes:' header needs a non-negative "
                        f"integer, got {value!r}"
                    )
                return count
    return None


def _read_relabeled(
    path: PathLike, num_vertices: Optional[int] = None
) -> Tuple[Graph, Dict[int, int]]:
    mapping: Dict[int, int] = {}
    g = Graph()
    declared: dict = {}
    for _, u, v in _parse_lines(path, lenient=True, declared=declared):
        if u == v:
            continue  # raw SNAP dumps carry self-loops; coloring can't
        iu = mapping.setdefault(u, len(mapping))
        iv = mapping.setdefault(v, len(mapping))
        g.add_edge(iu, iv)
    if "size" in declared:
        # The MatrixMarket header declares the full vertex population;
        # ids (1-based) that appear in no coordinate are isolated
        # vertices, not absent ones.  Give them mapping slots in
        # ascending id order so downstream CSR/color queries see the
        # declared graph, not the edge-endpoint subgraph.
        for orig in range(1, declared["size"] + 1):
            if orig not in mapping:
                g.add_node(mapping.setdefault(orig, len(mapping)))
    if num_vertices is not None:
        if num_vertices < g.num_nodes:
            raise GraphError(
                f"num_vertices={num_vertices} is smaller than the "
                f"{g.num_nodes} vertices present in {path}"
            )
        # SNAP-style dumps name no ids for their isolated vertices, so
        # the padding nodes are anonymous: fresh contiguous labels with
        # no mapping entry.
        for label in range(g.num_nodes, num_vertices):
            g.add_node(label)
    return g, mapping
