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

Both come gzip-compressed as a rule; any ``.gz`` path is decompressed
on the fly (streamed — never materialized).  Foreign ids are relabeled
to contiguous ``0..n-1`` in first-seen order with ``relabel=True``,
single pass, returning the mapping alongside the graph.

Every malformed input raises :class:`~repro.errors.GraphError` naming
the path: a bad line or header, a corrupt or truncated ``.gz``, bytes
that are not UTF-8, and (native format) a negative vertex id.
"""

from __future__ import annotations

import gzip
import io
import zlib
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Optional, Tuple, Union

from repro.errors import GraphError
from repro.graphs.adjacency import DiGraph, Graph

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


def _check_no_negative_ids(path: PathLike, g, n: int) -> None:
    """Reject negative ids in a graph built over labels ``0..n-1``.

    ``n`` already exceeds every id read, so a node beyond the ``n``
    pre-built ones can only be negative — an O(1) check, not a scan.
    """
    if g.num_nodes != n:
        raise GraphError(
            f"{path}: negative vertex id {min(g.nodes())}; the native format "
            "holds ids 0..n-1 (read foreign ids with relabel=True)"
        )


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
    n, pairs = _read_pairs(path, num_vertices)
    g = Graph.from_num_nodes(n)
    with _naming(path):
        g.add_edges_from(pairs)
    _check_no_negative_ids(path, g, n)
    return g


def read_arc_list(path: PathLike) -> DiGraph:
    """Read a digraph written by :func:`write_arc_list`."""
    n, pairs = _read_pairs(path)
    d = DiGraph.from_num_nodes(n)
    with _naming(path):
        d.add_arcs_from(pairs)
    _check_no_negative_ids(path, d, n)
    return d


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
    if num_vertices is not None:
        if num_vertices < max_label + 1:
            raise GraphError(
                f"num_vertices={num_vertices} is smaller than the largest "
                f"vertex id seen ({max_label})"
            )
        n = max(n, num_vertices)
    n = max(n, max_label + 1)
    return n, pairs


def _read_nodes_header(path: PathLike):
    """The ``# nodes: n`` header value, scanning comments only."""
    with _reading(path) as fh:
        for raw in fh:
            line = raw.strip()
            if not line:
                continue
            if not line.startswith(_COMMENT_PREFIXES):
                return None
            body = line[1:].strip()
            if body.startswith("nodes:"):
                value = body.split(":", 1)[1].strip()
                if not value.isdecimal():
                    raise GraphError(
                        f"{path}: '# nodes:' header needs a non-negative "
                        f"integer, got {value!r}"
                    )
                return int(value)
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
