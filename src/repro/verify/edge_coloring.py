"""Verification of proper edge colorings (Definition 1 of the paper).

A coloring is *proper* when no two edges sharing an endpoint carry the
same color; it is *complete* (for a graph) when every edge is colored.
The checks work directly from the definition, with no reliance on the
coloring algorithm's bookkeeping: the colored edges become
``(endpoint, color)`` keys, sorted so that duplicates sit side by side,
and the graph's edges become sorted keys that each colored edge is
probed against.  :mod:`repro.verify._arrays` turns the graph and the
coloring into those keys without coercing any value.
"""

from __future__ import annotations

from typing import List, Mapping

import numpy as np

from repro.errors import VerificationError
from repro.graphs.adjacency import Graph
from repro.types import Color, Edge
from repro.verify._arrays import (
    Entries,
    Nodes,
    adjacency,
    entries,
    groups,
    has_duplicates,
    member,
)

__all__ = [
    "check_proper_edge_coloring",
    "check_edge_coloring_complete",
    "assert_proper_edge_coloring",
]


def check_proper_edge_coloring(
    graph: Graph, colors: Mapping[Edge, Color], *, complete: bool = False
) -> List[str]:
    """Return violations of properness (empty list = proper).

    Checks, for the given (possibly partial) coloring:

    1. every key is a pair of comparable endpoints, in canonical
       ``(low, high)`` order, naming an edge of ``graph``;
    2. colors are non-negative integers;
    3. no vertex has two incident edges of equal color: a vertex with
       ``k`` such edges of one color yields ``k - 1`` violations, each
       naming the first of them;
    4. with ``complete=True``, every edge of ``graph`` is colored.
    """
    nodes, rows, cols = adjacency(graph, graph.neighbors)
    e = entries(nodes, colors, strong=False)
    present = _present(nodes, rows, cols, e)
    violations = _entry_violations(e, present)
    violations += _clashes(e)
    if complete:
        violations += _uncolored(nodes, rows, cols, e, present)
    return violations


def check_edge_coloring_complete(
    graph: Graph, colors: Mapping[Edge, Color]
) -> List[str]:
    """Return the graph edges missing from ``colors`` (as violations).

    The same list ``check_proper_edge_coloring(..., complete=True)``
    ends with.  Only the benchmark under ``perfbench/`` still calls
    this; everything else makes that one call instead.
    """
    nodes, rows, cols = adjacency(graph, graph.neighbors)
    e = entries(nodes, colors, strong=False)
    return _uncolored(nodes, rows, cols, e, _present(nodes, rows, cols, e))


def _present(nodes: Nodes, rows: np.ndarray, cols: np.ndarray, e: Entries) -> np.ndarray:
    """Entries with a canonical key that names an edge of the graph."""
    n = nodes.n
    inside = np.flatnonzero((e.order == 1) & (e.u < n) & (e.v < n))
    low = np.minimum(e.u[inside], e.v[inside])
    high = np.maximum(e.u[inside], e.v[inside])
    once = rows < cols
    edge_keys = np.sort(rows[once] * n + cols[once])
    present = np.zeros(len(e.keys), dtype=bool)
    present[inside] = member(low * n + high, edge_keys)
    return present


def _entry_violations(e: Entries, present: np.ndarray) -> List[str]:
    """Per-entry violations, in the mapping's order."""
    out: List[str] = []
    usable = e.pair & (e.order >= 0)
    for i in np.flatnonzero(~present | ~e.valid).tolist():
        edge = e.keys[i]
        if not usable[i]:
            out.append(f"edge key {edge!r} is not a pair of comparable node ids")
            continue
        if e.order[i] != 1:
            out.append(f"edge key {edge} is not canonical (low, high)")
            continue
        if not present[i]:
            out.append(f"colored edge {edge} is not in the graph")
        if not e.valid[i]:
            out.append(f"edge {edge} has invalid color {e.values[i]!r}")
    return out


def _clashes(e: Entries) -> List[str]:
    """Two edges of one color at one vertex, over every usable key."""
    idx = np.flatnonzero(e.pair & (e.order >= 0))
    ends = np.empty(2 * len(idx), dtype=np.int64)
    ends[0::2] = e.u[idx]
    ends[1::2] = e.v[idx]
    key = ends * e.ncolors + np.repeat(e.color[idx], 2)
    if not has_duplicates(key):
        return []
    order, start = groups(key)
    later = np.flatnonzero(start != np.arange(len(key)))
    slots = order[later]
    firsts = order[start[later]]
    out: List[str] = []
    for pos in np.argsort(slots).tolist():
        slot = int(slots[pos])
        i, j = int(idx[slot // 2]), int(idx[firsts[pos] // 2])
        edge = e.keys[i]
        out.append(
            f"vertex {tuple(edge)[slot % 2]}: edges {e.keys[j]} and {edge} "
            f"both colored {e.values[i]}"
        )
    return out


def _uncolored(
    nodes: Nodes, rows: np.ndarray, cols: np.ndarray, e: Entries, present: np.ndarray
) -> List[str]:
    """Graph edges no entry colors, in ``graph.edges()`` order."""
    n = nodes.n
    once = rows < cols
    if int(present.sum()) == int(once.sum()):  # distinct keys, distinct edges
        return []
    covered = np.sort(np.minimum(e.u[present], e.v[present]) * n
                      + np.maximum(e.u[present], e.v[present]))
    if not nodes.ints:  # edges() yields (u, v) when u < v as node ids
        ids = nodes.ids
        once = np.fromiter(
            (ids[r] < ids[c] for r, c in zip(rows.tolist(), cols.tolist())),
            dtype=bool, count=len(rows),
        )
    r, c = rows[once], cols[once]
    missing = ~member(np.minimum(r, c) * n + np.maximum(r, c), covered)
    return [
        f"edge {(nodes.id_of(a), nodes.id_of(b))} is uncolored"
        for a, b in zip(r[missing].tolist(), c[missing].tolist())
    ]


def assert_proper_edge_coloring(
    graph: Graph, colors: Mapping[Edge, Color], *, complete: bool = True
) -> None:
    """Raise :class:`VerificationError` unless ``colors`` is proper.

    With ``complete=True`` (default) also requires every edge colored.
    """
    violations = check_proper_edge_coloring(graph, colors, complete=complete)
    if violations:
        preview = "; ".join(violations[:5])
        raise VerificationError(
            f"invalid edge coloring ({len(violations)} violations): {preview}"
        )
