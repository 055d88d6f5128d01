"""Verification of strong directed edge colorings (Definition 2).

Conflict semantics (DESIGN.md, "Strong-coloring conflict model"): two
distinct arcs ``a=(u,v)`` and ``b=(w,x)`` may not share a channel when

1. they share an endpoint (covers the reverse arc ``(v,u)``), or
2. ``w`` is an underlying neighbor of ``v``  (pattern e''(w,v)/e'''(w,x):
   transmitter w interferes at receiver v), or
3. ``u`` is an underlying neighbor of ``x``  (the symmetric pattern).

The check works on integer keys (:mod:`repro.verify._arrays` builds
them without coercing any value).  Rule 1 sorts ``(endpoint, channel)``
keys so that arcs sharing both sit side by side.  Rule 2 expands each
colored arc's head neighbourhood from the underlying adjacency and
probes the sorted ``(tail, channel)`` keys with ``searchsorted``,
excluding the arc itself.  Rule 3 for ``(a, b)`` is rule 2 for
``(b, a)``, so probing from every colored arc checks both.  The work is
O(m·Δ) probes, and the conflicting pairs are enumerated only when a
probe hits.  All of it is independent of both the DiMa2Ed
implementation and the conflict-graph construction in
:mod:`repro.graphs.linegraph` (which the test-suite cross-checks against
this module).
"""

from __future__ import annotations

from typing import List, Mapping, Tuple

import numpy as np

from repro.errors import VerificationError
from repro.graphs.adjacency import DiGraph
from repro.types import Arc, Color
from repro.verify._arrays import (
    Entries,
    adjacency,
    distinct,
    entries,
    groups,
    has_duplicates,
    member,
    ranges,
)

__all__ = ["check_strong_arc_coloring", "assert_strong_arc_coloring"]


def check_strong_arc_coloring(
    digraph: DiGraph, colors: Mapping[Arc, Color], *, complete: bool = True
) -> List[str]:
    """Return violations of the strong-coloring property (empty = valid).

    Per entry, in the mapping's order: a key that is no ``(tail, head)``
    pair, an arc not in ``digraph``, a channel that is not a
    non-negative integer.  Then, with ``complete=True``, every arc left
    uncolored.  Then each unordered pair of conflicting colored arcs,
    once, named in the mapping's order.
    """
    nodes, tails, heads = adjacency(digraph, digraph.successors)
    e = entries(nodes, colors, strong=True)
    n = nodes.n
    arc_keys = tails * n + heads
    inside = np.flatnonzero(e.pair & (e.u < n) & (e.v < n))
    present = np.zeros(len(e.keys), dtype=bool)
    present[inside] = member(e.u[inside] * n + e.v[inside], np.sort(arc_keys))

    violations: List[str] = []
    for i in np.flatnonzero(~present | ~e.valid).tolist():
        arc = e.keys[i]
        if not e.pair[i]:
            violations.append(f"arc key {arc!r} is not a (tail, head) pair")
            continue
        if not present[i]:
            violations.append(f"colored arc {arc} is not in the digraph")
        if not e.valid[i]:
            violations.append(f"arc {arc} has invalid channel {e.values[i]!r}")

    colored = np.flatnonzero(present)
    if complete and len(colored) < len(arc_keys):  # distinct keys, distinct arcs
        missing = ~member(arc_keys, np.sort(e.u[colored] * n + e.v[colored]))
        violations += [
            f"arc {(nodes.id_of(t), nodes.id_of(h))} is uncolored"
            for t, h in zip(tails[missing].tolist(), heads[missing].tolist())
        ]

    for i, j in _conflicts(n, tails, heads, e, colored):
        violations.append(
            f"arcs {e.keys[i]} and {e.keys[j]} both use channel {e.values[i]} "
            f"but conflict"
        )
    return violations


def _conflicts(
    n: int, tails: np.ndarray, heads: np.ndarray, e: Entries, colored: np.ndarray
) -> List[Tuple[int, int]]:
    """Conflicting pairs ``(i, j)`` among the entries ``colored`` (the
    colored arcs of the digraph), ``i < j``, sorted."""
    t, h, c = e.u[colored], e.v[colored], e.color[colored]
    ncolors = e.ncolors
    # Rule 1: an (endpoint, channel) key held by two arcs.
    shared = np.concatenate([t, h]) * ncolors + np.concatenate([c, c])
    rule1 = has_duplicates(shared)
    # Rules 2 and 3: probe (w, channel) for each w next to each head.
    indptr, nbrs = _underlying(n, tails, heads)
    which, pos = ranges(indptr[h], indptr[h + 1] - indptr[h])
    probes = nbrs[pos] * ncolors + c[which]
    tail_keys = t * ncolors + c
    sorted_tails = np.sort(tail_keys)
    q = np.sort(probes)
    hits = np.searchsorted(sorted_tails, q, "right") - np.searchsorted(sorted_tails, q)
    # Every arc's own tail neighbours its head: one self-hit per arc.
    rule2 = int(hits.sum()) > len(colored)
    if not (rule1 or rule2):
        return []

    firsts, seconds = [], []
    if rule1:
        order, start = groups(shared)
        later, earlier = ranges(start, np.arange(len(shared)) - start)
        firsts.append(order[later] % len(colored))
        seconds.append(order[earlier] % len(colored))
    if rule2:
        by_tail = np.argsort(tail_keys, kind="stable")
        lo = np.searchsorted(sorted_tails, probes)
        hi = np.searchsorted(sorted_tails, probes, "right")
        probe, at = ranges(lo, hi - lo)
        firsts.append(which[probe])
        seconds.append(by_tail[at])
    a = colored[np.concatenate(firsts)]
    b = colored[np.concatenate(seconds)]
    keep = a != b
    low, high = np.minimum(a[keep], b[keep]), np.maximum(a[keep], b[keep])
    span = int(colored.max()) + 1
    pairs = distinct(low * span + high)
    return list(zip((pairs // span).tolist(), (pairs % span).tolist()))


def _underlying(n: int, tails: np.ndarray, heads: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The underlying undirected adjacency of the arcs as CSR
    ``(indptr, neighbours)``; works for non-symmetric digraphs too."""
    keys = distinct(np.concatenate([tails * n + heads, heads * n + tails]))
    rows, nbrs = keys // n, keys % n
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
    return indptr, nbrs


def assert_strong_arc_coloring(
    digraph: DiGraph, colors: Mapping[Arc, Color], *, complete: bool = True
) -> None:
    """Raise :class:`VerificationError` unless ``colors`` is a strong coloring."""
    violations = check_strong_arc_coloring(digraph, colors, complete=complete)
    if violations:
        preview = "; ".join(violations[:5])
        raise VerificationError(
            f"invalid strong arc coloring ({len(violations)} violations): {preview}"
        )
