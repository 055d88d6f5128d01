"""The benchmark's own output checker, vectorized with numpy.

It shares no code with ``repro.verify`` or the algorithms: the ground
truth is the edge list the benchmark generated, and the coloring comes
in as plain ``(u, v, color)`` arrays.  Two checks:

* :func:`edge_coloring_faults` — a complete, proper edge coloring:
  every edge colored exactly once under its canonical ``(low, high)``
  key, colors non-negative integers, no vertex with two incident edges
  of one color;
* :func:`strong_coloring_faults` — a complete strong arc coloring of
  the symmetric closure under the three-rule conflict model of
  DESIGN.md ("Strong-coloring conflict model"): arcs ``a=(u,v)`` and
  ``b=(w,x)`` of one channel conflict if they share an endpoint, if
  ``w`` neighbours ``v``, or if ``u`` neighbours ``x``.

Both return a ``{fault kind: count}`` dict; an output passes when every
count is 0 (:func:`total`).
"""

from __future__ import annotations

from itertools import chain
from typing import Dict, Mapping, Tuple

import numpy as np

Arrays = Tuple[np.ndarray, np.ndarray, np.ndarray]


def arrays_from_colors(colors: Mapping[Tuple[int, int], int]) -> Arrays:
    """``{(u, v): color}`` as three arrays; non-integer colors keep a
    non-integer dtype so the checks flag them."""
    m = len(colors)
    keys = np.fromiter(chain.from_iterable(colors.keys()), dtype=np.int64, count=2 * m)
    values = np.asarray(list(colors.values()))
    if values.size == 0:
        values = np.zeros(0, dtype=np.int64)
    return keys[0::2], keys[1::2], values


def edge_arrays(graph) -> Tuple[np.ndarray, np.ndarray]:
    """The edges of a ``repro`` graph as ``(low, high)`` arrays, read from
    its adjacency without building or touching its CSR cache."""
    flat = np.fromiter(
        chain.from_iterable(graph.edges()), dtype=np.int64, count=2 * graph.num_edges
    )
    return flat[0::2], flat[1::2]


def total(faults: Mapping[str, int]) -> int:
    return int(sum(faults.values()))


def max_degree(n: int, eu: np.ndarray, ev: np.ndarray) -> int:
    """Δ of the ``n``-vertex graph with undirected edges ``(eu, ev)``."""
    return int(np.bincount(np.concatenate([eu, ev]), minlength=n).max())


def _bad_colors(c: np.ndarray) -> np.ndarray:
    if c.dtype.kind not in "iu":
        return np.ones(c.shape, dtype=bool)
    return c < 0


def _distinct(keys: np.ndarray) -> np.ndarray:
    """Sorted distinct values (sorting beats numpy's hash-based unique here)."""
    s = np.sort(keys)
    keep = np.ones(s.size, dtype=bool)
    keep[1:] = s[1:] != s[:-1]
    return s[keep]


def _set_faults(truth: np.ndarray, got: np.ndarray) -> Dict[str, int]:
    """Missing, extra and duplicated keys of ``got`` against ``truth``."""
    uniq = _distinct(got)
    return {
        "missing": int(np.setdiff1d(truth, uniq, assume_unique=True).size),
        "extra": int(np.setdiff1d(uniq, truth, assume_unique=True).size),
        "duplicate": int(got.size - uniq.size),
    }


def _clashes(vertex: np.ndarray, color: np.ndarray) -> int:
    """Repeated (vertex, color) pairs."""
    if vertex.size == 0:
        return 0
    key = vertex * (int(color.max()) + 1) + color
    return int(key.size - _distinct(key).size)


def edge_coloring_faults(
    n: int, eu: np.ndarray, ev: np.ndarray, cu: np.ndarray, cv: np.ndarray, c: np.ndarray
) -> Dict[str, int]:
    """Faults of the edge coloring ``(cu, cv) -> c`` of the ``n``-vertex
    graph with edges ``(eu, ev)``."""
    lo, hi = np.minimum(eu, ev), np.maximum(eu, ev)
    truth = _distinct(lo * n + hi)
    bad = _bad_colors(c)
    canonical = cu < cv
    faults = {"invalid_color": int(bad.sum()), "noncanonical": int((~canonical).sum())}
    faults.update(_set_faults(truth, cu[canonical] * n + cv[canonical]))
    ok = canonical & ~bad
    if faults["extra"]:
        ok &= np.isin(cu * n + cv, truth)
    cc = c[ok].astype(np.int64)
    faults["endpoint_clash"] = _clashes(
        np.concatenate([cu[ok], cv[ok]]), np.concatenate([cc, cc])
    )
    return faults


def _csr(n: int, eu: np.ndarray, ev: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    src = np.concatenate([eu, ev])
    dst = np.concatenate([ev, eu])
    order = np.argsort(src, kind="stable")
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])
    return indptr, dst[order]


def strong_coloring_faults(
    n: int, eu: np.ndarray, ev: np.ndarray, au: np.ndarray, av: np.ndarray, c: np.ndarray
) -> Dict[str, int]:
    """Faults of the arc coloring ``(au, av) -> c`` of the symmetric closure
    of the ``n``-vertex graph with undirected edges ``(eu, ev)``."""
    lo, hi = np.minimum(eu, ev), np.maximum(eu, ev)
    truth = _distinct(np.concatenate([lo * n + hi, hi * n + lo]))
    bad = _bad_colors(c)
    faults = {"invalid_color": int(bad.sum())}
    faults.update(_set_faults(truth, au * n + av))
    ok = ~bad
    if faults["extra"]:
        ok &= np.isin(au * n + av, truth)
    u, v, cc = au[ok], av[ok], c[ok].astype(np.int64)
    # Rule 1: a vertex touches at most one arc of each channel.
    faults["endpoint_clash"] = _clashes(np.concatenate([u, v]), np.concatenate([cc, cc]))
    # Rule 2: no other arc of a's channel starts at a neighbour w of
    # head(a)=v.  a's own tail is such a neighbour, so each arc must see
    # exactly one (tail, channel) hit among N(v).  Rule 3 is rule 2 with
    # the two arcs swapped, so checking rule 2 for every arc covers it.
    if u.size:
        width = int(cc.max()) + 1
        tails = _distinct(u * width + cc)
        indptr, nbrs = _csr(n, lo, hi)
        deg = indptr[v + 1] - indptr[v]
        arc = np.repeat(np.arange(u.size), deg)
        offset = np.arange(arc.size) - np.repeat(np.cumsum(deg) - deg, deg)
        w = nbrs[np.repeat(indptr[v], deg) + offset]
        query = w * width + cc[arc]
        hit = tails[np.minimum(np.searchsorted(tails, query), tails.size - 1)] == query
        faults["distance2_clash"] = int((np.bincount(arc, weights=hit, minlength=u.size) > 1).sum())
    else:
        faults["distance2_clash"] = 0
    return faults
