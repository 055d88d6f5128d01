"""Integer arrays for the verifiers' sort-and-probe checks.

:mod:`~repro.verify.edge_coloring` and :mod:`~repro.verify.strong_coloring`
check a coloring by sorting and probing integer keys.  This module
builds those integers at the boundary without coercing any value: every
node id, key endpoint and color becomes a *rank*, and two values share a
rank exactly when a ``dict`` would treat them as one key.  So ``1.5`` is
never read as ``1``; ``True``, ``1.0`` and ``numpy.int64(1)`` are the
same color as ``1``, as they are for the ``dict`` lookups the definitions
imply; and an id beyond int64 stays exact.

Two builders produce the ranks.  When every node id, endpoint and color
is an ``int`` within int64 (what the algorithms emit), numpy reads them
in bulk; a node's rank is then its id when the ids are ``0 .. n-1``, and
its position among the sorted ids otherwise.  Anything else is ranked
one value at a time through dicts.

The graph side is read from its adjacency sets through ``nodes()`` and
``neighbors()``/``successors()``, never from the CSR cache the
simulation kernels read, so a CSR bug cannot hide from the verifiers.
Keys are combined only over ranks, so no product overflows int64.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Callable, Mapping, Optional, Set, Tuple

import numpy as np

from repro.types import canonical_edge

__all__ = [
    "Entries", "Nodes", "adjacency", "distinct", "entries", "groups",
    "has_duplicates", "member", "ranges",
]


def _int64s(values: list) -> Optional[np.ndarray]:
    """``values`` as int64, or None unless each is an ``int`` (exactly:
    ``bool`` and numpy scalars do not qualify) that fits in int64."""
    if set(map(type, values)) - {int}:
        return None
    try:
        return np.fromiter(values, dtype=np.int64, count=len(values))
    except OverflowError:
        return None


def distinct(x: np.ndarray) -> np.ndarray:
    """The distinct values of ``x``, ascending, found by sorting."""
    s = np.sort(x)
    return s[np.r_[True, s[1:] != s[:-1]]] if len(s) else s


def _dense(x: np.ndarray) -> Tuple[np.ndarray, int]:
    """Codes ``0 .. size-1`` for int64 ``x`` with equal codes for equal
    values: ``x - min`` when that range is no wider than twice the input,
    ranks among the distinct values otherwise."""
    if not len(x):
        return x, 0
    low, high = int(x.min()), int(x.max())
    if high - low <= 2 * len(x):
        return x - low, high - low + 1
    values = distinct(x)
    return np.searchsorted(values, x), len(values)


def has_duplicates(keys: np.ndarray) -> bool:
    """True when some value occurs twice in ``keys``."""
    s = np.sort(keys)
    return bool((s[1:] == s[:-1]).any())


def groups(keys: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The stable sort order of ``keys`` and, for each sorted position,
    the sorted position where its run of equal keys starts."""
    order = np.argsort(keys, kind="stable")
    sk = keys[order]
    new = np.r_[True, sk[1:] != sk[:-1]]
    return order, np.maximum.accumulate(np.where(new, np.arange(len(sk)), 0))


def member(queries: np.ndarray, sorted_keys: np.ndarray) -> np.ndarray:
    """``queries[i] in sorted_keys`` for each ``i``; the queries are
    sorted first, which keeps the binary searches cache-friendly."""
    if not len(sorted_keys) or not len(queries):
        return np.zeros(len(queries), dtype=bool)
    order = np.argsort(queries)
    q = queries[order]
    pos = np.minimum(np.searchsorted(sorted_keys, q), len(sorted_keys) - 1)
    out = np.empty(len(q), dtype=bool)
    out[order] = sorted_keys[pos] == q
    return out


def ranges(starts: np.ndarray, counts: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Expand ``[starts[i], starts[i] + counts[i])`` for every ``i``:
    returns, per produced position, ``i`` and the position."""
    total = int(counts.sum())
    which = np.repeat(np.arange(len(counts)), counts)
    offset = np.arange(total) - np.repeat(np.cumsum(counts) - counts, counts)
    return which, starts[which] + offset


class Nodes:
    """A graph's node ids and their ranks ``0 .. n-1``."""

    def __init__(self, ids: list) -> None:
        self.ids = ids
        self.n = len(ids)
        values = _int64s(ids)
        #: True when every id is an ``int`` within int64.
        self.ints = values is not None
        self._sorted: Optional[np.ndarray] = None
        self._index: Optional[dict] = None
        if values is None:
            self._index = {u: i for i, u in enumerate(ids)}
            values = np.arange(self.n, dtype=np.int64)
        elif self.n and (int(values.min()) != 0 or int(values.max()) != self.n - 1):
            self._sorted = np.sort(values)
            values = np.searchsorted(self._sorted, values)
        #: The rank of each id, in ``ids`` order.
        self.ranks = values

    def lookup(self, values: np.ndarray) -> np.ndarray:
        """Ranks of int64 ``values``; -1 where a value is not a node.
        Only for :attr:`ints` tables."""
        if self._sorted is None:
            return np.where((values >= 0) & (values < self.n), values, -1)
        pos = np.minimum(np.searchsorted(self._sorted, values), self.n - 1)
        return np.where(self._sorted[pos] == values, pos, -1)

    @property
    def index(self) -> dict:
        """``{id: rank}``, for ranking values one at a time."""
        if self._index is None:
            self._index = dict(zip(self.ids, self.ranks.tolist()))
        return self._index

    def id_of(self, rank: int):
        """The node id of ``rank``, for messages."""
        if not self.ints:
            return self.ids[rank]
        return rank if self._sorted is None else int(self._sorted[rank])


def adjacency(
    graph, neighbors: Callable[[object], Set]
) -> Tuple[Nodes, np.ndarray, np.ndarray]:
    """The graph's nodes and its ``(row, column)`` adjacency pairs as
    ranks, row by row in ``nodes()`` order and each row in the order its
    ``neighbors`` set iterates."""
    ids = graph.nodes()
    nodes = Nodes(ids)
    sets = [neighbors(u) for u in ids]
    degrees = np.fromiter(map(len, sets), dtype=np.int64, count=len(sets))
    rows = np.repeat(nodes.ranks, degrees)
    flat = chain.from_iterable(sets)
    if nodes.ints:
        # Each neighbor equals some node id, so even a neighbor stored as
        # an equal float or bool reads as that id's int here.
        cols = nodes.lookup(np.fromiter(flat, dtype=np.int64, count=len(rows)))
    else:
        index = nodes.index
        cols = np.fromiter((index[x] for x in flat), dtype=np.int64, count=len(rows))
    return nodes, rows, cols


@dataclass
class Entries:
    """A coloring ``{key: color}`` as arrays, one slot per entry in the
    mapping's order."""

    keys: list
    values: list
    #: The key unpacks into two endpoints.
    pair: np.ndarray
    #: 1 when ``canonical_edge`` leaves the key as it is, 0 when it does
    #: not, -1 when the endpoints do not compare (or the key is no pair).
    order: np.ndarray
    #: Endpoint ranks: graph nodes below ``nodes.n``, other endpoints
    #: from ``nodes.n`` up, one rank per distinct value.
    u: np.ndarray
    v: np.ndarray
    #: Color codes below :attr:`ncolors`; equal codes mean equal colors.
    color: np.ndarray
    ncolors: int
    #: The color is a non-negative ``int`` and not a ``bool``.
    valid: np.ndarray


def entries(nodes: Nodes, colors: Mapping, *, strong: bool) -> Entries:
    """Rank the keys and colors of ``colors`` against ``nodes``.

    With ``strong=True``, ``None`` and any color unequal to itself (NaN)
    get a code of its own, since the strong-coloring rule compares
    channels with ``!=`` and never counts an uncolored (``None``) arc;
    otherwise colors match as ``dict`` keys do.
    """
    keys = list(colors)
    values = list(colors.values())
    return _int_entries(nodes, keys, values) or _exact_entries(nodes, keys, values, strong)


def _int_entries(nodes: Nodes, keys: list, values: list) -> Optional[Entries]:
    """The bulk builder; None unless every key is a pair of ints, every
    color an int, and every one of them within int64."""
    if not nodes.ints or set(map(type, keys)) - {tuple} or set(map(len, keys)) - {2}:
        return None
    flat = _int64s(list(chain.from_iterable(keys)))
    color = _int64s(values)
    if flat is None or color is None:
        return None
    ends = nodes.lookup(flat)
    outside = ends < 0
    if outside.any():
        ends[outside] = nodes.n + _dense(flat[outside])[0]
    codes, ncolors = _dense(color)
    return Entries(
        keys, values,
        pair=np.ones(len(keys), dtype=bool),
        order=(flat[0::2] <= flat[1::2]).astype(np.int8),
        u=ends[0::2], v=ends[1::2],
        color=codes, ncolors=ncolors,
        valid=color >= 0,
    )


def _exact_entries(nodes: Nodes, keys: list, values: list, strong: bool) -> Entries:
    """The one-value-at-a-time builder, for any keys and colors."""
    index = dict(nodes.index)
    table: dict = {}
    k = len(keys)
    pair = np.zeros(k, dtype=bool)
    order = np.full(k, -1, dtype=np.int8)
    ends = np.zeros(2 * k, dtype=np.int64)
    codes = np.full(k, -1, dtype=np.int64)
    valid = np.zeros(k, dtype=bool)
    for i, (key, c) in enumerate(zip(keys, values)):
        valid[i] = isinstance(c, int) and not isinstance(c, bool) and c >= 0
        if not (strong and _never_equal(c)):
            try:
                codes[i] = table.setdefault(c, len(table))
            except TypeError:  # unhashable: equal to no other color
                pass
        try:
            a, b = key
            ends[2 * i] = index.setdefault(a, len(index))
            ends[2 * i + 1] = index.setdefault(b, len(index))
        except (TypeError, ValueError):  # not a pair of hashable endpoints
            continue
        pair[i] = True
        try:
            order[i] = 0 if canonical_edge(a, b) != key else 1
        except TypeError:  # the endpoints do not compare
            pass
    fresh = np.flatnonzero(codes < 0)
    codes[fresh] = len(table) + np.arange(len(fresh))
    return Entries(
        keys, values, pair=pair, order=order,
        u=ends[0::2], v=ends[1::2],
        color=codes, ncolors=len(table) + len(fresh), valid=valid,
    )


def _never_equal(c: object) -> bool:
    """True for ``None`` and for a value that is not equal to itself."""
    if c is None:
        return True
    try:
        return bool(c != c)
    except (TypeError, ValueError):
        return True
