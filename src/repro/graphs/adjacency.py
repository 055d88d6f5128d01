"""Adjacency-set graph types.

Two simple-graph classes are provided:

* :class:`Graph` — undirected, no self-loops, no parallel edges.
* :class:`DiGraph` — directed, no self-loops, no parallel arcs.

Design notes
------------
Nodes are integers.  Adjacency is a ``dict[int, set[int]]``; this gives
O(1) membership tests and O(deg) neighbor iteration, which are the two
operations the simulator performs in its hot loop.  Edge sets are derived
lazily.  The classes deliberately implement only what the package needs —
they are not a networkx replacement — but what they implement is complete:
mutation, queries, iteration, copying, induced subgraphs, and conversion
between the directed and undirected views (DiMa2Ed runs on the *symmetric
closure* of an undirected graph).

Array-built graphs
------------------
:meth:`Graph.from_edge_arrays` (what :func:`repro.graphs.io.read_edge_list`
returns for a native file) keeps the canonical edge arrays and their CSR
instead of sets.  The CSR, carrying the edge arrays, sits in the
``_csr`` cache slot, so the mutators' existing cache reset drops both.
A placeholder sits in the adjacency slot: it answers the node-level
queries (length, iteration, membership) from the node count, and the
first other access builds the sets, installs them in the graph and
forwards the call.  The placeholder costs set-built graphs nothing,
because their attribute lookups never meet it.  Node ids are ``0 ..
n-1`` in order, so the engines' relabel is the identity.  ``to_directed``
of such a graph is a symmetric :class:`DiGraph` over the same read-only
arrays, whose ``is_symmetric`` is O(1) and whose ``to_undirected`` is
again array-built.
"""

from __future__ import annotations

import weakref
from operator import index
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple

import numpy as np

from repro.errors import EdgeNotFoundError, GraphError, NodeNotFoundError
from repro.types import Arc, Edge, NodeId, canonical_edge

__all__ = ["Graph", "DiGraph"]


class _ArrayCSR(tuple):
    """The CSR ``(indptr, indices)`` of an array-built graph.

    ``u`` and ``v`` hold the graph's canonical edges (``u < v``, sorted
    by ``(u, v)``), kept apart from the CSR so that the verifiers can
    read them instead of the arrays the kernels read.  Every array is
    read-only.
    """

    u: np.ndarray
    v: np.ndarray

    def __reduce__(self):
        return _array_csr, (*self, self.u, self.v)


def _array_csr(indptr, indices, u, v) -> _ArrayCSR:
    for a in (indptr, indices, u, v):
        a.flags.writeable = False
    csr = _ArrayCSR((indptr, indices))
    csr.u, csr.v = u, v
    return csr


def _adjacency_sets(csr: Tuple[np.ndarray, np.ndarray]) -> Dict[NodeId, Set[NodeId]]:
    """``{u: set of u's CSR row}`` for every row, in id order."""
    ptr = csr[0].tolist()
    idx = csr[1].tolist()
    return {u: set(idx[ptr[u] : ptr[u + 1]]) for u in range(len(ptr) - 1)}


class _Unbuilt:
    """Stands in an array-built graph's adjacency slot (``slot``).

    Answers length, iteration and membership over the nodes ``0 ..
    n-1``; any other access makes the owner build its adjacency sets
    from ``csr``, then forwards to the dict that replaced this object.
    """

    __slots__ = ("owner", "slot", "csr")

    def __init__(self, owner, slot: str, csr: _ArrayCSR) -> None:
        self.owner = weakref.ref(owner)
        self.slot = slot
        self.csr = csr

    def __len__(self) -> int:
        return len(self.csr[0]) - 1

    def __iter__(self) -> Iterator[NodeId]:
        return iter(range(len(self)))

    def __contains__(self, u: object) -> bool:
        try:
            i = index(u)
        except TypeError:
            hash(u)  # an unhashable query raises, as a dict lookup does
            return u in range(len(self))
        return 0 <= i < len(self)

    def _sets(self) -> dict:
        owner = self.owner()
        owner._build_sets()
        return getattr(owner, self.slot)

    def __getitem__(self, u):
        return self._sets()[u]

    def __setitem__(self, u, value) -> None:
        self._sets()[u] = value

    def __delitem__(self, u) -> None:
        del self._sets()[u]

    def get(self, u, default=None):
        return self._sets().get(u, default)

    def items(self):
        return self._sets().items()

    def __eq__(self, other: object) -> bool:
        if isinstance(other, _Unbuilt):
            return all(np.array_equal(a, b) for a, b in zip(self.csr, other.csr))
        return self._sets() == other

    __hash__ = None  # type: ignore[assignment]


#: The largest node count whose ``u * n + v`` edge keys fit in int64.
MAX_ARRAY_NODES = 3_037_000_499


def _endpoints(a) -> np.ndarray:
    a = np.asarray(a)
    if a.ndim != 1 or (a.size and a.dtype.kind not in "iu"):
        raise GraphError("edge endpoints must be 1-D arrays of integers")
    return a.astype(np.int64)


def _edge_arrays(self) -> Optional[Tuple[np.ndarray, np.ndarray]]:
    """The canonical edges ``(u, v)`` (``u < v``, sorted by ``(u, v)``,
    read-only) of a graph built by :meth:`Graph.from_edge_arrays`, or of
    the symmetric digraph it converts to; None for a graph built or
    changed through its sets."""
    csr = self._csr
    return (csr.u, csr.v) if type(csr) is _ArrayCSR else None


class Graph:
    """A simple undirected graph over integer nodes.

    Examples
    --------
    >>> g = Graph()
    >>> g.add_edge(0, 1)
    >>> g.add_edge(1, 2)
    >>> sorted(g.neighbors(1))
    [0, 2]
    >>> g.degree(1)
    2
    """

    __slots__ = ("_adj", "_csr", "__weakref__")

    def __init__(self, edges: Iterable[Tuple[int, int]] | None = None) -> None:
        self._adj: Dict[NodeId, Set[NodeId]] = {}
        #: Memoized :meth:`to_csr` result; any mutation resets it to None.
        self._csr: Tuple[np.ndarray, np.ndarray] | None = None
        if edges is not None:
            self.add_edges_from(edges)

    # -- construction ---------------------------------------------------

    @classmethod
    def from_num_nodes(cls, n: int) -> "Graph":
        """Create an empty graph with nodes ``0 .. n-1`` and no edges."""
        if n < 0:
            raise GraphError(f"number of nodes must be non-negative, got {n}")
        g = cls()
        g.add_nodes_from(range(n))
        return g

    @classmethod
    def from_edge_arrays(cls, n: int, u, v) -> "Graph":
        """The graph on nodes ``0 .. n-1`` with the edges ``{u[i], v[i]}``,
        built in arrays rather than sets.

        Duplicate and reversed pairs collapse into one edge, as they do
        through :meth:`add_edge`, and a self-loop raises the same
        :class:`GraphError`, for the first loop in array order.  An
        endpoint outside ``0 .. n-1`` raises too, and so does ``n`` above
        :data:`MAX_ARRAY_NODES`.

        The graph keeps its canonical edges (:meth:`edge_arrays`) and
        their CSR, equal to what :meth:`to_csr` builds from sets.  It
        builds adjacency sets on the first neighbour-level access, and
        drops the arrays at its first mutation.
        """
        n = index(n)
        if not 0 <= n <= MAX_ARRAY_NODES:
            raise GraphError(
                f"number of nodes must be in 0..{MAX_ARRAY_NODES}, got {n}"
            )
        u, v = _endpoints(u), _endpoints(v)
        if len(u) != len(v):
            raise GraphError(f"{len(u)} tails but {len(v)} heads")
        loops = np.flatnonzero(u == v)
        if len(loops):
            i = loops[0]
            raise GraphError(f"self-loop ({int(u[i])}, {int(v[i])}) is not allowed")
        if len(u) and (min(u.min(), v.min()) < 0 or max(u.max(), v.max()) >= n):
            raise GraphError(f"edge endpoints must be node ids 0..{n - 1}")
        keys = np.minimum(u, v) * n + np.maximum(u, v)
        keys.sort()
        keys = keys[np.r_[True, keys[1:] != keys[:-1]]] if len(keys) else keys
        u, v = np.divmod(keys, n)
        # Both directions of every edge, sorted: row-major, rows ascending.
        arcs = np.concatenate([keys, v * n + u])
        arcs.sort()
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(u, minlength=n) + np.bincount(v, minlength=n), out=indptr[1:])
        return cls._from_csr(_array_csr(indptr, arcs % n, u, v))

    @classmethod
    def _from_csr(cls, csr: _ArrayCSR) -> "Graph":
        g = cls.__new__(cls)
        g._adj = _Unbuilt(g, "_adj", csr)
        g._csr = csr
        return g

    def _build_sets(self) -> None:
        """Replace the :class:`_Unbuilt` placeholder with adjacency sets."""
        self._adj = _adjacency_sets(self._adj.csr)

    edge_arrays = _edge_arrays

    def __reduce_ex__(self, protocol):
        # The placeholder's weak reference does not pickle: a graph that
        # has not built its sets pickles, and copies, as its arrays.
        if type(self._adj) is _Unbuilt:
            return type(self)._from_csr, (self._csr,)
        return object.__reduce_ex__(self, protocol)

    def add_node(self, u: NodeId) -> None:
        """Add node ``u`` (no-op if already present)."""
        if u not in self._adj:
            self._adj[u] = set()
            self._csr = None

    def add_nodes_from(self, nodes: Iterable[NodeId]) -> None:
        """Add every node in ``nodes``."""
        for u in nodes:
            self.add_node(u)

    def add_edge(self, u: NodeId, v: NodeId) -> None:
        """Add the undirected edge ``{u, v}``, creating endpoints as needed.

        Self-loops are rejected: the coloring algorithms are defined on
        simple graphs and a loop would make "adjacent edges" ill-defined.
        """
        if u == v:
            raise GraphError(f"self-loop ({u}, {v}) is not allowed")
        self.add_node(u)
        self.add_node(v)
        self._adj[u].add(v)
        self._adj[v].add(u)
        self._csr = None

    def add_edges_from(self, edges: Iterable[Tuple[int, int]]) -> None:
        """Add every edge in ``edges``."""
        for u, v in edges:
            self.add_edge(u, v)

    def remove_edge(self, u: NodeId, v: NodeId) -> None:
        """Remove the edge ``{u, v}``; raise :class:`EdgeNotFoundError` if absent."""
        if not self.has_edge(u, v):
            raise EdgeNotFoundError(u, v)
        self._adj[u].discard(v)
        self._adj[v].discard(u)
        self._csr = None

    def remove_node(self, u: NodeId) -> None:
        """Remove node ``u`` and all incident edges."""
        if u not in self._adj:
            raise NodeNotFoundError(u)
        for v in self._adj[u]:
            self._adj[v].discard(u)
        del self._adj[u]
        self._csr = None

    # -- queries --------------------------------------------------------

    def __contains__(self, u: object) -> bool:
        return u in self._adj

    def __len__(self) -> int:
        return len(self._adj)

    def __iter__(self) -> Iterator[NodeId]:
        return iter(self._adj)

    @property
    def num_nodes(self) -> int:
        """Number of nodes."""
        return len(self._adj)

    @property
    def num_edges(self) -> int:
        """Number of undirected edges."""
        if self._csr is not None:
            return len(self._csr[1]) // 2
        return sum(len(nbrs) for nbrs in self._adj.values()) // 2

    def nodes(self) -> List[NodeId]:
        """List of nodes in insertion order."""
        return list(self._adj)

    def has_node(self, u: NodeId) -> bool:
        """True if ``u`` is a node of this graph."""
        return u in self._adj

    def has_edge(self, u: NodeId, v: NodeId) -> bool:
        """True if ``{u, v}`` is an edge of this graph."""
        nbrs = self._adj.get(u)
        return nbrs is not None and v in nbrs

    def neighbors(self, u: NodeId) -> Set[NodeId]:
        """The neighbor set of ``u`` (a live view; do not mutate)."""
        try:
            return self._adj[u]
        except KeyError:
            raise NodeNotFoundError(u) from None

    def degree(self, u: NodeId) -> int:
        """Degree of node ``u``."""
        return len(self.neighbors(u))

    def degrees(self) -> Dict[NodeId, int]:
        """Mapping node -> degree for every node."""
        return {u: len(nbrs) for u, nbrs in self._adj.items()}

    def degree_array(self) -> np.ndarray:
        """Degrees as a numpy array aligned with :meth:`nodes` order."""
        if type(self._csr) is _ArrayCSR:
            return np.diff(self._csr[0])
        return np.fromiter(
            (len(nbrs) for nbrs in self._adj.values()),
            dtype=np.int64,
            count=len(self._adj),
        )

    def to_csr(self) -> Tuple[np.ndarray, np.ndarray]:
        """Adjacency in CSR form: ``(indptr, indices)`` int64 arrays.

        Row ``u`` holds the neighbors of ``u`` in ascending order at
        ``indices[indptr[u]:indptr[u + 1]]``.  Requires contiguous node
        ids ``0 .. n-1`` (use :meth:`relabeled` first) so that rows can
        be indexed by node id — this is the layout the engines build
        their neighbour views from and the kernels gather from.

        The result is cached on the instance (every mutator invalidates
        it), so repeated engine runs on the same graph — replicates,
        benchmark repeats, the batched core's setup — pay the O(n + m)
        build once.  Treat the returned arrays as read-only.
        """
        if self._csr is not None:
            return self._csr
        n = len(self._adj)
        offending = sorted(u for u in self._adj if u < 0 or u >= n)
        if offending:
            shown = ", ".join(map(str, offending[:5]))
            more = f", ... ({len(offending)} total)" if len(offending) > 5 else ""
            raise GraphError(
                f"to_csr requires contiguous node ids 0..{n - 1}, but this "
                f"graph has {n} nodes with out-of-range id(s) {shown}{more}; "
                "relabel first — Graph.relabeled() returns (graph, mapping), "
                "or use repro.core._coerce.relabel_for_engine, which the "
                "algorithm wrappers (color_edges/strong_color_arcs) apply "
                "automatically"
            )
        indptr = np.zeros(n + 1, dtype=np.int64)
        for u, nbrs in self._adj.items():
            indptr[u + 1] = len(nbrs)
        np.cumsum(indptr, out=indptr)
        indices = np.empty(int(indptr[-1]), dtype=np.int64)
        for u in range(n):
            start, stop = int(indptr[u]), int(indptr[u + 1])
            indices[start:stop] = sorted(self._adj[u])
        self._csr = (indptr, indices)
        return self._csr

    def edges(self) -> Iterator[Edge]:
        """Iterate over edges, each exactly once, in canonical order."""
        for u, nbrs in self._adj.items():
            for v in nbrs:
                if u < v:
                    yield (u, v)

    def edge_list(self) -> List[Edge]:
        """All edges as a sorted list of canonical pairs."""
        return sorted(self.edges())

    def incident_edges(self, u: NodeId) -> List[Edge]:
        """Edges incident to ``u``, in canonical form."""
        return [canonical_edge(u, v) for v in self.neighbors(u)]

    # -- derived graphs ---------------------------------------------------

    def copy(self) -> "Graph":
        """An independent deep copy (of an array-built graph: another
        array-built graph over the same read-only arrays)."""
        if type(self._csr) is _ArrayCSR:
            return Graph._from_csr(self._csr)
        g = Graph()
        g._adj = {u: set(nbrs) for u, nbrs in self._adj.items()}
        return g

    def subgraph(self, nodes: Iterable[NodeId]) -> "Graph":
        """The subgraph induced by ``nodes`` (unknown nodes raise)."""
        keep = set(nodes)
        for u in keep:
            if u not in self._adj:
                raise NodeNotFoundError(u)
        g = Graph()
        g.add_nodes_from(keep)
        for u in keep:
            for v in self._adj[u]:
                if v in keep and u < v:
                    g.add_edge(u, v)
        return g

    def relabeled(self) -> Tuple["Graph", Dict[NodeId, NodeId]]:
        """Relabel nodes to ``0 .. n-1`` (insertion order).

        Returns the relabeled graph and the old->new mapping.  The
        simulator requires contiguous node ids for its array-backed
        bookkeeping.
        """
        mapping = {u: i for i, u in enumerate(self._adj)}
        g = Graph.from_num_nodes(len(mapping))
        for u, v in self.edges():
            g.add_edge(mapping[u], mapping[v])
        return g, mapping

    def to_directed(self) -> "DiGraph":
        """The symmetric closure: every edge becomes a pair of arcs.

        Of an array-built graph, a symmetric digraph over the same
        read-only arrays.
        """
        if type(self._csr) is _ArrayCSR:
            return DiGraph._from_csr(self._csr)
        d = DiGraph()
        d.add_nodes_from(self._adj)
        for u, v in self.edges():
            d.add_arc(u, v)
            d.add_arc(v, u)
        return d

    # -- dunder ----------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self._adj == other._adj

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Graph(n={self.num_nodes}, m={self.num_edges})"


class DiGraph:
    """A simple directed graph over integer nodes.

    Maintains both out- and in-adjacency so the strong-coloring verifier
    and DiMa2Ed's per-node bookkeeping get O(deg) access in both
    directions.
    """

    __slots__ = ("_succ", "_pred", "_csr", "__weakref__")

    def __init__(self, arcs: Iterable[Tuple[int, int]] | None = None) -> None:
        self._succ: Dict[NodeId, Set[NodeId]] = {}
        self._pred: Dict[NodeId, Set[NodeId]] = {}
        #: Memoized :meth:`to_csr` result; any mutation resets it to None.
        self._csr: Tuple[np.ndarray, np.ndarray] | None = None
        if arcs is not None:
            self.add_arcs_from(arcs)

    # -- construction ---------------------------------------------------

    @classmethod
    def from_num_nodes(cls, n: int) -> "DiGraph":
        """Create an empty digraph with nodes ``0 .. n-1``."""
        if n < 0:
            raise GraphError(f"number of nodes must be non-negative, got {n}")
        d = cls()
        d.add_nodes_from(range(n))
        return d

    @classmethod
    def _from_csr(cls, csr: _ArrayCSR) -> "DiGraph":
        """The symmetric digraph over an array-built graph's arrays."""
        d = cls.__new__(cls)
        d._succ = _Unbuilt(d, "_succ", csr)
        d._pred = _Unbuilt(d, "_pred", csr)
        d._csr = csr
        return d

    def _build_sets(self) -> None:
        """Replace both :class:`_Unbuilt` placeholders with adjacency sets."""
        csr = self._succ.csr
        self._succ = _adjacency_sets(csr)
        self._pred = _adjacency_sets(csr)

    edge_arrays = _edge_arrays

    def __reduce_ex__(self, protocol):
        # As for Graph: an unbuilt view pickles, and copies, as its arrays.
        if type(self._succ) is _Unbuilt:
            return type(self)._from_csr, (self._csr,)
        return object.__reduce_ex__(self, protocol)

    def add_node(self, u: NodeId) -> None:
        """Add node ``u`` (no-op if already present)."""
        if u not in self._succ:
            self._succ[u] = set()
            self._pred[u] = set()
            self._csr = None

    def add_nodes_from(self, nodes: Iterable[NodeId]) -> None:
        """Add every node in ``nodes``."""
        for u in nodes:
            self.add_node(u)

    def add_arc(self, u: NodeId, v: NodeId) -> None:
        """Add the arc ``(u, v)``; self-loops are rejected."""
        if u == v:
            raise GraphError(f"self-loop ({u}, {v}) is not allowed")
        self.add_node(u)
        self.add_node(v)
        self._succ[u].add(v)
        self._pred[v].add(u)
        self._csr = None

    def add_arcs_from(self, arcs: Iterable[Tuple[int, int]]) -> None:
        """Add every arc in ``arcs``."""
        for u, v in arcs:
            self.add_arc(u, v)

    def remove_arc(self, u: NodeId, v: NodeId) -> None:
        """Remove arc ``(u, v)``; raise :class:`EdgeNotFoundError` if absent."""
        if not self.has_arc(u, v):
            raise EdgeNotFoundError(u, v)
        self._succ[u].discard(v)
        self._pred[v].discard(u)
        self._csr = None

    # -- queries --------------------------------------------------------

    def __contains__(self, u: object) -> bool:
        return u in self._succ

    def __len__(self) -> int:
        return len(self._succ)

    def __iter__(self) -> Iterator[NodeId]:
        return iter(self._succ)

    @property
    def num_nodes(self) -> int:
        """Number of nodes."""
        return len(self._succ)

    @property
    def num_arcs(self) -> int:
        """Number of arcs."""
        if self._csr is not None:
            return len(self._csr[1])
        return sum(len(s) for s in self._succ.values())

    def nodes(self) -> List[NodeId]:
        """List of nodes in insertion order."""
        return list(self._succ)

    def has_node(self, u: NodeId) -> bool:
        """True if ``u`` is a node of this digraph."""
        return u in self._succ

    def has_arc(self, u: NodeId, v: NodeId) -> bool:
        """True if the arc ``(u, v)`` exists."""
        succ = self._succ.get(u)
        return succ is not None and v in succ

    def successors(self, u: NodeId) -> Set[NodeId]:
        """Out-neighbors of ``u`` (live view; do not mutate)."""
        try:
            return self._succ[u]
        except KeyError:
            raise NodeNotFoundError(u) from None

    def predecessors(self, u: NodeId) -> Set[NodeId]:
        """In-neighbors of ``u`` (live view; do not mutate)."""
        try:
            return self._pred[u]
        except KeyError:
            raise NodeNotFoundError(u) from None

    def out_degree(self, u: NodeId) -> int:
        """Number of arcs leaving ``u``."""
        return len(self.successors(u))

    def in_degree(self, u: NodeId) -> int:
        """Number of arcs entering ``u``."""
        return len(self.predecessors(u))

    def degree(self, u: NodeId) -> int:
        """Total degree (in + out) of ``u``."""
        return self.out_degree(u) + self.in_degree(u)

    def arcs(self) -> Iterator[Arc]:
        """Iterate over all arcs, each exactly once."""
        for u, succ in self._succ.items():
            for v in succ:
                yield (u, v)

    def arc_list(self) -> List[Arc]:
        """All arcs as a sorted list."""
        return sorted(self.arcs())

    def is_symmetric(self) -> bool:
        """True if for every arc (u, v) the reverse arc (v, u) exists.

        DiMa2Ed is specified for symmetric digraphs ("our graph is
        bidirectional"); callers should check this before running it.
        O(1) on the symmetric view of an array-built graph.
        """
        if type(self._csr) is _ArrayCSR:
            return True
        return all(u in self._succ[v] for u, v in self.arcs())

    def to_csr(self) -> Tuple[np.ndarray, np.ndarray]:
        """Out-adjacency in CSR form: ``(indptr, indices)`` int64 arrays.

        Row ``u`` holds the successors of ``u`` in ascending order at
        ``indices[indptr[u]:indptr[u + 1]]``.  Requires contiguous node
        ids ``0 .. n-1``.  Cached like :meth:`Graph.to_csr` — every
        mutator invalidates; treat the returned arrays as read-only.
        """
        if self._csr is not None:
            return self._csr
        n = len(self._succ)
        offending = sorted(u for u in self._succ if u < 0 or u >= n)
        if offending:
            shown = ", ".join(map(str, offending[:5]))
            more = f", ... ({len(offending)} total)" if len(offending) > 5 else ""
            raise GraphError(
                f"to_csr requires contiguous node ids 0..{n - 1}, but this "
                f"digraph has {n} nodes with out-of-range id(s) {shown}{more}; "
                "relabel first — build from a relabeled undirected graph "
                "(repro.core._coerce.relabel_for_engine followed by "
                "to_directed(), as the algorithm wrappers do automatically)"
            )
        indptr = np.zeros(n + 1, dtype=np.int64)
        for u, succ in self._succ.items():
            indptr[u + 1] = len(succ)
        np.cumsum(indptr, out=indptr)
        indices = np.empty(int(indptr[-1]), dtype=np.int64)
        for u in range(n):
            start, stop = int(indptr[u]), int(indptr[u + 1])
            indices[start:stop] = sorted(self._succ[u])
        self._csr = (indptr, indices)
        return self._csr

    # -- derived graphs ---------------------------------------------------

    def copy(self) -> "DiGraph":
        """An independent deep copy (of a symmetric view: another view
        over the same read-only arrays)."""
        if type(self._csr) is _ArrayCSR:
            return DiGraph._from_csr(self._csr)
        d = DiGraph()
        d._succ = {u: set(s) for u, s in self._succ.items()}
        d._pred = {u: set(p) for u, p in self._pred.items()}
        return d

    def to_undirected(self) -> Graph:
        """The underlying undirected graph (arc directions dropped).

        Of the symmetric view of an array-built graph, a fresh
        array-built graph over the same arrays.
        """
        if type(self._csr) is _ArrayCSR:
            return Graph._from_csr(self._csr)
        g = Graph()
        g.add_nodes_from(self._succ)
        for u, v in self.arcs():
            if not g.has_edge(u, v):
                g.add_edge(u, v)
        return g

    def reverse(self) -> "DiGraph":
        """A digraph with every arc reversed."""
        d = DiGraph()
        d.add_nodes_from(self._succ)
        for u, v in self.arcs():
            d.add_arc(v, u)
        return d

    # -- dunder ----------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DiGraph):
            return NotImplemented
        return self._succ == other._succ

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"DiGraph(n={self.num_nodes}, m={self.num_arcs})"
