"""Incremental recoloring: seeded localized reruns of the automata.

When a session graph gains edges, the whole coloring does not need to be
recomputed — only the new edges are uncolored, and a proper color for
them must merely avoid what already sits on their incident (Algorithm 1)
or distance-≤2 (DiMa2Ed) edges.  The functions here build the *conflict
subgraph* containing exactly the new edges, seed per-node automaton
programs with the colors the surrounding (unchanged) coloring forbids,
and run the standard :class:`~repro.runtime.engine.SynchronousEngine`
over that subgraph.  Because the seeds are static facts known to both
endpoints of every subgraph edge from superstep 0, the run is equivalent
to a normal run on a graph whose forbidden colors were claimed by
phantom pre-colored edges — the paper's properness invariant carries
over unchanged.

Soundness of the localized view:

* **Algorithm 1** — two new edges can conflict only when they share an
  endpoint, and shared endpoints are shared subgraph nodes; conflicts
  with *old* edges are excluded by seeding each node's
  :class:`~repro.core.palette.ColorLedger` with the colors of its
  already-colored incident edges (and each neighbor's ledger view with
  the neighbor's set).  The merged coloring is therefore proper by
  construction; the session layer still verifies.
* **DiMa2Ed** — a new arc conflicts with any colored arc within
  distance 2, so each subgraph node's struck-channel set is seeded with
  the channels of every colored arc having an endpoint in its closed
  1-hop neighborhood of the *full* graph.  Unlike the undirected case,
  inserting an edge also creates conflicts **between old arcs**: the
  new adjacency ``u ~ v`` puts every arc with head ``u`` in conflict
  with every arc with tail ``v`` (and symmetrically), so equal-channel
  pairs among them are detected up front and the edges carrying the
  losing arcs join the rerun set, to be recolored alongside the new
  edges.  The losers' stale channels are masked by a dropped-key
  overlay, never by copying the coloring, so the work stays
  proportional to the batch.  Conflicts between two rerun arcs that are
  distance-2-adjacent only through a vertex outside the subgraph can
  still escape the localized run; the session layer's post-batch
  strong-coloring check catches those and triggers the full fallback
  rerun.

Non-convergence within the localized round budget raises
:class:`FallbackRequired`; callers answer with a full
:func:`~repro.core.edge_coloring.color_edges` /
:func:`~repro.core.dima2ed.strong_color_arcs` rerun.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from repro.core.dima2ed import (
    DIMA2ED,
    DiMa2EdProgram,
    StrongColoringParams,
    default_strong_round_budget,
)
from repro.core.edge_coloring import (
    ALG1,
    EdgeColoringParams,
    EdgeColoringProgram,
    default_round_budget,
)
from repro.core.states import PHASES_PER_ROUND
from repro.errors import ConfigurationError
from repro.graphs.adjacency import Graph
from repro.runtime.engine import SynchronousEngine
from repro.types import Arc, Color, Edge, canonical_edge

__all__ = [
    "FallbackRequired",
    "IncrementalOutcome",
    "SeededEdgeColoringProgram",
    "SeededDiMa2EdProgram",
    "incremental_edge_colors",
    "incremental_arc_colors",
]


class FallbackRequired(Exception):
    """The localized rerun cannot stand; run the full algorithm instead.

    Deliberately *not* a :class:`~repro.errors.ReproError`: this is an
    internal control signal between the incremental layer and the
    session fallback policy, never an API-boundary error.
    """

    def __init__(self, reason: str) -> None:
        super().__init__(reason)
        self.reason = reason


@dataclass
class IncrementalOutcome:
    """Result of one successful localized rerun."""

    #: Colors for the new edges/arcs, keyed by **original** node ids.
    colors: Dict
    #: Computation rounds the localized run took.
    rounds: int
    supersteps: int
    #: Conflict-subgraph size (affected vertices / new edges).
    subgraph_nodes: int
    subgraph_edges: int


class SeededEdgeColoringProgram(EdgeColoringProgram):
    """Algorithm 1 program whose palette starts pre-constrained.

    ``seed_forbidden`` holds the colors of this node's already-colored
    incident edges in the full graph; ``neighbor_forbidden`` maps each
    subgraph neighbor to *its* forbidden set.  Both are folded into the
    :class:`~repro.core.palette.ColorLedger` right after ``on_init``:
    own colors into ``used`` (directly, not via ``consume`` — they are
    not fresh news to broadcast, every subgraph neighbor was seeded with
    them symmetrically) and neighbor colors into the neighbor-knowledge
    table that ``propose_for`` consults.
    """

    def __init__(
        self,
        node_id: int,
        *,
        seed_forbidden: FrozenSet[Color],
        neighbor_forbidden: Dict[int, FrozenSet[Color]],
        **kwargs,
    ) -> None:
        super().__init__(node_id, **kwargs)
        self._seed_forbidden = seed_forbidden
        self._seed_neighbor_forbidden = neighbor_forbidden

    def on_init(self, ctx) -> None:
        super().on_init(ctx)
        if self._ledger is None:  # pragma: no cover - isolated node halt
            return
        self._ledger.used.update(self._seed_forbidden)
        for neighbor, colors in self._seed_neighbor_forbidden.items():
            if neighbor in self._ledger.neighbor_used:
                self._ledger.learn(neighbor, colors)


class SeededDiMa2EdProgram(DiMa2EdProgram):
    """DiMa2Ed program whose struck-channel list starts pre-populated.

    ``seed_forbidden`` holds the channels of every colored arc within
    distance 2 of this node in the full graph; ``neighbor_forbidden``
    maps each subgraph neighbor to its own such set (feeding the
    ``_neighbor_removed`` model so proposals stay open *for the
    partner*, exactly as live reports would teach).
    """

    def __init__(
        self,
        node_id: int,
        out_neighbors: List[int],
        in_neighbors: List[int],
        *,
        seed_forbidden: FrozenSet[Color],
        neighbor_forbidden: Dict[int, FrozenSet[Color]],
        **kwargs,
    ) -> None:
        super().__init__(node_id, out_neighbors, in_neighbors, **kwargs)
        self._seed_forbidden = seed_forbidden
        self._seed_neighbor_forbidden = neighbor_forbidden

    def on_init(self, ctx) -> None:
        super().on_init(ctx)
        self._forbidden |= self._seed_forbidden
        for neighbor, channels in self._seed_neighbor_forbidden.items():
            if neighbor in self._neighbor_removed:
                self._neighbor_removed[neighbor] |= set(channels)


def _conflict_subgraph(
    new_edges: Iterable[Edge],
) -> Tuple[Graph, List[int], Dict[int, int]]:
    """The subgraph of exactly the new edges, relabeled ``0..k-1``.

    Returns ``(subgraph, affected, index)`` where ``affected[i]`` is the
    original id of subgraph node ``i`` and ``index`` is the inverse map.
    """
    edges = sorted({canonical_edge(u, v) for u, v in new_edges})
    affected = sorted({u for edge in edges for u in edge})
    index = {u: i for i, u in enumerate(affected)}
    sub = Graph.from_num_nodes(len(affected))
    for u, v in edges:
        sub.add_edge(index[u], index[v])
    return sub, affected, index


def _check_budget(params) -> None:
    """The run path's check on the round budget: ``params.max_rounds``
    below 1 is a :class:`ConfigurationError` (the defaults never are)."""
    if params.max_rounds is not None and params.max_rounds < 1:
        raise ConfigurationError(
            f"max_rounds must be >= 1, got {params.max_rounds}"
        )


def _run_localized(sub: Graph, factory, *, seed: int, budget_rounds: int):
    engine = SynchronousEngine(
        sub,
        factory,
        seed=seed,
        max_supersteps=budget_rounds * PHASES_PER_ROUND,
        strict=True,
    )
    run = engine.run()
    if not run.completed:
        raise FallbackRequired(
            f"localized rerun did not converge within {budget_rounds} "
            f"rounds on a {sub.num_nodes}-node conflict subgraph"
        )
    return run


def incremental_edge_colors(
    graph: Graph,
    colors: Dict[Edge, Color],
    new_edges: Iterable[Edge],
    *,
    seed: int = 0,
    params: Optional[EdgeColoringParams] = None,
) -> IncrementalOutcome:
    """Color ``new_edges`` of ``graph`` without touching ``colors``.

    ``graph`` is the post-mutation graph (new edges already inserted),
    ``colors`` its proper-but-partial coloring (exactly the new edges
    uncolored).  Returns the colors for the new edges only; raises
    :class:`FallbackRequired` when the localized run does not converge
    and :class:`~repro.errors.ConfigurationError` when
    ``params.max_rounds`` is below 1.
    """
    params = params if params is not None else EdgeColoringParams()
    _check_budget(params)
    sub, affected, index = _conflict_subgraph(new_edges)
    if not sub.num_edges:
        return IncrementalOutcome({}, 0, 0, 0, 0)

    forbidden: Dict[int, FrozenSet[Color]] = {}
    for u in affected:
        taken = set()
        for v in graph.neighbors(u):
            c = colors.get(canonical_edge(u, v))
            if c is not None:
                taken.add(c)
        forbidden[index[u]] = frozenset(taken)

    def factory(node_id: int) -> SeededEdgeColoringProgram:
        return SeededEdgeColoringProgram(
            node_id,
            seed_forbidden=forbidden[node_id],
            neighbor_forbidden={
                v: forbidden[v] for v in sub.neighbors(node_id)
            },
            p_invite=params.p_invite,
            defensive=params.defensive,
            color_strategy=params.color_strategy,
            responder_strategy=params.responder_strategy,
        )

    # The localized palette contends over local degree plus the seeded
    # forbidden prefix each node must skip, so budget on that width —
    # not on the full graph's Δ.
    width = max(
        sub.degree(i) + len(forbidden[i]) for i in range(sub.num_nodes)
    )
    budget = (
        params.max_rounds
        if params.max_rounds is not None
        else default_round_budget(width)
    )
    run = _run_localized(sub, factory, seed=seed, budget_rounds=budget)
    inverse = {i: u for u, i in index.items()}
    fresh = ALG1.collect(run, inverse, True)
    return IncrementalOutcome(
        colors=fresh,
        rounds=math.ceil(run.supersteps / PHASES_PER_ROUND),
        supersteps=run.supersteps,
        subgraph_nodes=sub.num_nodes,
        subgraph_edges=sub.num_edges,
    )


class _Dropped:
    """``colors`` read as if the keys in ``dropped`` were absent.

    The invalidation step drops stale channels through :meth:`pop`,
    which records the key and leaves ``colors`` itself untouched, so
    masking a handful of arcs costs a handful of set inserts instead of
    a copy of the whole coloring.
    """

    __slots__ = ("colors", "dropped")

    def __init__(self, colors: Dict[Arc, Color]) -> None:
        self.colors = colors
        self.dropped: Set[Arc] = set()

    def get(self, key: Arc) -> Optional[Color]:
        return None if key in self.dropped else self.colors.get(key)

    def pop(self, key: Arc) -> None:
        self.dropped.add(key)


def _invalidated_by_insertion(
    graph: Graph, working: _Dropped, new_edges: Iterable[Edge]
) -> List[Edge]:
    """Old edges whose arcs the insertions put into conflict.

    Adding edge ``{u, v}`` makes every colored arc with head ``u``
    conflict with every colored arc with tail ``v`` (the transmitter at
    ``v`` now interferes at ``u``'s receiver through the new adjacency)
    and symmetrically with ``u``/``v`` swapped.  Equal-channel pairs
    must be broken: the edge carrying the *outgoing* arc of each pair
    is deterministically picked as the loser, its two channels dropped
    from ``working``, and it is returned for recoloring.
    """
    invalidated: List[Edge] = []
    for u, v in sorted({canonical_edge(a, b) for a, b in new_edges}):
        for head_end, tail_end in ((u, v), (v, u)):
            incoming = {}
            for x in graph.neighbors(head_end):
                if x == tail_end:
                    continue
                c = working.get((x, head_end))
                if c is not None:
                    incoming.setdefault(c, []).append(x)
            if not incoming:
                continue
            for y in sorted(graph.neighbors(tail_end)):
                if y == head_end:
                    continue
                c = working.get((tail_end, y))
                if c is not None and c in incoming:
                    edge = canonical_edge(tail_end, y)
                    invalidated.append(edge)
                    working.pop((tail_end, y))
                    working.pop((y, tail_end))
    return invalidated


def incremental_arc_colors(
    graph: Graph,
    arc_colors: Dict[Arc, Color],
    new_edges: Iterable[Edge],
    *,
    seed: int = 0,
    params: Optional[StrongColoringParams] = None,
) -> IncrementalOutcome:
    """Channel both arcs of each new edge of a strong arc coloring.

    ``graph`` is the post-mutation undirected graph whose symmetric
    closure carries ``arc_colors`` (a valid-but-partial strong
    coloring: exactly the arcs of ``new_edges`` unchanneled, both
    directions).  Returns channels for both arcs of every rerun edge —
    the new edges plus any old edges the insertions invalidated (their
    returned channels *replace* the stale entries; see
    :func:`_invalidated_by_insertion`).  ``arc_colors`` is only read.
    Raises :class:`FallbackRequired` and
    :class:`~repro.errors.ConfigurationError` as
    :func:`incremental_edge_colors` does.
    """
    params = params if params is not None else StrongColoringParams()
    _check_budget(params)
    working = _Dropped(arc_colors)
    rerun = list({canonical_edge(u, v) for u, v in new_edges})
    rerun += _invalidated_by_insertion(graph, working, rerun)
    sub, affected, index = _conflict_subgraph(rerun)
    if not sub.num_edges:
        return IncrementalOutcome({}, 0, 0, 0, 0)

    forbidden: Dict[int, FrozenSet[Color]] = {}
    for u in affected:
        taken = set()
        hood = {u} | set(graph.neighbors(u))
        for w in hood:
            for x in graph.neighbors(w):
                c = working.get((w, x))
                if c is not None:
                    taken.add(c)
                c = working.get((x, w))
                if c is not None:
                    taken.add(c)
        forbidden[index[u]] = frozenset(taken)

    def factory(node_id: int) -> SeededDiMa2EdProgram:
        partners = sorted(sub.neighbors(node_id))
        return SeededDiMa2EdProgram(
            node_id,
            out_neighbors=partners,
            in_neighbors=partners,
            seed_forbidden=forbidden[node_id],
            neighbor_forbidden={v: forbidden[v] for v in partners},
            p_invite=params.p_invite,
            channel_strategy=params.channel_strategy,
        )

    # Each node must channel both directions of every subgraph edge and
    # skip its seeded struck prefix.
    width = max(
        2 * sub.degree(i) + len(forbidden[i]) for i in range(sub.num_nodes)
    )
    budget = (
        params.max_rounds
        if params.max_rounds is not None
        else default_strong_round_budget(width)
    )
    run = _run_localized(sub, factory, seed=seed, budget_rounds=budget)
    inverse = {i: u for u, i in index.items()}
    fresh = DIMA2ED.collect(run, inverse, True)
    return IncrementalOutcome(
        colors=fresh,
        rounds=math.ceil(run.supersteps / PHASES_PER_ROUND),
        supersteps=run.supersteps,
        subgraph_nodes=sub.num_nodes,
        subgraph_edges=sub.num_edges,
    )
