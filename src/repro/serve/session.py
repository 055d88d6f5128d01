"""Named coloring sessions: mutation batches, verification, persistence.

A :class:`ColoringSession` owns one mutable graph plus a coloring that
is kept proper across mutation batches.  Removals are free (dropping an
edge or vertex can never break properness); additions go through the
incremental path of :mod:`repro.serve.incremental`, falling back to a
full :func:`~repro.core.edge_coloring.color_edges` /
:func:`~repro.core.dima2ed.strong_color_arcs` rerun whenever the
localized run fails to converge or the post-batch properness check
finds a violation.  Every batch is **atomic**: mutations are applied in
place with an undo log, and a bad mutation mid-batch replays the log
backwards, so the session is left untouched.  Both the staging and the
post-batch check of an incremental recolor cost time proportional to
the batch, not the session: the check covers only the neighbourhood
the batch recolored (see ``docs/serving.md``, "Verification is
local").

The :class:`SessionManager` adds the namespace (create/get/drop),
aggregate statistics, and JSON persistence under a state directory so
``repro serve`` restarts resume with their sessions intact (rides the
same philosophy as the checkpoint/restart subsystem: state on disk,
observability reattached by the caller at thaw time).
"""

from __future__ import annotations

import json
import re
import time
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.core.dima2ed import strong_color_arcs
from repro.core.edge_coloring import color_edges
from repro.errors import ConvergenceError, ServeError, VerificationError
from repro.graphs.adjacency import DiGraph, Graph
from repro.serve.incremental import (
    FallbackRequired,
    IncrementalOutcome,
    incremental_arc_colors,
    incremental_edge_colors,
)
from repro.types import Color, Edge, canonical_edge
# check_edge_coloring_complete is unused here, but perfbench's traced
# serve-edit replay patches it on this module by name.
from repro.verify.edge_coloring import (  # noqa: F401
    check_edge_coloring_complete,
    check_proper_edge_coloring,
)
from repro.verify.strong_coloring import check_strong_arc_coloring

__all__ = [
    "ALGORITHMS",
    "MUTATION_OPS",
    "Mutation",
    "BatchOutcome",
    "ColoringSession",
    "SessionManager",
]

ALGORITHMS = ("alg1", "dima2ed")
MUTATION_OPS = ("add_edge", "remove_edge", "add_vertex", "remove_vertex")

#: Session names are file-name and log safe.
_NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

#: Session state file format version (bump on incompatible change).
_STATE_FORMAT = 1

#: Multiplier deriving per-batch seeds from (session seed, batch index)
#: — a fixed odd constant so batch seeds never collide across the batch
#: counts any realistic session reaches.
_BATCH_SEED_STRIDE = 7919


@dataclass(frozen=True)
class Mutation:
    """One graph mutation. ``v`` is unused for the vertex ops."""

    op: str
    u: int
    v: Optional[int] = None

    def __post_init__(self) -> None:
        if self.op not in MUTATION_OPS:
            raise ServeError(
                f"unknown mutation op {self.op!r}; expected one of "
                f"{MUTATION_OPS}"
            )
        if not isinstance(self.u, int) or isinstance(self.u, bool):
            raise ServeError(f"mutation endpoint u must be an int, got {self.u!r}")
        needs_v = self.op in ("add_edge", "remove_edge")
        if needs_v and (not isinstance(self.v, int) or isinstance(self.v, bool)):
            raise ServeError(
                f"mutation {self.op!r} needs integer endpoints, got v={self.v!r}"
            )
        if not needs_v and self.v is not None:
            raise ServeError(f"mutation {self.op!r} takes no second endpoint")

    @classmethod
    def from_dict(cls, raw: object) -> "Mutation":
        if not isinstance(raw, dict):
            raise ServeError(f"mutation must be an object, got {type(raw).__name__}")
        unknown = set(raw) - {"op", "u", "v"}
        if unknown:
            raise ServeError(f"unknown mutation fields {sorted(unknown)}")
        if "op" not in raw or "u" not in raw:
            raise ServeError("mutation needs at least 'op' and 'u'")
        return cls(op=raw["op"], u=raw["u"], v=raw.get("v"))

    def to_dict(self) -> dict:
        d = {"op": self.op, "u": self.u}
        if self.v is not None:
            d["v"] = self.v
        return d


@dataclass
class BatchOutcome:
    """What one mutation batch did to a session."""

    applied: int
    new_edges: int
    removed_edges: int
    #: The localized seeded rerun produced the batch's colors (always
    #: True for pure-removal batches — nothing needed recoloring).
    incremental: bool
    #: A full-graph rerun was needed (non-convergence or a verification
    #: failure of the localized result).
    fallback: bool
    #: Computation rounds spent recoloring (localized or full).
    rounds: int
    #: Properness violations found *and healed* by falling back; a
    #: batch never commits a violating coloring.
    violations: List[str] = field(default_factory=list)
    wall_s: float = 0.0
    #: Seconds spent per phase: staging the mutations, recoloring
    #: (localized and full reruns) and verifying.  Not part of
    #: :meth:`to_dict`; the server exports them as
    #: ``repro_serve_phase_seconds{phase}``.
    stage_s: float = 0.0
    recolor_s: float = 0.0
    verify_s: float = 0.0

    def to_dict(self) -> dict:
        return {
            "applied": self.applied,
            "new_edges": self.new_edges,
            "removed_edges": self.removed_edges,
            "incremental": self.incremental,
            "fallback": self.fallback,
            "rounds": self.rounds,
            "violations": list(self.violations),
            "wall_s": round(self.wall_s, 6),
        }


def _zero_stats() -> Dict[str, int]:
    return {
        "mutations": 0,
        "batches": 0,
        "incremental_batches": 0,
        "fallback_batches": 0,
        "full_runs": 0,
        "queries": 0,
        "violations_healed": 0,
    }


class ColoringSession:
    """One named graph kept properly colored across mutations."""

    def __init__(
        self,
        name: str,
        *,
        algorithm: str = "alg1",
        seed: int = 0,
        verify: bool = True,
        incremental: bool = True,
    ) -> None:
        if not _NAME_RE.match(name):
            raise ServeError(
                f"invalid session name {name!r} (want [A-Za-z0-9_.-], "
                "leading alphanumeric, at most 64 chars)"
            )
        if algorithm not in ALGORITHMS:
            raise ServeError(
                f"unknown algorithm {algorithm!r}; expected one of {ALGORITHMS}"
            )
        self.name = name
        self.algorithm = algorithm
        self.seed = seed
        self.verify = verify
        self.incremental = incremental
        self.graph = Graph()
        #: alg1: canonical edge -> color.  dima2ed: arc -> channel, both
        #: directions of every edge present.
        self.colors: Dict = {}
        self.batches = 0
        self.stats = _zero_stats()

    # -- bootstrap -------------------------------------------------------

    def load_edges(
        self, edges: Iterable[Tuple[int, int]], num_nodes: Optional[int] = None
    ) -> None:
        """Populate the initial graph and run the first full coloring."""
        if self.graph.num_nodes or self.colors:
            raise ServeError(f"session {self.name!r} is already populated")
        if num_nodes is not None:
            for u in range(num_nodes):
                self.graph.add_node(u)
        for u, v in edges:
            if not self.graph.has_edge(u, v):
                self.graph.add_edge(u, v)
        self._recolor_full(self.seed)
        self._check_or_raise()

    # -- queries ---------------------------------------------------------

    def color_of(self, u: int, v: int) -> Optional[Color]:
        """The color/channel on edge (arc) ``(u, v)``, or None."""
        self.stats["queries"] += 1
        if self.algorithm == "dima2ed":
            return self.colors.get((u, v))
        return self.colors.get(canonical_edge(u, v))

    def palette(self) -> List[Color]:
        return sorted(set(self.colors.values()))

    def info(self) -> dict:
        return {
            "name": self.name,
            "algorithm": self.algorithm,
            "seed": self.seed,
            "nodes": self.graph.num_nodes,
            "edges": self.graph.num_edges,
            "colors": len(self.palette()),
            "batches": self.batches,
            "verify": self.verify,
            "incremental": self.incremental,
            "stats": dict(self.stats),
        }

    # -- mutation batches ------------------------------------------------

    def apply(self, mutations: List[Mutation]) -> BatchOutcome:
        """Apply one atomic batch and restore a proper coloring.

        Raises :class:`~repro.errors.ServeError` (and changes nothing)
        when any mutation in the batch is invalid against the state the
        batch itself builds up.
        """
        t0 = time.perf_counter()
        new_edges, removed = self._stage(mutations)
        staged = time.perf_counter()
        # Staged cleanly: the batch is committed; recolor what it uncolored.
        batch_seed = self.seed + _BATCH_SEED_STRIDE * (self.batches + 1)
        self.batches += 1
        outcome = self._recolor(sorted(new_edges), batch_seed)
        outcome.applied = len(mutations)
        outcome.removed_edges = removed
        outcome.stage_s = staged - t0
        self.stats["mutations"] += len(mutations)
        self.stats["batches"] += 1
        if outcome.incremental:
            self.stats["incremental_batches"] += 1
        if outcome.fallback:
            self.stats["fallback_batches"] += 1
        self.stats["violations_healed"] += len(outcome.violations)
        outcome.wall_s = time.perf_counter() - t0
        return outcome

    def _stage(self, mutations: List[Mutation]) -> Tuple[Set[Edge], int]:
        """Validate and apply ``mutations`` to the graph and colors in place.

        Returns the batch's new edges and how many edges it removed.
        Each graph change is logged as its inverse; a :class:`ServeError`
        replays the log backwards and re-raises.  Two steps wait until
        every mutation has validated, so that the rollback never has to
        restore an order: a removed vertex keeps its place in the node
        order until then (it is only marked gone), and the colors of
        removed edges are dropped only then.  So a rejected batch leaves
        ``graph.nodes()`` (order included), every adjacency set and the
        colors exactly as they were, and the rollback, like the staging,
        costs time proportional to the batch.
        """
        graph = self.graph
        undo: List[Callable[[], None]] = []
        gone: Set[int] = set()
        #: Vertices the batch added or brought back, in the order of
        #: their last addition.
        added: Dict[int, None] = {}
        revived = False
        dropped: List[Edge] = []
        new_edges: Set[Edge] = set()
        removed = 0

        def add_node(u: int) -> None:
            nonlocal revived
            if u in gone:
                gone.discard(u)
                added[u] = None
                revived = True
            elif not graph.has_node(u):
                graph.add_node(u)
                undo.append(partial(graph.remove_node, u))
                added[u] = None

        try:
            for m in mutations:
                if m.op == "add_vertex":
                    add_node(m.u)
                elif m.op == "remove_vertex":
                    if m.u in gone or not graph.has_node(m.u):
                        raise ServeError(
                            f"vertex {m.u} is not in session {self.name!r}"
                        )
                    for u, v in graph.incident_edges(m.u):
                        graph.remove_edge(u, v)
                        undo.append(partial(graph.add_edge, u, v))
                        dropped.append((u, v))
                        new_edges.discard((u, v))
                        removed += 1
                    gone.add(m.u)
                    added.pop(m.u, None)
                elif m.op == "add_edge":
                    if m.u == m.v:
                        raise ServeError(f"self-loop ({m.u}, {m.v}) cannot be colored")
                    if not graph.has_edge(m.u, m.v):
                        add_node(m.u)
                        add_node(m.v)
                        graph.add_edge(m.u, m.v)
                        undo.append(partial(graph.remove_edge, m.u, m.v))
                        new_edges.add(canonical_edge(m.u, m.v))
                elif m.op == "remove_edge":
                    if not graph.has_edge(m.u, m.v):
                        raise ServeError(
                            f"edge ({m.u}, {m.v}) is not in session {self.name!r}"
                        )
                    graph.remove_edge(m.u, m.v)
                    undo.append(partial(graph.add_edge, m.u, m.v))
                    edge = canonical_edge(m.u, m.v)
                    dropped.append(edge)
                    if edge in new_edges:
                        new_edges.discard(edge)
                    else:
                        removed += 1
        except ServeError:
            for step in reversed(undo):
                step()
            raise
        for u in gone:
            graph.remove_node(u)
        if revived:
            # A vertex removed and added back goes to the end of the
            # node order, as a fresh insertion would; keep the batch's
            # other additions after it in their own order.
            for u in added:
                nbrs = list(graph.neighbors(u))
                graph.remove_node(u)
                graph.add_node(u)
                for v in nbrs:
                    graph.add_edge(u, v)
        for u, v in dropped:
            self._drop_color(u, v)
        return new_edges, removed

    def _drop_color(self, u: int, v: int) -> None:
        if self.algorithm == "dima2ed":
            self.colors.pop((u, v), None)
            self.colors.pop((v, u), None)
        else:
            self.colors.pop(canonical_edge(u, v), None)

    def _recolor(self, new_edges: List[Edge], batch_seed: int) -> BatchOutcome:
        outcome = BatchOutcome(
            applied=0,
            new_edges=len(new_edges),
            removed_edges=0,
            incremental=True,
            fallback=False,
            rounds=0,
        )
        if not new_edges:
            # Removal-only batch: dropping colors cannot break
            # properness, so there is nothing to recolor (or verify).
            return outcome
        clock = time.perf_counter
        if self.incremental:
            t0 = clock()
            try:
                fresh = self._recolor_incremental(new_edges, batch_seed)
                outcome.rounds = fresh.rounds
            except FallbackRequired:
                outcome.incremental = False
            outcome.recolor_s += clock() - t0
        else:
            outcome.incremental = False
        if outcome.incremental and self.verify:
            t0 = clock()
            if self._local_violations(fresh.colors):
                # Report the full checker's list.
                outcome.violations = self._violations()
            outcome.verify_s += clock() - t0
            if outcome.violations:
                outcome.incremental = False
        if not outcome.incremental:
            outcome.fallback = bool(self.incremental)
            t0 = clock()
            outcome.rounds = self._recolor_full(batch_seed)
            t1 = clock()
            self._check_or_raise()
            outcome.recolor_s += t1 - t0
            outcome.verify_s += clock() - t1
        return outcome

    def _recolor_incremental(
        self, new_edges: List[Edge], seed: int
    ) -> IncrementalOutcome:
        if self.algorithm == "dima2ed":
            out = incremental_arc_colors(
                self.graph, self.colors, new_edges, seed=seed
            )
        else:
            out = incremental_edge_colors(
                self.graph, self.colors, new_edges, seed=seed
            )
        self.colors.update(out.colors)
        return out

    def _recolor_full(self, seed: int) -> int:
        self.stats["full_runs"] += 1
        if not self.graph.num_edges:
            self.colors = {}
            return 0
        try:
            if self.algorithm == "dima2ed":
                result = strong_color_arcs(self.graph.to_directed(), seed=seed)
            else:
                result = color_edges(self.graph, seed=seed)
        except ConvergenceError as exc:  # pragma: no cover - huge budgets
            raise ServeError(
                f"full recoloring of session {self.name!r} did not "
                f"converge: {exc}"
            ) from exc
        self.colors = dict(result.colors)
        return result.rounds

    # -- verification ----------------------------------------------------

    def _violations(self) -> List[str]:
        if self.algorithm == "dima2ed":
            return check_strong_arc_coloring(
                self.graph.to_directed(), self.colors, complete=True
            )
        return check_proper_edge_coloring(self.graph, self.colors, complete=True)

    def _local_violations(self, recolored: Dict) -> List[str]:
        """Violations around the touched set T after an incremental
        recolor: T is the endpoints of the edges (arcs) in ``recolored``.

        Alg. 1 checks every edge with an endpoint in T (radius 1).
        DiMa2Ed checks both arcs of every edge with an endpoint in T or
        next to it (radius 2).  That holds every edge or arc that can
        conflict with a recolored one, every adjacency that decides such
        a conflict, and every edge the batch added.  So the verdict
        (empty or not) equals :meth:`_violations`' *provided* the
        coloring was proper and complete before the batch, which every
        batch of a verifying session leaves behind and loading checks.
        """
        graph, colors = self.graph, self.colors
        touched = {x for key in recolored for x in key}
        # The recolored entries go in as they are, so one that names no
        # edge (or a non-canonical key) is reported as the full check would.
        local_colors = {key: colors[key] for key in recolored if key in colors}
        if self.algorithm == "dima2ed":
            digraph = DiGraph()
            for u in touched.union(*map(graph.neighbors, touched)):
                for v in graph.neighbors(u):
                    for arc in ((u, v), (v, u)):
                        digraph.add_arc(*arc)
                        if arc in colors:
                            local_colors[arc] = colors[arc]
            return check_strong_arc_coloring(digraph, local_colors, complete=True)
        local = Graph()
        for u in touched:
            for v in graph.neighbors(u):
                local.add_edge(u, v)
                edge = canonical_edge(u, v)
                if edge in colors:
                    local_colors[edge] = colors[edge]
        return check_proper_edge_coloring(local, local_colors, complete=True)

    def _check_or_raise(self, when: str = "after a full rerun") -> None:
        if not self.verify:
            return
        violations = self._violations()
        if violations:
            raise VerificationError(
                f"session {self.name!r} coloring is invalid {when}: "
                f"{violations[:3]}"
            )

    # -- persistence -----------------------------------------------------

    def to_state(self) -> dict:
        colored = [[u, v, c] for (u, v), c in sorted(self.colors.items())]
        return {
            "format": _STATE_FORMAT,
            "name": self.name,
            "algorithm": self.algorithm,
            "seed": self.seed,
            "verify": self.verify,
            "incremental": self.incremental,
            "batches": self.batches,
            "nodes": sorted(self.graph.nodes()),
            "edges": sorted(self.graph.edge_list()),
            "colors": colored,
            "stats": dict(self.stats),
        }

    @classmethod
    def from_state(cls, state: dict) -> "ColoringSession":
        fmt = state.get("format", 1)
        if fmt > _STATE_FORMAT:
            raise ServeError(
                f"session state format {fmt} is newer than this checkout "
                f"understands ({_STATE_FORMAT})"
            )
        session = cls(
            state["name"],
            algorithm=state.get("algorithm", "alg1"),
            seed=state.get("seed", 0),
            verify=state.get("verify", True),
            incremental=state.get("incremental", True),
        )
        for u in state.get("nodes", ()):
            session.graph.add_node(u)
        for row in state.get("edges", ()):
            session.graph.add_edge(*_int_row(session.name, "edges", row, 2))
        arcs = session.algorithm == "dima2ed"
        for row in state.get("colors", ()):
            u, v, c = _int_row(session.name, "colors", row, 3)
            session.colors[(u, v) if arcs else canonical_edge(u, v)] = c
        session.batches = state.get("batches", 0)
        stats = _zero_stats()
        stats.update(state.get("stats", {}))
        session.stats = stats
        # A tampered or stale state file must not serve improper colors.
        session._check_or_raise("on load")
        return session


def _int_row(name: str, field: str, row: object, width: int) -> Sequence[int]:
    """``row`` from a state file's ``field`` list when it holds exactly
    ``width`` integers within int64, else :class:`ServeError`."""
    if (
        isinstance(row, (list, tuple))
        and len(row) == width
        and all(
            isinstance(x, int) and not isinstance(x, bool) and -(2**63) <= x < 2**63
            for x in row
        )
    ):
        return row
    raise ServeError(
        f"session {name!r} state has a malformed {field} row {row!r}: "
        f"expected {width} integers within int64"
    )


class SessionManager:
    """Namespace, aggregate stats, and persistence for sessions."""

    def __init__(
        self,
        *,
        state_dir=None,
        default_seed: int = 0,
        verify: bool = True,
        incremental: bool = True,
    ) -> None:
        self.state_dir = Path(state_dir) if state_dir is not None else None
        self.default_seed = default_seed
        self.verify = verify
        self.incremental = incremental
        self._sessions: Dict[str, ColoringSession] = {}

    def __len__(self) -> int:
        return len(self._sessions)

    def names(self) -> List[str]:
        return sorted(self._sessions)

    def create(
        self,
        name: str,
        *,
        algorithm: str = "alg1",
        seed: Optional[int] = None,
        edges: Optional[Iterable[Tuple[int, int]]] = None,
        num_nodes: Optional[int] = None,
    ) -> ColoringSession:
        if name in self._sessions:
            raise ServeError(f"session {name!r} already exists")
        session = ColoringSession(
            name,
            algorithm=algorithm,
            seed=self.default_seed if seed is None else seed,
            verify=self.verify,
            incremental=self.incremental,
        )
        if edges is not None or num_nodes is not None:
            session.load_edges(edges or (), num_nodes)
        self._sessions[name] = session
        return session

    def get(self, name: str) -> ColoringSession:
        try:
            return self._sessions[name]
        except KeyError:
            raise ServeError(f"no session named {name!r}") from None

    def drop(self, name: str) -> None:
        self.get(name)
        del self._sessions[name]
        if self.state_dir is not None:
            path = self.state_dir / f"{name}.session.json"
            if path.exists():
                path.unlink()

    def totals(self) -> Dict[str, int]:
        totals = _zero_stats()
        for session in self._sessions.values():
            for key, value in session.stats.items():
                totals[key] = totals.get(key, 0) + value
        totals["sessions"] = len(self._sessions)
        return totals

    # -- persistence -----------------------------------------------------

    def save(self) -> int:
        """Persist every session; returns how many files were written."""
        if self.state_dir is None:
            return 0
        self.state_dir.mkdir(parents=True, exist_ok=True)
        written = 0
        for name, session in self._sessions.items():
            path = self.state_dir / f"{name}.session.json"
            tmp = path.with_suffix(".json.tmp")
            tmp.write_text(
                json.dumps(session.to_state(), sort_keys=True), encoding="utf-8"
            )
            tmp.replace(path)
            written += 1
        return written

    def load(self) -> int:
        """Restore sessions from the state directory; returns the count."""
        if self.state_dir is None or not self.state_dir.exists():
            return 0
        loaded = 0
        for path in sorted(self.state_dir.glob("*.session.json")):
            state = json.loads(path.read_text(encoding="utf-8"))
            session = ColoringSession.from_state(state)
            self._sessions[session.name] = session
            loaded += 1
        return loaded
