"""Runtime invariant monitors — per-superstep checks inside a live run.

The verifiers in this package judge a run's *output*; the monitors here
watch the run *while it executes*, checking the per-round invariants the
paper's correctness argument actually rests on:

* :class:`TransitionLegalityMonitor` — every observed state change of
  the C/I/L/R/W/U/E/D automaton follows the machine (Figure 1);
* :class:`RoundInvariantMonitor` — the edges/arcs colored in each
  computation round form a matching (Proposition 1's engine), both
  endpoints record the same color, and the accumulated partial coloring
  stays proper (Proposition 2, checked every round instead of at the
  end);
* :class:`PaletteBoundMonitor` — no color breaches the palette bound
  (Proposition 3's ``color < 2Δ−1`` for Algorithm 1's paper
  configuration; a conservative distance-2 analogue for DiMa2Ed);
* :class:`ConservationMonitor` — the engine's message accounting
  balances each superstep:
  ``delivered − duplicated + dropped + discarded_halted +
  lost_to_crash == addressed copies``.

Attach monitors to a run with ``color_edges(graph, monitors=[...])``,
``strong_color_arcs(digraph, monitors=[...])`` or directly on
``SynchronousEngine(..., monitors=[...])``.  A monitored run always
executes on the engine's per-node delivery loop, like full-fidelity
tracing (see docs/observability.md); an unmonitored run keeps the
kernels eligible, with zero observer effect (pinned by the property
suite).  On the first violation the offending monitor raises
:class:`InvariantViolation`, which records the monitor name and the
superstep — the differential harness (:mod:`repro.verify.differential`)
uses that as the divergence point.

Monitors check invariants of the *reliable* network model.  They may be
attached to fault-injected runs, but a violation there can be genuine
protocol desynchronization (e.g. a lost reply leaving endpoint records
one-sided) rather than an implementation bug; interpret accordingly.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from repro.errors import VerificationError
from repro.graphs.adjacency import Graph
from repro.runtime.message import BROADCAST, Message
from repro.runtime.metrics import RunMetrics
from repro.types import Color, Edge, canonical_edge
from repro.verify.edge_coloring import check_proper_edge_coloring
from repro.verify.matching import check_matching
from repro.verify.strong_coloring import check_strong_arc_coloring

__all__ = [
    "InvariantViolation",
    "InvariantMonitor",
    "TransitionLegalityMonitor",
    "RoundInvariantMonitor",
    "PaletteBoundMonitor",
    "ConservationMonitor",
    "default_monitors",
]

#: Supersteps per computation round (mirrors ``repro.core.states``;
#: imported lazily there to keep verify free of core imports at module
#: load, matching the package's two-implementations discipline).
_PHASES_PER_ROUND = 4


class InvariantViolation(VerificationError):
    """A runtime invariant failed mid-run.

    Attributes
    ----------
    monitor:
        Name of the monitor that fired.
    superstep:
        Superstep at whose end the violation was observed.
    detail:
        Human-readable description of what broke.
    """

    def __init__(self, monitor: str, superstep: int, detail: str) -> None:
        super().__init__(
            f"[{monitor}] invariant violated at superstep {superstep}: {detail}"
        )
        self.monitor = monitor
        self.superstep = superstep
        self.detail = detail


def _unwrap(program: Any) -> Any:
    """The algorithm program behind an optional transport wrapper."""
    return getattr(program, "inner", program)


def _state_char(program: Any) -> Optional[str]:
    """The automaton state as a character, or None for non-automata."""
    state = getattr(_unwrap(program), "state", None)
    if state is None:
        return None
    value = getattr(state, "value", state)
    return value if isinstance(value, str) else None


class InvariantMonitor:
    """Base class: a per-superstep observer that raises on violation.

    The engine calls :meth:`begin_run` once after ``on_init`` and
    :meth:`after_superstep` at the **end** of every superstep — after
    stepping, delivery and inbox reordering, so the monitor sees the
    same post-superstep world the next superstep will.
    Monitors are read-only over all arguments; a monitor instance meters
    one run (attach fresh instances per run).
    """

    name = "invariant"

    def begin_run(self, topology: Graph, programs: Sequence[Any]) -> None:
        """Capture post-``on_init`` baselines."""

    def after_superstep(
        self,
        superstep: int,
        programs: Sequence[Any],
        stepped: Sequence[int],
        metrics: RunMetrics,
        outbound: Sequence[Tuple[int, List[Message]]],
    ) -> None:
        """Check one superstep; ``stepped`` is the live set at its start."""

    def fail(self, superstep: int, detail: str) -> None:
        """Raise the standard violation for this monitor."""
        raise InvariantViolation(self.name, superstep, detail)


class TransitionLegalityMonitor(InvariantMonitor):
    """Every observed state change follows the paper's automaton.

    States are observed once per superstep (at its end), so the transient
    I and R states never appear and the *observed* machine is::

        C -> {W, L}   (role coin: inviter waits, listener listens)
        W -> {W, E}   (inviter waits through the respond phase)
        L -> {U}      (listener picked, moves to update)
        U -> {E}      (updates broadcast, exchange next)
        E -> {C, D}   (round ends: go again or halt)

    Under the reliable-transport wrapper the automaton advances on
    synchronizer *pulses*, not raw supersteps, so any state may stutter
    (including a finished inner automaton parked in D while the shutdown
    protocol drains); stuttering self-loops are accepted exactly when a
    transport wrapper is present.
    """

    name = "transition-legality"

    LEGAL: Dict[str, frozenset] = {
        "C": frozenset("WL"),
        "W": frozenset("WE"),
        "L": frozenset("U"),
        "U": frozenset("E"),
        "E": frozenset("CD"),
    }

    def __init__(self) -> None:
        self._prev: Dict[int, str] = {}
        self._allow_stutter = False

    def begin_run(self, topology: Graph, programs: Sequence[Any]) -> None:
        self._allow_stutter = any(
            _unwrap(p) is not p for p in programs
        )
        for u, prog in enumerate(programs):
            state = _state_char(prog)
            if state is not None:
                self._prev[u] = state

    def after_superstep(self, superstep, programs, stepped, metrics, outbound):
        prev = self._prev
        legal = self.LEGAL
        for u in stepped:
            state = _state_char(programs[u])
            if state is None:
                continue
            before = prev.get(u, state)
            prev[u] = state
            if state == before and self._allow_stutter:
                continue
            allowed = legal.get(before)
            if allowed is None or state not in allowed:
                self.fail(
                    superstep,
                    f"node {u} moved {before} -> {state} "
                    f"(legal from {before}: "
                    f"{sorted(allowed) if allowed else 'nothing'})",
                )


class RoundInvariantMonitor(InvariantMonitor):
    """Per-round matching + endpoint agreement + proper partial coloring.

    At the end of every computation round (each ``PHASES_PER_ROUND``-th
    superstep) the monitor diffs the programs' color records against the
    previous round and checks:

    * the **newly colored** edges (arcs map to their underlying edges)
      form a matching — each node pairs with at most one partner per
      round, the heart of the automaton's progress argument;
    * **endpoint agreement** — when both endpoints have recorded a
      shared edge, they recorded the same color;
    * the accumulated **partial coloring is proper** — via the
      independent verifiers (:func:`verify.check_proper_edge_coloring`
      for Algorithm 1, :func:`verify.check_strong_arc_coloring` with
      ``complete=False`` for DiMa2Ed).

    Works on either algorithm; the mode is sniffed from the programs
    (``arc_colors`` = DiMa2Ed, ``edge_colors`` = Algorithm 1).
    """

    name = "round-invariants"

    def __init__(self) -> None:
        self._strong = False
        self._topology: Optional[Graph] = None
        self._digraph = None
        self._colors: Dict[Any, Color] = {}

    def begin_run(self, topology: Graph, programs: Sequence[Any]) -> None:
        self._topology = topology
        self._strong = any(
            hasattr(_unwrap(p), "arc_colors") for p in programs
        )
        if self._strong:
            self._digraph = topology.to_directed()
        self._collect(programs, -1)

    def _collect(
        self, programs: Sequence[Any], superstep: int
    ) -> List[Any]:
        """Fold new color records in; return the newly seen keys."""
        colors = self._colors
        new: List[Any] = []
        for prog in programs:
            prog = _unwrap(prog)
            if self._strong:
                items = getattr(prog, "arc_colors", None)
                if not items:
                    continue
                for arc, color in items.items():
                    previous = colors.get(arc)
                    if previous is None:
                        colors[arc] = color
                        new.append(arc)
                    elif previous != color:
                        self.fail(
                            superstep,
                            f"arc {arc} recolored {previous} -> {color}",
                        )
            else:
                items = getattr(prog, "edge_colors", None)
                if not items:
                    continue
                u = prog.node_id
                for v, color in items.items():
                    edge = canonical_edge(u, v)
                    previous = colors.get(edge)
                    if previous is None:
                        colors[edge] = color
                        new.append(edge)
                    elif previous != color:
                        self.fail(
                            superstep,
                            f"endpoints of edge {edge} disagree: "
                            f"{previous} vs {color}",
                        )
        return new

    def after_superstep(self, superstep, programs, stepped, metrics, outbound):
        if superstep % _PHASES_PER_ROUND != _PHASES_PER_ROUND - 1:
            return
        new = self._collect(programs, superstep)
        if new:
            if self._strong:
                # One node engages one partner per round, so the new
                # arcs' underlying edges must pair distinct endpoints.
                new_edges = sorted({canonical_edge(t, h) for t, h in new})
            else:
                new_edges = sorted(new)
            violations = check_matching(self._topology, new_edges)
            if violations:
                self.fail(
                    superstep,
                    f"round's new edges {new_edges} are not a matching: "
                    + "; ".join(violations[:3]),
                )
        if self._strong:
            violations = check_strong_arc_coloring(
                self._digraph, self._colors, complete=False
            )
        else:
            violations = check_proper_edge_coloring(
                self._topology, self._colors
            )
        if violations:
            self.fail(
                superstep,
                "partial coloring not proper: " + "; ".join(violations[:3]),
            )


class PaletteBoundMonitor(InvariantMonitor):
    """No recorded color may reach the palette bound.

    ``bound`` is exclusive (a valid color satisfies ``color < bound``).
    When omitted it is derived at :meth:`begin_run` from the topology's
    maximum degree Δ and the algorithm in play:

    * Algorithm 1 with the paper's ``"lowest"`` proposal rule:
      ``2Δ − 1`` — Proposition 3's bound, exact (a proposal is the first
      color free of ≤ Δ−1 own plus ≤ Δ−1 known-partner colors).  The
      ``"random_window"`` ablation draws uniformly below ``max+1`` and
      can escalate along a path, so no Δ-based bound exists; the monitor
      then stays dormant unless an explicit ``bound`` is given.
    * DiMa2Ed: ``2Δ² + BASE_WINDOW + MAX_BACKOFF + 2`` — a deliberately
      conservative distance-2 analogue (the contention window slides,
      so the tight bound is configuration-dependent; this one is safe
      for every shipped configuration while still catching runaway
      channel escalation).
    """

    name = "palette-bound"

    def __init__(self, bound: Optional[int] = None) -> None:
        self.bound = bound
        self._derived: Optional[int] = None
        self._strong = False

    def begin_run(self, topology: Graph, programs: Sequence[Any]) -> None:
        self._strong = any(
            hasattr(_unwrap(p), "arc_colors") for p in programs
        )
        if self.bound is not None:
            self._derived = self.bound
            return
        delta = max((topology.degree(u) for u in topology), default=0)
        if self._strong:
            from repro.core.dima2ed import DiMa2EdProgram

            self._derived = (
                2 * delta * delta
                + DiMa2EdProgram.BASE_WINDOW
                + DiMa2EdProgram.MAX_BACKOFF
                + 2
            )
        else:
            strategies = {
                getattr(_unwrap(p), "color_strategy", None) for p in programs
            }
            if strategies <= {"lowest", None}:
                self._derived = max(1, 2 * delta - 1)
            else:
                self._derived = None  # no Δ-based bound for the ablation

    def after_superstep(self, superstep, programs, stepped, metrics, outbound):
        bound = self._derived
        if bound is None:
            return
        if superstep % _PHASES_PER_ROUND != _PHASES_PER_ROUND - 1:
            return
        for u in stepped:
            prog = _unwrap(programs[u])
            records = getattr(
                prog, "arc_colors" if self._strong else "edge_colors", None
            )
            if not records:
                continue
            for key, color in records.items():
                if color >= bound:
                    self.fail(
                        superstep,
                        f"node {u} recorded color {color} for {key!r}, "
                        f"breaching the palette bound {bound}",
                    )


class ConservationMonitor(InvariantMonitor):
    """The engine's delivery accounting balances every superstep.

    Every copy addressed this superstep (one per live neighbor of a
    broadcast's sender, one per unicast) meets exactly one fate, so the
    per-superstep metric deltas must satisfy::

        delivered − duplicated + dropped + discarded_halted
                  + lost_to_crash == addressed

    and ``sent`` must equal the number of outbound messages.  The
    addressed count is recomputed independently from the outbound list
    and the topology's degrees — the monitor shares no arithmetic with
    the delivery loop it audits.
    """

    name = "message-conservation"

    def __init__(self) -> None:
        self._deg: List[int] = []
        self._last: Dict[str, int] = {}

    _FIELDS = (
        "messages_sent",
        "messages_delivered",
        "messages_dropped",
        "messages_duplicated",
        "messages_discarded_halted",
        "messages_lost_to_crash",
    )

    def begin_run(self, topology: Graph, programs: Sequence[Any]) -> None:
        self._deg = [topology.degree(u) for u in topology.nodes()]
        self._last = {f: 0 for f in self._FIELDS}

    def after_superstep(self, superstep, programs, stepped, metrics, outbound):
        delta = {}
        for f in self._FIELDS:
            value = getattr(metrics, f)
            delta[f] = value - self._last[f]
            self._last[f] = value
        sent = addressed = 0
        for sender, msgs in outbound:
            sent += len(msgs)
            for msg in msgs:
                addressed += (
                    self._deg[sender] if msg.dest == BROADCAST else 1
                )
        if delta["messages_sent"] != sent:
            self.fail(
                superstep,
                f"sent counter moved by {delta['messages_sent']} "
                f"but {sent} messages left the outboxes",
            )
        accounted = (
            delta["messages_delivered"]
            - delta["messages_duplicated"]
            + delta["messages_dropped"]
            + delta["messages_discarded_halted"]
            + delta["messages_lost_to_crash"]
        )
        if accounted != addressed:
            self.fail(
                superstep,
                f"{addressed} copies addressed but {accounted} accounted "
                f"for (deltas: "
                + ", ".join(f"{k.split('_', 1)[1]}={v}" for k, v in delta.items())
                + ")",
            )


def default_monitors() -> List[InvariantMonitor]:
    """Fresh instances of every shipped monitor (one run's worth)."""
    return [
        TransitionLegalityMonitor(),
        RoundInvariantMonitor(),
        PaletteBoundMonitor(),
        ConservationMonitor(),
    ]
