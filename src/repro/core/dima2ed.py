"""Algorithm 2 — DiMa2Ed: strong distance-2 edge coloring of symmetric digraphs.

Faithful implementation of the paper's Algorithm 2 with Procedures 2-a
(ChooseRoundPartner), 2-b (EvaluateInvites) and 2-c (UpdateEdges):

* an inviter picks a random **uncolored outgoing arc** (u, v) and an open
  channel φ — the lowest color absent from its legal list — and
  broadcasts the proposal (Procedure 2-a);
* a listener splits heard proposals into *mine* (addressed to it) and
  *other* (overheard); it accepts only a proposal whose channel is
  usable on its own legal list **and collides with no overheard
  proposal** (Procedure 2-b's ``mine[] | φ ∉ other`` filter — this is
  what makes simultaneous one-hop colorings safe, Proposition 5 Case 2);
* the accepted arc is colored by the responder as its incoming edge
  (state U_i) and by the inviter, on seeing its echoed message, as its
  outgoing edge (state U_o; Procedure 2-c);
* both endpoints strike φ from their legal lists and broadcast the
  removal; neighbors strike it too (UpdateColors / the E state), which
  keeps every color used within one hop out of a node's palette.

Conflict semantics are receiver-centric interference (DESIGN.md): the
independent verifier in :mod:`repro.verify.strong_coloring` checks the
closure of the paper's Definition 2 patterns.

Two points the paper leaves under-specified are resolved as follows
(both documented in DESIGN.md §"Faithfulness notes"):

1. **Exchange payload.**  The E state "exchanges the changes to their
   color lists".  Reports therefore carry two fields: the channels of
   arcs the sender itself colored (receivers strike these from their own
   legal lists — the one-hop constraint that makes the coloring strong)
   and the sender's full legal-list removals (receivers use these only
   to track what is open *at the sender*).  Without the second field the
   algorithm deadlocks: an inviter's lowest open channel can be
   permanently unusable at the responder because of a coloring two hops
   away, and nothing would ever advance the proposal past it.
2. **Idle inviters.**  Procedure 2-a needs an uncolored outgoing edge;
   a node whose remaining uncolored arcs are all incoming skips the
   role coin and listens (it has nothing to propose and its tails must
   reach it).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple, Union

from repro.errors import ConfigurationError, GraphError, VerificationError
from repro.core._coerce import coerce_digraph
from repro.core.automaton import MatchingAutomatonProgram
from repro.core.batched import AlgorithmRow, run_algorithm
from repro.core.messages import Invite, Reply, Report
from repro.core.palette import first_free
from repro.graphs.adjacency import DiGraph, Graph
from repro.runtime.engine import RunResult
from repro.runtime.faults import MessageFilter
from repro.runtime.metrics import RunMetrics
from repro.runtime.node import Context, NodeProgram
from repro.runtime.observe import AutomatonTelemetry, PhaseProfiler
from repro.runtime.trace import EventTracer
from repro.runtime.transport import TransportConfig
from repro.types import Arc, Color

__all__ = [
    "DIMA2ED",
    "DiMa2EdProgram",
    "StrongColoringParams",
    "StrongColoringResult",
    "strong_color_arcs",
]


class DiMa2EdProgram(MatchingAutomatonProgram):
    """Per-vertex program for Algorithm 2.

    Parameters
    ----------
    node_id:
        Vertex id.
    out_neighbors / in_neighbors:
        Heads of this node's outgoing arcs and tails of its incoming
        arcs.  On the symmetric digraphs the algorithm is specified for,
        these coincide with the communication neighbors.
    """

    CHANNEL_STRATEGIES = ("first_fit", "random_window")

    #: Rounds of partner silence tolerated before a presumed crash
    #: (recovery mode default).
    DEFAULT_PRESUME_DEAD_AFTER = 25

    def __init__(
        self,
        node_id: int,
        out_neighbors: Iterable[int],
        in_neighbors: Iterable[int],
        *,
        p_invite: float = 0.5,
        channel_strategy: str = "random_window",
        recovery: bool = False,
        presume_dead_after: Optional[int] = None,
    ) -> None:
        super().__init__(node_id, p_invite=p_invite)
        if channel_strategy not in self.CHANNEL_STRATEGIES:
            raise ConfigurationError(
                f"unknown channel_strategy {channel_strategy!r}; "
                f"expected one of {self.CHANNEL_STRATEGIES}"
            )
        self.channel_strategy = channel_strategy
        #: arc -> channel for every incident arc this node has colored.
        self.arc_colors: Dict[Arc, Color] = {}
        self._out_uncolored: List[int] = sorted(out_neighbors)
        self._in_uncolored: List[int] = sorted(in_neighbors)
        #: Channels struck from my legal list (my arcs + one-hop colorings).
        self._forbidden: Set[Color] = set()
        #: My model of each neighbor's struck channels, built from the
        #: ``removed`` field of their reports.  Needed for liveness: a
        #: proposal must be open *for the partner*, and channels can be
        #: struck at the partner by colorings two hops from me that I
        #: will never observe directly.
        self._neighbor_removed: Dict[int, Set[Color]] = {}
        #: Channels of arcs I colored since my last report.
        self._fresh_colored: List[Color] = []
        #: All channels newly struck from my legal list since my last
        #: report (superset of the above).
        self._fresh_removed: List[Color] = []
        #: Contention backoff (random_window only): a streak of failed
        #: proposals widens the personal window beyond the lowest open
        #: channels, because in dense clusters every node's legal list
        #: converges to the same prefix and the single shared open
        #: channel makes Procedure 2-b reject all concurrent proposals
        #: forever.  Fresh channels are unbounded, so widening always
        #: restores liveness; success resets the streak.  The grace
        #: threshold keeps ordinary coin-mismatch failures (the partner
        #: simply was not listening, ~1/2 of all proposals) from
        #: spraying high channels and inflating the palette.
        self._fail_streak = 0
        self._proposed_this_round = False
        self._succeeded_this_round = False
        #: Self-healing mode for lossy/crashy networks; see class docs.
        self.recovery = recovery
        if recovery:
            self.presume_dead_after = (
                presume_dead_after
                if presume_dead_after is not None
                else self.DEFAULT_PRESUME_DEAD_AFTER
            )
        #: Partners abandoned after a detected or presumed crash.
        self.removed_partners: Set[int] = set()
        #: partner -> channels proposed to it whose outcome is unknown
        #: (recovery only).  While a proposal is in flight its channel is
        #: withheld from other arcs — the partner may have accepted it —
        #: and on the partner's death every in-flight channel is struck
        #: for good.  The set is cleared the moment any report from the
        #: partner arrives: the report's full color list settles whether
        #: each proposal was accepted.
        self._inflight: Dict[int, Set[Color]] = {}

    #: Failed proposals tolerated before the window starts widening.
    BACKOFF_GRACE = 3
    #: Cap on the contention backoff (channels of extra window).
    MAX_BACKOFF = 64

    @property
    def _backoff(self) -> int:
        streak_past_grace = self._fail_streak - self.BACKOFF_GRACE
        if streak_past_grace < 0:
            return 0
        return min(self.MAX_BACKOFF, 2**streak_past_grace)

    def on_init(self, ctx: Context) -> None:
        self._neighbor_removed = {v: set() for v in ctx.neighbors}
        if not self._out_uncolored and not self._in_uncolored:
            self.halt()

    # -- automaton hooks -------------------------------------------------

    def can_invite(self, ctx: Context) -> bool:
        # Only nodes with an uncolored *outgoing* arc have a proposal to
        # make (Procedure 2-a); the rest listen, which lets their tails
        # reach them and roughly halves time-to-done for in-only nodes.
        return bool(self._out_uncolored)

    def make_invite(self, ctx: Context) -> Optional[Invite]:
        partner = ctx.rng.choice(self._out_uncolored)
        channel = self._pick_channel(ctx, partner)
        self._proposed_this_round = True
        if self.recovery:
            self._inflight.setdefault(partner, set()).add(channel)
        return Invite(sender=self.node_id, target=partner, color=channel)

    #: Base size of the random proposal window (random_window strategy).
    BASE_WINDOW = 4

    def _pick_channel(self, ctx: Context, partner: int) -> Color:
        """An open channel for the arc to ``partner`` (Procedure 2-a).

        ``first_fit`` takes the lowest channel open at both ends (per my
        knowledge).  ``random_window`` (default) draws uniformly from
        the **lowest** ``BASE_WINDOW + backoff`` open channels:
        neighboring inviters then rarely propose the same channel in the
        same round (which Procedure 2-b would reject), while picks stay
        low so the palette remains first-fit-tight.  Contention backoff
        widens only this node's window, so one congested cluster cannot
        inflate anyone else's proposals.
        """
        struck_here = self._forbidden
        struck_there = self._neighbor_removed[partner]
        held: Set[Color] = set()
        if self.recovery:
            # A channel possibly accepted by another partner must not be
            # proposed elsewhere until its fate is known.
            for w, channels in self._inflight.items():
                if w != partner:
                    held |= channels
        if self.channel_strategy == "first_fit":
            return first_free(struck_here, struck_there, held)
        window = self.BASE_WINDOW + self._backoff
        candidates: List[Color] = []
        c = 0
        while len(candidates) < window:
            if c not in struck_here and c not in struck_there and c not in held:
                candidates.append(c)
            c += 1
        return ctx.rng.choice(candidates)

    def choose_invite(
        self, ctx: Context, mine: List[Invite], overheard: List[Invite]
    ) -> Optional[Invite]:
        if not mine:
            return None
        overheard_channels = {inv.color for inv in overheard}
        inflight: Set[Color] = set()
        if self.recovery:
            # Accepting a channel this node itself proposed elsewhere
            # could put it on two arcs within one hop if both resolve.
            for channels in self._inflight.values():
                inflight |= channels
        usable = [
            inv
            for inv in mine
            # re-invites for an already-colored arc occur only under
            # message loss; never re-accept them
            if inv.sender in self._in_uncolored
            and inv.color not in self._forbidden
            and inv.color not in overheard_channels
            and inv.color not in inflight
        ]
        if not usable:
            return None
        return ctx.rng.choice(usable)

    def on_accept(self, ctx: Context, invite: Invite) -> None:
        # State U_i: color the incoming arc from the round partner.
        self._color_arc((invite.sender, self.node_id), invite.color)
        self._in_uncolored.remove(invite.sender)

    def on_reply(self, ctx: Context, reply: Reply) -> None:
        # State U_o: color the outgoing arc to the round partner.
        if reply.sender not in self._out_uncolored:
            return  # stale reply for an already-colored arc (loss only)
        self._succeeded_this_round = True
        self._color_arc((self.node_id, reply.sender), reply.color)
        self._out_uncolored.remove(reply.sender)
        self._inflight.pop(reply.sender, None)

    def make_report(self, ctx: Context) -> Optional[Report]:
        if self.recovery:
            # Full-state heartbeat every round: all incident channels,
            # the whole struck list, and this node's *authoritative*
            # (head-side) arc records.  Everything is idempotent on
            # receipt, so any single delivery heals arbitrary staleness.
            self._fresh_colored = []
            self._fresh_removed = []
            me = self.node_id
            return Report(
                sender=me,
                colors=tuple(sorted(set(self.arc_colors.values()))),
                removed=tuple(sorted(self._forbidden)),
                edges=tuple(
                    sorted(
                        (arc, ch)
                        for arc, ch in self.arc_colors.items()
                        if arc[1] == me
                    )
                ),
            )
        if not self._fresh_removed and not self._fresh_colored:
            return None
        colored, self._fresh_colored = self._fresh_colored, []
        removed, self._fresh_removed = self._fresh_removed, []
        return Report(
            sender=self.node_id, colors=tuple(colored), removed=tuple(removed)
        )

    def on_reports(self, ctx: Context, reports: List[Report]) -> None:
        for report in reports:
            # Channels used on arcs incident to a neighbor are unusable
            # for my own arcs (the one-hop constraint) ...
            for channel in report.colors:
                self._strike(channel)
            # ... while the neighbor's full list-changes only update my
            # model of what is open at that neighbor.
            self._neighbor_removed[report.sender].update(report.removed)
            if self.recovery:
                self._heal_from(ctx, report)
        # Resolve this round's contention backoff.
        if self._proposed_this_round:
            if self._succeeded_this_round:
                self._fail_streak = 0
            else:
                self._fail_streak += 1
        self._proposed_this_round = False
        self._succeeded_this_round = False

    def is_done(self, ctx: Context) -> bool:
        return not self._out_uncolored and not self._in_uncolored

    def telemetry_progress(self) -> Tuple[int, int]:
        """(incident arcs colored, incident arcs to color) for this node.

        Each arc is counted at both endpoints — a constant factor the
        convergence *fraction* cancels.  The total shrinks when recovery
        mode abandons an arc (see :meth:`on_neighbor_down`).
        """
        done = len(self.arc_colors)
        return done, done + len(self._out_uncolored) + len(self._in_uncolored)

    def _heal_from(self, ctx: Context, report: Report) -> None:
        """Adopt the partner's authoritative record of our shared arc.

        The head of an arc colors it first (on accept); the tail only on
        the echoed reply.  If that reply was lost, the tail re-learns the
        arc — with the head's recorded channel — from the head's
        heartbeat.  Runs after the report's strikes, and clears the
        in-flight holds for this partner: the full color list just
        settled the fate of every outstanding proposal to it (accepted
        channels are now struck; the rest were rejected).
        """
        v = report.sender
        for arc, channel in report.edges:
            if arc == (self.node_id, v) and v in self._out_uncolored:
                self._color_arc(arc, channel)
                self._out_uncolored.remove(v)
                ctx.trace("repair", partner=v, color=channel)
        self._inflight.pop(v, None)

    def corrective_replies(self, ctx: Context, invites: List[Invite]):
        if not self.recovery:
            return []
        # A re-invite for an arc whose head side is already colored can
        # only follow a lost reply; answer with the recorded channel so
        # the tail re-enters the automaton on that arc and converges.
        replies = []
        for inv in invites:
            channel = self.arc_colors.get((inv.sender, self.node_id))
            if channel is not None and inv.sender not in self._in_uncolored:
                replies.append(
                    Reply(sender=self.node_id, target=inv.sender, color=channel)
                )
        return replies

    def unresolved_partners(self):
        return set(self._out_uncolored) | set(self._in_uncolored)

    def on_neighbor_down(self, ctx: Context, neighbor: int) -> None:
        touched = False
        if neighbor in self._out_uncolored:
            self._out_uncolored.remove(neighbor)
            touched = True
        if neighbor in self._in_uncolored:
            self._in_uncolored.remove(neighbor)
            touched = True
        if not touched:
            return
        self.removed_partners.add(neighbor)
        # The dead partner may have accepted any in-flight proposal;
        # strike those channels for good (the strike is broadcast, so
        # the neighborhood stops considering them open here).
        for channel in self._inflight.pop(neighbor, ()):
            self._strike(channel)
        ctx.trace("arc_abandoned", partner=neighbor)

    # -- internals ---------------------------------------------------------

    def _strike(self, channel: Color) -> None:
        """Remove ``channel`` from my legal list, queueing the announcement."""
        if channel not in self._forbidden:
            self._forbidden.add(channel)
            self._fresh_removed.append(channel)

    def _color_arc(self, arc: Arc, channel: Optional[Color]) -> None:
        assert channel is not None  # DiMa2Ed invites always carry a channel
        self.arc_colors[arc] = channel
        self._fresh_colored.append(channel)
        self._strike(channel)


@dataclass(frozen=True)
class StrongColoringParams:
    """Tunable knobs of Algorithm 2 (defaults = the paper's setting)."""

    p_invite: float = 0.5
    #: How inviters pick an open channel: "random_window" (default) or
    #: "first_fit"; see ``DiMa2EdProgram._pick_channel``.
    channel_strategy: str = "random_window"
    #: Self-healing mode for lossy/crashy networks: full-state heartbeat
    #: reports, authoritative arc healing, corrective replies, in-flight
    #: channel holds, and presumed-crash arc abandonment.
    recovery: bool = False
    #: Rounds of partner silence before a presumed crash (recovery
    #: only); None picks the program default.
    presume_dead_after: Optional[int] = None
    #: Computation-round budget; None derives ~O(Δ) with a wide margin.
    max_rounds: Optional[int] = None
    strict: bool = True


@dataclass
class StrongColoringResult:
    """Outcome of one DiMa2Ed run.

    The headline claim is rounds ≈ 4Δ (each node must color both its
    incoming and outgoing arcs, one per round at best).
    """

    colors: Dict[Arc, Color]
    rounds: int
    supersteps: int
    metrics: RunMetrics
    seed: int
    delta: int
    #: Nodes crash-stopped by the fault model (original labels); judge
    #: the coloring with :mod:`repro.verify.partial` when non-empty.
    crashed: FrozenSet[int] = frozenset()

    @property
    def num_colors(self) -> int:
        """Number of distinct channels used."""
        return len(set(self.colors.values()))

    @property
    def rounds_per_delta(self) -> float:
        """Rounds normalized by Δ — the paper's O(Δ) constant (≈ 4)."""
        return self.rounds / self.delta if self.delta else 0.0


def default_strong_round_budget(delta: int) -> int:
    """Round budget for DiMa2Ed: expected ≈ 4Δ, allow 80Δ + 400."""
    return 80 * max(1, delta) + 400


def strong_color_arcs(
    digraph: DiGraph,
    *,
    seed: int = 0,
    params: StrongColoringParams | None = None,
    faults: Optional[MessageFilter] = None,
    transport: Union[bool, TransportConfig, None] = None,
    tracer: Optional[EventTracer] = None,
    telemetry: Optional[AutomatonTelemetry] = None,
    profiler: Optional[PhaseProfiler] = None,
    check_consistency: bool = True,
    compute: str = "auto",
    monitors: Optional[Sequence] = None,
    publisher=None,
    shards: int = 4,
    spill_dir=None,
) -> StrongColoringResult:
    """Run DiMa2Ed on a symmetric digraph and return the channel assignment.

    Parameters
    ----------
    digraph:
        A **symmetric** digraph ((u, v) present iff (v, u) present) with
        contiguous node ids; Proposition 5's correctness argument relies
        on bidirectionality, so asymmetric inputs are rejected.  Build
        one from an undirected graph with ``Graph.to_directed()``.
    seed, params, faults, transport, tracer, telemetry, profiler,
    check_consistency, compute, monitors, publisher, shards, spill_dir:
        As in :func:`repro.core.edge_coloring.color_edges`.

    Raises
    ------
    GraphError
        If the digraph is not symmetric.
    ConvergenceError
        If the round budget is exhausted.
    """
    digraph = coerce_digraph(digraph)
    if not digraph.is_symmetric():
        raise GraphError("DiMa2Ed requires a symmetric digraph (paper §III)")
    return run_algorithm(
        DIMA2ED,
        digraph.to_undirected(),
        params or StrongColoringParams(),
        seed=seed,
        faults=faults,
        transport=transport,
        tracer=tracer,
        telemetry=telemetry,
        profiler=profiler,
        check_consistency=check_consistency,
        compute=compute,
        monitors=monitors,
        publisher=publisher,
        shards=shards,
        spill_dir=spill_dir,
    )


def _collect_arc_colors(
    programs: Union[RunResult, List[NodeProgram]],
    inverse: Dict[int, int],
    check_consistency: bool,
) -> Dict[Arc, Color]:
    """Merge per-node arc colors, checking tail/head agreement."""
    colors: Dict[Arc, Color] = {}
    for program in getattr(programs, "programs", programs):
        assert isinstance(program, DiMa2EdProgram)
        for (tail, head), channel in program.arc_colors.items():
            arc = (inverse[tail], inverse[head])
            previous = colors.get(arc)
            if previous is None:
                colors[arc] = channel
            elif check_consistency and previous != channel:
                raise VerificationError(
                    f"endpoints of arc {arc} disagree: {previous} vs {channel}"
                )
    return colors


def _make_program(
    node_id: int, work: Graph, params: StrongColoringParams
) -> DiMa2EdProgram:
    # On the symmetric digraphs strong_color_arcs accepts, a node's
    # successors and predecessors are both its undirected neighbors.
    partners = work.neighbors(node_id)
    return DiMa2EdProgram(
        node_id,
        out_neighbors=partners,
        in_neighbors=partners,
        p_invite=params.p_invite,
        channel_strategy=params.channel_strategy,
        recovery=params.recovery,
        presume_dead_after=params.presume_dead_after,
    )


#: DiMa2Ed on the shared run path (:mod:`repro.core.batched`).
DIMA2ED = AlgorithmRow(
    name="dima2ed",
    noun="strong coloring",
    default_rounds=default_strong_round_budget,
    program=_make_program,
    kernel_params=("p_invite", "channel_strategy"),
    collect=_collect_arc_colors,
    arcs=True,
    result=StrongColoringResult,
)
