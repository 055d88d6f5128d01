"""Algorithm 1 — distributed matching-based edge coloring.

Faithful implementation of the paper's Algorithm 1 on top of the
automaton skeleton:

* inviters pick a random uncolored incident edge and propose the
  *lowest-indexed* color unused by themselves and (to their knowledge)
  by the chosen neighbor (line 11, ``c ← (live_u \\ used_v)[1]``);
* listeners accept a uniformly random invitation addressed to them and
  color the edge immediately (lines 21–24);
* the inviter colors its side when the echoed reply arrives (lines
  27–30);
* newly consumed colors are broadcast in the update/exchange phases and
  folded into each neighbor's ``dead`` knowledge (lines 34–39).

Guarantees (paper §II-B): if the run terminates the coloring is proper
(Proposition 2), at most 2Δ−1 colors are ever needed (Proposition 3),
and termination takes O(Δ) computation rounds with high probability
(Proposition 1; expected pairing probability ≥ 1/4 per round).

The ``defensive`` flag adds one listener-side check (reject invites
whose color the listener already uses).  It is **off** by default — the
paper's algorithm does not need it under reliable synchronous delivery —
and exists for the fault-injection experiments, where lost exchange
reports can make an inviter's knowledge stale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple, Union

import numpy as np

from repro.errors import ConfigurationError, ConvergenceError, VerificationError
from repro.core._coerce import coerce_graph, relabel_for_engine
from repro.core.automaton import MatchingAutomatonProgram
from repro.core.batched import batched_eligible, run_kernel, select_backend
from repro.core.messages import Invite, Reply, Report
from repro.core.palette import ColorLedger, first_free
from repro.core.states import PHASES_PER_ROUND
from repro.graphs.adjacency import Graph
from repro.runtime.engine import RunResult, SynchronousEngine
from repro.runtime.faults import MessageFilter
from repro.runtime.metrics import RunMetrics
from repro.runtime.node import Context, NodeProgram
from repro.runtime.observe import AutomatonTelemetry, PhaseProfiler
from repro.runtime.trace import EventTracer
from repro.runtime.transport import (
    ReliableTransportProgram,
    TransportConfig,
    collect_transport_stats,
    with_reliable_transport,
)
from repro.types import Color, Edge, canonical_edge

__all__ = [
    "EdgeColoringProgram",
    "EdgeColoringParams",
    "EdgeColoringResult",
    "color_edges",
    "default_round_budget",
]


class EdgeColoringProgram(MatchingAutomatonProgram):
    """Per-vertex program for Algorithm 1.

    ``defensive`` enables the fault-hardening extensions (all no-ops
    under the paper's reliable network, where their trigger conditions
    are unreachable):

    * listeners reject invites whose color they already use (guards
      against stale inviter knowledge when exchange reports are lost);
    * exchange reports carry the node's full used list and per-edge
      colors every round (the pseudocode's line 34) instead of deltas
      (the prose's E state), so knowledge self-heals and an inviter
      whose reply was lost adopts the responder's authoritative color;
    * colors proposed to a neighbor stay *reserved* for that neighbor
      until the edge resolves, so a color cannot end up on two of the
      inviter's edges when the first reply was lost.

    ``recovery`` (implies ``defensive``) adds active self-healing for
    lossy and crash-prone networks: reservations become persistent,
    every node reports every round (a heartbeat the silence detector
    leans on), stale re-invitations draw a *corrective reply* carrying
    the authoritative recorded color (re-entering the automaton on the
    desynchronized edge), and partners silent for
    ``presume_dead_after`` rounds — or reported dead by the reliable
    transport's failure detector — are abandoned with their in-flight
    colors quarantined.
    """

    COLOR_STRATEGIES = ("lowest", "random_window")
    RESPONDER_STRATEGIES = ("random", "lowest_color")

    #: Rounds of partner silence tolerated before a presumed crash
    #: (recovery mode default; at loss p the false-positive chance per
    #: partner is ~p^25 thanks to the heartbeat reports).
    DEFAULT_PRESUME_DEAD_AFTER = 25

    def __init__(
        self,
        node_id: int,
        *,
        p_invite: float = 0.5,
        defensive: bool = False,
        recovery: bool = False,
        presume_dead_after: Optional[int] = None,
        color_strategy: str = "lowest",
        responder_strategy: str = "random",
    ) -> None:
        super().__init__(node_id, p_invite=p_invite)
        if recovery:
            defensive = True  # recovery is the defensive kit plus healing
        if color_strategy not in self.COLOR_STRATEGIES:
            raise ConfigurationError(
                f"unknown color_strategy {color_strategy!r}; "
                f"expected one of {self.COLOR_STRATEGIES}"
            )
        if responder_strategy not in self.RESPONDER_STRATEGIES:
            raise ConfigurationError(
                f"unknown responder_strategy {responder_strategy!r}; "
                f"expected one of {self.RESPONDER_STRATEGIES}"
            )
        self.color_strategy = color_strategy
        self.responder_strategy = responder_strategy
        self.defensive = defensive
        self.recovery = recovery
        if recovery:
            self.presume_dead_after = (
                presume_dead_after
                if presume_dead_after is not None
                else self.DEFAULT_PRESUME_DEAD_AFTER
            )
        #: Partners abandoned after a crash was detected or presumed;
        #: the shared edges stay uncolored on this side.
        self.removed_partners: Set[int] = set()
        #: Colors that may sit on an abandoned edge's far side (they were
        #: proposed to a partner that later died, and the acceptance
        #: status is unknowable); never reused, so the surviving coloring
        #: stays proper whatever the dead partner recorded.
        self._quarantined: Set[Color] = set()
        #: neighbor -> color of the shared edge, filled as edges complete.
        self.edge_colors: Dict[int, Color] = {}
        self._uncolored: List[int] = []
        self._ledger: Optional[ColorLedger] = None
        #: color -> (neighbor proposed to, round of proposal); defensive
        #: mode only.  A reservation keeps an in-flight color off other
        #: edges while a lost reply is still repairable; it lapses after
        #: RESERVATION_TTL rounds so dangling proposals (partner never
        #: listened) cannot block the palette forever.
        self._reserved: Dict[Color, tuple] = {}

    #: Rounds an unresolved proposal stays reserved (defensive mode).
    RESERVATION_TTL = 4

    def on_init(self, ctx: Context) -> None:
        self._uncolored = list(ctx.neighbors)  # already sorted ascending
        self._ledger = ColorLedger(ctx.neighbors)
        if not self._uncolored:
            self.halt()  # isolated vertex: nothing to color

    # -- automaton hooks -------------------------------------------------

    def make_invite(self, ctx: Context) -> Optional[Invite]:
        partner = ctx.rng.choice(self._uncolored)
        if self.defensive:
            self._prune_reservations()
            held_elsewhere = {
                c for c, (w, _) in self._reserved.items() if w != partner
            }
            color = first_free(
                self._ledger.used,
                self._ledger.neighbor_used[partner],
                held_elsewhere,
                self._quarantined,
            )
            self._reserved[color] = (partner, self.rounds_completed)
        elif self.color_strategy == "lowest":
            # The paper's line 11: lowest indexed available color.
            color = self._ledger.propose_for(partner)
        else:
            # Ablation: uniform over the available window (like DiMa2Ed's
            # default channel rule) — decorrelates neighboring proposals
            # at the cost of a wider palette.
            taken = self._ledger.used | self._ledger.neighbor_used[partner]
            high = max(taken, default=-1) + 1
            options = [c for c in range(high + 1) if c not in taken]
            color = ctx.rng.choice(options)
        return Invite(sender=self.node_id, target=partner, color=color)

    def _prune_reservations(self) -> None:
        """Drop reservations older than RESERVATION_TTL rounds.

        In recovery mode reservations are persistent: an unresolved
        proposal is either still healing (the partner's authoritative
        report will resolve it) or the partner is dead (the silence
        detector / transport will quarantine it) — letting it lapse
        would allow the color onto a second edge while the first is
        still live on the partner's side.
        """
        if self.recovery:
            return
        horizon = self.rounds_completed - self.RESERVATION_TTL
        if any(made <= horizon for _, made in self._reserved.values()):
            self._reserved = {
                c: (w, made)
                for c, (w, made) in self._reserved.items()
                if made > horizon
            }

    def choose_invite(
        self, ctx: Context, mine: List[Invite], overheard: List[Invite]
    ) -> Optional[Invite]:
        # An invite for an already-colored edge can only occur when a
        # reply was lost (fault injection); it must be ignored, never
        # re-accepted, or the endpoints diverge further.
        mine = [inv for inv in mine if inv.sender in self._uncolored]
        if self.defensive:
            # Reject colors we already use, and colors we proposed to a
            # *different* neighbor and may still be committed to (a color
            # reserved for the inviter itself is this very edge's own
            # in-flight proposal — accepting it is consistent).
            self._prune_reservations()
            mine = [
                inv
                for inv in mine
                if not self._ledger.is_mine(inv.color)
                and inv.color not in self._quarantined
                and self._reserved.get(inv.color, (inv.sender,))[0] == inv.sender
            ]
        if not mine:
            return None
        if self.responder_strategy == "lowest_color":
            # Ablation: prefer the lowest proposed color (quality-biased
            # acceptance); the paper's R state picks uniformly.
            best = min(inv.color for inv in mine)
            mine = [inv for inv in mine if inv.color == best]
        return ctx.rng.choice(mine)

    def on_accept(self, ctx: Context, invite: Invite) -> None:
        self._assign(invite.sender, invite.color)

    def on_reply(self, ctx: Context, reply: Reply) -> None:
        if reply.sender in self._uncolored:  # stale replies are possible under loss
            self._assign(reply.sender, reply.color)

    def corrective_replies(self, ctx: Context, invites: List[Invite]):
        if not self.recovery:
            return []
        # A re-invite for an edge already resolved here means the
        # inviter never saw the original reply; answer with the recorded
        # color so it re-enters the automaton on that edge and converges.
        return [
            Reply(
                sender=self.node_id,
                target=inv.sender,
                color=self.edge_colors[inv.sender],
            )
            for inv in invites
            if inv.sender in self.edge_colors
        ]

    def unresolved_partners(self):
        return self._uncolored

    def on_neighbor_down(self, ctx: Context, neighbor: int) -> None:
        if neighbor not in self._uncolored:
            return
        self._uncolored.remove(neighbor)
        self.removed_partners.add(neighbor)
        # Whether the dead partner accepted an in-flight proposal is
        # unknowable; quarantine the reserved colors instead of
        # releasing them (see _quarantined).  Consuming them in the
        # ledger advertises them as taken in the heartbeat reports —
        # otherwise a neighbor whose first-free color happens to be
        # quarantined here would re-propose it forever (livelock).
        for color, (holder, _) in list(self._reserved.items()):
            if holder == neighbor:
                self._quarantined.add(color)
                self._ledger.consume(color)
                del self._reserved[color]
        ctx.trace("edge_abandoned", partner=neighbor)

    def make_report(self, ctx: Context) -> Optional[Report]:
        if self.defensive:
            # Pseudocode line 34: broadcast the full assigned-edge list
            # every round.  Idempotent on receipt, so lost copies heal.
            self._ledger.take_fresh()
            if not self.edge_colors and not self.recovery:
                # Recovery mode reports even an empty state: the report
                # doubles as the heartbeat the silence detector needs.
                return None
            return Report(
                sender=self.node_id,
                colors=tuple(sorted(self._ledger.used)),
                # Recovery heartbeats advertise abandoned partners: an
                # abandonment decided on one side only (a severed link
                # starves just that direction) would otherwise leave the
                # partner re-inviting a node that will never answer for
                # this edge — and since both stay live and heartbeating,
                # neither silence detector ever fires (the PR 2
                # rejection-cycle livelock).  The notice makes the
                # abandonment symmetric.
                removed=(
                    tuple(sorted(self.removed_partners))
                    if self.recovery
                    else ()
                ),
                edges=tuple(sorted(self.edge_colors.items())),
            )
        fresh = self._ledger.take_fresh()
        if not fresh:
            return None
        return Report(sender=self.node_id, colors=tuple(fresh))

    def on_reports(self, ctx: Context, reports: List[Report]) -> None:
        for report in reports:
            self._ledger.learn(report.sender, report.colors)
            if not self.defensive:
                continue
            for endpoint, color in report.edges:
                # The responder is authoritative: if it recorded our
                # shared edge but we did not (its reply was lost), adopt
                # its color.
                if endpoint == self.node_id and report.sender in self._uncolored:
                    self._assign(report.sender, color)
                    ctx.trace("repair", partner=report.sender, color=color)
            if self.recovery and report.sender in self._uncolored:
                if self.node_id in report.removed:
                    # The partner abandoned our shared edge (its silence
                    # detector or failure notice fired on a one-sided
                    # severed link) but is alive — it will never listen
                    # to or answer an invite for this edge again.
                    # Reciprocate the abandonment; otherwise we
                    # re-invite forever and the run livelocks.
                    self.on_neighbor_down(ctx, report.sender)
                    continue
                # The shared edge is absent from the partner's full-state
                # report, which postdates its handling of this round's
                # invites (reports go out in the update phase; the
                # synchronizer keeps pulse alignment even under loss).
                # Every proposal we reserved for it was therefore
                # declined or lost in flight — release the reservations,
                # or a ring of declined proposals pins its colors
                # forever and the persistent reservations livelock (each
                # node rejecting invites whose color it holds for a
                # third party).  An *accepted* proposal never reaches
                # here: the partner's report lists the edge, and the
                # repair pass above resolves it first.
                reserved = self._reserved
                if reserved and any(
                    w == report.sender for w, _ in reserved.values()
                ):
                    self._reserved = {
                        c: (w, made)
                        for c, (w, made) in reserved.items()
                        if w != report.sender
                    }

    def is_done(self, ctx: Context) -> bool:
        return not self._uncolored

    def telemetry_progress(self) -> Tuple[int, int]:
        """(incident edges colored, incident edges to color) for this node.

        Summed over all nodes this counts every edge twice — a constant
        factor the convergence *fraction* cancels.  The total shrinks
        when recovery mode abandons an edge (see
        :meth:`on_neighbor_down`), which the telemetry collector
        tracks via deltas.
        """
        done = len(self.edge_colors)
        return done, done + len(self._uncolored)

    # -- internals ---------------------------------------------------------

    def _assign(self, neighbor: int, color: Optional[Color]) -> None:
        assert color is not None  # Algorithm 1 invites always carry a color
        self.edge_colors[neighbor] = color
        self._ledger.consume(color)
        self._uncolored.remove(neighbor)
        if self._reserved:
            # The edge resolved; release any colors held for this neighbor.
            self._reserved = {
                c: (w, made)
                for c, (w, made) in self._reserved.items()
                if w != neighbor
            }


@dataclass(frozen=True)
class EdgeColoringParams:
    """Tunable knobs of Algorithm 1 (defaults = the paper's setting)."""

    #: Role-coin bias (paper: fair coin).
    p_invite: float = 0.5
    #: Proposal color rule: "lowest" (paper line 11) or "random_window".
    color_strategy: str = "lowest"
    #: Responder acceptance rule: "random" (paper) or "lowest_color".
    responder_strategy: str = "random"
    #: Listener-side color check for unreliable networks (paper: off).
    defensive: bool = False
    #: Self-healing mode for lossy/crashy networks (implies defensive):
    #: persistent reservations, heartbeat reports, corrective replies
    #: for W/E-desynchronized edges, and presumed-crash edge abandonment.
    recovery: bool = False
    #: Rounds of partner silence before a presumed crash (recovery
    #: only); None picks the program default.
    presume_dead_after: Optional[int] = None
    #: Computation-round budget; None derives ~O(Δ) with a wide margin.
    max_rounds: Optional[int] = None
    #: Enforce the one-message-per-neighbor model invariant.
    strict: bool = True


@dataclass
class EdgeColoringResult:
    """Outcome of one Algorithm 1 run.

    ``rounds`` counts the paper's computation rounds (4 supersteps each);
    the headline claims are "rounds ≈ 2Δ" and "colors ≤ Δ+1 typical".
    """

    colors: Dict[Edge, Color]
    rounds: int
    supersteps: int
    metrics: RunMetrics
    seed: int
    delta: int
    palette: List[Color] = field(default_factory=list)
    #: Nodes crash-stopped by the fault model (original labels); judge
    #: the coloring with :mod:`repro.verify.partial` when non-empty.
    crashed: FrozenSet[int] = frozenset()

    @property
    def num_colors(self) -> int:
        """Number of distinct colors used."""
        return len(self.palette)

    @property
    def colors_over_delta(self) -> int:
        """How many colors beyond Δ were needed (0 means optimal-for-Δ)."""
        return self.num_colors - self.delta

    @property
    def rounds_per_delta(self) -> float:
        """Rounds normalized by Δ — the paper's O(Δ) constant (≈ 2)."""
        return self.rounds / self.delta if self.delta else 0.0


def default_round_budget(delta: int) -> int:
    """A generous computation-round budget for an O(Δ)-round algorithm.

    Expected termination is ≈ 2Δ rounds (pairing probability ≥ 1/4 per
    node per round); the default allows 40Δ + 200, so a budget overrun
    signals a bug or astronomically bad luck rather than normal variance.
    """
    return 40 * max(1, delta) + 200


def _resolve_transport(
    transport: Union[bool, TransportConfig, None]
) -> Optional[TransportConfig]:
    """Normalize the ``transport`` argument of the algorithm wrappers."""
    if transport is None or transport is False:
        return None
    if transport is True:
        return TransportConfig()
    if isinstance(transport, TransportConfig):
        return transport
    raise ConfigurationError(
        f"transport must be a bool or TransportConfig, got {transport!r}"
    )


def _unwrap_programs(run) -> List[NodeProgram]:
    """The algorithm programs, behind the transport wrapper if present.

    Accepts any result object with a ``programs`` list (``RunResult``,
    ``AsyncRunResult``) or a bare program list.
    """
    return [getattr(p, "inner", p) for p in getattr(run, "programs", run)]


def _application_supersteps(run: RunResult, transported: bool) -> int:
    """Supersteps as seen by the *algorithm* (pulses under transport)."""
    if not transported:
        return run.supersteps
    return max(
        (
            p.pulse + 1
            for p in run.programs
            if isinstance(p, ReliableTransportProgram)
        ),
        default=0,
    )


def color_edges(
    graph: Graph,
    *,
    seed: int = 0,
    params: EdgeColoringParams | None = None,
    faults: Optional[MessageFilter] = None,
    transport: Union[bool, TransportConfig, None] = None,
    tracer: Optional[EventTracer] = None,
    telemetry: Optional[AutomatonTelemetry] = None,
    profiler: Optional[PhaseProfiler] = None,
    check_consistency: bool = True,
    fastpath: bool = True,
    compute: str = "auto",
    monitors: Optional[Sequence] = None,
    publisher=None,
    shards: int = 4,
    spill_dir=None,
) -> EdgeColoringResult:
    """Run Algorithm 1 on ``graph`` and return the coloring.

    Parameters
    ----------
    graph:
        Undirected simple graph; node labels need not be contiguous
        (the wrapper relabels internally and maps results back).
    seed:
        Run seed — fully determines the result.
    params:
        Algorithm knobs; defaults reproduce the paper's configuration.
    faults:
        Optional message-loss model (see :mod:`repro.runtime.faults`).
    transport:
        Run every node behind the reliable transport
        (:mod:`repro.runtime.transport`): ``True`` for the default
        :class:`TransportConfig`, or a config instance.  Rounds are then
        counted in synchronizer *pulses* (the algorithm's supersteps),
        not raw network supersteps, so they stay comparable to bare
        runs; transport counters are folded into the metrics.
    tracer:
        Optional event tracer for debugging.
    telemetry:
        Optional :class:`~repro.runtime.observe.AutomatonTelemetry`
        collector; filled with per-superstep state histograms, the
        transition matrix, and the edges-colored convergence curve.
        Keeps the fast path engaged and never changes the result.
    profiler:
        Optional :class:`~repro.runtime.observe.PhaseProfiler`; phase
        timings land in ``result.metrics.phase_seconds``.
    check_consistency:
        Verify that both endpoints recorded the same color for every
        edge (Proposition 2's no-disagreement property).  Disable only
        when running with faults, where disagreement is an expected
        observable.
    fastpath:
        Forwarded to :class:`SynchronousEngine` — results are identical
        either way; disable only to measure the general delivery loop.
    compute:
        Compute-core selection: ``"auto"`` (default) runs the fastest
        whole-population kernel whenever the configuration is eligible
        — strict model, no faults/transport/tracer, paper-mode params —
        and the per-node programs otherwise.  ``"vectorized"`` pins the
        fused plane kernel (:mod:`repro.core.vectorized`), ``"numba"``
        the JIT backend (:mod:`repro.core.kernels_numba`; silently the
        vectorized kernel when numba is absent), ``"sharded"`` the
        disk-backed memory-bounded tier (:mod:`repro.runtime.sharded`;
        opt-in only — never chosen by ``"auto"``) — all under the same
        gates, with ineligible configurations falling back silently;
        ``"pernode"`` never uses a kernel.  Results are bit-identical
        across every mode (:data:`repro.core.batched.COMPUTE_MODES`).
    monitors:
        Optional runtime invariant monitors
        (:mod:`repro.verify.monitors`); a monitored run executes on the
        general per-node loop and a monitor raises
        :class:`~repro.verify.monitors.InvariantViolation` on the first
        breach.  ``None`` (default) keeps the fast/batched paths.
    publisher:
        Optional :class:`~repro.obs.live.SnapshotPublisher`; the engine
        feeds it throttled live-monitor snapshots (``repro top``).
        Never changes the result and keeps the fast/batched paths.
    shards:
        ``compute="sharded"`` only — number of logical workers the
        vertices are hash-partitioned over.
    spill_dir:
        ``compute="sharded"`` only — directory for the run's shard and
        spill memmaps; a private temporary directory (cleaned up after
        the run) when omitted.

    Raises
    ------
    ConvergenceError
        If the round budget is exhausted before every edge is colored.
    VerificationError
        If endpoint records disagree (with ``check_consistency=True``).
    """
    params = params or EdgeColoringParams()
    graph = coerce_graph(graph)
    work, mapping = relabel_for_engine(graph)
    inverse = {new: old for old, new in mapping.items()}
    # Δ from the CSR degree array — to_csr() is cached on the graph, so
    # the engine reuses the same arrays.
    indptr, _ = work.to_csr()
    delta = int(np.diff(indptr).max()) if work.num_nodes else 0

    budget_rounds = (
        params.max_rounds if params.max_rounds is not None else default_round_budget(delta)
    )
    transport_cfg = _resolve_transport(transport)
    if batched_eligible(
        compute=compute,
        fastpath=fastpath,
        strict=params.strict,
        faults=faults,
        transport=transport_cfg,
        tracer=tracer,
        recovery=params.recovery,
        defensive=params.defensive,
        monitors=monitors,
    ):
        run, (s_arr, t_arr, c_arr) = run_kernel(
            "alg1",
            select_backend(compute),
            work,
            inverse,
            dict(
                p_invite=params.p_invite,
                color_strategy=params.color_strategy,
                responder_strategy=params.responder_strategy,
            ),
            seed=seed,
            max_supersteps=budget_rounds * PHASES_PER_ROUND,
            telemetry=telemetry,
            profiler=profiler,
            publisher=publisher,
            shards=shards,
            spill_dir=spill_dir,
        )
        if not run.completed:
            raise ConvergenceError(
                f"edge coloring did not terminate within {budget_rounds} rounds "
                f"(n={graph.num_nodes}, Δ={delta}, seed={seed})",
                rounds=budget_rounds,
            )
        # One record per edge (the kernel writes each pairing once), so
        # endpoint consistency holds by construction; canonicalize the
        # edges in bulk instead of per-record Python tuple work.
        lo = np.minimum(s_arr, t_arr)
        hi = np.maximum(s_arr, t_arr)
        colors = dict(zip(zip(lo.tolist(), hi.tolist()), c_arr.tolist()))
        return EdgeColoringResult(
            colors=colors,
            rounds=math.ceil(run.supersteps / PHASES_PER_ROUND),
            supersteps=run.supersteps,
            metrics=run.metrics,
            seed=seed,
            delta=delta,
            palette=sorted(set(colors.values())),
        )

    def factory(node_id: int) -> EdgeColoringProgram:
        return EdgeColoringProgram(
            node_id,
            p_invite=params.p_invite,
            defensive=params.defensive,
            recovery=params.recovery,
            presume_dead_after=params.presume_dead_after,
            color_strategy=params.color_strategy,
            responder_strategy=params.responder_strategy,
        )

    engine_factory = (
        with_reliable_transport(factory, transport_cfg)
        if transport_cfg is not None
        else factory
    )
    app_budget = budget_rounds * PHASES_PER_ROUND
    max_supersteps = (
        transport_cfg.supersteps_budget(app_budget)
        if transport_cfg is not None
        else app_budget
    )
    engine = SynchronousEngine(
        work,
        engine_factory,
        seed=seed,
        max_supersteps=max_supersteps,
        strict=params.strict,
        faults=faults,
        tracer=tracer,
        telemetry=telemetry,
        profiler=profiler,
        fastpath=fastpath,
        monitors=monitors,
        publisher=publisher,
    )
    run = engine.run()
    if not run.completed:
        raise ConvergenceError(
            f"edge coloring did not terminate within {budget_rounds} rounds "
            f"(n={graph.num_nodes}, Δ={delta}, seed={seed})",
            rounds=budget_rounds,
        )
    if transport_cfg is not None:
        collect_transport_stats(run.programs).fold_into(run.metrics)
    programs = _unwrap_programs(run)
    supersteps = _application_supersteps(run, transport_cfg is not None)

    colors = _collect_edge_colors(programs, inverse, check_consistency)
    palette = sorted(set(colors.values()))
    return EdgeColoringResult(
        colors=colors,
        rounds=math.ceil(supersteps / PHASES_PER_ROUND),
        supersteps=supersteps,
        metrics=run.metrics,
        seed=seed,
        delta=delta,
        palette=palette,
        crashed=frozenset(inverse[u] for u in run.crashed),
    )


def _collect_edge_colors(
    programs: Union[RunResult, List[NodeProgram]],
    inverse: Dict[int, int],
    check_consistency: bool,
) -> Dict[Edge, Color]:
    """Merge per-node edge colors, checking endpoint agreement."""
    programs = _unwrap_programs(programs)
    colors: Dict[Edge, Color] = {}
    for program in programs:
        assert isinstance(program, EdgeColoringProgram)
        u = program.node_id
        for v, c in program.edge_colors.items():
            edge = canonical_edge(inverse[u], inverse[v])
            previous = colors.get(edge)
            if previous is None:
                colors[edge] = c
            elif check_consistency and previous != c:
                raise VerificationError(
                    f"endpoints of edge {edge} disagree: {previous} vs {c}"
                )
    return colors
