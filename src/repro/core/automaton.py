"""The matching-discovery automaton as a reusable node-program skeleton.

The paper's two algorithms (and the matching/vertex-cover programs from
the authors' prior work) differ only in *what* is negotiated when two
nodes pair; the state machine that discovers the pairing is identical.
:class:`MatchingAutomatonProgram` implements that machine once:

* phase 0 — **C → I/L**: fair coin (bias ``p_invite`` configurable for
  ablations); inviters build an :class:`~repro.core.messages.Invite` via
  :meth:`make_invite` and broadcast it (the paper's messages are local
  broadcasts; recipients filter on the embedded target id).
* phase 1 — **L → R / I → W**: listeners split heard invites into "mine"
  and "overheard" groups, pick one via :meth:`choose_invite` (Algorithm 1
  picks uniformly; DiMa2Ed filters collisions first), apply
  :meth:`on_accept`, and broadcast the :class:`Reply` (invite with ids
  reversed).
* phase 2 — **W/R → U**: the inviter matches a reply to its outstanding
  invite (:meth:`on_reply`); every node then broadcasts its exchange
  :class:`Report` from :meth:`make_report`.
* phase 3 — **E → C/D**: nodes integrate reports (:meth:`on_reports`)
  and halt when :meth:`is_done`.

Subclasses override only the hooks; the phase plumbing, role coin, and
reply routing are shared and tested once.

This per-node formulation is the semantic reference.  For fault-free
strict runs :mod:`repro.core.vectorized` re-implements both concrete
programs as structure-of-arrays kernels that step every node per
round without materialising messages; the property suite pins them
bit-identical (same RNG draws, colorings, metrics, and telemetry), so
any behaviour change here must be mirrored there.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence

from repro.errors import ConfigurationError
from repro.core.messages import Invite, Reply, Report
from repro.core.states import PHASES_PER_ROUND, AutomatonState, Role
from repro.runtime.message import Message
from repro.runtime.node import Context, NodeProgram

__all__ = ["MatchingAutomatonProgram"]


class MatchingAutomatonProgram(NodeProgram):
    """Skeleton node program for matching-based negotiation algorithms.

    Parameters
    ----------
    node_id:
        This node's vertex id.
    p_invite:
        Probability of choosing the inviter role in the C state.  The
        paper uses a fair coin (0.5); the ablation benches sweep this.
    """

    def __init__(self, node_id: int, *, p_invite: float = 0.5) -> None:
        if not 0.0 <= p_invite <= 1.0:
            raise ConfigurationError(f"p_invite must be in [0, 1], got {p_invite}")
        self.node_id = node_id
        self.p_invite = p_invite
        #: Completed computation rounds (C→…→E cycles).
        self.rounds_completed = 0
        #: Automaton state, maintained for tracing/introspection; also
        #: read per superstep by
        #: :class:`~repro.runtime.observe.AutomatonTelemetry` to build
        #: the state histogram and transition matrix.
        self.state = AutomatonState.CHOOSE
        self._role: Optional[Role] = None
        self._pending_invite: Optional[Invite] = None
        #: Silence detector (recovery modes): computation rounds of total
        #: silence after which an unresolved partner is presumed crashed
        #: and reported through :meth:`on_neighbor_down`.  ``None``
        #: disables the detector.  Only sound when live partners are
        #: guaranteed to transmit every round (the recovery modes'
        #: heartbeat reports provide that).
        self.presume_dead_after: Optional[int] = None
        self._last_heard: Dict[int, int] = {}

    # ------------------------------------------------------------------
    # Hooks for subclasses
    # ------------------------------------------------------------------

    def can_invite(self, ctx: Context) -> bool:
        """Whether this node has anything to propose this round.

        When False the role coin is skipped and the node listens: the
        paper's C state is specified for nodes with an eligible edge to
        propose, and an inviter with nothing to send would idle a whole
        round (DiMa2Ed nodes whose remaining uncolored arcs are all
        incoming hit this case every round).
        """
        return True

    def make_invite(self, ctx: Context) -> Optional[Invite]:
        """Build this round's invitation, or None to idle as an inviter.

        Called only when the role coin chose INVITER.  Returning None
        models an inviter that found nothing to propose after all; the
        node simply waits out the round.
        """
        raise NotImplementedError

    def choose_invite(
        self, ctx: Context, mine: List[Invite], overheard: List[Invite]
    ) -> Optional[Invite]:
        """Pick which invitation to accept; None rejects all.

        Default: uniform random choice among ``mine`` (Algorithm 1's R
        state).  ``overheard`` carries every invite heard this round that
        targets someone else — DiMa2Ed's collision filter uses it.
        """
        if not mine:
            return None
        return ctx.rng.choice(mine)

    def on_accept(self, ctx: Context, invite: Invite) -> None:
        """Listener-side pairing action (color the edge, record the match)."""
        raise NotImplementedError

    def on_reply(self, ctx: Context, reply: Reply) -> None:
        """Inviter-side pairing action when its invitation was accepted."""
        raise NotImplementedError

    def make_report(self, ctx: Context) -> Optional[Report]:
        """Exchange-phase broadcast payload; None to stay silent."""
        return None

    def on_reports(self, ctx: Context, reports: List[Report]) -> None:
        """Integrate the neighbors' exchange broadcasts."""

    def is_done(self, ctx: Context) -> bool:
        """True when this node has no work left (transition to D)."""
        raise NotImplementedError

    def corrective_replies(
        self, ctx: Context, invites: List[Invite]
    ) -> List[Reply]:
        """Authoritative answers to stale re-invitations (recovery modes).

        ``invites`` are this round's invitations addressed to this node.
        A re-invitation for an edge this node already resolved can only
        mean the original reply was lost — the inviter is stuck on the
        W side of a W/E split.  Recovery subclasses answer with a
        :class:`Reply` carrying the *recorded* color, which the inviter
        adopts (the reply's color is authoritative; see
        :meth:`_phase_update`).  Default: none.
        """
        return []

    def unresolved_partners(self) -> Iterable[int]:
        """Partners this node is still negotiating with (silence detector).

        Only these are candidates for presumed-crash removal; a partner
        whose shared work is resolved may legitimately go silent (Done).
        Default: none, which disables detection regardless of
        :attr:`presume_dead_after`.
        """
        return ()

    # ------------------------------------------------------------------
    # Phase plumbing
    # ------------------------------------------------------------------

    def on_superstep(self, ctx: Context, inbox: Sequence[Message]) -> None:
        if self.presume_dead_after is not None:
            for msg in inbox:
                self._last_heard[msg.sender] = ctx.superstep
        phase = ctx.superstep % PHASES_PER_ROUND
        if phase == 0:
            self._phase_choose(ctx)
        elif phase == 1:
            self._phase_respond(ctx, inbox)
        elif phase == 2:
            self._phase_update(ctx, inbox)
        else:
            self._phase_exchange(ctx, inbox)

    def _phase_choose(self, ctx: Context) -> None:
        self._pending_invite = None
        if self.can_invite(ctx) and ctx.rng.random() < self.p_invite:
            self._role = Role.INVITER
            invite = self.make_invite(ctx)
            if invite is not None:
                self._pending_invite = invite
                ctx.broadcast(invite)
                ctx.trace("invite", target=invite.target, color=invite.color)
            self.state = AutomatonState.WAIT
        else:
            self._role = Role.LISTENER
            self.state = AutomatonState.LISTEN

    def _phase_respond(self, ctx: Context, inbox: Sequence[Message]) -> None:
        if self._role is not Role.LISTENER:
            return  # inviter sits in W while invitations travel
        mine: List[Invite] = []
        overheard: List[Invite] = []
        me = self.node_id
        for msg in inbox:
            payload = msg.payload
            if isinstance(payload, Invite):
                (mine if payload.target == me else overheard).append(payload)
        corrections = self.corrective_replies(ctx, mine)
        chosen = self.choose_invite(ctx, mine, overheard)
        self.state = AutomatonState.UPDATE
        for correction in corrections:
            # Unicast: a correction concerns exactly one desynchronized
            # partner; its target is never this round's accepted inviter
            # (a resolved edge is filtered out of acceptance), so the
            # one-message-per-neighbor constraint holds.
            ctx.send(correction.target, correction)
            ctx.trace("correct", partner=correction.target, color=correction.color)
        if chosen is None:
            return
        self.on_accept(ctx, chosen)
        reply = Reply(sender=me, target=chosen.sender, color=chosen.color)
        if corrections:
            # No program consumes overheard replies, so unicasting keeps
            # the semantics while leaving room for the corrections.
            ctx.send(chosen.sender, reply)
        else:
            ctx.broadcast(reply)
        ctx.trace("accept", inviter=chosen.sender, color=chosen.color)

    def _phase_update(self, ctx: Context, inbox: Sequence[Message]) -> None:
        pending = self._pending_invite
        if pending is not None:
            # Match on the partner only: under reliable synchronous
            # delivery the reply is the echoed invite, so its color
            # necessarily equals the proposal; taking the *reply's*
            # color makes the responder authoritative, which is what
            # repair under message loss needs.
            for msg in inbox:
                payload = msg.payload
                if (
                    isinstance(payload, Reply)
                    and payload.target == self.node_id
                    and payload.sender == pending.target
                ):
                    self.on_reply(ctx, payload)
                    ctx.trace("paired", partner=payload.sender, color=payload.color)
                    break
            self._pending_invite = None
        report = self.make_report(ctx)
        if report is not None:
            ctx.broadcast(report)
        self.state = AutomatonState.EXCHANGE

    def _phase_exchange(self, ctx: Context, inbox: Sequence[Message]) -> None:
        reports = [m.payload for m in inbox if isinstance(m.payload, Report)]
        self.on_reports(ctx, reports)
        self.rounds_completed += 1
        if self.presume_dead_after is not None:
            self._detect_silent(ctx)
        if self.is_done(ctx):
            ctx.trace("done", rounds=self.rounds_completed)
            self.state = AutomatonState.DONE
            self.halt()
        else:
            self.state = AutomatonState.CHOOSE

    def _detect_silent(self, ctx: Context) -> None:
        """Presume totally silent unresolved partners crashed.

        Sound only under a heartbeat discipline (every live, not-Done
        node transmits each round): then ``presume_dead_after`` rounds of
        silence are a p^K event under per-message loss p, not a slow
        partner.  The removal funnels through :meth:`on_neighbor_down` —
        the same path the reliable transport's failure detector uses, so
        both detectors compose idempotently.
        """
        horizon = ctx.superstep - self.presume_dead_after * PHASES_PER_ROUND
        if horizon <= 0:
            return
        for v in list(self.unresolved_partners()):
            if self._last_heard.get(v, 0) < horizon:
                ctx.trace("presumed_dead", partner=v)
                self.on_neighbor_down(ctx, v)
