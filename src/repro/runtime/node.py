"""The node-program API.

An algorithm is expressed as a :class:`NodeProgram` subclass — the code
that runs on *one* compute node — plus a factory that instantiates it per
vertex.  Programs interact with the world only through their
:class:`Context`: they read their id / neighbor list / RNG from it, and
send messages through it.  This confinement is what makes the programs
executable both by the synchronous engine and by the asynchronous engine
without modification.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Any, List, Optional, Sequence, Tuple

from repro.runtime.message import BROADCAST, Message

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime.trace import EventTracer

__all__ = ["Context", "NodeProgram"]


class Context:
    """Per-node handle to the simulated network.

    A fresh outbox is installed by the engine each superstep; everything
    else (id, neighbors, RNG) is fixed for the lifetime of the run.
    """

    __slots__ = ("node_id", "neighbors", "rng", "_outbox", "_superstep", "_tracer")

    def __init__(
        self,
        node_id: int,
        neighbors: Tuple[int, ...],
        rng: random.Random,
        tracer: "EventTracer | None" = None,
    ) -> None:
        self.node_id = node_id
        #: Immutable neighbor tuple in ascending order — the communication
        #: topology; programs may only address these ids.
        self.neighbors = neighbors
        #: Private deterministic RNG stream for this node.
        self.rng = rng
        self._outbox: List[Message] = []
        self._superstep = 0
        self._tracer = tracer

    @property
    def superstep(self) -> int:
        """Index of the superstep currently executing (0-based)."""
        return self._superstep

    @property
    def degree(self) -> int:
        """Number of neighbors."""
        return len(self.neighbors)

    def send(self, dest: int, payload: Any) -> None:
        """Queue a unicast to neighbor ``dest`` for end-of-superstep delivery."""
        self._outbox.append(Message(self.node_id, dest, payload))

    def broadcast(self, payload: Any) -> None:
        """Queue a one-hop broadcast to every neighbor."""
        self._outbox.append(Message(self.node_id, BROADCAST, payload))

    def trace(self, kind: str, **data: Any) -> None:
        """Record a trace event if tracing is enabled (cheap no-op otherwise)."""
        if self._tracer is not None:
            self._tracer.record(self._superstep, self.node_id, kind, data)

    # -- engine side ------------------------------------------------------

    def _begin_superstep(self, superstep: int) -> None:
        # Messages leave only through ``_drain_outbox``; anything still
        # queued here was sent outside a superstep (from ``on_init``)
        # and is dropped.
        self._superstep = superstep
        outbox = self._outbox
        if outbox:
            outbox.clear()

    def _drain_outbox(self) -> List[Message]:
        outbox, self._outbox = self._outbox, []
        return outbox


class NodeProgram(ABC):
    """Base class for the code running on one simulated compute node.

    Lifecycle::

        p = factory(node_id)
        p.on_init(ctx)                    # before superstep 0
        while not all halted:
            p.on_superstep(ctx, inbox)    # once per superstep

    A program signals completion by setting :attr:`halted`; the engine
    stops scheduling it afterwards (messages addressed to it are dropped,
    mirroring a node that has left the protocol).
    """

    #: Set by the program when it has finished (the automaton's D state).
    halted: bool = False

    def on_init(self, ctx: Context) -> None:
        """One-time setup before the first superstep (optional)."""

    @abstractmethod
    def on_superstep(self, ctx: Context, inbox: Sequence[Message]) -> None:
        """Handle one superstep: consume ``inbox``, compute, send.

        ``inbox`` is only valid for the duration of the call — the
        engines recycle delivery buffers between supersteps, so keep the
        :class:`Message` objects (immutable) if needed, never the
        sequence itself.
        """

    def on_neighbor_down(self, ctx: Context, neighbor: int) -> None:
        """Neighbor ``neighbor`` was declared dead by a failure detector.

        Called by the reliable transport (see
        :mod:`repro.runtime.transport`) when retransmissions or probes to
        a partner are exhausted: the link is gone for good, and nothing
        sent to ``neighbor`` will ever be delivered or acknowledged.
        Programs should release any state waiting on that partner (e.g.
        the coloring algorithms abandon the shared edge).  The hook must
        not send messages — it may run between supersteps.  Default: no-op.
        """

    def telemetry_progress(self) -> Optional[Tuple[int, int]]:
        """``(work done, total work)`` for convergence telemetry, or None.

        Read by :class:`~repro.runtime.observe.AutomatonTelemetry` after
        every superstep to build the fraction-of-work-done convergence
        curve (edges colored for Algorithm 1, arcs for DiMa2Ed).  Must
        be cheap — O(1) — and side-effect free; both counts may move
        over the run (recovery modes shrink the total when an edge is
        abandoned).  Default: no progress notion.
        """
        return None

    def halt(self) -> None:
        """Mark this program as finished."""
        self.halted = True
