"""Structured event tracing for simulated runs.

Tracing exists for debuggability of the probabilistic algorithms: when a
run misbehaves, replaying the (superstep, node, event) stream shows which
invitations raced.  It is off by default and costs one ``if`` per
``ctx.trace`` call when disabled.

An :class:`EventTracer` is the front-end the engines hand to every
:class:`~repro.runtime.node.Context`; where the events *go* is pluggable
(see :mod:`repro.runtime.observe`): the tracer always keeps a bounded
in-memory ring (``capacity``), and optionally tees every retained event
into a :class:`~repro.runtime.observe.TraceSink` — e.g. a buffered JSONL
file for ``repro trace record``.  Per-kind sampling (``sample``) thins
the stream *before* either destination, which is what lets tracing stay
enabled at scale: a sampled tracer is declared lossy by contract (see
docs/observability.md).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, Iterator, List, Optional

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime.observe import TraceSink

__all__ = ["TraceEvent", "EventTracer"]


@dataclass(frozen=True, slots=True)
class TraceEvent:
    """One recorded event."""

    superstep: int
    node: int
    kind: str
    data: Dict[str, Any]


class EventTracer:
    """Bounded in-memory event recorder with optional sink and sampling.

    Parameters
    ----------
    capacity:
        Maximum retained events; older events are evicted FIFO (O(1),
        ``collections.deque``) and counted in :attr:`dropped`.  ``None``
        retains everything (only sane for small runs/tests); ``0``
        retains nothing — streaming mode, for runs that only feed a
        sink.
    sink:
        Optional :class:`~repro.runtime.observe.TraceSink` receiving
        every (post-sampling) event in addition to the in-memory ring.
        The caller owns the sink's lifecycle (``close()`` it after the
        run to flush buffered output).
    sample:
        Optional per-kind sampling: ``{kind: n}`` keeps one event in
        every ``n`` of that kind (the first, then every ``n``-th), and
        the ``"*"`` key sets the default rate for unlisted kinds.
        Sampling is deterministic (counter-based), so sampled runs stay
        reproducible.  Events thinned away are counted in
        :attr:`sampled_out` and never reach the ring or the sink.
    """

    def __init__(
        self,
        capacity: Optional[int] = None,
        *,
        sink: "Optional[TraceSink]" = None,
        sample: Optional[Dict[str, int]] = None,
    ) -> None:
        self.capacity = capacity
        self.events: "deque[TraceEvent]" = deque(maxlen=capacity)
        self.dropped = 0
        self.sink = sink
        self.sample = dict(sample) if sample else None
        #: Events thinned away by per-kind sampling.
        self.sampled_out = 0
        self._seen_by_kind: Dict[str, int] = {}

    def record(self, superstep: int, node: int, kind: str, data: Dict[str, Any]) -> None:
        """Append an event, applying sampling, eviction, and the sink."""
        sample = self.sample
        if sample is not None:
            rate = sample.get(kind)
            if rate is None:
                rate = sample.get("*", 1)
            if rate > 1:
                seen = self._seen_by_kind.get(kind, 0)
                self._seen_by_kind[kind] = seen + 1
                if seen % rate:
                    self.sampled_out += 1
                    return
        capacity = self.capacity
        if capacity != 0:  # capacity 0 = streaming mode, ring disabled
            events = self.events
            if capacity is not None and len(events) == capacity:
                self.dropped += 1  # deque(maxlen=...) evicts the oldest
            events.append(TraceEvent(superstep, node, kind, dict(data)))
        if self.sink is not None:
            self.sink.emit(superstep, node, kind, data)

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self.events)

    def by_node(self, node: int) -> List[TraceEvent]:
        """All retained events for one node, in order."""
        return [e for e in self.events if e.node == node]

    def by_kind(self, kind: str) -> List[TraceEvent]:
        """All retained events of one kind, in order."""
        return [e for e in self.events if e.kind == kind]

    def clear(self) -> None:
        """Discard all retained events and reset the drop/sample meters."""
        self.events.clear()
        self.dropped = 0
        self.sampled_out = 0
        self._seen_by_kind.clear()
