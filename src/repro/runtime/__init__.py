"""Synchronous message-passing runtime.

This subpackage is the distributed-computing substrate the paper assumes
(§I-C, "The Message Passing Model"): one compute node per graph vertex,
lock-step communication rounds, and the guarantee that each node can
exchange one message with each neighbor per round.

The model is realized as a BSP-style engine (:class:`SynchronousEngine`):
in every *superstep* each live node consumes the messages delivered to it
at the end of the previous superstep, performs local computation, and
emits messages that will be delivered at the start of the next superstep.
One of the paper's "computation rounds" spans four supersteps (invite /
respond / update / exchange); programs keep their own round counters.

Determinism: a run is a pure function of ``(topology, program factory,
seed)``.  Per-node RNG streams are spawned from one ``SeedSequence`` and
depend only on ``(seed, node_id)``, so every execution core — both
delivery loops, the whole-population kernels and the asynchronous
engine — produces identical results.
"""

from repro.runtime.message import BROADCAST, Message
from repro.runtime.metrics import RunMetrics
from repro.runtime.node import Context, NodeProgram
from repro.runtime.engine import RunResult, SynchronousEngine
from repro.runtime.async_engine import AsyncEngine, AsyncRunResult
from repro.runtime.faults import (
    BurstLoss,
    ComposedFaults,
    CrashNodes,
    DropLinks,
    DropRandomMessages,
    DuplicateMessages,
    MessageFilter,
    ReorderWithinRound,
    compose,
)
from repro.runtime.observe import (
    AutomatonTelemetry,
    JsonlSink,
    NullSink,
    PhaseProfiler,
    RingBufferSink,
    TraceSink,
    iter_jsonl_trace,
    read_jsonl_trace,
)
from repro.runtime.trace import EventTracer, TraceEvent
from repro.runtime.transport import (
    ReliableTransportProgram,
    TransportConfig,
    TransportStats,
    collect_transport_stats,
    with_reliable_transport,
)

__all__ = [
    "Message",
    "BROADCAST",
    "NodeProgram",
    "Context",
    "SynchronousEngine",
    "AsyncEngine",
    "AsyncRunResult",
    "RunResult",
    "RunMetrics",
    "MessageFilter",
    "DropRandomMessages",
    "DropLinks",
    "DuplicateMessages",
    "BurstLoss",
    "ReorderWithinRound",
    "CrashNodes",
    "ComposedFaults",
    "compose",
    "TransportConfig",
    "TransportStats",
    "ReliableTransportProgram",
    "with_reliable_transport",
    "collect_transport_stats",
    "EventTracer",
    "TraceEvent",
    "TraceSink",
    "NullSink",
    "RingBufferSink",
    "JsonlSink",
    "iter_jsonl_trace",
    "read_jsonl_trace",
    "AutomatonTelemetry",
    "PhaseProfiler",
]
