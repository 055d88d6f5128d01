"""Run observability: trace sinks, automaton telemetry, phase profiling.

The paper states every cost claim in *rounds to convergence* of the
C/I/L/R/W/U/E/D automaton, yet a bare run exposes only end-of-run
counters.  This module makes runs inspectable without giving up the
fast kernels (docs/performance.md):

* **Trace sinks** (:class:`TraceSink`) — pluggable backends for the
  event stream an :class:`~repro.runtime.trace.EventTracer` produces:
  a deque-backed ring buffer (:class:`RingBufferSink`), a buffered JSONL
  file writer (:class:`JsonlSink`), and a :class:`NullSink` for overhead
  measurement.  Per-kind sampling lives on the tracer (see
  ``EventTracer(sample=...)``) so tracing can stay on at scale.
* **Automaton telemetry** (:class:`AutomatonTelemetry`) — per-superstep
  histogram of automaton states, the state-transition matrix, and the
  fraction-of-work-done convergence curve.  Collected by the engines as
  cheap counter updates over the stepped programs; it never touches
  delivery, so a counters-only configuration keeps the
  whole-population kernels eligible.
* **Phase profiler** (:class:`PhaseProfiler`) — wall-clock accounting of
  the engine's per-superstep phases (compute / delivery / model-check /
  fault-injection), folded into ``RunMetrics.phase_seconds`` at the end
  of a run and rendered by ``RunMetrics.report()``.

Which configurations keep the kernels eligible (docs/observability.md):

=============================================  =======
configuration                                  kernels
=============================================  =======
telemetry only (``AutomatonTelemetry``)        yes
profiler only (``PhaseProfiler``)              yes
any ``EventTracer``, sampled or not            no
=============================================  =======

A kernel run emits no trace events, so a traced run executes on
:class:`~repro.runtime.engine.SynchronousEngine`'s per-node loop.
"""

from __future__ import annotations

import json
from collections import deque
from contextlib import contextmanager
from time import perf_counter
from typing import (
    IO,
    Any,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.errors import ConfigurationError

__all__ = [
    "TraceSink",
    "NullSink",
    "RingBufferSink",
    "JsonlSink",
    "read_jsonl_trace",
    "iter_jsonl_trace",
    "AutomatonTelemetry",
    "PhaseProfiler",
]


# ---------------------------------------------------------------------------
# Trace sinks
# ---------------------------------------------------------------------------


class TraceSink:
    """Receives trace events; the common interface of every sink.

    A sink consumes ``(superstep, node, kind, data)`` tuples — the
    fields of :class:`~repro.runtime.trace.TraceEvent`, passed unpacked
    so streaming sinks need not allocate an event object per record.
    """

    def emit(self, superstep: int, node: int, kind: str, data: Dict[str, Any]) -> None:
        """Consume one event."""
        raise NotImplementedError

    def flush(self) -> None:
        """Push any buffered events to their destination (optional)."""

    def close(self) -> None:
        """Flush and release resources (optional)."""
        self.flush()

    def __enter__(self) -> "TraceSink":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class NullSink(TraceSink):
    """Counts events and discards them — the overhead-measurement sink."""

    def __init__(self) -> None:
        self.emitted = 0

    def emit(self, superstep: int, node: int, kind: str, data: Dict[str, Any]) -> None:
        self.emitted += 1


class RingBufferSink(TraceSink):
    """Deque-backed ring of the most recent events.

    Parameters
    ----------
    capacity:
        Maximum retained events; older events are evicted FIFO and
        counted in :attr:`dropped`.  ``None`` retains everything.
    """

    def __init__(self, capacity: Optional[int] = None) -> None:
        if capacity is not None and capacity < 0:
            raise ConfigurationError(f"capacity must be >= 0, got {capacity}")
        self.capacity = capacity
        self.events: "deque" = deque(maxlen=capacity)
        self.dropped = 0

    def emit(self, superstep: int, node: int, kind: str, data: Dict[str, Any]) -> None:
        from repro.runtime.trace import TraceEvent  # circular at import time

        events = self.events
        if self.capacity is not None and len(events) == self.capacity:
            self.dropped += 1  # deque(maxlen=...) evicts FIFO on append
        if self.capacity == 0:
            return
        events.append(TraceEvent(superstep, node, kind, dict(data)))

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator:
        return iter(self.events)

    def clear(self) -> None:
        self.events.clear()
        self.dropped = 0


class JsonlSink(TraceSink):
    """Buffered JSONL file sink: one ``{"superstep", "node", "kind",
    "data"}`` object per line.

    Events are buffered and written ``buffer_size`` lines at a time so a
    hot run does not pay one syscall per event; :meth:`close` (or the
    context-manager exit) flushes the tail.  The file is opened lazily
    on the first event, so constructing a sink never touches the disk.
    """

    def __init__(self, path, *, buffer_size: int = 1024) -> None:
        if buffer_size < 1:
            raise ConfigurationError(f"buffer_size must be >= 1, got {buffer_size}")
        self.path = path
        self.buffer_size = buffer_size
        self.emitted = 0
        self._buffer: List[str] = []
        self._fh: Optional[IO[str]] = None

    def emit(self, superstep: int, node: int, kind: str, data: Dict[str, Any]) -> None:
        self._buffer.append(
            json.dumps(
                {"superstep": superstep, "node": node, "kind": kind, "data": data},
                separators=(",", ":"),
                default=str,
            )
        )
        self.emitted += 1
        if len(self._buffer) >= self.buffer_size:
            self.flush()

    def flush(self) -> None:
        if not self._buffer:
            return
        if self._fh is None:
            self._fh = open(self.path, "w", encoding="utf-8")
        self._fh.write("\n".join(self._buffer) + "\n")
        self._buffer.clear()

    def close(self) -> None:
        self.flush()
        if self._fh is not None:
            self._fh.close()
            self._fh = None


def iter_jsonl_trace(path) -> Iterator:
    """Stream :class:`TraceEvent` objects back out of a JSONL trace file."""
    from repro.runtime.trace import TraceEvent

    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            obj = json.loads(line)
            yield TraceEvent(
                obj["superstep"], obj["node"], obj["kind"], obj.get("data", {})
            )


def read_jsonl_trace(path) -> List:
    """Load a whole JSONL trace file (see :func:`iter_jsonl_trace`)."""
    return list(iter_jsonl_trace(path))


# ---------------------------------------------------------------------------
# Automaton-state telemetry
# ---------------------------------------------------------------------------

#: Histogram bucket for programs that expose no automaton state.
UNKNOWN_STATE = "?"


def _state_of(program) -> str:
    """The program's automaton state as a single character ("?" if none)."""
    state = getattr(program, "state", None)
    if state is None:
        return UNKNOWN_STATE
    value = getattr(state, "value", state)  # AutomatonState or plain str
    return value if isinstance(value, str) else UNKNOWN_STATE


class AutomatonTelemetry:
    """Per-superstep counters over the automaton states of a run.

    Attach one to an engine (``SynchronousEngine(..., telemetry=t)``)
    or to an algorithm wrapper (``color_edges(graph, telemetry=t)``).
    After the run:

    * :attr:`state_histograms` — one ``{state_char: count}`` dict per
      superstep, over exactly the nodes stepped that superstep (so each
      histogram's total equals the live-node count);
    * :attr:`transitions` — ``{from_state: {to_state: count}}`` over
      every (stepped node, superstep) observation, self-loops included;
    * :meth:`colored_fraction` — the convergence curve: fraction of
      total work done at the end of each superstep, from the programs'
      ``telemetry_progress()`` hook (edges colored for Algorithm 1,
      arcs for DiMa2Ed).

    Collection is read-only over program state and never touches message
    delivery, so runs are bit-identical with it on or off (pinned by the
    property suite).
    The object is picklable, so checkpoints carry it mid-run.
    """

    def __init__(self) -> None:
        self.state_histograms: List[Dict[str, int]] = []
        self.transitions: Dict[str, Dict[str, int]] = {}
        self.done_per_superstep: List[int] = []
        self.work_total = 0
        self._done_total = 0
        self._prev_state: Dict[int, str] = {}
        self._prev_progress: Dict[int, Tuple[int, int]] = {}

    # -- engine side -------------------------------------------------------

    def begin_run(
        self, programs: Union[Sequence, Mapping[int, Any]]
    ) -> None:
        """Capture post-``on_init`` baselines for every program."""
        items: Iterable[Tuple[int, Any]] = (
            programs.items() if isinstance(programs, Mapping) else enumerate(programs)
        )
        for u, prog in items:
            self._prev_state[u] = _state_of(prog)
            progress = prog.telemetry_progress()
            if progress is not None:
                done, total = progress
                self._done_total += done
                self.work_total += total
                self._prev_progress[u] = (done, total)

    def begin_batch(self, done_total: int, work_total: int) -> None:
        """Batched-core counterpart of :meth:`begin_run`.

        The whole-population kernels (:mod:`repro.core.vectorized`)
        have no program objects to poll, so it seeds the work/done baselines
        directly from its arrays.  Additive, like :meth:`begin_run`, so
        a merged collector keeps summing.
        """
        self._done_total += done_total
        self.work_total += work_total

    def record_batch_superstep(
        self,
        hist_items: Sequence[Tuple[str, int]],
        transition_items: Sequence[Tuple[str, str, int]],
        done_total: int,
    ) -> None:
        """Batched-core counterpart of :meth:`after_superstep`.

        The batched core already knows the state partition of every
        superstep (the automaton is lockstep: the phase plus the round's
        role split determine each node's state), so it hands over
        pre-counted ``(state, count)`` histogram items and
        ``(before, after, count)`` transition items instead of per-node
        observations.  Items must arrive in the per-node loop's
        first-occurrence order over the stepped set — folding them here
        then reproduces :meth:`after_superstep`'s dict key order exactly,
        which is what makes a batched run's :meth:`to_dict` byte-equal
        to the per-node run's.  ``done_total`` is the *absolute*
        cumulative work-done count at the end of the superstep.
        """
        self.state_histograms.append(dict(hist_items))
        transitions = self.transitions
        for before, after, count in transition_items:
            row = transitions.get(before)
            if row is None:
                row = transitions[before] = {}
            row[after] = row.get(after, 0) + count
        self._done_total = done_total
        self.done_per_superstep.append(done_total)

    def after_superstep(
        self,
        superstep: int,
        programs: Union[Sequence, Mapping[int, Any]],
        stepped: Iterable[int],
    ) -> None:
        """Fold one superstep's end-of-step states into the counters.

        ``stepped`` are the node ids that executed this superstep (the
        live set at its start); O(len(stepped)) dict updates total.
        """
        hist: Dict[str, int] = {}
        transitions = self.transitions
        prev_state = self._prev_state
        prev_progress = self._prev_progress
        for u in stepped:
            prog = programs[u]
            state = _state_of(prog)
            hist[state] = hist.get(state, 0) + 1
            before = prev_state.get(u, state)
            row = transitions.get(before)
            if row is None:
                row = transitions[before] = {}
            row[state] = row.get(state, 0) + 1
            prev_state[u] = state
            progress = prog.telemetry_progress()
            if progress is not None:
                done, total = progress
                old_done, old_total = prev_progress.get(u, (0, 0))
                self._done_total += done - old_done
                self.work_total += total - old_total
                prev_progress[u] = (done, total)
        self.state_histograms.append(hist)
        self.done_per_superstep.append(self._done_total)

    # -- results -----------------------------------------------------------

    @property
    def supersteps(self) -> int:
        """Supersteps observed."""
        return len(self.state_histograms)

    def colored_fraction(self) -> List[float]:
        """Fraction of total work done at the end of each superstep."""
        total = self.work_total
        if not total:
            return [1.0] * len(self.done_per_superstep)
        return [done / total for done in self.done_per_superstep]

    def current_colored_fraction(self) -> float:
        """Latest fraction of total work done (1.0 when none is metered).

        The scalar the live-monitor snapshots carry; O(1), unlike
        :meth:`colored_fraction` which materialises the whole curve.
        """
        total = self.work_total
        if not total:
            return 1.0
        return self._done_total / total

    def state_totals(self) -> Dict[str, int]:
        """Total (node, superstep) observations per state over the run."""
        totals: Dict[str, int] = {}
        for hist in self.state_histograms:
            for state, count in hist.items():
                totals[state] = totals.get(state, 0) + count
        return totals

    def to_dict(self) -> Dict[str, Any]:
        """Full JSON-safe dump (one histogram per superstep — large)."""
        return {
            "supersteps": self.supersteps,
            "work_total": self.work_total,
            "done_per_superstep": list(self.done_per_superstep),
            "colored_fraction": [round(f, 6) for f in self.colored_fraction()],
            "state_histograms": [dict(h) for h in self.state_histograms],
            "state_totals": self.state_totals(),
            "transitions": {k: dict(v) for k, v in self.transitions.items()},
        }

    def compact_dict(self, max_points: int = 64) -> Dict[str, Any]:
        """Decimated JSON dump for benchmark reports and run summaries.

        The convergence curve and state histograms are subsampled to at
        most ``max_points`` supersteps (always keeping the last), so the
        output stays small on long runs while preserving shape.
        """
        n = self.supersteps
        if n <= max_points:
            picks = list(range(n))
        else:
            stride = n / max_points
            picks = sorted({min(n - 1, int(i * stride)) for i in range(max_points)})
            if picks and picks[-1] != n - 1:
                picks.append(n - 1)
        fractions = self.colored_fraction()
        return {
            "supersteps": n,
            "work_total": self.work_total,
            "final_fraction": round(fractions[-1], 6) if fractions else None,
            "convergence": [
                {"superstep": i, "fraction": round(fractions[i], 6)} for i in picks
            ],
            "state_histograms": [
                {"superstep": i, "states": dict(self.state_histograms[i])}
                for i in picks
            ],
            "state_totals": self.state_totals(),
            "transitions": {k: dict(v) for k, v in self.transitions.items()},
        }

    def summary(self) -> str:
        """Human-readable digest: totals, transitions, convergence tail."""
        totals = self.state_totals()
        fractions = self.colored_fraction()
        lines = [
            f"supersteps observed: {self.supersteps}",
            "state totals: "
            + ", ".join(f"{s}:{c}" for s, c in sorted(totals.items())),
        ]
        if fractions:
            lines.append(f"final work fraction: {fractions[-1]:.4f}")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# Phase profiler
# ---------------------------------------------------------------------------


class PhaseProfiler:
    """Wall-clock accounting of named run phases.

    The engines stamp ``compute`` (stepping the node programs),
    ``delivery`` (fan-out and inbox construction), ``model_check`` (the
    strict one-message-per-neighbor validator) and ``faults``
    (crash-stop processing and inbox reordering) around each superstep.
    Timings land in ``RunMetrics.phase_seconds`` at the end of the run
    and are rendered by ``RunMetrics.report()``.

    Wall-clock time is deliberately kept out of the *counter* metrics
    (the paper's costs are rounds and messages); the profiler is the one
    sanctioned home for it.  A profiler instance meters one run — attach
    a fresh one per run, or timings accumulate.
    """

    def __init__(self) -> None:
        self.seconds: Dict[str, float] = {}
        self.counts: Dict[str, int] = {}

    def add(self, phase: str, elapsed: float) -> None:
        """Accumulate ``elapsed`` wall-clock seconds under ``phase``."""
        self.seconds[phase] = self.seconds.get(phase, 0.0) + elapsed
        self.counts[phase] = self.counts.get(phase, 0) + 1

    @contextmanager
    def timer(self, phase: str):
        """Context manager measuring one ``phase`` section."""
        t0 = perf_counter()
        try:
            yield self
        finally:
            self.add(phase, perf_counter() - t0)

    @property
    def total_seconds(self) -> float:
        """Sum of all phase timings."""
        return sum(self.seconds.values())

    def as_dict(self) -> Dict[str, float]:
        """Phase -> seconds, JSON-safe."""
        return {phase: round(sec, 9) for phase, sec in self.seconds.items()}

    def summary(self) -> str:
        """One line per phase with absolute time and share of the total."""
        total = self.total_seconds
        lines = []
        for phase, sec in sorted(self.seconds.items(), key=lambda kv: -kv[1]):
            share = (100.0 * sec / total) if total else 0.0
            lines.append(f"{phase}: {sec:.4f}s ({share:.1f}%)")
        return "\n".join(lines)
