"""Communication metering for simulated runs.

All of the paper's cost claims are stated in *rounds* and one-hop
messages, never wall-clock time, so the metrics layer counts events
exactly: supersteps executed, messages sent/delivered/dropped, and
abstract payload volume.  Wall-clock timing belongs to pytest-benchmark,
not here.

The fault-tolerance subsystem adds two counter families:

* engine-side loss accounting — frames discarded because the receiver
  halted (``messages_discarded_halted``), frames lost because the
  receiver crashed (``messages_lost_to_crash``), and extra copies
  injected by a duplication fault (``messages_duplicated``);
* transport-side reliability accounting — frames, retransmissions,
  suppressed duplicates, and liveness probes of the reliable-delivery
  layer (:mod:`repro.runtime.transport`), folded in by the algorithm
  wrappers after a run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

__all__ = ["RunMetrics"]


@dataclass
class RunMetrics:
    """Counters accumulated by the network layer over one run."""

    #: Supersteps actually executed (the engine's outermost loop count).
    supersteps: int = 0
    #: Point-to-point sends (a broadcast counts once here ...).
    messages_sent: int = 0
    #: ... and once per receiving neighbor here.
    messages_delivered: int = 0
    #: Messages removed by a fault filter.
    messages_dropped: int = 0
    #: Total abstract payload words delivered (see ``Message.size``).
    words_delivered: int = 0
    #: Frames addressed to a node that had already halted (Done state).
    messages_discarded_halted: int = 0
    #: Frames addressed to a crash-stopped node (never delivered).
    messages_lost_to_crash: int = 0
    #: Extra copies injected by a duplication fault (beyond the first).
    messages_duplicated: int = 0
    #: Reliable-transport retransmissions (resends of unacked frames).
    retransmissions: int = 0
    #: Reliable-transport frames sent (each is one engine-level message).
    transport_frames: int = 0
    #: Duplicate application payloads suppressed by sequence numbers.
    transport_duplicates_dropped: int = 0
    #: Liveness probes issued while blocked on a silent neighbor.
    transport_probes: int = 0
    #: Number of live (non-halted) nodes at the start of each superstep.
    live_nodes_per_superstep: List[int] = field(default_factory=list)
    #: Sharded tier only — logical workers the run was partitioned over
    #: (0 on every other tier, which also gates the fields below out of
    #: dumps so cross-tier counter comparisons stay exact).
    shard_workers: int = 0
    #: Sharded tier only — bytes the automaton's broadcasts would have
    #: crossed shard boundaries (live foreign listeners x phase words x 8).
    cross_shard_bytes: int = 0
    #: Sharded tier only — wall seconds moving RNG state across shard
    #: boundaries (pool maps and unmaps, owner split and scatter).
    shard_exchange_seconds: float = 0.0
    #: Sharded tier only — the process's peak RSS after the run, KiB.
    shard_peak_rss_kb: int = 0
    #: Wall-clock seconds per engine phase (compute / delivery /
    #: model_check / faults), filled by an attached
    #: :class:`~repro.runtime.observe.PhaseProfiler`; empty otherwise.
    #: Wall-clock lives here and nowhere else among the metrics — the
    #: paper's costs are rounds and messages.
    phase_seconds: Dict[str, float] = field(default_factory=dict)

    def record_send(self) -> None:
        """Count one send operation."""
        self.messages_sent += 1

    def record_delivery(self, size: int) -> None:
        """Count one delivered copy of ``size`` abstract words."""
        self.messages_delivered += 1
        self.words_delivered += size

    def record_drop(self) -> None:
        """Count one fault-filtered message copy."""
        self.messages_dropped += 1

    def record_discard_halted(self) -> None:
        """Count one frame sent to an already-halted node."""
        self.messages_discarded_halted += 1

    def begin_superstep(self, live_nodes: int) -> None:
        """Open a new superstep with ``live_nodes`` participants."""
        self.supersteps += 1
        self.live_nodes_per_superstep.append(live_nodes)

    def as_dict(self) -> Dict[str, int]:
        """Scalar counters as a plain dict (for tables and JSON dumps)."""
        return {
            "supersteps": self.supersteps,
            "messages_sent": self.messages_sent,
            "messages_delivered": self.messages_delivered,
            "messages_dropped": self.messages_dropped,
            "words_delivered": self.words_delivered,
            "messages_discarded_halted": self.messages_discarded_halted,
            "messages_lost_to_crash": self.messages_lost_to_crash,
            "messages_duplicated": self.messages_duplicated,
            "retransmissions": self.retransmissions,
            "transport_frames": self.transport_frames,
            "transport_duplicates_dropped": self.transport_duplicates_dropped,
            "transport_probes": self.transport_probes,
        }

    def to_dict(self) -> Dict[str, object]:
        """JSON-safe dump: every :meth:`summary` counter plus the
        per-superstep live-node trace.

        Unlike :meth:`as_dict` (scalars only), the result captures the
        full run record and round-trips through ``json.dumps`` — the
        benchmark JSON writers persist runs with this.
        """
        out: Dict[str, object] = dict(self.as_dict())
        out["live_nodes_per_superstep"] = list(self.live_nodes_per_superstep)
        if self.phase_seconds:
            # Present only when a profiler ran, so profiled and
            # unprofiled runs of the same computation still compare
            # equal on every counter key.
            out["phase_seconds"] = dict(self.phase_seconds)
        if self.shard_workers:
            # Present only on the sharded tier (same rationale: other
            # tiers' dumps must stay byte-for-byte comparable).
            out["shard_workers"] = self.shard_workers
            out["cross_shard_bytes"] = self.cross_shard_bytes
            out["shard_exchange_seconds"] = self.shard_exchange_seconds
            out["shard_peak_rss_kb"] = self.shard_peak_rss_kb
        return out

    @property
    def live_nodes_peak(self) -> int:
        """Most nodes live at the start of any superstep (0 if none ran)."""
        return max(self.live_nodes_per_superstep, default=0)

    @property
    def live_nodes_final(self) -> int:
        """Nodes live at the start of the last superstep (0 if none ran).

        On a clean run this is the final holdout count before global
        termination; on a crash-stop run the gap to :attr:`live_nodes_peak`
        shows how much of the network survived to the end.
        """
        return self.live_nodes_per_superstep[-1] if self.live_nodes_per_superstep else 0

    def summary(self) -> str:
        """Human-readable one-counter-per-line digest of the run.

        Transport counters are omitted when the reliable-transport layer
        was not in use (all zero), so reliable-network summaries stay as
        short as they were before the fault-tolerance subsystem existed.
        When the per-superstep live-node trace is populated, its peak
        and final counts are appended — the legible digest of crash-stop
        runs, without dumping the full per-superstep list.
        """
        counters = self.as_dict()
        transport_keys = (
            "retransmissions",
            "transport_frames",
            "transport_duplicates_dropped",
            "transport_probes",
        )
        if all(counters[k] == 0 for k in transport_keys):
            for k in transport_keys:
                del counters[k]
        lines = [f"{name}: {value}" for name, value in counters.items()]
        if self.live_nodes_per_superstep:
            lines.append(f"live_nodes_peak: {self.live_nodes_peak}")
            lines.append(f"live_nodes_final: {self.live_nodes_final}")
        if self.shard_workers:
            lines.append(f"shard_workers: {self.shard_workers}")
            lines.append(f"cross_shard_bytes: {self.cross_shard_bytes}")
            lines.append(
                f"shard_exchange_seconds: {self.shard_exchange_seconds:.4f}"
            )
            lines.append(f"shard_peak_rss_kb: {self.shard_peak_rss_kb}")
        return "\n".join(lines)

    def report(self) -> str:
        """The :meth:`summary` counters plus the phase profile, if timed.

        Phase timings appear only when a
        :class:`~repro.runtime.observe.PhaseProfiler` was attached to
        the run, each with its share of the total profiled wall time.
        """
        lines = [self.summary()]
        if self.phase_seconds:
            total = sum(self.phase_seconds.values())
            lines.append("phase profile:")
            for phase, sec in sorted(
                self.phase_seconds.items(), key=lambda kv: -kv[1]
            ):
                share = (100.0 * sec / total) if total else 0.0
                lines.append(f"  {phase}: {sec:.4f}s ({share:.1f}%)")
        return "\n".join(lines)

    def __add__(self, other: "RunMetrics") -> "RunMetrics":
        """Aggregate two runs (superstep traces are concatenated)."""
        if not isinstance(other, RunMetrics):
            return NotImplemented
        merged = RunMetrics(
            supersteps=self.supersteps + other.supersteps,
            messages_sent=self.messages_sent + other.messages_sent,
            messages_delivered=self.messages_delivered + other.messages_delivered,
            messages_dropped=self.messages_dropped + other.messages_dropped,
            words_delivered=self.words_delivered + other.words_delivered,
            messages_discarded_halted=(
                self.messages_discarded_halted + other.messages_discarded_halted
            ),
            messages_lost_to_crash=(
                self.messages_lost_to_crash + other.messages_lost_to_crash
            ),
            messages_duplicated=self.messages_duplicated + other.messages_duplicated,
            retransmissions=self.retransmissions + other.retransmissions,
            transport_frames=self.transport_frames + other.transport_frames,
            transport_duplicates_dropped=(
                self.transport_duplicates_dropped + other.transport_duplicates_dropped
            ),
            transport_probes=self.transport_probes + other.transport_probes,
        )
        merged.live_nodes_per_superstep = (
            self.live_nodes_per_superstep + other.live_nodes_per_superstep
        )
        merged.shard_workers = max(self.shard_workers, other.shard_workers)
        merged.cross_shard_bytes = self.cross_shard_bytes + other.cross_shard_bytes
        merged.shard_exchange_seconds = (
            self.shard_exchange_seconds + other.shard_exchange_seconds
        )
        merged.shard_peak_rss_kb = max(
            self.shard_peak_rss_kb, other.shard_peak_rss_kb
        )
        for phase, sec in (*self.phase_seconds.items(), *other.phase_seconds.items()):
            merged.phase_seconds[phase] = merged.phase_seconds.get(phase, 0.0) + sec
        return merged
