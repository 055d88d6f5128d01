"""Chaos campaigns: the fault algebra composed at scale, measured.

A campaign repeatedly runs Algorithm 1 in recovery mode under a rotating
schedule of *fault classes* — loss, burst loss, duplication, reorder,
crash-stop, and a mixed brew — on one graph, with fuzz-style seed
derivation (one campaign seed deterministically drives every instance,
so any run can be replayed bit-for-bit).  Every faulty run executes
under :func:`~repro.resilience.supervisor.supervise_edge_coloring`, so a
stuck network degrades into a verified partial coloring instead of
wedging the campaign.

Against a single clean *baseline* run of the same configuration, the
campaign reports three distributions per fault class:

* **recovery time** — rounds relative to the clean baseline (how much
  longer convergence took because of the faults);
* **message overhead** — messages sent relative to the baseline (what
  the retries, heartbeats and corrective replies cost);
* **survivability** — the fraction of runs whose (possibly partial)
  coloring passed verification, plus invariant-monitor violations
  (expected: zero — the conservation monitor holds under any fault
  model because it audits the engine's own delivery accounting).

Reports serialize to JSON (for CI artifacts / trend tracking) and
render as an ASCII table (for humans); ``repro chaos`` is the CLI
front-end.
"""

from __future__ import annotations

import json
import math
import random
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence

from repro.core.edge_coloring import EdgeColoringParams, color_edges
from repro.errors import ConfigurationError
from repro.graphs.adjacency import Graph
from repro.graphs.generators import (
    erdos_renyi_avg_degree,
    random_regular,
    small_world,
)
from repro.resilience.supervisor import (
    SupervisionPolicy,
    supervise_edge_coloring,
)
from repro.runtime.faults import (
    BurstLoss,
    CrashNodes,
    DropRandomMessages,
    DuplicateMessages,
    ReorderWithinRound,
    compose,
)
from repro.verify.monitors import ConservationMonitor, InvariantViolation

__all__ = [
    "FAULT_CLASSES",
    "ChaosConfig",
    "ChaosRunRecord",
    "ChaosReport",
    "chaos_campaign",
]


def _make_loss(rng: random.Random, n: int):
    return DropRandomMessages(rng.uniform(0.02, 0.15), seed=rng.randrange(2**31))


def _make_burst(rng: random.Random, n: int):
    return BurstLoss(
        rng.uniform(0.002, 0.01),
        burst_len=rng.randint(2, 8),
        seed=rng.randrange(2**31),
    )


def _make_dup(rng: random.Random, n: int):
    return DuplicateMessages(rng.uniform(0.1, 0.5), seed=rng.randrange(2**31))


def _make_reorder(rng: random.Random, n: int):
    return ReorderWithinRound(seed=rng.randrange(2**31))


def _make_crash(rng: random.Random, n: int):
    return CrashNodes.random(
        n,
        rng.uniform(0.02, 0.08),
        window=(4, 120),
        seed=rng.randrange(2**31),
    )


def _make_mixed(rng: random.Random, n: int):
    return compose(
        _make_loss(rng, n),
        _make_dup(rng, n),
        _make_reorder(rng, n),
        _make_crash(rng, n),
    )


#: Fault-class name -> builder(campaign_rng, n) -> MessageFilter.  The
#: builders draw their intensities (rates, burst lengths, crash
#: fractions) from the campaign RNG, so the whole schedule replays from
#: the campaign seed.
FAULT_CLASSES: Dict[str, Callable[[random.Random, int], object]] = {
    "loss": _make_loss,
    "burst": _make_burst,
    "dup": _make_dup,
    "reorder": _make_reorder,
    "crash": _make_crash,
    "mixed": _make_mixed,
}

#: Graph family name -> sampler(n, avg_degree, seed).
_GRAPH_FAMILIES: Dict[str, Callable[[int, float, int], Graph]] = {
    "erdos_renyi": lambda n, d, s: erdos_renyi_avg_degree(n, d, seed=s),
    "random_regular": lambda n, d, s: random_regular(n, max(1, round(d)), seed=s),
    "small_world": lambda n, d, s: small_world(
        n, max(2, 2 * (round(d) // 2)), 0.1, seed=s
    ),
}


@dataclass(frozen=True)
class ChaosConfig:
    """One chaos campaign's shape.

    At least one of ``budget_seconds`` / ``max_runs`` must bound the
    campaign; a run in flight when the clock expires is finished, not
    aborted.
    """

    budget_seconds: Optional[float] = 60.0
    max_runs: Optional[int] = None
    #: Campaign seed — drives fault schedules, intensities and run seeds.
    seed: int = 0
    #: Graph to torture (when :func:`chaos_campaign` is not handed one).
    nodes: int = 1000
    avg_degree: float = 8.0
    family: str = "erdos_renyi"
    #: Subset of :data:`FAULT_CLASSES`, visited round-robin.
    fault_classes: Sequence[str] = tuple(FAULT_CLASSES)
    #: Per-run computation-round budget (None derives ~O(Δ)).
    round_budget: Optional[int] = None
    #: Attach the delivery-conservation monitor when the graph has at
    #: most this many nodes (it forces the general engine loop, which
    #: is too slow to audit 100k-node runs every iteration).
    monitor_cap: int = 5_000

    def __post_init__(self) -> None:
        if self.budget_seconds is None and self.max_runs is None:
            raise ConfigurationError(
                "chaos campaign needs budget_seconds or max_runs"
            )
        if self.budget_seconds is not None and self.budget_seconds <= 0:
            raise ConfigurationError(
                f"budget_seconds must be > 0, got {self.budget_seconds}"
            )
        if self.max_runs is not None and self.max_runs < 1:
            raise ConfigurationError(
                f"max_runs must be >= 1, got {self.max_runs}"
            )
        if self.nodes < 2:
            raise ConfigurationError(f"nodes must be >= 2, got {self.nodes}")
        if self.family not in _GRAPH_FAMILIES:
            raise ConfigurationError(
                f"unknown family {self.family!r}; "
                f"expected one of {sorted(_GRAPH_FAMILIES)}"
            )
        unknown = [c for c in self.fault_classes if c not in FAULT_CLASSES]
        if unknown:
            raise ConfigurationError(
                f"unknown fault class(es) {unknown}; "
                f"expected a subset of {sorted(FAULT_CLASSES)}"
            )
        if not self.fault_classes:
            raise ConfigurationError("fault_classes must not be empty")


@dataclass
class ChaosRunRecord:
    """One tortured run, judged."""

    index: int
    fault_class: str
    seed: int
    outcome: str
    verified: bool
    colored_fraction: float
    rounds: int
    crashed: int
    messages_sent: int
    wall_seconds: float
    #: Rounds relative to the clean baseline (recovery time).
    recovery_ratio: float
    #: Messages sent relative to the clean baseline.
    message_overhead: float
    #: Partial-coloring violations (0 when ``verified``).
    violations: int
    #: Invariant-monitor breach, if one fired (expected None).
    monitor_violation: Optional[str] = None

    def to_dict(self) -> Dict[str, object]:
        return {
            "index": self.index,
            "fault_class": self.fault_class,
            "seed": self.seed,
            "outcome": self.outcome,
            "verified": self.verified,
            "colored_fraction": round(self.colored_fraction, 6),
            "rounds": self.rounds,
            "crashed": self.crashed,
            "messages_sent": self.messages_sent,
            "wall_seconds": round(self.wall_seconds, 6),
            "recovery_ratio": round(self.recovery_ratio, 4),
            "message_overhead": round(self.message_overhead, 4),
            "violations": self.violations,
            "monitor_violation": self.monitor_violation,
        }


def _percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile (q in [0, 100]) of a non-empty list."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


@dataclass
class ChaosReport:
    """Campaign verdict: per-class distributions over all records."""

    config: ChaosConfig
    graph_nodes: int
    graph_edges: int
    delta: int
    baseline_rounds: int
    baseline_messages: int
    baseline_wall_seconds: float
    records: List[ChaosRunRecord] = field(default_factory=list)
    elapsed_seconds: float = 0.0
    #: ``config.family`` when the campaign generated the graph,
    #: ``"supplied"`` when the caller passed one in.
    family: str = ""

    @property
    def runs(self) -> int:
        return len(self.records)

    @property
    def survivability(self) -> float:
        """Fraction of runs whose coloring verified (1.0 = all)."""
        if not self.records:
            return 1.0
        return sum(r.verified for r in self.records) / len(self.records)

    @property
    def monitor_violations(self) -> int:
        return sum(r.monitor_violation is not None for r in self.records)

    @property
    def ok(self) -> bool:
        """Every run verified and no invariant monitor ever fired."""
        return self.survivability == 1.0 and self.monitor_violations == 0

    def per_class(self) -> Dict[str, Dict[str, object]]:
        """Aggregates keyed by fault class (p50/p90/p99 distributions)."""
        out: Dict[str, Dict[str, object]] = {}
        for name in self.config.fault_classes:
            rows = [r for r in self.records if r.fault_class == name]
            if not rows:
                out[name] = {"runs": 0}
                continue
            recovery = [r.recovery_ratio for r in rows]
            overhead = [r.message_overhead for r in rows]
            out[name] = {
                "runs": len(rows),
                "survived": sum(r.verified for r in rows),
                "completed": sum(r.outcome == "completed" for r in rows),
                "monitor_violations": sum(
                    r.monitor_violation is not None for r in rows
                ),
                "recovery_ratio": {
                    "p50": round(_percentile(recovery, 50), 3),
                    "p90": round(_percentile(recovery, 90), 3),
                    "p99": round(_percentile(recovery, 99), 3),
                },
                "message_overhead": {
                    "p50": round(_percentile(overhead, 50), 3),
                    "p90": round(_percentile(overhead, 90), 3),
                    "p99": round(_percentile(overhead, 99), 3),
                },
                "colored_fraction_min": round(
                    min(r.colored_fraction for r in rows), 4
                ),
            }
        return out

    def to_dict(self) -> Dict[str, object]:
        return {
            "config": {
                "budget_seconds": self.config.budget_seconds,
                "max_runs": self.config.max_runs,
                "seed": self.config.seed,
                "nodes": self.config.nodes,
                "avg_degree": self.config.avg_degree,
                "family": self.config.family,
                "fault_classes": list(self.config.fault_classes),
                "round_budget": self.config.round_budget,
                "monitor_cap": self.config.monitor_cap,
            },
            "graph": {
                "family": self.family,
                "nodes": self.graph_nodes,
                "edges": self.graph_edges,
                "delta": self.delta,
            },
            "baseline": {
                "rounds": self.baseline_rounds,
                "messages_sent": self.baseline_messages,
                "wall_seconds": round(self.baseline_wall_seconds, 6),
            },
            "runs": self.runs,
            "elapsed_seconds": round(self.elapsed_seconds, 3),
            "survivability": round(self.survivability, 4),
            "monitor_violations": self.monitor_violations,
            "ok": self.ok,
            "per_class": self.per_class(),
            "records": [r.to_dict() for r in self.records],
        }

    def to_json(self, path) -> Path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.to_dict(), indent=2) + "\n")
        return path

    def ascii_report(self) -> str:
        """Human-readable campaign summary."""
        lines = [
            "Chaos campaign: Algorithm 1 (recovery mode) under the fault algebra",
            f"graph: {self.family} n={self.graph_nodes} "
            f"m={self.graph_edges} delta={self.delta}  campaign seed={self.config.seed}",
            f"baseline (clean): {self.baseline_rounds} rounds, "
            f"{self.baseline_messages} messages, "
            f"{self.baseline_wall_seconds:.2f}s",
            f"runs: {self.runs} in {self.elapsed_seconds:.1f}s   "
            f"survivability: {100.0 * self.survivability:.1f}%   "
            f"monitor violations: {self.monitor_violations}",
            "",
            f"{'class':>8} {'runs':>5} {'ok':>5} {'done':>5} "
            f"{'recov p50':>10} {'p99':>7} {'msg p50':>8} {'p99':>7} "
            f"{'minfrac':>8}",
        ]
        for name, agg in self.per_class().items():
            if not agg.get("runs"):
                lines.append(
                    f"{name:>8} {0:>5} {'-':>5} {'-':>5} {'-':>10} {'-':>7} "
                    f"{'-':>8} {'-':>7} {'-':>8}"
                )
                continue
            rec = agg["recovery_ratio"]
            ovh = agg["message_overhead"]
            lines.append(
                f"{name:>8} {agg['runs']:>5} {agg['survived']:>5} "
                f"{agg['completed']:>5} {rec['p50']:>10.2f} {rec['p99']:>7.2f} "
                f"{ovh['p50']:>8.2f} {ovh['p99']:>7.2f} "
                f"{agg['colored_fraction_min']:>8.3f}"
            )
        lines += [
            "",
            "Reading: 'ok' counts runs whose (possibly partial) coloring",
            "verified on the surviving subgraph; 'done' those that fully",
            "converged.  recov = rounds / baseline rounds; msg = messages",
            "sent / baseline.  A non-zero monitor-violations count means",
            "the engine's delivery accounting broke — always a bug.",
        ]
        return "\n".join(lines)


def chaos_campaign(
    graph: Optional[Graph] = None,
    *,
    config: Optional[ChaosConfig] = None,
    log: Optional[Callable[[str], None]] = None,
    registry=None,
    publisher=None,
) -> ChaosReport:
    """Run one chaos campaign and return the report.

    Builds the graph from ``config`` unless one is supplied.  The
    baseline clean run does not count against the time budget (a
    campaign with a tiny budget still yields comparable ratios).

    A ``registry`` (:class:`repro.obs.registry.MetricsRegistry`)
    accumulates the campaign's operational metrics: every supervised
    run's engine counters (labelled by outcome), per-fault-class
    run/verified counts, and recovery-ratio / message-overhead
    histograms.  A ``publisher`` rides through every supervised run so
    ``repro top`` can watch the campaign live.  Neither changes any
    verdict.
    """
    config = config or ChaosConfig()
    say = log or (lambda line: None)
    family = "supplied"
    if graph is None:
        family = config.family
        graph = _GRAPH_FAMILIES[config.family](
            config.nodes, config.avg_degree, config.seed
        )
    n = graph.num_nodes
    delta = max((graph.degree(u) for u in graph.nodes()), default=0)
    params = EdgeColoringParams(recovery=True, max_rounds=config.round_budget)

    rng = random.Random(config.seed)
    baseline_seed = rng.randrange(2**31)
    say(
        f"baseline: clean run on n={n} m={graph.num_edges} "
        f"delta={delta} seed={baseline_seed}"
    )
    t0 = time.monotonic()
    baseline = color_edges(graph, seed=baseline_seed, params=params)
    baseline_wall = time.monotonic() - t0
    baseline_messages = max(1, baseline.metrics.messages_sent)
    say(
        f"baseline: {baseline.rounds} rounds, "
        f"{baseline.metrics.messages_sent} messages, {baseline_wall:.2f}s"
    )

    report = ChaosReport(
        config=config,
        graph_nodes=n,
        graph_edges=graph.num_edges,
        delta=delta,
        baseline_rounds=baseline.rounds,
        baseline_messages=baseline.metrics.messages_sent,
        baseline_wall_seconds=baseline_wall,
        family=family,
    )
    monitors = [ConservationMonitor()] if n <= config.monitor_cap else None
    classes = list(config.fault_classes)
    started = time.monotonic()

    def out_of_budget() -> bool:
        if config.max_runs is not None and report.runs >= config.max_runs:
            return True
        if (
            config.budget_seconds is not None
            and time.monotonic() - started >= config.budget_seconds
        ):
            return True
        return False

    while not out_of_budget():
        index = report.runs
        fault_class = classes[index % len(classes)]
        faults = FAULT_CLASSES[fault_class](rng, n)
        run_seed = rng.randrange(2**31)
        remaining = (
            config.budget_seconds - (time.monotonic() - started)
            if config.budget_seconds is not None
            else None
        )
        policy = SupervisionPolicy(
            # Give the straggler allowance to finish its current slice,
            # but never let one run eat more than the leftover budget
            # (plus a floor so the first run gets a fair shot).
            wall_clock_budget=max(5.0, remaining) if remaining is not None else None,
            round_budget=config.round_budget,
        )
        t_run = time.monotonic()
        monitor_violation: Optional[str] = None
        try:
            run = supervise_edge_coloring(
                graph,
                seed=run_seed,
                params=params,
                faults=faults,
                policy=policy,
                monitors=[ConservationMonitor()] if monitors is not None else None,
                registry=registry,
                publisher=publisher,
            )
        except InvariantViolation as exc:
            monitor_violation = str(exc)
            report.records.append(
                ChaosRunRecord(
                    index=index,
                    fault_class=fault_class,
                    seed=run_seed,
                    outcome="monitor",
                    verified=False,
                    colored_fraction=0.0,
                    rounds=0,
                    crashed=0,
                    messages_sent=0,
                    wall_seconds=time.monotonic() - t_run,
                    recovery_ratio=float("inf"),
                    message_overhead=float("inf"),
                    violations=1,
                    monitor_violation=monitor_violation,
                )
            )
            say(f"[{index}] {fault_class} seed={run_seed}: MONITOR VIOLATION")
            continue
        record = ChaosRunRecord(
            index=index,
            fault_class=fault_class,
            seed=run_seed,
            outcome=run.outcome,
            verified=run.verified,
            colored_fraction=run.colored_fraction,
            rounds=run.rounds,
            crashed=len(run.crashed),
            messages_sent=run.metrics.messages_sent,
            wall_seconds=time.monotonic() - t_run,
            recovery_ratio=run.rounds / max(1, baseline.rounds),
            message_overhead=run.metrics.messages_sent / baseline_messages,
            violations=len(run.violations),
        )
        report.records.append(record)
        if registry is not None:
            _observe_chaos_record(registry, record)
        say(
            f"[{index}] {fault_class} seed={run_seed}: {run.outcome} "
            f"verified={run.verified} rounds={run.rounds} "
            f"frac={run.colored_fraction:.3f} "
            f"({record.wall_seconds:.2f}s)"
        )

    report.elapsed_seconds = time.monotonic() - started
    return report


#: Ratio-flavored histogram bounds for recovery time and message
#: overhead relative to the clean baseline (1.0 = no degradation).
_RATIO_BUCKETS = (1.0, 1.25, 1.5, 2.0, 3.0, 5.0, 10.0, 25.0)


def _observe_chaos_record(registry, record: ChaosRunRecord) -> None:
    """Fold one campaign run into the per-fault-class metric families."""
    registry.counter(
        "repro_chaos_runs",
        "Chaos-campaign runs by fault class and supervised outcome",
        ("fault_class", "outcome"),
    ).add(1, fault_class=record.fault_class, outcome=record.outcome)
    if record.verified:
        registry.counter(
            "repro_chaos_verified",
            "Chaos-campaign runs whose (possibly partial) coloring verified",
            ("fault_class",),
        ).add(1, fault_class=record.fault_class)
    # Monitor-violation records carry infinite ratios; the histograms
    # only meter runs that produced a comparable answer.
    if math.isfinite(record.recovery_ratio):
        registry.histogram(
            "repro_chaos_recovery_ratio",
            "Rounds relative to the clean baseline",
            ("fault_class",),
            buckets=_RATIO_BUCKETS,
        ).observe_labels(record.recovery_ratio, fault_class=record.fault_class)
    if math.isfinite(record.message_overhead):
        registry.histogram(
            "repro_chaos_message_overhead",
            "Messages sent relative to the clean baseline",
            ("fault_class",),
            buckets=_RATIO_BUCKETS,
        ).observe_labels(record.message_overhead, fault_class=record.fault_class)
