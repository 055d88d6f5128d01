"""Differential cross-tier equivalence runner.

The repo carries seven executions of the same algorithm semantics:

* ``general`` — the per-node programs on the engine's general delivery
  loop (``fastpath=False, compute="pernode"``), the reference tier;
* ``fastpath`` — the same programs on the engine's fast-path delivery;
* ``vectorized`` — the fused palette-plane kernels
  (:mod:`repro.core.vectorized`);
* ``numba`` — the JIT-compiled round kernels
  (:mod:`repro.core.kernels_numba`); skipped where numba is not
  installed (``compute="numba"`` would silently fall back to the
  vectorized kernel there, which this harness already covers);
* ``sharded`` — the vectorized kernels hash-partitioned over
  disk-backed shards (:class:`~repro.runtime.sharded.ShardedEngine`);
  skipped where no spill directory is writable or memmaps are
  unavailable;
* ``parallel`` — the per-node programs sharded across OS processes
  (:class:`~repro.runtime.parallel.ParallelEngine`);
* ``async`` — the per-node programs under the α-synchronizer
  (:class:`~repro.runtime.async_engine.AsyncEngine`).

All seven are documented as bit-identical.  This module makes that claim
*checkable on demand* for any (algorithm, graph, seed) configuration:
:func:`diff_tiers` runs a subset of tiers and diffs every comparable
field — the coloring itself, round and superstep counts, the message
counters, and (where telemetry exists) the per-superstep automaton
state histograms and convergence curve, from which the **first
diverging superstep** is recovered.

Comparable field sets differ by tier:

=========  ========  ==========  ========  =============  ==========
field      fastpath  vectorized  parallel  async          notes
=========  ========  ==========  ========  =============  ==========
colors     yes       yes         yes       yes            exact dict
rounds     yes       yes         yes       yes
supersteps yes       yes         yes       yes (pulses)
metrics    all       all         all       all but        scalar
                                           ``supersteps``  counters
telemetry  yes       yes         yes       —              async runs
                                                          untelemetered
=========  ========  ==========  ========  =============  ==========

``numba`` and ``sharded`` compare on the same field set as
``vectorized`` (all scalar counters plus full telemetry).

The ``parallel`` tier needs the ``fork`` start method, the ``numba``
tier needs an importable numba, and the ``sharded`` tier needs a
writable spill directory for its memmapped shards; all are reported as
*skipped* (never silently dropped) where unavailable.
"""

from __future__ import annotations

import hashlib
import math
import multiprocessing as mp
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core._coerce import coerce_graph, relabel_for_engine
from repro.core.dima2ed import (
    DiMa2EdProgram,
    _collect_arc_colors,
    default_strong_round_budget,
    strong_color_arcs,
)
from repro.core.edge_coloring import (
    EdgeColoringProgram,
    _collect_edge_colors,
    color_edges,
    default_round_budget,
)
from repro.core.states import PHASES_PER_ROUND
from repro.errors import ConfigurationError
from repro.graphs.adjacency import Graph
from repro.runtime.async_engine import AsyncEngine
from repro.runtime.observe import AutomatonTelemetry
from repro.runtime.parallel import ParallelEngine

__all__ = [
    "ALGORITHMS",
    "TIERS",
    "TierRun",
    "TierSkipped",
    "Divergence",
    "DiffReport",
    "available_tiers",
    "colors_digest",
    "diff_tiers",
    "run_tier",
]

ALGORITHMS = ("alg1", "dima2ed")
TIERS = (
    "general",
    "fastpath",
    "vectorized",
    "numba",
    "sharded",
    "parallel",
    "async",
)

#: Tiers that run through the algorithm wrappers (``compute=`` modes).
_WRAPPER_TIERS = (
    "general",
    "fastpath",
    "vectorized",
    "numba",
    "sharded",
)

#: Scalar counters compared across the synchronous tiers.
_METRIC_FIELDS: Tuple[str, ...] = (
    "supersteps",
    "messages_sent",
    "messages_delivered",
    "messages_dropped",
    "words_delivered",
    "messages_discarded_halted",
    "messages_lost_to_crash",
    "messages_duplicated",
)

#: The async engine counts application traffic but not engine
#: supersteps (its clock is pulses, compared separately).
_ASYNC_METRIC_FIELDS: Tuple[str, ...] = tuple(
    f for f in _METRIC_FIELDS if f != "supersteps"
)


class TierSkipped(ConfigurationError):
    """Raised by :func:`run_tier` when a tier cannot run here."""


@dataclass
class TierRun:
    """One tier's comparable outputs for a (algorithm, graph, seed)."""

    tier: str
    colors: Dict[tuple, int]
    rounds: int
    supersteps: int
    metrics: Dict[str, int]
    #: Per-superstep ``{state_char: count}`` histograms (None: no
    #: telemetry on this tier).
    state_histograms: Optional[List[Dict[str, int]]] = None
    #: Per-superstep cumulative done-node counts (None: no telemetry).
    done_per_superstep: Optional[List[int]] = None

    @property
    def digest(self) -> str:
        """Stable digest of the coloring (order-independent)."""
        return colors_digest(self.colors)


@dataclass
class Divergence:
    """One field on which a tier disagrees with the baseline tier."""

    tier: str
    baseline: str
    field: str
    baseline_value: object
    value: object
    #: First superstep at which the runs observably differ, when the
    #: telemetry streams pin it down (None otherwise).
    superstep: Optional[int] = None

    def __str__(self) -> str:
        where = (
            f" (first diverging superstep: {self.superstep})"
            if self.superstep is not None
            else ""
        )
        return (
            f"{self.tier} vs {self.baseline}: {self.field} "
            f"{self.value!r} != {self.baseline_value!r}{where}"
        )


@dataclass
class DiffReport:
    """Outcome of one differential run across tiers."""

    algorithm: str
    seed: int
    num_nodes: int
    num_edges: int
    runs: Dict[str, TierRun] = field(default_factory=dict)
    #: tier -> human-readable reason it did not run on this host.
    skipped: Dict[str, str] = field(default_factory=dict)
    #: tier -> "ExcType: message" for tiers that raised.
    errors: Dict[str, str] = field(default_factory=dict)
    divergences: List[Divergence] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when every tier that ran agreed with the baseline."""
        return not self.divergences and not self.errors

    @property
    def first_divergence_superstep(self) -> Optional[int]:
        """Earliest pinned-down diverging superstep across all fields."""
        steps = [d.superstep for d in self.divergences if d.superstep is not None]
        return min(steps) if steps else None

    def summary(self) -> str:
        """Multi-line human-readable report."""
        lines = [
            f"differential check: algorithm={self.algorithm} seed={self.seed} "
            f"n={self.num_nodes} m={self.num_edges}"
        ]
        for tier, run in self.runs.items():
            lines.append(
                f"  {tier:<9} rounds={run.rounds} supersteps={run.supersteps} "
                f"colors={len(run.colors)} digest={run.digest[:12]}"
            )
        for tier, reason in self.skipped.items():
            lines.append(f"  {tier:<9} SKIPPED: {reason}")
        for tier, err in self.errors.items():
            lines.append(f"  {tier:<9} ERROR: {err}")
        if self.divergences:
            lines.append(f"  {len(self.divergences)} divergence(s):")
            lines.extend(f"    {d}" for d in self.divergences)
        else:
            lines.append("  all tiers agree" if not self.errors else "  tier errors")
        return "\n".join(lines)


def colors_digest(colors: Dict[tuple, int]) -> str:
    """Order-independent blake2b digest of an edge/arc coloring."""
    h = hashlib.blake2b(digest_size=16)
    for key, color in sorted(colors.items()):
        h.update(repr((key, color)).encode())
    return h.hexdigest()


def available_tiers(tiers: Optional[Sequence[str]] = None) -> Tuple[List[str], Dict[str, str]]:
    """Split a tier request into (runnable, {tier: skip reason}).

    ``None`` means all tiers.  Unknown names raise.
    """
    requested = list(tiers) if tiers is not None else list(TIERS)
    unknown = [t for t in requested if t not in TIERS]
    if unknown:
        raise ConfigurationError(
            f"unknown tier(s) {unknown}; expected a subset of {TIERS}"
        )
    skipped: Dict[str, str] = {}
    if "parallel" in requested and "fork" not in mp.get_all_start_methods():
        requested.remove("parallel")
        skipped["parallel"] = "fork start method unavailable on this platform"
    if "numba" in requested:
        from repro.core.kernels_numba import numba_available

        if not numba_available():
            requested.remove("numba")
            skipped["numba"] = "numba is not installed"
    if "sharded" in requested:
        from repro.graphs.shards import sharded_available

        if not sharded_available():
            requested.remove("sharded")
            skipped["sharded"] = "no writable spill directory for shard memmaps"
    return requested, skipped


def _alg1_factory(node_id: int) -> EdgeColoringProgram:
    return EdgeColoringProgram(node_id)


def run_tier(
    tier: str,
    graph: Graph,
    *,
    algorithm: str = "alg1",
    seed: int = 0,
    workers: int = 2,
    max_delay: int = 3,
) -> TierRun:
    """Execute one tier on ``graph`` and return its comparable outputs.

    ``graph`` is always the *undirected* topology; for ``dima2ed`` the
    symmetric closure is taken internally (matching
    :func:`~repro.core.dima2ed.strong_color_arcs` on
    ``graph.to_directed()``).
    """
    if algorithm not in ALGORITHMS:
        raise ConfigurationError(
            f"unknown algorithm {algorithm!r}; expected one of {ALGORITHMS}"
        )
    if tier in _WRAPPER_TIERS:
        return _run_wrapper_tier(tier, graph, algorithm, seed)
    if tier == "parallel":
        return _run_parallel_tier(graph, algorithm, seed, workers)
    if tier == "async":
        return _run_async_tier(graph, algorithm, seed, max_delay)
    raise ConfigurationError(f"unknown tier {tier!r}; expected one of {TIERS}")


def _run_wrapper_tier(tier: str, graph: Graph, algorithm: str, seed: int) -> TierRun:
    kwargs = {
        "general": dict(fastpath=False, compute="pernode"),
        "fastpath": dict(fastpath=True, compute="pernode"),
        "vectorized": dict(compute="vectorized"),
        "numba": dict(compute="numba"),
        "sharded": dict(compute="sharded"),
    }[tier]
    telemetry = AutomatonTelemetry()
    if algorithm == "alg1":
        result = color_edges(graph, seed=seed, telemetry=telemetry, **kwargs)
    else:
        result = strong_color_arcs(
            coerce_graph(graph).to_directed(), seed=seed, telemetry=telemetry, **kwargs
        )
    return TierRun(
        tier=tier,
        colors=dict(result.colors),
        rounds=result.rounds,
        supersteps=result.supersteps,
        metrics=result.metrics.as_dict(),
        state_histograms=list(telemetry.state_histograms),
        done_per_superstep=list(telemetry.done_per_superstep),
    )


def _engine_setup(graph: Graph, algorithm: str):
    """(work graph, inverse mapping, factory, superstep budget)."""
    graph = coerce_graph(graph)
    work, mapping = relabel_for_engine(graph)
    inverse = {new: old for old, new in mapping.items()}
    delta = max((work.degree(u) for u in work), default=0)
    if algorithm == "alg1":
        budget = default_round_budget(delta) * PHASES_PER_ROUND
        return work, inverse, _alg1_factory, budget
    digraph = work.to_directed()

    def factory(node_id: int) -> DiMa2EdProgram:
        return DiMa2EdProgram(
            node_id,
            out_neighbors=list(digraph.successors(node_id)),
            in_neighbors=list(digraph.predecessors(node_id)),
        )

    return work, inverse, factory, default_strong_round_budget(delta) * PHASES_PER_ROUND


def _collect(run, inverse, algorithm: str) -> Dict[tuple, int]:
    if algorithm == "alg1":
        return _collect_edge_colors(run, inverse, True)
    return _collect_arc_colors(run, inverse, True)


def _run_parallel_tier(graph: Graph, algorithm: str, seed: int, workers: int) -> TierRun:
    if "fork" not in mp.get_all_start_methods():
        raise TierSkipped("fork start method unavailable on this platform")
    work, inverse, factory, budget = _engine_setup(graph, algorithm)
    telemetry = AutomatonTelemetry()
    run = ParallelEngine(
        work,
        factory,
        seed=seed,
        workers=workers,
        max_supersteps=budget,
        telemetry=telemetry,
    ).run()
    return TierRun(
        tier="parallel",
        colors=_collect(run, inverse, algorithm),
        rounds=math.ceil(run.supersteps / PHASES_PER_ROUND),
        supersteps=run.supersteps,
        metrics=run.metrics.as_dict(),
        state_histograms=list(telemetry.state_histograms),
        done_per_superstep=list(telemetry.done_per_superstep),
    )


def _run_async_tier(graph: Graph, algorithm: str, seed: int, max_delay: int) -> TierRun:
    work, inverse, factory, budget = _engine_setup(graph, algorithm)
    run = AsyncEngine(
        work, factory, seed=seed, max_delay=max_delay, max_pulses=budget
    ).run()
    return TierRun(
        tier="async",
        colors=_collect(run, inverse, algorithm),
        rounds=math.ceil(run.pulses / PHASES_PER_ROUND),
        supersteps=run.pulses,
        metrics=run.metrics.as_dict(),
    )


def _first_telemetry_divergence(base: TierRun, other: TierRun) -> Optional[int]:
    """First superstep where the telemetry streams disagree, if any."""
    if base.state_histograms is None or other.state_histograms is None:
        return None
    for i, (a, b) in enumerate(zip(base.state_histograms, other.state_histograms)):
        if a != b:
            return i
    for i, (a, b) in enumerate(
        zip(base.done_per_superstep or (), other.done_per_superstep or ())
    ):
        if a != b:
            return i
    short = min(len(base.state_histograms), len(other.state_histograms))
    if len(base.state_histograms) != len(other.state_histograms):
        return short
    return None


def _diff_runs(base: TierRun, other: TierRun) -> List[Divergence]:
    """Every comparable field on which ``other`` disagrees with ``base``."""
    out: List[Divergence] = []
    pinned = _first_telemetry_divergence(base, other)

    def record(field_name: str, bval, oval, superstep=None):
        out.append(
            Divergence(
                tier=other.tier,
                baseline=base.tier,
                field=field_name,
                baseline_value=bval,
                value=oval,
                superstep=superstep,
            )
        )

    if other.colors != base.colors:
        differing = sorted(
            set(base.colors.items()) ^ set(other.colors.items())
        )
        record(
            "colors",
            base.digest,
            other.digest,
            superstep=pinned,
        )
        # Attach the first few conflicting entries for the human reader.
        for key in sorted({k for k, _ in differing})[:3]:
            record(
                f"colors[{key}]",
                base.colors.get(key),
                other.colors.get(key),
                superstep=pinned,
            )
    if other.rounds != base.rounds:
        record("rounds", base.rounds, other.rounds, superstep=pinned)
    if other.supersteps != base.supersteps:
        record("supersteps", base.supersteps, other.supersteps, superstep=pinned)
    fields = _ASYNC_METRIC_FIELDS if other.tier == "async" else _METRIC_FIELDS
    for name in fields:
        if other.metrics.get(name) != base.metrics.get(name):
            record(
                f"metrics.{name}",
                base.metrics.get(name),
                other.metrics.get(name),
                superstep=pinned,
            )
    if pinned is not None and not out:
        # Telemetry disagreed even though every end-of-run field agreed —
        # the runs took different paths to the same answer.  Still a
        # divergence: the tiers are documented as bit-identical per
        # superstep, not merely confluent.
        record(
            "telemetry",
            (base.state_histograms or [None] * (pinned + 1))[pinned]
            if pinned < len(base.state_histograms or ())
            else None,
            (other.state_histograms or [None] * (pinned + 1))[pinned]
            if pinned < len(other.state_histograms or ())
            else None,
            superstep=pinned,
        )
    return out


def diff_tiers(
    graph: Graph,
    *,
    algorithm: str = "alg1",
    seed: int = 0,
    tiers: Optional[Sequence[str]] = None,
    workers: int = 2,
    max_delay: int = 3,
) -> DiffReport:
    """Run ``tiers`` on one (algorithm, graph, seed) and diff the results.

    The first runnable tier in canonical order (``general`` whenever
    requested) is the baseline; every other tier is diffed against it
    field by field.  A tier that raises is recorded under ``errors`` —
    an exception on one tier while the baseline completes is itself an
    equivalence failure, so ``report.ok`` is False.
    """
    if algorithm not in ALGORITHMS:
        raise ConfigurationError(
            f"unknown algorithm {algorithm!r}; expected one of {ALGORITHMS}"
        )
    graph = coerce_graph(graph)
    runnable, skipped = available_tiers(tiers)
    runnable = [t for t in TIERS if t in runnable]  # canonical order
    report = DiffReport(
        algorithm=algorithm,
        seed=seed,
        num_nodes=graph.num_nodes,
        num_edges=graph.num_edges,
        skipped=skipped,
    )
    for tier in runnable:
        try:
            report.runs[tier] = run_tier(
                tier,
                graph,
                algorithm=algorithm,
                seed=seed,
                workers=workers,
                max_delay=max_delay,
            )
        except TierSkipped as exc:  # pragma: no cover - raced availability
            report.skipped[tier] = str(exc)
        except Exception as exc:  # noqa: BLE001 - any tier crash is a finding
            report.errors[tier] = f"{type(exc).__name__}: {exc}"
    if not report.runs:
        return report
    baseline = next(iter(report.runs.values()))
    for tier, run in report.runs.items():
        if run is baseline:
            continue
        report.divergences.extend(_diff_runs(baseline, run))
    return report
