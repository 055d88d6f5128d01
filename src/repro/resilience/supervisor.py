"""Deadline supervision with graceful degradation for Algorithm 1 runs.

:func:`color_edges` answers "color this graph" with an all-or-nothing
contract: it either converges inside its round budget or raises
:class:`~repro.errors.ConvergenceError`, and a caller with a wall-clock
deadline has no handle to stop it early.  The supervisor wraps the same
per-node wiring in a watchdog loop that

* runs the engine in bounded *slices*, checkpointing through
  :mod:`repro.resilience.checkpoint` so each leg resumes the previous
  one bit-identically (an uninterrupted run and a sliced run produce
  the same coloring, rounds, and metrics);
* enforces a wall-clock budget and a computation-round budget between
  legs, and watches the telemetry convergence curve for a *plateau*
  (no new edge colored over a configured window — the signature of a
  partitioned or livelocked network that will never finish);
* on any trip, degrades gracefully instead of raising: it collects
  whatever the nodes have agreed on so far and judges it with
  :func:`repro.verify.partial.check_partial_edge_coloring`, returning a
  **verified partial coloring** with the violation list attached.

Budgets are checked at slice boundaries, so the wall-clock deadline has
a granularity of one slice (``SupervisionPolicy.slice_rounds``).

The supervisor always drives the per-node engine cores (general or fast
path) — the slice/restore machinery is exactly the checkpoint contract
those cores implement; use plain :func:`color_edges` for batched bulk
runs that need no supervision.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace
from typing import Dict, FrozenSet, List, Optional, Sequence, Union

from repro.core._coerce import coerce_graph
from repro.core.batched import prepare_run
from repro.core.edge_coloring import ALG1, EdgeColoringParams
from repro.core.states import PHASES_PER_ROUND
from repro.errors import ConfigurationError
from repro.graphs.adjacency import Graph
from repro.resilience.checkpoint import (
    Checkpointer,
    CheckpointStore,
    resume_engine,
)
from repro.runtime.engine import SynchronousEngine
from repro.runtime.metrics import RunMetrics
from repro.runtime.observe import AutomatonTelemetry
from repro.runtime.transport import TransportConfig
from repro.types import Color, Edge
from repro.verify.partial import check_partial_edge_coloring

__all__ = [
    "SupervisionPolicy",
    "SupervisedColoring",
    "supervise_edge_coloring",
]

#: Outcomes a supervised run can end in.
OUTCOMES = ("completed", "deadline", "round_budget", "plateau")


@dataclass(frozen=True)
class SupervisionPolicy:
    """Budgets and trip-wires for :func:`supervise_edge_coloring`.

    All windows are in the paper's computation rounds (4 supersteps
    each); the supervisor converts to raw engine supersteps internally,
    including the synchronizer stretch when a transport is in play.
    """

    #: Wall-clock budget in seconds (None = unlimited).  Checked at
    #: slice boundaries — granularity is one slice.
    wall_clock_budget: Optional[float] = None
    #: Computation-round budget (None derives ~O(Δ) like
    #: :func:`default_round_budget`).  Exhausting it degrades to a
    #: partial coloring instead of raising ConvergenceError.
    round_budget: Optional[int] = None
    #: Rounds per engine leg between watchdog checks.
    slice_rounds: int = 16
    #: Checkpoint period, in rounds (the final state of every leg is
    #: captured regardless, so restarts never lose a whole slice).
    checkpoint_every_rounds: int = 8
    #: Trip "plateau" when no new edge gets colored for this many
    #: rounds (None disables plateau detection).
    plateau_rounds: Optional[int] = 64
    #: Retransmit jitter applied when ``transport=True`` picks the
    #: default config (a supervised run wants decorrelated retries).
    transport_jitter: float = 0.25

    def __post_init__(self) -> None:
        if self.wall_clock_budget is not None and self.wall_clock_budget <= 0:
            raise ConfigurationError(
                f"wall_clock_budget must be > 0, got {self.wall_clock_budget}"
            )
        if self.round_budget is not None and self.round_budget < 1:
            raise ConfigurationError(
                f"round_budget must be >= 1, got {self.round_budget}"
            )
        if self.slice_rounds < 1:
            raise ConfigurationError(
                f"slice_rounds must be >= 1, got {self.slice_rounds}"
            )
        if self.checkpoint_every_rounds < 1:
            raise ConfigurationError(
                f"checkpoint_every_rounds must be >= 1, "
                f"got {self.checkpoint_every_rounds}"
            )
        if self.plateau_rounds is not None and self.plateau_rounds < 1:
            raise ConfigurationError(
                f"plateau_rounds must be >= 1, got {self.plateau_rounds}"
            )
        if not 0.0 <= self.transport_jitter < 1.0:
            raise ConfigurationError(
                f"transport_jitter must be in [0, 1), got {self.transport_jitter}"
            )


@dataclass
class SupervisedColoring:
    """Outcome of a supervised run — always a *verified* answer.

    ``outcome`` is ``"completed"`` when every edge got colored inside
    the budgets, else the trip-wire that fired (``"deadline"``,
    ``"round_budget"``, ``"plateau"``).  ``colors`` holds whatever both
    endpoints agreed on either way; ``violations`` is the partial-
    coloring verdict over the surviving subgraph (empty = verified).
    """

    outcome: str
    colors: Dict[Edge, Color]
    rounds: int
    supersteps: int
    metrics: RunMetrics
    seed: int
    delta: int
    crashed: FrozenSet[int] = frozenset()
    #: Partial-coloring violations on the surviving subgraph (empty
    #: means the answer is verified; completeness is only required of
    #: completed runs).
    violations: List[str] = field(default_factory=list)
    #: Fraction of total edges colored when the run stopped.
    colored_fraction: float = 0.0
    #: Engine legs executed (1 = never sliced).
    legs: int = 1
    #: Checkpoints captured along the way.
    checkpoints_taken: int = 0
    wall_seconds: float = 0.0

    @property
    def completed(self) -> bool:
        return self.outcome == "completed"

    @property
    def verified(self) -> bool:
        """True when the (possibly partial) coloring passed verification."""
        return not self.violations

    @property
    def num_colors(self) -> int:
        return len(set(self.colors.values()))


def supervise_edge_coloring(
    graph: Graph,
    *,
    seed: int = 0,
    params: Optional[EdgeColoringParams] = None,
    faults=None,
    transport: Union[bool, TransportConfig, None] = None,
    policy: Optional[SupervisionPolicy] = None,
    monitors: Optional[Sequence] = None,
    tracer=None,
    store: Optional[CheckpointStore] = None,
    publisher=None,
    registry=None,
) -> SupervisedColoring:
    """Run Algorithm 1 under deadline supervision.

    Accepts the same run configuration as :func:`color_edges` (per-node
    cores only) plus a :class:`SupervisionPolicy`; never raises
    :class:`~repro.errors.ConvergenceError` — budget exhaustion and
    plateaus degrade into a verified partial coloring instead.  Pass a
    ``store`` (optionally disk-backed) to keep the checkpoint trail; by
    default an in-memory ring of 2 is used.

    A ``publisher`` (:class:`repro.obs.live.SnapshotPublisher`) rides
    through every leg's engine and additionally receives a forced
    supervisor snapshot at each slice boundary — leg number, deadline
    remaining, plateau countdown — which is what ``repro top`` renders.
    A ``registry`` (:class:`repro.obs.registry.MetricsRegistry`) gets
    the finished run's counters folded in, labelled by outcome.
    Neither changes the result.
    """
    policy = policy or SupervisionPolicy()
    params = params or EdgeColoringParams()
    if policy.round_budget is not None:
        params = replace(params, max_rounds=policy.round_budget)
    if transport is True and policy.transport_jitter:
        # The bare default config keeps jitter off for bit-compat with
        # unsupervised runs; a supervised run opts into decorrelation.
        transport = TransportConfig(
            jitter=policy.transport_jitter, jitter_seed=seed
        )
    graph = coerce_graph(graph)
    setup = prepare_run(ALG1, graph, params, transport)

    # Convert the round-denominated policy into raw engine supersteps.
    # Under a transport each algorithm superstep costs several pulses
    # plus a detection margin; the setup's budget already encodes that
    # stretch, so scale every window by the same total/app ratio.
    total_limit = setup.max_supersteps
    ratio = total_limit / (setup.rounds * PHASES_PER_ROUND)
    to_engine = lambda rounds: max(
        PHASES_PER_ROUND, math.ceil(rounds * PHASES_PER_ROUND * ratio)
    )
    slice_supersteps = to_engine(policy.slice_rounds)
    plateau_window = (
        to_engine(policy.plateau_rounds)
        if policy.plateau_rounds is not None
        else None
    )

    store = store if store is not None else CheckpointStore(keep=2)
    checkpointer = Checkpointer(
        to_engine(policy.checkpoint_every_rounds), store
    )
    telemetry = AutomatonTelemetry()

    started = time.monotonic()
    limit = min(total_limit, slice_supersteps)
    engine = SynchronousEngine(
        setup.work,
        setup.factory,
        seed=seed,
        max_supersteps=limit,
        strict=params.strict,
        faults=faults,
        tracer=tracer,
        telemetry=telemetry,
        monitors=monitors,
        checkpointer=checkpointer,
        publisher=publisher,
    )
    run = engine.run()
    legs = 1
    outcome = "completed"

    while not run.completed:
        # The thaw path replaces the engine's telemetry object with the
        # restored copy; always read the curve off the engine just run.
        telemetry = engine.telemetry
        elapsed = time.monotonic() - started
        if publisher is not None:
            snap = {
                "superstep": run.supersteps,
                "leg": legs,
                "messages_sent": run.metrics.messages_sent,
            }
            if telemetry is not None:
                snap["colored_fraction"] = telemetry.current_colored_fraction()
                remaining = _plateau_remaining(
                    telemetry.done_per_superstep, plateau_window
                )
                if remaining is not None:
                    snap["plateau_remaining"] = remaining
            if policy.wall_clock_budget is not None:
                snap["deadline_remaining_s"] = max(
                    0.0, policy.wall_clock_budget - elapsed
                )
            publisher.publish(snap, force=True)
        if (
            policy.wall_clock_budget is not None
            and elapsed >= policy.wall_clock_budget
        ):
            outcome = "deadline"
            break
        if limit >= total_limit:
            outcome = "round_budget"
            break
        if plateau_window is not None and telemetry is not None:
            curve = telemetry.done_per_superstep
            if (
                len(curve) > plateau_window
                and curve[-1] == curve[-1 - plateau_window]
            ):
                outcome = "plateau"
                break
        checkpoint = store.latest()
        assert checkpoint is not None, "budget-exhaustion capture missing"
        limit = min(total_limit, limit + slice_supersteps)
        engine = resume_engine(
            checkpoint,
            setup.work,
            max_supersteps=limit,
            tracer=tracer,
            checkpointer=checkpointer,
            publisher=publisher,
        )
        run = engine.run()
        legs += 1

    telemetry = engine.telemetry
    completed = outcome == "completed"
    # Degraded (and faulty) runs legitimately leave endpoints
    # half-agreed, so collection never raises; the partial checker
    # below is the arbiter of what survived.
    colors, supersteps, crashed = setup.collect(run, check_consistency=False)
    violations = check_partial_edge_coloring(
        graph, colors, crashed, complete=completed
    )

    fraction = (
        telemetry.colored_fraction()[-1]
        if telemetry is not None and telemetry.done_per_superstep
        else (1.0 if completed else 0.0)
    )

    result = SupervisedColoring(
        outcome=outcome,
        colors=colors,
        rounds=math.ceil(supersteps / PHASES_PER_ROUND),
        supersteps=supersteps,
        metrics=run.metrics,
        seed=seed,
        delta=setup.delta,
        crashed=crashed,
        violations=violations,
        colored_fraction=fraction,
        legs=legs,
        checkpoints_taken=checkpointer.captures,
        wall_seconds=time.monotonic() - started,
    )
    if publisher is not None:
        # Flag the run finished without closing the publisher — a chaos
        # campaign reuses one publisher across many supervised runs.
        publisher.publish(
            {
                "superstep": supersteps,
                "leg": legs,
                "outcome": outcome,
                "colored_fraction": fraction,
                "messages_sent": run.metrics.messages_sent,
                "final": True,
            },
            force=True,
        )
    if registry is not None:
        _observe_supervised(registry, result)
    return result


def _plateau_remaining(curve, window) -> Optional[int]:
    """Supersteps of continued stall before the plateau trip fires."""
    if window is None or not curve:
        return None
    last = curve[-1]
    stalled = 0
    for value in reversed(curve):
        if value != last:
            break
        stalled += 1
    return max(0, window - (stalled - 1))


def _observe_supervised(registry, result: SupervisedColoring) -> None:
    """Fold a finished supervised run into a metrics registry."""
    from repro.obs.registry import observe_run_metrics

    labels = {"outcome": result.outcome}
    observe_run_metrics(
        registry,
        result.metrics,
        labels,
        runs_metric="repro_supervised_runs",
    )
    registry.counter(
        "repro_supervised_legs",
        "Engine legs executed across supervised runs",
        ("outcome",),
    ).add(result.legs, **labels)
    registry.counter(
        "repro_supervised_checkpoints",
        "Checkpoints captured across supervised runs",
        ("outcome",),
    ).add(result.checkpoints_taken, **labels)
    registry.histogram(
        "repro_supervised_wall_seconds",
        "Wall-clock duration of supervised runs",
        ("outcome",),
    ).observe_labels(result.wall_seconds, **labels)
    registry.gauge(
        "repro_supervised_colored_fraction",
        "Colored fraction at the end of the last supervised run",
        ("outcome",),
    ).set_labels(result.colored_fraction, **labels)
