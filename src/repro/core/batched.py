"""The run path Algorithm 1 and DiMa2Ed share, and its kernel dispatch.

The two algorithms are one matching-discovery automaton with different
per-node rules.  An :class:`AlgorithmRow` holds only what differs; the
rows (:data:`repro.core.edge_coloring.ALG1`,
:data:`repro.core.dima2ed.DIMA2ED`) sit beside their programs and are
passed in, so this module imports no algorithm module.
:func:`run_algorithm` does everything else, on either core;
:func:`prepare_run` is its per-node half, for the callers that drive
their own engine (the supervisor, the differential harness's async tier).

The automaton is lockstep: in every superstep every live node runs the
same phase of the C/I/L/R/W/U/E/D machine, so one whole-population
kernel family per algorithm executes it — the fused plane kernels of
:mod:`repro.core.vectorized` and their disk-backed subclass
(:mod:`repro.core.sharded`).  Whether a run may use them, and which one
it gets:

* :func:`batched_eligible` — the gates (strict model, no faults,
  transport, tracer, monitors or recovery extensions); anything else
  runs the per-node programs, silently, with identical results;
  ``compute="general"`` never uses a kernel;
* :func:`select_backend` — which member of the family a ``compute``
  mode names;
* :func:`run_kernel` — build that kernel from one table keyed by
  ``(algorithm, backend)``, run it on its engine and hand back the
  assignments in the caller's labels.

Like networkx's ``bipartite_edge_coloring(strategy=...)``, one entry
point takes a strategy string that selects exactly one implementation.
"""

from __future__ import annotations

import importlib
import math
from dataclasses import dataclass
from typing import Any, Callable, Dict, FrozenSet, Optional, Tuple, Union

import numpy as np

from repro.core._coerce import relabel_for_engine
from repro.core.states import PHASES_PER_ROUND
from repro.errors import ConfigurationError, ConvergenceError
from repro.graphs.adjacency import Graph
from repro.runtime.engine import BatchedEngine, RunResult, SynchronousEngine
from repro.runtime.node import NodeProgram
from repro.runtime.transport import (
    TransportConfig,
    collect_transport_stats,
    with_reliable_transport,
)

__all__ = [
    "COMPUTE_MODES",
    "AlgorithmRow",
    "RunSetup",
    "batched_eligible",
    "prepare_run",
    "run_algorithm",
    "run_kernel",
    "select_backend",
]

#: The ``compute=`` values the algorithm wrappers accept.
COMPUTE_MODES = ("auto", "sharded", "general")

#: ``(algorithm, backend) -> (module, kernel class)``.  Resolved on use,
#: so importing the dispatch code pulls in no kernel module.
_KERNELS: Dict[Tuple[str, str], Tuple[str, str]] = {
    ("alg1", "vectorized"): ("repro.core.vectorized", "Alg1VecKernel"),
    ("alg1", "sharded"): ("repro.core.sharded", "Alg1ShardKernel"),
    ("dima2ed", "vectorized"): ("repro.core.vectorized", "DiMa2EdVecKernel"),
    ("dima2ed", "sharded"): ("repro.core.sharded", "DiMa2EdShardKernel"),
}


@dataclass(frozen=True)
class AlgorithmRow:
    """What differs between the automaton algorithms on the run path."""

    #: The algorithm's key in the kernel table.
    name: str
    #: What a run computes, for :class:`ConvergenceError` messages.
    noun: str
    #: Δ -> the round budget when ``params.max_rounds`` is None.
    default_rounds: Callable[[int], int]
    #: ``(node_id, work, params) -> program`` on the relabelled topology.
    program: Callable[[int, Graph, Any], NodeProgram]
    #: The ``params`` fields the kernel constructor takes.
    kernel_params: Tuple[str, ...]
    #: ``(programs or run, inverse, check_consistency) -> colors``.
    collect: Callable[[Any, Dict[int, Any], bool], Dict[tuple, int]]
    #: Records are arcs ``(tail, head)``, not edges to canonicalise.
    arcs: bool
    #: Built from colors, rounds, supersteps, metrics, seed, delta, crashed.
    result: type


@dataclass(frozen=True)
class RunSetup:
    """One per-node run's wiring; see :func:`prepare_run`."""

    row: AlgorithmRow
    #: The topology relabelled to ``0 .. n-1``, and back to its labels
    #: (``range(n)`` when the ids already are ``0 .. n-1``).
    work: Graph
    inverse: Union[Dict[int, Any], range]
    delta: int
    #: The validated computation-round budget.
    rounds: int
    transport: Optional[TransportConfig]
    #: The program factory, behind the transport if there is one.
    factory: Callable[[int], NodeProgram]
    #: ``rounds`` of supersteps, stretched by the transport's synchronizer.
    max_supersteps: int

    def collect(
        self, run, check_consistency: bool
    ) -> Tuple[Dict[tuple, int], int, FrozenSet[Any]]:
        """``(colors, supersteps, crashed)`` of a finished run.

        Under a transport this folds its counters into ``run.metrics``
        (call it once per run) and counts supersteps in synchronizer
        pulses, the algorithm's own supersteps, so rounds stay
        comparable to bare runs.
        """
        programs, supersteps = run.programs, run.supersteps
        if self.transport is not None:
            collect_transport_stats(programs).fold_into(run.metrics)
            supersteps = max((p.pulse + 1 for p in programs), default=0)
            programs = [p.inner for p in programs]
        colors = self.row.collect(programs, self.inverse, check_consistency)
        return colors, supersteps, frozenset(self.inverse[u] for u in run.crashed)


def prepare_run(
    row: AlgorithmRow,
    topology: Graph,
    params,
    transport: Union[bool, TransportConfig, None] = None,
) -> RunSetup:
    """Relabel the undirected ``topology`` and wire a per-node run of ``row``.

    Raises :class:`ConfigurationError` when the round budget
    (``params.max_rounds``, else the row's default for Δ) is below 1 or
    ``transport`` is neither a bool nor a :class:`TransportConfig`.
    """
    if topology.edge_arrays() is not None:
        # Array-built: the ids are 0 .. n-1 in insertion order already.
        work, inverse = topology, range(topology.num_nodes)
    else:
        work, mapping = relabel_for_engine(topology)
        inverse = {new: old for old, new in mapping.items()}
    # Δ from the CSR degree array — to_csr() is cached on the graph, so
    # the engine reuses the same arrays.
    indptr, _ = work.to_csr()
    delta = int(np.diff(indptr).max()) if work.num_nodes else 0
    rounds = params.max_rounds
    if rounds is None:
        rounds = row.default_rounds(delta)
    if rounds < 1:
        raise ConfigurationError(f"max_rounds must be >= 1, got {rounds}")
    if transport is True:
        transport = TransportConfig()
    elif transport is False:
        transport = None
    elif transport is not None and not isinstance(transport, TransportConfig):
        raise ConfigurationError(
            f"transport must be a bool or TransportConfig, got {transport!r}"
        )

    def factory(node_id: int) -> NodeProgram:
        return row.program(node_id, work, params)

    max_supersteps = rounds * PHASES_PER_ROUND
    if transport is not None:
        factory = with_reliable_transport(factory, transport)
        max_supersteps = transport.supersteps_budget(max_supersteps)
    return RunSetup(
        row=row,
        work=work,
        inverse=inverse,
        delta=delta,
        rounds=rounds,
        transport=transport,
        factory=factory,
        max_supersteps=max_supersteps,
    )


def run_algorithm(
    row: AlgorithmRow,
    topology: Graph,
    params,
    *,
    seed: int = 0,
    faults=None,
    transport: Union[bool, TransportConfig, None] = None,
    tracer=None,
    telemetry=None,
    profiler=None,
    check_consistency: bool = True,
    compute: str = "auto",
    monitors=None,
    publisher=None,
    shards: int = 4,
    spill_dir=None,
):
    """Run ``row``'s algorithm over the undirected ``topology``.

    Takes the algorithm wrappers' keywords (documented on
    :func:`repro.core.edge_coloring.color_edges`) and returns a
    ``row.result``: from a whole-population kernel when the run is
    eligible, else from the per-node programs on
    :class:`SynchronousEngine`.  Raises :class:`ConvergenceError` when
    the round budget runs out.
    """
    setup = prepare_run(row, topology, params, transport)
    kernel = batched_eligible(
        compute=compute,
        strict=params.strict,
        faults=faults,
        transport=setup.transport,
        tracer=tracer,
        recovery=params.recovery,
        # DiMa2Ed has no defensive mode.
        defensive=getattr(params, "defensive", False),
        monitors=monitors,
    )
    if kernel:
        run, records = run_kernel(
            row.name,
            select_backend(compute),
            setup.work,
            setup.inverse,
            {name: getattr(params, name) for name in row.kernel_params},
            seed=seed,
            max_supersteps=setup.max_supersteps,
            telemetry=telemetry,
            profiler=profiler,
            publisher=publisher,
            shards=shards,
            spill_dir=spill_dir,
        )
    else:
        run = SynchronousEngine(
            setup.work,
            setup.factory,
            seed=seed,
            max_supersteps=setup.max_supersteps,
            strict=params.strict,
            faults=faults,
            tracer=tracer,
            telemetry=telemetry,
            profiler=profiler,
            monitors=monitors,
            publisher=publisher,
        ).run()
    if not run.completed:
        raise ConvergenceError(
            f"{row.noun} did not terminate within {setup.rounds} rounds "
            f"(n={topology.num_nodes}, Δ={setup.delta}, seed={seed})",
            rounds=setup.rounds,
        )
    if kernel:
        # One record per edge or arc (the kernel writes each pairing
        # once), so endpoint consistency holds by construction;
        # canonicalize edges in bulk instead of per-record tuple work.
        s_arr, t_arr, c_arr = records
        if not row.arcs:
            s_arr, t_arr = np.minimum(s_arr, t_arr), np.maximum(s_arr, t_arr)
        colors = dict(zip(zip(s_arr.tolist(), t_arr.tolist()), c_arr.tolist()))
        supersteps, crashed = run.supersteps, frozenset()
    else:
        colors, supersteps, crashed = setup.collect(run, check_consistency)
    return row.result(
        colors=colors,
        rounds=math.ceil(supersteps / PHASES_PER_ROUND),
        supersteps=supersteps,
        metrics=run.metrics,
        seed=seed,
        delta=setup.delta,
        crashed=crashed,
    )


def select_backend(compute: str) -> str:
    """Which kernel an *eligible* run should instantiate.

    ``"sharded"`` names the disk-backed, memory-bounded tier
    (:mod:`repro.core.sharded`) — opt-in only: ``"auto"`` never selects
    it, because it trades wall time for bounded residency.  ``"auto"``
    takes the fused plane kernels (:mod:`repro.core.vectorized`).
    """
    return "sharded" if compute == "sharded" else "vectorized"


def batched_eligible(
    *,
    compute: str,
    strict: bool,
    faults: object,
    transport: object,
    tracer: object,
    recovery: bool,
    defensive: bool = False,
    monitors: object = None,
) -> bool:
    """Whether the algorithm wrappers may select a whole-population kernel.

    ``compute`` is the wrapper knob, one of :data:`COMPUTE_MODES`:
    ``"auto"`` (the vectorized kernels), ``"sharded"`` (pin the
    disk-backed kernels — same gates, and ineligible configurations
    still fall back silently to the per-node loop, results identical
    either way) and ``"general"`` (never a kernel: the per-node
    programs on :class:`SynchronousEngine`).  Unknown modes raise
    regardless of the other arguments.  Which kernel an eligible run
    instantiates is :func:`select_backend`'s decision.

    The gates: strict model, no fault filter, no transport, no tracer
    at all (a kernel run emits no trace events, so even a sampled
    tracer would observe a different stream), and none of the
    defensive/recovery extensions.  Invariant monitors force the
    per-node path too: they audit the engine's per-superstep world,
    which the kernels do not materialize.
    """
    if compute not in COMPUTE_MODES:
        raise ConfigurationError(
            f"compute must be one of {COMPUTE_MODES}, got {compute!r}"
        )
    if compute == "general":
        return False
    return (
        strict
        and faults is None
        and transport is None
        and tracer is None
        and not recovery
        and not defensive
        and not monitors
    )


def run_kernel(
    algorithm: str,
    backend: str,
    work: Graph,
    inverse: Union[Dict[int, Any], range],
    kernel_args: Dict[str, object],
    *,
    seed: int,
    max_supersteps: int,
    telemetry=None,
    profiler=None,
    publisher=None,
    shards: int = 4,
    spill_dir=None,
) -> Tuple[RunResult, Tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Run ``algorithm`` on ``backend``'s kernel over ``work``.

    ``work`` carries contiguous ids; ``inverse`` maps them back to the
    caller's labels.  ``kernel_args`` go to the kernel constructor.
    ``shards`` and ``spill_dir`` configure the sharded backend only.
    Returns ``(run, (s, t, c))``: the engine's result and one
    ``(source, target, color)`` record per colored edge or arc, in
    acceptance order, with ``s``/``t`` in the caller's labels.
    """
    module, name = _KERNELS[(algorithm, backend)]
    kernel = getattr(importlib.import_module(module), name)(**kernel_args)
    engine_args = dict(
        seed=seed,
        max_supersteps=max_supersteps,
        telemetry=telemetry,
        profiler=profiler,
        publisher=publisher,
    )
    if backend == "sharded":
        from repro.runtime.sharded import ShardedEngine

        engine = ShardedEngine(
            work, kernel, num_shards=shards, spill_dir=spill_dir, **engine_args
        )
        try:
            # Assignments land in resident arrays, so the spill files
            # can go as soon as the run ends.
            run = engine.run()
        finally:
            engine.close()
    else:
        run = BatchedEngine(work, kernel, **engine_args).run()
    s_arr, t_arr, c_arr = kernel.assignment_arrays()
    if inverse == range(work.num_nodes):
        return run, (s_arr, t_arr, c_arr)
    labels = _label_table(inverse, work.num_nodes)
    return run, (labels[s_arr], labels[t_arr], c_arr)


def _label_table(inverse: Dict[int, object], n: int) -> np.ndarray:
    """``inverse`` as an array indexed by contiguous id.

    int64 when every label is an int that fits, so the callers' bulk
    canonicalization stays in numpy; an object array otherwise (labels
    beyond int64, str labels), which hands the labels back unchanged.
    """
    labels = [inverse[i] for i in range(n)]
    if set(map(type, labels)) <= {int}:
        try:
            return np.array(labels, dtype=np.int64)
        except OverflowError:
            pass
    return np.fromiter(labels, dtype=object, count=n)
