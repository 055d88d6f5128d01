"""Compute-core dispatch for the whole-population kernels.

The matching-discovery automaton is lockstep: in every superstep every
live node runs the same phase of the C/I/L/R/W/U/E/D machine, so one
whole-population kernel family per algorithm executes it — the fused
plane kernels of :mod:`repro.core.vectorized`, with a JIT subclass
(:mod:`repro.core.kernels_numba`) and a disk-backed one
(:mod:`repro.core.sharded`).  This module decides whether a run may use
them and which one it gets:

* :func:`batched_eligible` — the gates (strict model, no faults,
  transport, tracer, monitors or recovery extensions); anything else
  runs the per-node programs, silently, with identical results;
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
from typing import Dict, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.graphs.adjacency import Graph
from repro.runtime.engine import BatchedEngine, RunResult

__all__ = ["COMPUTE_MODES", "batched_eligible", "run_kernel", "select_backend"]

#: The ``compute=`` values the algorithm wrappers accept.
COMPUTE_MODES = ("auto", "vectorized", "numba", "sharded", "pernode")

#: ``(algorithm, backend) -> (module, kernel class)``.  Resolved on use,
#: so importing the dispatch code pulls in no kernel module.
_KERNELS: Dict[Tuple[str, str], Tuple[str, str]] = {
    ("alg1", "vectorized"): ("repro.core.vectorized", "Alg1VecKernel"),
    ("alg1", "numba"): ("repro.core.kernels_numba", "Alg1KernelNumba"),
    ("alg1", "sharded"): ("repro.core.sharded", "Alg1ShardKernel"),
    ("dima2ed", "vectorized"): ("repro.core.vectorized", "DiMa2EdVecKernel"),
    ("dima2ed", "numba"): ("repro.core.kernels_numba", "DiMa2EdKernelNumba"),
    ("dima2ed", "sharded"): ("repro.core.sharded", "DiMa2EdShardKernel"),
}


def select_backend(compute: str) -> str:
    """Which kernel an *eligible* run should instantiate.

    ``"vectorized"`` names the fused plane kernels
    (:mod:`repro.core.vectorized`); ``"numba"`` the JIT backend
    (:mod:`repro.core.kernels_numba`), degrading silently to
    ``"vectorized"`` when numba is not importable — the fallback is part
    of the contract, since every backend is bit-identical and the choice
    is purely a matter of speed.  ``"sharded"`` the disk-backed,
    memory-bounded tier (:mod:`repro.core.sharded`) — opt-in only:
    ``"auto"`` never selects it, because it trades wall time for bounded
    residency.  ``"auto"`` probes numba and otherwise takes the
    vectorized kernels.
    """
    if compute in ("vectorized", "sharded"):
        return compute
    from repro.core.kernels_numba import numba_available

    return "numba" if numba_available() else "vectorized"


def batched_eligible(
    *,
    compute: str,
    fastpath: bool,
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
    ``"auto"`` (fastest eligible kernel), ``"vectorized"``/``"numba"``/
    ``"sharded"`` (pin a kernel — same gates, and ineligible
    configurations still fall back silently to the per-node loop,
    results identical either way) and ``"pernode"`` (never a kernel;
    the benchmarks use it to measure the per-node cores).  Unknown modes
    raise regardless of the other arguments.  Which kernel an eligible
    run instantiates is :func:`select_backend`'s decision.

    The gates mirror the fast delivery path's discipline and are
    strictly tighter: no tracer at all (a kernel run emits no trace
    events, so even a sampled tracer would observe a different stream),
    and none of the defensive/recovery extensions.  Invariant monitors
    force the per-node path too: they audit the reference engine's
    per-superstep world, which the kernels do not materialize.
    """
    if compute not in COMPUTE_MODES:
        raise ConfigurationError(
            f"compute must be one of {COMPUTE_MODES}, got {compute!r}"
        )
    if compute == "pernode":
        return False
    return (
        fastpath
        and strict
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
    inverse: Dict[int, int],
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
    inv_map = np.empty(max(work.num_nodes, 1), dtype=np.int64)
    for new, old in inverse.items():
        inv_map[new] = old
    return run, (inv_map[s_arr], inv_map[t_arr], c_arr)
