"""Compute-core dispatch for the whole-population kernels.

The matching-discovery automaton is lockstep: in every superstep every
live node runs the same phase of the C/I/L/R/W/U/E/D machine, so one
whole-population kernel family per algorithm executes it — the fused
plane kernels of :mod:`repro.core.vectorized` and their disk-backed
subclass (:mod:`repro.core.sharded`).  This module decides whether a
run may use them and which one it gets:

* :func:`batched_eligible` — the gates (strict model, no faults,
  transport, tracer, monitors or recovery extensions); anything else
  runs the per-node programs, silently, with identical results;
  ``compute="pernode"`` and ``compute="general"`` never use a kernel;
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
COMPUTE_MODES = ("auto", "vectorized", "sharded", "pernode", "general")

#: ``(algorithm, backend) -> (module, kernel class)``.  Resolved on use,
#: so importing the dispatch code pulls in no kernel module.
_KERNELS: Dict[Tuple[str, str], Tuple[str, str]] = {
    ("alg1", "vectorized"): ("repro.core.vectorized", "Alg1VecKernel"),
    ("alg1", "sharded"): ("repro.core.sharded", "Alg1ShardKernel"),
    ("dima2ed", "vectorized"): ("repro.core.vectorized", "DiMa2EdVecKernel"),
    ("dima2ed", "sharded"): ("repro.core.sharded", "DiMa2EdShardKernel"),
}


def select_backend(compute: str) -> str:
    """Which kernel an *eligible* run should instantiate.

    ``"sharded"`` names the disk-backed, memory-bounded tier
    (:mod:`repro.core.sharded`) — opt-in only: ``"auto"`` never selects
    it, because it trades wall time for bounded residency.  Every other
    mode (``"auto"``, ``"vectorized"``) takes the fused plane kernels
    (:mod:`repro.core.vectorized`).
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
    ``"auto"`` (the vectorized kernels), ``"vectorized"``/``"sharded"``
    (pin a kernel — same gates, and ineligible configurations still
    fall back silently to the per-node loop, results identical either
    way), ``"pernode"`` (never a kernel: the per-node programs, on the
    engine's fast delivery path where the engine allows it) and
    ``"general"`` (never a kernel and never the fast path: the engine's
    reference delivery loop).  Unknown modes
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
    if compute in ("pernode", "general"):
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
