"""Checkpoint/restart is invisible: kill + restore ≡ never interrupted.

The resilience contract (ISSUE: checkpoint/restart pillar) is that a
run killed at an arbitrary superstep and resumed from its latest
checkpoint produces *exactly* the run that was never interrupted —
same coloring (order-independent digest), same superstep/round count,
same metrics dict, across every delivery core:

* the general per-node loop (``fastpath=False``),
* the fast path (``fastpath=True``),
* the fused plane kernels (``BatchedEngine``).

The per-node cores share one checkpoint schema (kind ``"pernode"``), so
a snapshot captured on the fast path must also thaw on the general loop
and vice versa — that cross-core property is pinned here too.

Graphs come from the three random families the paper's experiments use
(Erdős–Rényi, scale-free, small-world), so all message-mix regimes of
the automaton get captured mid-flight: dense early rounds, sparse
endgame, nodes halting between capture and kill.
"""

import math

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.edge_coloring import EdgeColoringProgram
from repro.core.kernels_numba import Alg1KernelNumba
from repro.core.vectorized import Alg1VecKernel, DiMa2EdVecKernel
from repro.graphs.generators import erdos_renyi_avg_degree, scale_free, small_world
from repro.resilience import Checkpointer, CheckpointStore, resume_engine
from repro.runtime.engine import BatchedEngine, SynchronousEngine
from repro.types import canonical_edge
from repro.verify.differential import colors_digest

RELAXED = settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def family_graphs(draw, max_nodes: int = 40):
    """A graph from one of the paper's random families."""
    n = draw(st.integers(min_value=4, max_value=max_nodes))
    gseed = draw(st.integers(min_value=0, max_value=2**16))
    family = draw(st.sampled_from(["er", "sf", "sw"]))
    if family == "er":
        return erdos_renyi_avg_degree(n, min(4.0, n - 1), seed=gseed)
    if family == "sf":
        return scale_free(n, min(2, n - 1), seed=gseed)
    k = min(4, n - 1 - ((n - 1) % 2))  # small_world needs even k < n
    return small_world(n, max(2, k), 0.2, seed=gseed)


def _program_colors(programs):
    """Order-independent {edge: color} over per-node program records."""
    colors = {}
    for prog in programs:
        inner = getattr(prog, "inner", prog)
        for v, c in inner.edge_colors.items():
            colors[canonical_edge(inner.node_id, v)] = c
    return colors


def _fingerprint_pernode(run):
    return (
        colors_digest(_program_colors(run.programs)),
        run.supersteps,
        run.completed,
        run.metrics.to_dict(),
    )


def _kill_fraction_to_superstep(fraction: float, total: int) -> int:
    """A kill point strictly inside the run (engines need budget >= 1)."""
    return max(1, min(total - 1, math.ceil(fraction * total))) if total > 1 else 1


class TestPernodeKillRestore:
    @RELAXED
    @given(
        graph=family_graphs(),
        seed=st.integers(min_value=0, max_value=2**16),
        kill_at=st.floats(min_value=0.05, max_value=0.95),
        every=st.integers(min_value=1, max_value=9),
        fastpath=st.booleans(),
    )
    def test_restore_is_bit_identical(self, graph, seed, kill_at, every, fastpath):
        factory = EdgeColoringProgram
        base = SynchronousEngine(graph, factory, seed=seed, fastpath=fastpath).run()
        assert base.completed

        kill = _kill_fraction_to_superstep(kill_at, base.supersteps)
        store = CheckpointStore(keep=2)
        killed = SynchronousEngine(
            graph,
            factory,
            seed=seed,
            fastpath=fastpath,
            max_supersteps=kill,
            checkpointer=Checkpointer(every, store),
        ).run()
        if killed.completed:
            # Nothing was interrupted (all programs halted early on a
            # sparse instance); the runs must already agree.
            assert _fingerprint_pernode(killed) == _fingerprint_pernode(base)
            return
        checkpoint = store.latest()
        # The budget-exhaustion capture guarantees a restore point even
        # when the kill superstep precedes the first periodic one.
        assert checkpoint is not None
        assert checkpoint.kind == "pernode"

        resumed = resume_engine(checkpoint, graph, fastpath=fastpath).run()
        assert _fingerprint_pernode(resumed) == _fingerprint_pernode(base)

    @RELAXED
    @given(
        graph=family_graphs(max_nodes=24),
        seed=st.integers(min_value=0, max_value=2**16),
        kill_at=st.floats(min_value=0.1, max_value=0.9),
        capture_fast=st.booleans(),
    )
    def test_cross_core_thaw(self, graph, seed, kill_at, capture_fast):
        """A fast-path snapshot thaws on the general loop and vice versa."""
        factory = EdgeColoringProgram
        base = SynchronousEngine(graph, factory, seed=seed).run()
        kill = _kill_fraction_to_superstep(kill_at, base.supersteps)
        store = CheckpointStore()
        killed = SynchronousEngine(
            graph,
            factory,
            seed=seed,
            fastpath=capture_fast,
            max_supersteps=kill,
            checkpointer=Checkpointer(3, store),
        ).run()
        if killed.completed:
            return
        resumed = resume_engine(
            store.latest(), graph, fastpath=not capture_fast
        ).run()
        assert _fingerprint_pernode(resumed) == _fingerprint_pernode(base)

    @RELAXED
    @given(
        graph=family_graphs(max_nodes=24),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_repeated_kills_still_converge_identically(self, graph, seed):
        """A run killed at *every* slice boundary ends bit-identical."""
        factory = EdgeColoringProgram
        base = SynchronousEngine(graph, factory, seed=seed).run()

        store = CheckpointStore(keep=2)
        checkpointer = Checkpointer(4, store)
        limit = max(1, base.supersteps // 5)
        run = SynchronousEngine(
            graph,
            factory,
            seed=seed,
            max_supersteps=limit,
            checkpointer=checkpointer,
        ).run()
        hops = 1
        while not run.completed:
            limit += max(1, base.supersteps // 5)
            run = resume_engine(
                store.latest(), graph, max_supersteps=limit,
                checkpointer=checkpointer,
            ).run()
            hops += 1
            assert hops < 50, "restore chain failed to make progress"
        assert _fingerprint_pernode(run) == _fingerprint_pernode(base)


class TestVectorizedKillRestore:
    """The fused plane kernels write the ``"batched"`` checkpoint kind;
    a mid-run snapshot must resume to the exact uninterrupted run —
    including the vectorized RNG state and the chunked assignment log —
    for Algorithm 1, DiMa2Ed (a DiGraph topology) and the numba kernel's
    interpreted fallback."""

    @RELAXED
    @given(
        graph=family_graphs(),
        seed=st.integers(min_value=0, max_value=2**16),
        kill_at=st.floats(min_value=0.05, max_value=0.95),
        every=st.integers(min_value=1, max_value=9),
        kernel_cls=st.sampled_from([Alg1VecKernel, Alg1KernelNumba]),
    )
    def test_alg1_restore_is_bit_identical(
        self, graph, seed, kill_at, every, kernel_cls
    ):
        base_kernel = kernel_cls()
        base = BatchedEngine(graph, base_kernel, seed=seed).run()
        assert base.completed
        base_colors = {
            canonical_edge(s, t): c for s, t, c in base_kernel.assignments
        }

        kill = _kill_fraction_to_superstep(kill_at, base.supersteps)
        store = CheckpointStore(keep=2)
        killed = BatchedEngine(
            graph,
            kernel_cls(),
            seed=seed,
            max_supersteps=kill,
            checkpointer=Checkpointer(every, store),
        ).run()
        if killed.completed:
            return
        checkpoint = store.latest()
        assert checkpoint is not None
        assert checkpoint.kind == "batched"

        engine = resume_engine(checkpoint, graph)
        resumed = engine.run()
        resumed_colors = {
            canonical_edge(s, t): c for s, t, c in engine.kernel.assignments
        }
        assert resumed.completed
        assert resumed.supersteps == base.supersteps
        assert colors_digest(resumed_colors) == colors_digest(base_colors)
        assert resumed.metrics.to_dict() == base.metrics.to_dict()

    @RELAXED
    @given(
        graph=family_graphs(max_nodes=24),
        seed=st.integers(min_value=0, max_value=2**16),
        kill_at=st.floats(min_value=0.05, max_value=0.95),
        every=st.integers(min_value=1, max_value=9),
    )
    def test_dima2ed_restore_is_bit_identical(
        self, graph, seed, kill_at, every
    ):
        """DiMa2Ed runs on a DiGraph — this also pins the checkpoint
        fingerprint's arc counting for directed topologies."""
        work = graph.to_directed()
        base_kernel = DiMa2EdVecKernel()
        base = BatchedEngine(work, base_kernel, seed=seed).run()
        assert base.completed
        base_colors = dict(
            ((s, t), c) for s, t, c in base_kernel.arc_assignments
        )

        kill = _kill_fraction_to_superstep(kill_at, base.supersteps)
        store = CheckpointStore(keep=2)
        killed = BatchedEngine(
            work,
            DiMa2EdVecKernel(),
            seed=seed,
            max_supersteps=kill,
            checkpointer=Checkpointer(every, store),
        ).run()
        if killed.completed:
            return
        checkpoint = store.latest()
        assert checkpoint is not None
        assert checkpoint.kind == "batched"

        engine = resume_engine(checkpoint, work)
        resumed = engine.run()
        resumed_colors = dict(
            ((s, t), c) for s, t, c in engine.kernel.arc_assignments
        )
        assert resumed.completed
        assert resumed.supersteps == base.supersteps
        assert resumed_colors == base_colors
        assert resumed.metrics.to_dict() == base.metrics.to_dict()
