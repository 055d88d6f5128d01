"""Golden format-1 checkpoint files.

All four files hold the same Algorithm 1 run (the 12-node graph below,
seed 3), killed at superstep 31 of 60 and saved with
:meth:`EngineCheckpoint.save`:

* ``golden/alg1-vectorized-format1.ckpt`` was captured on the fused
  plane kernel, which still ships, so it must resume to the
  uninterrupted run;
* ``golden/alg1-pernode-format1.ckpt`` was captured on the per-node
  programs of ``prepare_run(ALG1, ...)`` while ``SynchronousEngine``
  still had a separate fast-path delivery core; that core shared the
  ``"pernode"`` schema, so the file must resume on the one remaining
  loop to the uninterrupted run;
* ``golden/alg1-bigint-format1.ckpt`` was captured on the retired
  per-superstep bigint kernel (``repro.core.batched.Alg1Kernel``) and
  ``golden/alg1-numba-format1.ckpt`` on the retired JIT kernel
  (``repro.core.kernels_numba.Alg1KernelNumba``), so loading either
  must fail with a typed error naming the file and class.
"""

from pathlib import Path

import pytest

from repro.core.batched import prepare_run
from repro.core.edge_coloring import ALG1, EdgeColoringParams
from repro.core.vectorized import Alg1VecKernel
from repro.errors import ConfigurationError
from repro.graphs.adjacency import Graph
from repro.resilience import load_checkpoint, resume_engine
from repro.runtime.engine import BatchedEngine, SynchronousEngine
from repro.types import canonical_edge
from repro.verify.differential import colors_digest

GOLDEN = Path(__file__).parent / "golden"

EDGES = [
    (0, 3), (0, 5), (0, 6), (0, 9), (1, 4), (1, 5), (1, 6), (1, 9), (2, 6),
    (3, 4), (3, 5), (3, 9), (3, 10), (4, 11), (5, 8), (6, 11), (8, 11), (9, 10),
]
SEED = 3

#: The uninterrupted run, recorded when the files were captured.
SUPERSTEPS = 60
DIGEST = "af541cb35e297ce6a8518ddf9b52c6bb"


def _graph() -> Graph:
    g = Graph.from_num_nodes(12)  # node 7 is isolated
    g.add_edges_from(EDGES)
    return g


def _digest(kernel) -> str:
    return colors_digest(
        {canonical_edge(s, t): c for s, t, c in kernel.assignments}
    )


class TestGoldenCheckpoints:
    def test_uninterrupted_run_matches_the_recording(self):
        kernel = Alg1VecKernel()
        run = BatchedEngine(_graph(), kernel, seed=SEED).run()
        assert (run.supersteps, _digest(kernel)) == (SUPERSTEPS, DIGEST)

    def test_vectorized_checkpoint_resumes_to_the_uninterrupted_run(self):
        checkpoint = load_checkpoint(GOLDEN / "alg1-vectorized-format1.ckpt")
        assert (checkpoint.format, checkpoint.kind, checkpoint.superstep) == (
            1,
            "batched",
            31,
        )
        engine = resume_engine(checkpoint, _graph())
        run = engine.run()
        base = BatchedEngine(_graph(), Alg1VecKernel(), seed=SEED).run()
        assert run.completed
        assert run.supersteps == SUPERSTEPS
        assert _digest(engine.kernel) == DIGEST
        assert run.metrics.to_dict() == base.metrics.to_dict()

    def test_pernode_checkpoint_resumes_on_the_one_loop(self):
        checkpoint = load_checkpoint(GOLDEN / "alg1-pernode-format1.ckpt")
        assert (checkpoint.format, checkpoint.kind, checkpoint.superstep) == (
            1,
            "pernode",
            31,
        )
        setup = prepare_run(ALG1, _graph(), EdgeColoringParams())
        run = resume_engine(checkpoint, setup.work).run()
        base = SynchronousEngine(setup.work, setup.factory, seed=SEED).run()
        assert run.completed
        assert run.supersteps == SUPERSTEPS
        colors, _, _ = setup.collect(run, True)
        assert colors_digest(colors) == DIGEST
        assert run.metrics.to_dict() == base.metrics.to_dict()

    def test_retired_kernel_checkpoint_raises_typed_error(self):
        for name, kernel in (
            ("alg1-bigint-format1.ckpt", "repro.core.batched.Alg1Kernel"),
            ("alg1-numba-format1.ckpt", "repro.core.kernels_numba.Alg1KernelNumba"),
        ):
            path = GOLDEN / name
            with pytest.raises(ConfigurationError) as info:
                load_checkpoint(path)
            message = str(info.value)
            assert kernel in message
            assert str(path) in message
