"""Golden format-1 checkpoint files.

All five files hold the same Algorithm 1 run (the 12-node graph below,
seed 3), killed at superstep 31 of 60 and saved with
:meth:`EngineCheckpoint.save`:

* ``golden/alg1-vectorized-format1.ckpt`` was captured on the fused
  plane kernel, which still ships, so it must resume to the
  uninterrupted run;
* ``golden/alg1-sharded-format1.ckpt`` was captured on the sharded
  tier (four shards) while both tiers still stored MT pools
  node-major; like the vectorized file, it must resume to the
  uninterrupted run on the word-major pools;
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

A pool at n=624 is square in both layouts, so the round trips at the
end pin that old and new payloads are told apart by name, never by
shape.
"""

import copyreg
import pickle
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from repro.core.batched import prepare_run
from repro.core.edge_coloring import ALG1, EdgeColoringParams
from repro.core.sharded import Alg1ShardKernel, ShardedMT, ShardStats
from repro.core.vectorized import Alg1VecKernel
from repro.core.vecrng import VectorMT
from repro.errors import ConfigurationError
from repro.graphs.adjacency import Graph
from repro.graphs.shards import write_graph_shards
from repro.resilience import load_checkpoint, resume_engine
from repro.runtime.engine import BatchedEngine, SynchronousEngine
from repro.runtime.sharded import ShardedEngine
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

    def test_sharded_checkpoint_resumes_to_the_uninterrupted_run(self, tmp_path):
        checkpoint = load_checkpoint(GOLDEN / "alg1-sharded-format1.ckpt")
        assert (checkpoint.format, checkpoint.kind, checkpoint.superstep) == (
            1,
            "sharded",
            31,
        )
        assert "state" in checkpoint.payload["kernel"]["mt"]  # node-major
        engine = resume_engine(checkpoint, _graph(), spill_dir=tmp_path / "resumed")
        run = engine.run()
        fresh = ShardedEngine(
            _graph(), Alg1ShardKernel(), seed=SEED, spill_dir=tmp_path / "fresh"
        )
        base = fresh.run()
        assert run.completed
        assert run.supersteps == SUPERSTEPS
        assert _digest(engine.kernel) == DIGEST
        # Wall clock and host RSS are left out; every other field of a
        # fresh sharded run must match.
        host = ("shard_exchange_seconds", "shard_peak_rss_kb")
        resumed_metrics, base_metrics = run.metrics.to_dict(), base.metrics.to_dict()
        for name in host:
            resumed_metrics.pop(name)
            base_metrics.pop(name)
        assert resumed_metrics == base_metrics

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


#: Streams in the square round trips: [624, n] and [n, 624] agree in shape.
SQUARE = 624


def _draws(mt, n: int) -> list:
    ids = np.arange(n, dtype=np.int64)
    return [mt.next_words(ids).tolist() for _ in range(300)]


class TestSquarePoolRoundTrips:
    """Old (node-major ``state``) and new (word-major ``words``)
    payloads at n=624 both continue the streams they froze."""

    def _node_major_pickle(self, mt: VectorMT) -> bytes:
        # What pickling a VectorMT gave before the word-major layout.
        state = {"state": mt.words.T.copy(), "mti": mt.mti, "filled": mt.filled}
        reduce = (copyreg.__newobj__, (VectorMT,), (None, state))
        with mock.patch.object(VectorMT, "__reduce_ex__", lambda self, proto: reduce):
            return pickle.dumps(mt, protocol=4)

    def test_vector_mt_pickles(self):
        mt = VectorMT.for_run(9, SQUARE)
        _draws(mt, 100)  # the first chunk of the next cycle is generated
        for blob in (pickle.dumps(mt, protocol=4), self._node_major_pickle(mt)):
            loaded = pickle.loads(blob)
            assert loaded.words.shape == (624, SQUARE)
            assert loaded.words.flags.c_contiguous
            assert np.array_equal(loaded.words, mt.words)
        twin = pickle.loads(self._node_major_pickle(mt))
        assert _draws(twin, SQUARE) == _draws(mt, SQUARE)

    def test_sharded_mt_payloads(self, tmp_path):
        g = Graph.from_num_nodes(SQUARE)
        g.add_edges_from((u, u + 1) for u in range(SQUARE - 1))
        shards = write_graph_shards(g, tmp_path / "shards", 1)
        (tmp_path / "run").mkdir()
        mt = ShardedMT(shards, tmp_path / "run", ShardStats(), run_seed=9)
        _draws(mt, 100)
        payload = mt.freeze()
        old = dict(payload, state=[w.T.copy() for w in payload["words"]])
        del old["words"]
        thawed = []
        for name, frozen in (("new", payload), ("old", old)):
            spill = tmp_path / name
            spill.mkdir()
            thawed.append(ShardedMT.thaw(shards, spill, ShardStats(), frozen))
        assert np.array_equal(np.load(tmp_path / "old" / "mt-0.npy"), payload["words"][0])
        want = _draws(mt, SQUARE)
        assert [_draws(t, SQUARE) for t in thawed] == [want, want]
