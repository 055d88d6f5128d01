"""The sharded tier's containers: one memmap per flat array, pool maps
opened one shard at a time, in-place seeding, and what the exchange
meter covers."""

import time
import tracemalloc
from pathlib import Path

import numpy as np

from repro.core.edge_coloring import color_edges
from repro.core.sharded import Alg1ShardKernel, ShardedMT, ShardStats
from repro.core.vecrng import VectorMT
from repro.graphs.generators import erdos_renyi_avg_degree
from repro.graphs.shards import write_graph_shards, write_shards
from repro.resilience import Checkpointer, CheckpointStore, resume_engine
from repro.runtime.sharded import ShardedEngine
from repro.types import canonical_edge
from repro.verify.differential import colors_digest

SEED = 4


def _graph():
    return erdos_renyi_avg_degree(60, 5.0, seed=2)


def _digest(kernel) -> str:
    return colors_digest(
        {canonical_edge(s, t): c for s, t, c in kernel.assignments}
    )


def _spill_files(spill: Path) -> list:
    return sorted(p.name for p in spill.glob("*.npy"))


class TestFlats:
    def test_kill_and_resume_on_one_memmap_per_flat(self, tmp_path):
        graph = _graph()
        want = color_edges(graph, seed=SEED, compute="auto")
        shards = write_graph_shards(graph, tmp_path / "shards", 3)
        store = CheckpointStore(keep=1)
        engine = ShardedEngine(
            shards,
            Alg1ShardKernel(),
            num_shards=3,
            spill_dir=tmp_path / "killed",
            seed=SEED,
            max_supersteps=want.supersteps // 2,
            checkpointer=Checkpointer(4, store),
        )
        assert not engine.run().completed
        layout = ["indices.npy", "mt-0.npy", "mt-1.npy", "mt-2.npy", "unc.npy"]
        assert _spill_files(tmp_path / "killed") == layout
        for name in ("_indices", "_unc"):
            flat = getattr(engine.kernel, name)
            assert isinstance(flat, np.memmap)
            assert flat.shape == (shards.m,)
        # The adjacency memmap is the shards' regions back to back.
        regions = [np.asarray(shards.open_indices(s)) for s in range(3)]
        assert np.array_equal(engine.kernel._indices, np.concatenate(regions))
        checkpoint = store.latest()
        assert checkpoint.payload["kernel"]["flats"]["_unc"].shape == (shards.m,)
        resumed_engine = resume_engine(
            checkpoint, shards, spill_dir=tmp_path / "resumed"
        )
        resumed = resumed_engine.run()
        assert resumed.completed
        assert resumed.supersteps == want.supersteps
        assert _spill_files(tmp_path / "resumed") == layout
        assert _digest(resumed_engine.kernel) == colors_digest(want.colors)


def _empty_shards(tmp_path, n, num_shards):
    indptr = np.zeros(n + 1, dtype=np.int64)
    return write_shards(indptr, np.zeros(0, dtype=np.int64), tmp_path / "s", num_shards)


class TestShardedMT:
    def test_seeding_writes_the_pools_in_place(self, tmp_path):
        """No ``[624, n_s]`` array is built and copied: numpy's traced
        allocations while seeding n=10⁵ at K=4 stay under a tenth of
        one shard's pool."""
        n, num_shards = 100_000, 4
        shards = _empty_shards(tmp_path, n, num_shards)
        (tmp_path / "run").mkdir()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            mt = ShardedMT(shards, tmp_path / "run", ShardStats(), run_seed=5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        shard_pool = 624 * 4 * (n // num_shards)
        assert (peak - before) / shard_pool <= 0.1
        # The pools are the streams VectorMT seeds for the same run.
        whole = VectorMT.for_run(5, n)
        for s in range(num_shards):
            assert np.array_equal(
                np.load(mt._paths[s]), whole.words[:, shards.owned(s)]
            )

    def test_one_pool_mapped_at_a_time(self, tmp_path, monkeypatch):
        n, num_shards = 50, 3
        shards = _empty_shards(tmp_path, n, num_shards)
        (tmp_path / "run").mkdir()
        mt = ShardedMT(shards, tmp_path / "run", ShardStats(), run_seed=9)
        maps = []
        real = ShardedMT._map

        def spy(self, shard):
            assert all(pool.closed for pool in maps)
            pool, words = real(self, shard)
            maps.append(pool)
            return pool, words

        monkeypatch.setattr(ShardedMT, "_map", spy)
        ref = VectorMT.for_run(9, n)
        ids = np.array([7, 0, 49, 3, 12, 25, 1])
        for _ in range(400):
            assert mt.next_words(ids).tolist() == ref.next_words(ids).tolist()
        assert mt.random_(ids).tolist() == ref.random_(ids).tolist()
        bounds = np.arange(1, ids.size + 1)
        assert mt.randbelow(ids, bounds).tolist() == ref.randbelow(ids, bounds).tolist()
        assert maps and all(pool.closed for pool in maps)

    def test_exchange_leaves_out_the_draws(self, tmp_path, monkeypatch):
        """The draws inside a shard count as compute: a draw slowed by
        50 ms adds nothing to ``exchange_seconds``."""
        shards = _empty_shards(tmp_path, 40, 4)
        (tmp_path / "run").mkdir()
        stats = ShardStats()
        mt = ShardedMT(shards, tmp_path / "run", stats, run_seed=1)
        real = VectorMT.random_

        def slow(self, ids):
            time.sleep(0.05)
            return real(self, ids)

        monkeypatch.setattr(VectorMT, "random_", slow)
        mt.random_(np.arange(40))
        assert 0 < stats.exchange_seconds < 0.05
