"""Bit-identity of the sharded tier against the in-memory kernels.

The sharded tier (:mod:`repro.runtime.sharded`) runs the vectorized
palette-plane kernels hash-partitioned over memmapped CSR shards — the
same per-node MT19937 streams, routed per shard, with explicit
cross-shard exchange metering.  Nothing about the partitioning may leak
into the algorithm: for every family, seed, shard count and strategy,
the coloring, round/superstep counts and the shared metric counters
must match the vectorized tier exactly.  The shard-only
metrics (``shard_*``, ``cross_shard_bytes``) are additive extras — the
byte meter is deterministic and asserted as such; the wall-clock and
RSS fields are not compared.

Also pinned here: the memmap shard store round-trips any CSR exactly,
checkpoint/restart on the sharded engine is invisible (kill + restore
produces the uninterrupted run), and the differential harness reports
the tier as *skipped*, never silently dropped, where no spill directory
is available.
"""

import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.dima2ed import strong_color_arcs
from repro.core.edge_coloring import color_edges
from repro.core.sharded import Alg1ShardKernel, DiMa2EdShardKernel
from repro.core.vectorized import Alg1VecKernel, DiMa2EdVecKernel
from repro.graphs.generators import (
    erdos_renyi_avg_degree,
    scale_free,
    small_world,
    star_graph,
)
from repro.graphs.shards import ShardSet, write_graph_shards, write_shards
from repro.resilience import Checkpointer, CheckpointStore, resume_engine
from repro.runtime.engine import BatchedEngine
from repro.runtime.sharded import ShardedEngine
from repro.verify.differential import available_tiers, diff_tiers

RELAXED = settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

#: to_dict fields that are wall-clock or host-dependent on the sharded
#: tier (everything else must be deterministic and tier-identical).
_NONDET = ("shard_exchange_seconds", "shard_peak_rss_kb")

FAMILIES = {
    "er": lambda seed: erdos_renyi_avg_degree(48, 5.0, seed=seed),
    "scale-free": lambda seed: scale_free(48, 3, seed=seed),
    "small-world": lambda seed: small_world(48, 4, 0.2, seed=seed),
    "star": lambda seed: star_graph(30),
}


def _stable(metrics_dict):
    return {k: v for k, v in metrics_dict.items() if k not in _NONDET}


@st.composite
def family_graphs(draw, max_nodes: int = 40):
    n = draw(st.integers(min_value=4, max_value=max_nodes))
    gseed = draw(st.integers(min_value=0, max_value=2**16))
    family = draw(st.sampled_from(["er", "sf", "sw"]))
    if family == "er":
        return erdos_renyi_avg_degree(n, min(4.0, n - 1), seed=gseed)
    if family == "sf":
        return scale_free(n, min(2, n - 1), seed=gseed)
    k = min(4, n - 1 - ((n - 1) % 2))
    return small_world(n, max(2, k), 0.2, seed=gseed)


class TestShardStoreRoundTrip:
    @RELAXED
    @given(
        graph=family_graphs(),
        num_shards=st.integers(min_value=1, max_value=6),
    )
    def test_any_csr_round_trips(self, graph, num_shards):
        indptr, indices = graph.to_csr()
        with tempfile.TemporaryDirectory() as tmp:
            ss = write_shards(indptr, indices, Path(tmp) / "s", num_shards)
            rt_indptr, rt_indices = ss.assemble_csr()
            assert (rt_indptr == indptr).all()
            assert (rt_indices == indices).all()
            # Reopen from disk: the manifest alone must reconstruct it.
            again = ShardSet(Path(tmp) / "s")
            rt_indptr, rt_indices = again.assemble_csr()
            assert (rt_indptr == indptr).all()
            assert (rt_indices == indices).all()


class TestWrapperEquivalence:
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    @pytest.mark.parametrize("shards", [1, 3])
    def test_alg1_sharded_bit_identical(self, family, shards):
        g = FAMILIES[family](7)
        vec = color_edges(g, seed=7, compute="auto")
        sharded = color_edges(g, seed=7, compute="sharded", shards=shards)
        assert sharded.colors == vec.colors
        assert sharded.rounds == vec.rounds
        assert sharded.supersteps == vec.supersteps
        assert sharded.metrics.as_dict() == vec.metrics.as_dict()
        assert sharded.palette == vec.palette
        assert sharded.metrics.shard_workers == shards
        assert sharded.metrics.shard_peak_rss_kb > 0
        if shards > 1:
            assert sharded.metrics.cross_shard_bytes > 0
        else:
            assert sharded.metrics.cross_shard_bytes == 0

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    @pytest.mark.parametrize("shards", [1, 3])
    def test_dima2ed_sharded_bit_identical(self, family, shards):
        d = FAMILIES[family](5).to_directed()
        vec = strong_color_arcs(d, seed=5, compute="auto")
        sharded = strong_color_arcs(d, seed=5, compute="sharded", shards=shards)
        assert sharded.colors == vec.colors
        assert sharded.rounds == vec.rounds
        assert sharded.supersteps == vec.supersteps
        assert sharded.metrics.as_dict() == vec.metrics.as_dict()
        assert sharded.metrics.shard_workers == shards

    def test_cross_shard_bytes_deterministic(self):
        g = FAMILIES["er"](11)
        a = color_edges(g, seed=11, compute="sharded", shards=3)
        b = color_edges(g, seed=11, compute="sharded", shards=3)
        assert a.metrics.cross_shard_bytes == b.metrics.cross_shard_bytes
        assert _stable(a.metrics.to_dict()) == _stable(b.metrics.to_dict())

    def test_shard_fields_absent_on_other_tiers(self):
        g = FAMILIES["er"](11)
        vec = color_edges(g, seed=11, compute="auto")
        assert "shard_workers" not in vec.metrics.to_dict()
        assert "cross_shard_bytes" not in vec.metrics.to_dict()


class TestShardedCheckpointRestart:
    @RELAXED
    @given(
        graph=family_graphs(max_nodes=28),
        seed=st.integers(min_value=0, max_value=2**16),
        kill_at=st.floats(min_value=0.05, max_value=0.95),
        every=st.integers(min_value=1, max_value=9),
        num_shards=st.integers(min_value=1, max_value=4),
    )
    def test_alg1_restore_is_bit_identical(
        self, graph, seed, kill_at, every, num_shards
    ):
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            shardset = write_graph_shards(graph, tmp / "shards", num_shards)

            base_kernel = Alg1VecKernel()
            base = BatchedEngine(graph, base_kernel, seed=seed).run()
            assert base.completed

            store = CheckpointStore(keep=2)
            kill = max(1, int(kill_at * base.supersteps))
            engine = ShardedEngine(
                shardset,
                Alg1ShardKernel(),
                num_shards=num_shards,
                spill_dir=tmp / "spill-killed",
                seed=seed,
                max_supersteps=kill,
                checkpointer=Checkpointer(every, store),
            )
            killed = engine.run()
            if killed.completed:
                return
            checkpoint = store.latest()
            assert checkpoint is not None
            assert checkpoint.kind == "sharded"
            assert checkpoint.meta["num_shards"] == num_shards

            resumed_engine = resume_engine(
                checkpoint, shardset, spill_dir=tmp / "spill-resumed"
            )
            resumed = resumed_engine.run()
            assert resumed.completed
            assert resumed.supersteps == base.supersteps
            r = resumed_engine.kernel.assignment_arrays()
            b = base_kernel.assignment_arrays()
            assert all((x == y).all() for x, y in zip(r, b))
            assert resumed.metrics.as_dict() == base.metrics.as_dict()

    @RELAXED
    @given(
        graph=family_graphs(max_nodes=20),
        seed=st.integers(min_value=0, max_value=2**16),
        kill_at=st.floats(min_value=0.05, max_value=0.95),
        num_shards=st.integers(min_value=1, max_value=3),
    )
    def test_dima2ed_restore_is_bit_identical(
        self, graph, seed, kill_at, num_shards
    ):
        work = graph.to_directed()
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            shardset = write_graph_shards(work, tmp / "shards", num_shards)

            base_kernel = DiMa2EdVecKernel()
            base = BatchedEngine(work, base_kernel, seed=seed).run()
            assert base.completed

            store = CheckpointStore(keep=2)
            kill = max(1, int(kill_at * base.supersteps))
            engine = ShardedEngine(
                shardset,
                DiMa2EdShardKernel(),
                num_shards=num_shards,
                spill_dir=tmp / "spill-killed",
                seed=seed,
                max_supersteps=kill,
                checkpointer=Checkpointer(4, store),
            )
            killed = engine.run()
            if killed.completed:
                return
            checkpoint = store.latest()
            assert checkpoint is not None
            assert checkpoint.kind == "sharded"

            resumed_engine = resume_engine(
                checkpoint, shardset, spill_dir=tmp / "spill-resumed"
            )
            resumed = resumed_engine.run()
            assert resumed.completed
            assert resumed.supersteps == base.supersteps
            r = resumed_engine.kernel.assignment_arrays()
            b = base_kernel.assignment_arrays()
            assert all((x == y).all() for x, y in zip(r, b))
            assert resumed.metrics.as_dict() == base.metrics.as_dict()


class TestDifferentialIntegration:
    def test_sharded_tier_runs_in_diff_tiers(self):
        g = FAMILIES["er"](3)
        for algorithm in ("alg1", "dima2ed"):
            report = diff_tiers(
                g, algorithm=algorithm, seed=3, tiers=["vectorized", "sharded"]
            )
            assert report.ok, report.summary()
            assert "sharded" in report.runs

    def test_unavailable_sharded_is_skipped_not_dropped(self, monkeypatch):
        import repro.graphs.shards as shards_mod

        monkeypatch.setattr(shards_mod, "sharded_available", lambda spill_dir=None: False)
        runnable, skipped = available_tiers(["vectorized", "sharded"])
        assert runnable == ["vectorized"]
        assert "sharded" in skipped
        report = diff_tiers(
            FAMILIES["er"](4), seed=4, tiers=["vectorized", "sharded"]
        )
        assert report.ok
        assert "sharded" in report.skipped
        assert "sharded" not in report.runs
