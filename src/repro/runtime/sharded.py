"""The sharded execution tier — ``BatchedEngine`` over disk-backed shards.

:class:`ShardedEngine` drives the sharded kernels of
:mod:`repro.core.sharded` with the fused round loop it inherits from
:class:`~repro.runtime.engine.BatchedEngine`.  What changes relative to
the parent:

* the topology input is a **shard directory** (or a ``Graph`` that gets
  sharded on the way in) — the engine never materializes a resident
  CSR, so a 10⁷-node graph costs per-shard memory, not per-graph;
* fresh kernels bind shard files (``bind_shards``) instead of CSR
  arrays, and checkpoints carry frozen plain-array payloads instead of
  live kernels (memmaps don't survive ``deepcopy``/spill-dir cleanup);
* after the run, the shard cost counters — ``cross_shard_bytes``,
  ``shard_exchange_seconds``, ``shard_workers``, ``shard_peak_rss_kb``
  — are folded into the ``RunMetrics``.

The K shards are logical workers executed sequentially in one process;
``cross_shard_bytes`` is exactly the traffic K communicating processes
would put on the wire, and ``shard_exchange_seconds`` is the time spent
mapping and unmapping shard RNG pools and routing each draw to its
owner shards (the draws themselves count as compute).  Everything else
— metrics counters, telemetry, profiling, supersteps, budget handling,
resume flow — is inherited unchanged, which is what keeps the tier
bit-identical to the vectorized one (``diff_tiers`` pins it).
"""

from __future__ import annotations

import resource
import sys
import tempfile
from pathlib import Path
from typing import Optional, Union

from repro.core.sharded import ShardStats, thaw_kernel
from repro.errors import GraphError
from repro.graphs.shards import ShardSet, write_graph_shards
from repro.runtime.engine import BatchedEngine, RunResult, require_contiguous_ids

__all__ = ["ShardedEngine", "DEFAULT_NUM_SHARDS", "peak_rss_kb"]

PathLike = Union[str, Path]

#: Default worker count — enough to bound per-shard state well below
#: the whole-population footprint without drowning small runs in
#: routing overhead.
DEFAULT_NUM_SHARDS = 4


def peak_rss_kb() -> int:
    """The process's peak RSS in KiB (``ru_maxrss`` is KiB on Linux,
    bytes on macOS — normalized here)."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":
        peak //= 1024
    return int(peak)


class ShardedEngine(BatchedEngine):
    """Lockstep executor over hash-partitioned disk shards.

    ``source`` is one of: a shard directory path, a loaded
    :class:`ShardSet`, or a ``Graph`` (contiguous ids) — a graph is
    sharded into ``<spill_dir>/shards`` on construction.  ``spill_dir``
    holds every file the run maps (RNG pools, one memmap per flat
    array, and graph shards when sharding here); when omitted, a
    private temporary directory is created and cleaned up with the
    engine.  The kernel must be a sharded kernel
    (:class:`~repro.core.sharded.Alg1ShardKernel` /
    :class:`~repro.core.sharded.DiMa2EdShardKernel`).
    """

    _CHECKPOINT_KIND = "sharded"

    def __init__(
        self,
        source,
        kernel,
        *,
        num_shards: int = DEFAULT_NUM_SHARDS,
        spill_dir: Optional[PathLike] = None,
        seed: int = 0,
        max_supersteps: int = 100_000,
        telemetry=None,
        profiler=None,
        checkpointer=None,
        resume=None,
        publisher=None,
        registry=None,
    ) -> None:
        if max_supersteps < 1:
            raise GraphError(f"max_supersteps must be >= 1, got {max_supersteps}")
        self._spill_tmp = None
        if spill_dir is None:
            self._spill_tmp = tempfile.TemporaryDirectory(prefix="repro-shard-")
            spill_dir = self._spill_tmp.name
        self.spill_dir = Path(spill_dir)
        self.spill_dir.mkdir(parents=True, exist_ok=True)
        if isinstance(source, ShardSet):
            shardset = source
        elif isinstance(source, (str, Path)):
            shardset = ShardSet(source)
        else:
            # A Graph (or DiGraph): validate ids like the parent, then
            # shard it into the spill dir.
            require_contiguous_ids(source)
            shardset = write_graph_shards(
                source, self.spill_dir / "shards", num_shards
            )
        self.shardset = shardset
        self.num_shards = shardset.num_shards
        self.topology = None  # never materialized on this tier
        self.kernel = kernel
        self.seed = seed
        self.max_supersteps = max_supersteps
        self.telemetry = telemetry
        self.profiler = profiler
        self.checkpointer = checkpointer
        self.resume = resume
        self.publisher = publisher
        self.registry = registry
        self.stats = ShardStats()
        kind = self._CHECKPOINT_KIND
        if resume is not None and getattr(resume, "kind", None) != kind:
            raise GraphError(
                f"ShardedEngine can only resume {kind!r} checkpoints, "
                f"got {getattr(resume, 'kind', None)!r}"
            )

    def close(self) -> None:
        """Release the private spill directory, if this engine owns one."""
        if self._spill_tmp is not None:
            self._spill_tmp.cleanup()
            self._spill_tmp = None

    def _run(self) -> RunResult:
        resumed = self.resume is not None
        state = self.resume.restore() if resumed else None
        if resumed:
            # Checkpoints hold frozen plain-array payloads; thaw against
            # this engine's shard set and spill dir (each restore writes
            # its own spill files — restores are independent).
            state = dict(state)
            kernel = thaw_kernel(
                state["kernel"], self.shardset, self.spill_dir, self.stats
            )
            state["kernel"] = kernel
        else:
            kernel = self.kernel
        if not hasattr(kernel, "bind_shards"):
            raise GraphError(
                "ShardedEngine requires a sharded kernel, got "
                f"{type(kernel).__name__}"
            )
        return self._run_fused(kernel, state)

    def _bind_fused_kernel(self, kernel) -> None:
        kernel.bind_shards(self.shardset, self.seed, self.spill_dir, self.stats)

    def _finalize_fused_metrics(self, kernel, metrics) -> None:
        metrics.shard_workers = self.num_shards
        metrics.cross_shard_bytes = self.stats.cross_shard_bytes
        metrics.shard_exchange_seconds = self.stats.exchange_seconds
        metrics.shard_peak_rss_kb = peak_rss_kb()

    def _fused_checkpoint_state(self, kernel, metrics) -> dict:
        return {
            "kernel": kernel.freeze(),
            "live": kernel.live_ids(),
            "metrics": metrics,
            "telemetry": self.telemetry,
        }

    def _checkpoint_meta_batched(self) -> dict:
        return {
            "nodes": self.shardset.n,
            "edges": self.shardset.m // 2,
            "strict": True,
            "seed": self.seed,
            "num_shards": self.num_shards,
        }
