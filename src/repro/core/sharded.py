"""Sharded adapters for the vectorized kernels — memory-bounded state.

The vectorized kernels (:mod:`repro.core.vectorized`) hold three big
per-population blocks resident: the CSR adjacency, the flat uncolored
partner lists, and the MT19937 pool (``uint32[624, n]`` — ~2.4 GB at
n=10⁶, the dominant term by an order of magnitude).  The classes here
re-house them behind the shard layout of :mod:`repro.graphs.shards`
so the whole-population pool never exists:

* :class:`ShardedMT` keeps each shard's RNG pool in its own ``.npy``
  file and maps **one shard at a time** per draw — after a shard's
  draws are scattered back, the map is closed (``munmap``), so the
  process's resident high-water mark carries a single shard's pool,
  not the population's.
* The flat arrays — the adjacency and the mutable partner lists copied
  from it — are one spill ``.npy`` memmap each.  At bind the K shards'
  index regions are copied into one file in flat-edge-space order, so
  the phase code gathers and scatters on the memmap directly; its
  pages are file-backed and evictable.
* :class:`Alg1ShardKernel` / :class:`DiMa2EdShardKernel` subclass the
  vectorized kernels and substitute those containers plus a permuted
  row-start array for ``indptr``.  **Every phase method is inherited
  unchanged** — the phase logic only ever reads row *starts* and only
  ever touches flat arrays through gather/scatter — which is what
  makes the tier bit-identical to the vectorized tier by
  construction (pinned by the property suite and ``diff_tiers``).

The K shards are *logical workers executed sequentially* in one
process: each has its own files, its own RNG pool, and its own slice
of every draw, so the execution is exactly what K communicating
processes would compute, with the cross-shard traffic they would
exchange metered instead of sent.  Two first-class costs come out:

* ``cross_shard_bytes`` — every phase of the automaton is a broadcast
  to the sender's live neighbors; listeners owned by *another* shard
  would receive their copy over the wire.  Metered per phase as
  (cross-shard live listeners) x (phase words) x 8 bytes, maintained
  incrementally as nodes halt.
* ``exchange_seconds`` — wall time spent moving RNG state across shard
  boundaries: mapping and unmapping each shard's pool, splitting a
  draw's ids by owner shard and scattering the outputs back.  The
  draws and twists inside a shard count as compute, as they do on the
  vectorized tier.
"""

from __future__ import annotations

import mmap
import shutil
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional, Union

import numpy as np

from repro.core.vectorized import (
    _INVITE_WORDS,
    _REPLY_WORDS,
    _REPORT_WORDS,
    Alg1VecKernel,
    DiMa2EdVecKernel,
    _ragged_positions,
)
from repro.core.vecrng import VectorMT, child_seeds, mt_states_from_seeds, _MT_N
from repro.errors import ConfigurationError
from repro.graphs.shards import ShardSet

__all__ = [
    "ShardStats",
    "ShardedMT",
    "Alg1ShardKernel",
    "DiMa2EdShardKernel",
    "thaw_kernel",
]

PathLike = Union[str, Path]

#: Nodes whose MT pool columns are seeded through one map of a shard's
#: pool file (bounds the pages resident at once while seeding).
_SEED_NODES = 1 << 16

#: Messages are modeled as 64-bit words throughout the runtime.
_WORD_BYTES = 8


@dataclass
class ShardStats:
    """Mutable cross-shard cost accumulators, shared by every sharded
    container of one run and folded into ``RunMetrics`` at the end."""

    cross_shard_bytes: int = 0
    exchange_seconds: float = 0.0


class ShardedMT:
    """All nodes' MT19937 streams, stored as one pool file per shard.

    Draw calls take **global** ids (what the inherited phase code
    passes); internally each call splits the ids by owner shard, maps
    that shard's pool, replays the draws through a throwaway
    :class:`VectorMT` view, unmaps the pool and scatters the outputs
    back.  Per-node streams are independent, so routing a draw through
    per-shard subsets returns bit-identical outputs to the
    whole-population call — the property suite pins this.

    Each shard's pool file is a word-major ``uint32[624, n_s]``
    ``.npy``; its header offset is read once, and each map is a plain
    ``mmap`` of the file viewed from that offset.  ``mti``/``filled``
    cursors stay resident per shard (``int64[n_s]`` each — two words
    per node, vs 624 for the pool) and are handed to the ``VectorMT``
    view by reference, so its in-place cursor updates persist across
    maps with no copy-back.
    """

    def __init__(
        self,
        shardset: ShardSet,
        spill_dir: PathLike,
        stats: ShardStats,
        run_seed: Optional[int] = None,
    ) -> None:
        self._K = shardset.num_shards
        self._stats = stats
        self._sizes = list(shardset.shard_nodes)
        spill = Path(spill_dir)
        self._paths = [spill / f"mt-{s}.npy" for s in range(self._K)]
        self._offsets = [0] * self._K
        self.mti = [np.full(ns, _MT_N, dtype=np.int64) for ns in self._sizes]
        self.filled = [np.full(ns, _MT_N, dtype=np.int64) for ns in self._sizes]
        if run_seed is not None:
            seeds = child_seeds(run_seed, shardset.n)
            for s, ns in enumerate(self._sizes):
                self._offsets[s] = np.lib.format.open_memmap(
                    self._paths[s], mode="w+", dtype=np.uint32, shape=(_MT_N, ns)
                ).offset
                owned = shardset.owned(s)
                for lo in range(0, ns, _SEED_NODES):
                    hi = min(lo + _SEED_NODES, ns)
                    pool, words = self._map(s)
                    mt_states_from_seeds(seeds[owned[lo:hi]], out=words[:, lo:hi])
                    del words
                    pool.close()

    def _map(self, shard: int):
        """``(map, words)`` for shard ``shard``'s pool file.  Close the
        map only after ``words`` and every view of it are gone (after an
        exception, the map goes with the traceback that holds them)."""
        with open(self._paths[shard], "r+b") as fh:
            pool = mmap.mmap(fh.fileno(), 0)
        ns = self._sizes[shard]
        words = np.frombuffer(
            pool, dtype=np.uint32, count=_MT_N * ns, offset=self._offsets[shard]
        )
        return pool, words.reshape(_MT_N, ns)

    def _draw(self, method, ids, dtype, *args) -> np.ndarray:
        """``method(view, local_ids, *args)`` per owner shard, scattered
        into one output in ``ids`` order."""
        ids = np.asarray(ids, dtype=np.int64)
        out = np.empty(ids.size, dtype=dtype)
        if not ids.size:
            return out
        t0 = perf_counter()
        compute = 0.0
        K = self._K
        owners = ids % K
        for s in np.flatnonzero(np.bincount(owners, minlength=K)).tolist():
            sel = np.flatnonzero(owners == s)
            local = ids[sel] // K
            parts = [a[sel] for a in args]
            pool, words = self._map(s)
            t1 = perf_counter()
            drawn = method(
                VectorMT(words, self.mti[s], self.filled[s]), local, *parts
            )
            compute += perf_counter() - t1
            del words
            pool.close()
            out[sel] = drawn
        self._stats.exchange_seconds += perf_counter() - t0 - compute
        return out

    def random_(self, ids: np.ndarray) -> np.ndarray:
        return self._draw(VectorMT.random_, ids, np.float64)

    def randbelow(self, ids: np.ndarray, bounds: np.ndarray) -> np.ndarray:
        return self._draw(VectorMT.randbelow, ids, np.int64, np.asarray(bounds))

    def next_words(self, ids: np.ndarray) -> np.ndarray:
        return self._draw(VectorMT.next_words, ids, np.uint32)

    def freeze(self) -> Dict[str, list]:
        """Materialize the full RNG state as plain arrays (checkpoint
        payloads must survive ``deepcopy`` and outlive the spill dir —
        note this is the one place the tier pays whole-population
        memory, ~2.5 KB/node)."""
        return {
            "words": [np.load(p) for p in self._paths],
            "mti": [a.copy() for a in self.mti],
            "filled": [a.copy() for a in self.filled],
        }

    @classmethod
    def thaw(
        cls,
        shardset: ShardSet,
        spill_dir: PathLike,
        stats: ShardStats,
        payload: Dict[str, list],
    ) -> "ShardedMT":
        obj = cls(shardset, spill_dir, stats, run_seed=None)
        for s, path in enumerate(obj._paths):
            if "words" in payload:
                words = np.asarray(payload["words"][s], dtype=np.uint32)
            else:
                # Frozen before the word-major layout: node-major pools.
                words = np.asarray(payload["state"][s], dtype=np.uint32).T
            # C order: the maps view the data row by row.
            np.save(path, np.ascontiguousarray(words))
            obj._offsets[s] = np.load(path, mmap_mode="r").offset
        obj.mti = [np.asarray(a, dtype=np.int64).copy() for a in payload["mti"]]
        obj.filled = [
            np.asarray(a, dtype=np.int64).copy() for a in payload["filled"]
        ]
        return obj


def _write_flat_indices(shardset: ShardSet, path: Path) -> np.ndarray:
    """Copy the shards' index regions back to back, in flat-edge-space
    order, into the ``.npy`` file ``path`` (the adjacency the phase code
    reads), one shard map at a time.  Returns the cross audience:
    ``cross[v]`` = v's listeners owned by other shards."""
    n, K = shardset.n, shardset.num_shards
    cross = np.zeros(n, dtype=np.int64)
    descr = np.lib.format.dtype_to_descr(np.dtype(np.int64))
    with open(path, "wb") as fh:
        np.lib.format.write_array_header_1_0(
            fh, {"descr": descr, "fortran_order": False, "shape": (shardset.m,)}
        )
        for s in range(K):
            idx = shardset.open_indices(s)
            idx.tofile(fh)
            if not idx.size:
                continue
            lens = np.diff(shardset.load_indptr(s))
            rowid = np.repeat(shardset.owned(s), lens)
            foreign = (idx % K) != s
            cross += np.bincount(rowid[foreign], minlength=n)
    return cross


class _ShardKernelMixin:
    """Shard plumbing shared by both sharded kernels.

    Subclasses inherit every ``_phase_*`` method from their vectorized
    parent; this mixin only (a) binds sharded containers in place of
    the resident arrays, (b) maintains the cross-shard audience and
    folds it into the metering, and (c) freezes/thaws state for
    checkpointing (memmaps cannot ride in checkpoint payloads).
    """

    #: Set per phase by the thin wrappers below; consumed by ``_meter``.
    _phase_words = 0

    # Subclass contracts.
    _KIND = ""
    _KERNEL_ARRAYS: tuple = ()
    _KERNEL_FLATS: tuple = ()

    _COMMON_ARRAYS = (
        "_audience",
        "_live_flag",
        "_live",
        "_is_inv",
        "_inv_color",
        "_cross_audience",
        "_r_inviters",
        "_r_partners",
        "_acc_s",
        "_acc_t",
        "_acc_c",
    )
    #: Only present after a round's respond phase recorded acceptances.
    _OPTIONAL_ARRAYS = ("_acc_word", "_acc_bit")

    def bind_shards(
        self,
        shardset: ShardSet,
        run_seed: int,
        spill_dir: PathLike,
        stats: Optional[ShardStats] = None,
        *,
        init: bool = True,
    ) -> List[int]:
        """Bind this kernel to a shard directory.

        With ``init=True`` (a fresh run) the mutable state — spill
        copies, RNG pools, role/round arrays — is created; with
        ``init=False`` only the immutable structure is bound and the
        caller (:func:`thaw_kernel`) restores the mutable state from a
        checkpoint payload.  Returns the isolated node ids (degree 0),
        as ``bind_graph`` does.
        """
        stats = stats if stats is not None else ShardStats()
        n = shardset.n
        K = shardset.num_shards
        self._shardset = shardset
        self._spill_dir = Path(spill_dir)
        self._stats = stats
        self.num_shards = K
        self._n = n
        self._deg = shardset.global_degrees()
        # Permuted flat-edge-space row starts stand in for CSR indptr:
        # the phase code only ever reads row starts (never differences
        # adjacent entries), so any layout with per-row-contiguous
        # regions works.
        self._indptr = shardset.global_starts()
        path = self._spill_dir / "indices.npy"
        self._cross_audience = _write_flat_indices(shardset, path)
        self._indices = np.load(path, mmap_mode="r")
        if not init:
            return []
        self._audience = self._deg.copy()
        self._live_flag = self._deg > 0
        self._live = np.nonzero(self._live_flag)[0]
        self._is_inv = np.zeros(n, dtype=bool)
        self._inv_color = np.zeros(n, dtype=np.int64)
        self._done = 0
        self._assign_chunks = []
        empty = np.zeros(0, dtype=np.int64)
        self._acc_s = self._acc_t = self._acc_c = empty
        self._r_inviters = self._r_partners = empty
        self._r_ni = 0
        self._r_first = False
        self._mt = ShardedMT(shardset, spill_dir, stats, run_seed)
        self._init_kernel_state()
        return np.nonzero(self._deg == 0)[0].tolist()

    def _init_kernel_state(self) -> None:
        raise NotImplementedError

    def _spill_flat(self, name: str, flat: Optional[np.ndarray] = None):
        """A writable flat memmap ``<name>.npy`` in the spill dir: a
        copy of the adjacency (the mutable partner lists start as exact
        copies of it), or of ``flat``, a frozen checkpoint array."""
        path = self._spill_dir / f"{name}.npy"
        if flat is None:
            shutil.copyfile(self._spill_dir / "indices.npy", path)
        else:
            np.save(path, np.asarray(flat))
        return np.load(path, mmap_mode="r+")

    def _freeze_params(self) -> dict:
        raise NotImplementedError

    # ---- metering -----------------------------------------------------

    def _apply_halts(self, halted: np.ndarray) -> None:
        if halted.size:
            rowid, pos = _ragged_positions(self._indptr[halted], self._deg[halted])
            if pos.size:
                nbrs = self._indices[pos]
                K = self.num_shards
                foreign = (nbrs % K) != (halted[rowid] % K)
                if np.any(foreign):
                    self._cross_audience -= np.bincount(
                        nbrs[foreign], minlength=self._n
                    )
        super()._apply_halts(halted)

    def _meter(self, senders: np.ndarray):
        count, delivered, discarded = super()._meter(senders)
        if count and self._phase_words:
            crossed = int(self._cross_audience[senders].sum())
            self._stats.cross_shard_bytes += (
                crossed * self._phase_words * _WORD_BYTES
            )
        return count, delivered, discarded

    def _phase_choose(self, collect: bool):
        self._phase_words = _INVITE_WORDS
        return super()._phase_choose(collect)

    def _phase_respond(self, collect: bool):
        self._phase_words = _REPLY_WORDS
        return super()._phase_respond(collect)

    def _phase_update(self, collect: bool):
        self._phase_words = _REPORT_WORDS
        return super()._phase_update(collect)

    def _phase_exchange(self, collect: bool):
        self._phase_words = 0
        return super()._phase_exchange(collect)

    # ---- checkpointing ------------------------------------------------

    def freeze(self) -> dict:
        """Mutable state as a plain-ndarray payload (deepcopy-safe,
        spill-dir independent).  Materializes the sharded containers —
        the documented size trade of checkpointing this tier."""
        payload = {
            "kind": self._KIND,
            "params": self._freeze_params(),
            "num_shards": self.num_shards,
            "arrays": {
                name: getattr(self, name).copy()
                for name in self._COMMON_ARRAYS + self._KERNEL_ARRAYS
            },
            "optional": {
                name: getattr(self, name).copy()
                for name in self._OPTIONAL_ARRAYS
                if hasattr(self, name)
            },
            "scalars": {
                "_done": int(self._done),
                "_r_ni": int(self._r_ni),
                "_r_first": bool(self._r_first),
                "work_total": int(self.work_total),
            },
            "flats": {
                name: np.array(getattr(self, name)) for name in self._KERNEL_FLATS
            },
            "mt": self._mt.freeze(),
            "assign_chunks": [
                (s.copy(), t.copy(), c.copy()) for s, t, c in self._assign_chunks
            ],
            # Cross-shard cost accumulated so far, so a resumed run's
            # final totals cover the whole computation.
            "stats": {
                "cross_shard_bytes": int(self._stats.cross_shard_bytes),
                "exchange_seconds": float(self._stats.exchange_seconds),
            },
        }
        return payload


class Alg1ShardKernel(_ShardKernelMixin, Alg1VecKernel):
    """Sharded Algorithm 1 — inherits every phase from
    :class:`Alg1VecKernel`; see the mixin for what changes."""

    _KIND = "alg1"
    _KERNEL_ARRAYS = ("_unc_len", "_used")
    _KERNEL_FLATS = ("_unc",)

    def _init_kernel_state(self) -> None:
        self._unc = self._spill_flat("unc")
        self._unc_len = self._deg.copy()
        self._used = np.zeros((self._n, 1), dtype=np.uint64)
        self.work_total = int(self._shardset.m)

    def _freeze_params(self) -> dict:
        return {
            "p_invite": self.p_invite,
            "color_strategy": self.color_strategy,
            "responder_strategy": self.responder_strategy,
        }


class DiMa2EdShardKernel(_ShardKernelMixin, DiMa2EdVecKernel):
    """Sharded DiMa2Ed — inherits every phase from
    :class:`DiMa2EdVecKernel`; see the mixin for what changes."""

    _KIND = "dima2ed"
    _KERNEL_ARRAYS = (
        "_out_len",
        "_in_len",
        "_forbidden",
        "_adv",
        "_fresh_colored",
        "_fresh_removed",
        "_dirty",
        "_fail_streak",
        "_inv_target",
        "_rep_ids",
        "_rep_colored",
        "_rep_removed",
    )
    _KERNEL_FLATS = ("_out", "_in")

    def _init_kernel_state(self) -> None:
        n = self._n
        self._out = self._spill_flat("out")
        self._out_len = self._deg.copy()
        self._in = self._spill_flat("in")
        self._in_len = self._deg.copy()
        u64 = np.uint64
        self._forbidden = np.zeros((n, 1), dtype=u64)
        self._adv = np.zeros((n, 1), dtype=u64)
        self._fresh_colored = np.zeros((n, 1), dtype=u64)
        self._fresh_removed = np.zeros((n, 1), dtype=u64)
        self._dirty = np.zeros(n, dtype=bool)
        self._fail_streak = np.zeros(n, dtype=np.int64)
        self._inv_target = np.zeros(n, dtype=np.int64)
        empty = np.zeros(0, dtype=np.int64)
        self._rep_ids = empty
        self._rep_colored = np.zeros((0, 1), dtype=u64)
        self._rep_removed = np.zeros((0, 1), dtype=u64)
        self.work_total = 2 * int(self._shardset.m)

    def _freeze_params(self) -> dict:
        return {
            "p_invite": self.p_invite,
            "channel_strategy": self.channel_strategy,
        }


_KERNEL_CLASSES = {
    "alg1": Alg1ShardKernel,
    "dima2ed": DiMa2EdShardKernel,
}


def thaw_kernel(
    payload: dict,
    shardset: ShardSet,
    spill_dir: PathLike,
    stats: Optional[ShardStats] = None,
):
    """Reconstruct a sharded kernel from a :meth:`freeze` payload
    against a fresh spill directory (restores are independent — each
    thaw writes its own spill files)."""
    stats = stats if stats is not None else ShardStats()
    kind = payload.get("kind")
    cls = _KERNEL_CLASSES.get(kind)
    if cls is None:
        raise ConfigurationError(f"unknown sharded kernel kind {kind!r}")
    if int(payload["num_shards"]) != shardset.num_shards:
        raise ConfigurationError(
            f"checkpoint was taken with {payload['num_shards']} shards, "
            f"shard dir has {shardset.num_shards}"
        )
    saved = payload.get("stats")
    if saved:
        stats.cross_shard_bytes += int(saved["cross_shard_bytes"])
        stats.exchange_seconds += float(saved["exchange_seconds"])
    kernel = cls(**payload["params"])
    kernel.bind_shards(shardset, 0, spill_dir, stats, init=False)
    for name, arr in payload["arrays"].items():
        setattr(kernel, name, np.asarray(arr).copy())
    for name, arr in payload["optional"].items():
        setattr(kernel, name, np.asarray(arr).copy())
    for name, value in payload["scalars"].items():
        setattr(kernel, name, value)
    for name, flat in payload["flats"].items():
        setattr(kernel, name, kernel._spill_flat(name.lstrip("_"), flat))
    kernel._mt = ShardedMT.thaw(shardset, spill_dir, stats, payload["mt"])
    kernel._assign_chunks = [
        (np.asarray(s).copy(), np.asarray(t).copy(), np.asarray(c).copy())
        for s, t, c in payload["assign_chunks"]
    ]
    return kernel
