"""Disk-backed CSR shards for the memory-bounded execution tier.

The sharded engine (:mod:`repro.runtime.sharded`) never holds the whole
graph resident: vertices are hash-partitioned across ``K`` logical
workers (``owner(v) = v % K`` — the strided partition keeps every
shard's load balanced for any labeling the generators produce), and
each worker's slice of the CSR lives in its own pair of ``.npy`` files
opened through ``numpy.memmap`` one shard at a time.

On-disk layout of a shard directory::

    manifest.json          # schema, n, m, num_shards, per-shard sizes
    shard-0.indptr.npy     # int64[n_0 + 1], local row starts
    shard-0.indices.npy    # int64[m_0], neighbor ids (global labels)
    shard-1.indptr.npy
    ...

Shard ``s`` owns the global ids ``s, s+K, s+2K, ...`` in ascending
order; local row ``l`` of shard ``s`` is global id ``l*K + s``.  The
*flat edge space* of a shard set is the concatenation of the shards'
indices regions: global flat position ``edge_base[s] + local_indptr[l]``
is where row ``l*K + s``'s adjacency starts.  The sharded kernels run
the unmodified vectorized phase logic against these permuted positions
(see :mod:`repro.core.sharded`), so the permutation is load-bearing —
it is what lets a row's adjacency stay contiguous inside one shard
file.  At bind the kernels copy the shards' index regions, in this
order, into one spill file, and gather and scatter on that one memmap.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path
from typing import List, Optional, Tuple, Union

import numpy as np

from repro.errors import GraphError

__all__ = [
    "SHARD_SCHEMA",
    "write_shards",
    "write_graph_shards",
    "ShardSet",
    "sharded_available",
]

PathLike = Union[str, Path]

#: Manifest schema version (bump on incompatible layout change).
SHARD_SCHEMA = 1

MANIFEST_NAME = "manifest.json"


def _owned_ids(shard: int, n: int, num_shards: int) -> np.ndarray:
    """Global ids owned by ``shard``, ascending (local order)."""
    return np.arange(shard, n, num_shards, dtype=np.int64)


def write_shards(
    indptr: np.ndarray,
    indices: np.ndarray,
    out_dir: PathLike,
    num_shards: int,
) -> "ShardSet":
    """Split one CSR into per-shard files under ``out_dir``.

    ``indptr``/``indices`` are a standard CSR adjacency over contiguous
    ids ``0..n-1`` (what ``Graph.to_csr()`` returns).  The split is by
    row ownership only — neighbor ids stay global, so a shard can meter
    which of its messages cross a shard boundary without consulting any
    other shard's files.
    """
    if num_shards < 1:
        raise GraphError(f"num_shards must be >= 1, got {num_shards}")
    indptr = np.asarray(indptr, dtype=np.int64)
    indices = np.asarray(indices, dtype=np.int64)
    if indptr.ndim != 1 or indptr.size < 1 or int(indptr[0]) != 0:
        raise GraphError("indptr must be 1-D with indptr[0] == 0")
    n = indptr.size - 1
    m = int(indptr[-1])
    if indices.size != m:
        raise GraphError(
            f"indices length {indices.size} does not match indptr[-1] == {m}"
        )
    if m and (int(indices.min()) < 0 or int(indices.max()) >= n):
        raise GraphError("indices must hold node ids in 0..n-1")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    degs = np.diff(indptr)
    shards = []
    for s in range(num_shards):
        owned = _owned_ids(s, n, num_shards)
        local_degs = degs[owned]
        local_indptr = np.zeros(owned.size + 1, dtype=np.int64)
        np.cumsum(local_degs, out=local_indptr[1:])
        m_local = int(local_indptr[-1])
        local_indices = np.lib.format.open_memmap(
            out / f"shard-{s}.indices.npy",
            mode="w+",
            dtype=np.int64,
            shape=(m_local,),
        )
        if m_local:
            rowid = np.repeat(np.arange(owned.size, dtype=np.int64), local_degs)
            excl = local_indptr[:-1]
            intra = np.arange(m_local, dtype=np.int64) - excl[rowid]
            local_indices[:] = indices[indptr[owned][rowid] + intra]
        local_indices.flush()
        del local_indices
        np.save(out / f"shard-{s}.indptr.npy", local_indptr)
        shards.append({"id": s, "n_local": int(owned.size), "m_local": m_local})
    manifest = {
        "schema": SHARD_SCHEMA,
        "n": n,
        "m": m,
        "num_shards": num_shards,
        "dtype": "int64",
        "shards": shards,
    }
    with open(out / MANIFEST_NAME, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=1, sort_keys=True)
    return ShardSet(out)


def write_graph_shards(graph, out_dir: PathLike, num_shards: int) -> "ShardSet":
    """Shard a :class:`~repro.graphs.adjacency.Graph` (or ``DiGraph``)
    via its cached ``to_csr()``."""
    indptr, indices = graph.to_csr()
    return write_shards(indptr, indices, out_dir, num_shards)


class ShardSet:
    """Loader for a shard directory written by :func:`write_shards`.

    Holds only the manifest metadata resident; shard arrays are opened
    as memmaps on demand so the caller controls which shard's pages are
    mapped at any moment (the whole point of the tier).
    """

    def __init__(self, directory: PathLike) -> None:
        self.dir = Path(directory)
        manifest_path = self.dir / MANIFEST_NAME
        if not manifest_path.is_file():
            raise GraphError(f"no shard manifest at {manifest_path}")
        with open(manifest_path, "r", encoding="utf-8") as fh:
            manifest = json.load(fh)
        schema = manifest.get("schema", 0)
        if schema > SHARD_SCHEMA:
            raise GraphError(
                f"shard manifest schema {schema} is newer than this "
                f"checkout understands ({SHARD_SCHEMA})"
            )
        self.n = int(manifest["n"])
        self.m = int(manifest["m"])
        self.num_shards = int(manifest["num_shards"])
        entries = sorted(manifest["shards"], key=lambda e: e["id"])
        if [e["id"] for e in entries] != list(range(self.num_shards)):
            raise GraphError(f"shard manifest at {manifest_path} has gaps")
        self.shard_nodes: List[int] = [int(e["n_local"]) for e in entries]
        self.shard_edges: List[int] = [int(e["m_local"]) for e in entries]
        if sum(self.shard_edges) != self.m:
            raise GraphError(
                f"shard edge counts sum to {sum(self.shard_edges)}, "
                f"manifest says m == {self.m}"
            )
        #: Flat-edge-space region starts per shard (``int64[K+1]``).
        self.edge_base = np.zeros(self.num_shards + 1, dtype=np.int64)
        np.cumsum(np.asarray(self.shard_edges, dtype=np.int64), out=self.edge_base[1:])

    def owned(self, shard: int) -> np.ndarray:
        """Global ids owned by ``shard``, ascending (== local order)."""
        return _owned_ids(shard, self.n, self.num_shards)

    def indptr_path(self, shard: int) -> Path:
        return self.dir / f"shard-{shard}.indptr.npy"

    def indices_path(self, shard: int) -> Path:
        return self.dir / f"shard-{shard}.indices.npy"

    def load_indptr(self, shard: int) -> np.ndarray:
        """One shard's local row starts, loaded resident (n_s + 1 words
        — small next to the shard's edge and RNG state)."""
        return np.load(self.indptr_path(shard))

    def open_indices(self, shard: int, mode: str = "r") -> np.ndarray:
        """One shard's neighbor array as a memmap (``mode`` as for
        ``numpy.load``'s ``mmap_mode``)."""
        return np.load(self.indices_path(shard), mmap_mode=mode)

    def global_degrees(self) -> np.ndarray:
        """Per-node degrees ``int64[n]``, reassembled shard by shard."""
        degs = np.empty(self.n, dtype=np.int64)
        for s in range(self.num_shards):
            degs[self.owned(s)] = np.diff(self.load_indptr(s))
        return degs

    def global_starts(self) -> np.ndarray:
        """Permuted flat-edge-space row starts ``int64[n]``.

        ``global_starts()[v]`` is where row ``v``'s adjacency begins in
        the concatenated shard edge space — the array the sharded
        kernels substitute for a CSR ``indptr`` (the phase logic only
        ever reads row *starts*).
        """
        starts = np.empty(self.n, dtype=np.int64)
        for s in range(self.num_shards):
            local_indptr = self.load_indptr(s)
            starts[self.owned(s)] = self.edge_base[s] + local_indptr[:-1]
        return starts

    def assemble_csr(self) -> Tuple[np.ndarray, np.ndarray]:
        """Reconstruct the original whole-graph CSR (round-trip tests;
        materializes everything — not for large graphs)."""
        degs = self.global_degrees()
        indptr = np.zeros(self.n + 1, dtype=np.int64)
        np.cumsum(degs, out=indptr[1:])
        indices = np.empty(self.m, dtype=np.int64)
        for s in range(self.num_shards):
            owned = self.owned(s)
            local_indptr = self.load_indptr(s)
            local_indices = np.asarray(self.open_indices(s))
            for l, v in enumerate(owned.tolist()):
                lo, hi = int(local_indptr[l]), int(local_indptr[l + 1])
                indices[indptr[v] : indptr[v] + (hi - lo)] = local_indices[lo:hi]
        return indptr, indices


_PROBE_CACHE: dict = {}


def sharded_available(spill_dir: Optional[PathLike] = None) -> bool:
    """Whether a writable, memmap-capable spill directory exists.

    The sharded tier needs to create and mutate ``.npy`` memmaps in a
    scratch directory (``spill_dir`` or the system temp dir).  Probed
    once per directory and cached — the differential harness uses this
    to report the tier as *skipped* rather than erroring when spill
    space is unavailable (read-only containers, full disks).
    """
    key = str(spill_dir) if spill_dir is not None else None
    cached = _PROBE_CACHE.get(key)
    if cached is not None:
        return cached
    base = str(spill_dir) if spill_dir is not None else tempfile.gettempdir()
    ok = False
    try:
        with tempfile.TemporaryDirectory(prefix="repro-shard-probe-", dir=base) as d:
            probe = np.lib.format.open_memmap(
                os.path.join(d, "probe.npy"), mode="w+", dtype=np.int64, shape=(8,)
            )
            probe[:] = np.arange(8)
            probe.flush()
            del probe
            back = np.load(os.path.join(d, "probe.npy"), mmap_mode="r")
            ok = bool(int(back[7]) == 7)
            del back
    except (OSError, ValueError):
        ok = False
    _PROBE_CACHE[key] = ok
    return ok
