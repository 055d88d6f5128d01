#!/usr/bin/env python
"""Sharded-tier scaling benchmark: memory-bounded runs on million-node graphs.

Sweeps Erdős–Rényi graphs through the sharded execution tier
(``compute="sharded"`` — :mod:`repro.runtime.sharded`) across worker
counts K, measuring the three costs that tier exists to expose:

* **wall time** — the routing/memmap overhead the disk-backed tier pays
  over the resident vectorized kernels;
* **cross-shard traffic** — ``cross_shard_bytes``, the wire bytes K
  communicating processes would exchange, plus the wall share spent in
  exchange (``shard_exchange_seconds``);
* **peak RSS** — the point of the tier.  Each measurement runs in a
  forked child whose only work is the sharded run, so the child's RSS
  high-water mark *is* the per-worker footprint; for the gated
  workloads it must stay below ``RSS_CEILING_FRACTION`` of the
  whole-population MT pool (``n x 624 x 4`` bytes — the dominant
  resident block of the in-memory tiers) or the benchmark fails.

Graphs are generated CSR-natively (numpy only — no Python ``Graph``
object ever holds a million nodes) and sharded to disk in the parent;
children open the shard directory cold, exactly as a real out-of-core
run would.  A small-n digest cross-check against the vectorized tier
runs first, so every benchmark invocation doubles as a correctness gate.

Results land in ``BENCH_shards.json`` at the repo root by default.

Usage::

    PYTHONPATH=src python benchmarks/bench_shard_scaling.py            # full sweep
    PYTHONPATH=src python benchmarks/bench_shard_scaling.py --smoke    # CI subset
    PYTHONPATH=src python benchmarks/bench_shard_scaling.py --smoke \
        --out /tmp/shards.json                                         # artifact
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import multiprocessing as mp
import platform
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, Optional, Sequence

import numpy as np

REPO_ROOT = Path(__file__).resolve().parents[1]
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))
if str(REPO_ROOT / "benchmarks") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "benchmarks"))

from benchlib import peak_rss_kb  # noqa: E402

from repro.core.dima2ed import strong_color_arcs  # noqa: E402
from repro.core.edge_coloring import color_edges, default_round_budget  # noqa: E402
from repro.core.sharded import Alg1ShardKernel, DiMa2EdShardKernel  # noqa: E402
from repro.core.states import PHASES_PER_ROUND  # noqa: E402
from repro.graphs.generators import erdos_renyi_avg_degree  # noqa: E402
from repro.graphs.shards import ShardSet, write_shards  # noqa: E402
from repro.runtime.sharded import ShardedEngine  # noqa: E402

DEFAULT_OUT = REPO_ROOT / "BENCH_shards.json"

#: Bytes of MT19937 pool state per node — the dominant resident block
#: of the in-memory tiers and the denominator of the RSS gate.
_MT_BYTES_PER_NODE = 624 * 4

#: A gated child's peak RSS must stay below this fraction of the
#: whole-population MT pool.  At n=10^6 the pool is ~2.4 GiB and a
#: 4-shard run carries ~1/4 of it plus planes and interpreter overhead,
#: so 0.6 fails only when the tier has genuinely lost its memory bound
#: (e.g. a whole-population array snuck back in).
RSS_CEILING_FRACTION = 0.6

GRAPH_SEED = 1
RUN_SEED = 0

#: name -> spec.  ``smoke`` entries form the CI subset.  ``gate_rss``
#: marks the workloads large enough that the MT pool dwarfs interpreter
#: baseline RSS, where the ceiling assertion is meaningful.
WORKLOADS: Dict[str, Dict[str, Any]] = {
    "alg1-er-n100k-d8": dict(
        kind="alg1", n=100_000, deg=8.0, shard_counts=(1, 4), smoke=False, gate_rss=False
    ),
    "alg1-er-n1m-d8": dict(
        kind="alg1", n=1_000_000, deg=8.0, shard_counts=(1, 2, 4, 8), smoke=True,
        smoke_shard_counts=(4,), gate_rss=True,
    ),
    "dima2ed-er-n1m-d6": dict(
        kind="dima2ed", n=1_000_000, deg=6.0, shard_counts=(1, 4), smoke=True,
        smoke_shard_counts=(4,), gate_rss=True,
    ),
}


def er_csr(n: int, avg_deg: float, seed: int):
    """A symmetric ER-ish CSR built numpy-natively (no ``Graph``).

    Samples ~n*d/2 unordered pairs, drops self-loops, dedupes, and
    symmetrizes into a row-sorted CSR.  The distribution is the usual
    G(n, m)-style approximation — fine for a scaling benchmark; the
    exact-family correctness runs use the repo generators at small n.
    """
    rng = np.random.default_rng(seed)
    m = int(n * avg_deg / 2)
    u = rng.integers(0, n, size=int(m * 1.2) + 16, dtype=np.int64)
    v = rng.integers(0, n, size=int(m * 1.2) + 16, dtype=np.int64)
    keep = u != v
    u, v = u[keep], v[keep]
    a, b = np.minimum(u, v), np.maximum(u, v)
    key = np.unique(a * n + b)[:m]
    a, b = key // n, key % n
    src = np.concatenate([a, b])
    dst = np.concatenate([b, a])
    order = np.lexsort((dst, src))
    src, dst = src[order], dst[order]
    indptr = np.zeros(n + 1, dtype=np.int64)
    indptr[1:] = np.cumsum(np.bincount(src, minlength=n))
    return indptr, np.ascontiguousarray(dst)


def _run_sharded(shard_dir: Path, spill_dir: Path, kind: str, delta: int):
    kernel = Alg1ShardKernel() if kind == "alg1" else DiMa2EdShardKernel()
    shardset = ShardSet(shard_dir)
    engine = ShardedEngine(
        shardset,
        kernel,
        num_shards=shardset.num_shards,
        spill_dir=spill_dir,
        seed=RUN_SEED,
        max_supersteps=default_round_budget(delta) * PHASES_PER_ROUND,
    )
    t0 = time.perf_counter()
    run = engine.run()
    wall = time.perf_counter() - t0
    if not run.completed:
        raise RuntimeError(
            f"sharded {kind} run failed to converge in {run.supersteps} supersteps"
        )
    m = run.metrics
    return {
        "wall_s": round(wall, 3),
        "supersteps": run.supersteps,
        "rounds": run.supersteps // PHASES_PER_ROUND,
        "shard_workers": m.shard_workers,
        "cross_shard_bytes": m.cross_shard_bytes,
        "shard_exchange_seconds": round(m.shard_exchange_seconds, 3),
        "messages_delivered": int(m.messages_delivered),
        "peak_rss_kb": peak_rss_kb(),
    }


def _measure(shard_dir: Path, kind: str, delta: int) -> Dict[str, Any]:
    """One sharded run in a forked child — the child's RSS high-water
    mark is the per-worker footprint the gate asserts on."""

    def _child(conn, spill):
        try:
            conn.send(("ok", _run_sharded(shard_dir, Path(spill), kind, delta)))
        except BaseException as exc:
            conn.send(("err", repr(exc)))
        finally:
            conn.close()

    with tempfile.TemporaryDirectory(prefix="repro-bench-spill-") as spill:
        if "fork" not in mp.get_all_start_methods():
            return _run_sharded(shard_dir, Path(spill), kind, delta)
        ctx = mp.get_context("fork")
        parent, child = ctx.Pipe()
        proc = ctx.Process(target=_child, args=(child, spill))
        proc.start()
        child.close()
        status, payload = parent.recv()
        proc.join()
    if status != "ok":
        raise RuntimeError(f"benchmark child failed ({kind}): {payload}")
    return payload


def _digest(colors) -> str:
    return hashlib.sha256(repr(sorted(colors.items())).encode()).hexdigest()[:16]


def correctness_gate() -> Dict[str, Any]:
    """Small-n digest cross-check: sharded == vectorized, both algorithms."""
    g = erdos_renyi_avg_degree(5_000, 6.0, seed=GRAPH_SEED)
    out: Dict[str, Any] = {}
    vec = color_edges(g, seed=RUN_SEED, compute="auto")
    sharded = color_edges(g, seed=RUN_SEED, compute="sharded", shards=3)
    if (
        _digest(vec.colors) != _digest(sharded.colors)
        or vec.metrics.as_dict() != sharded.metrics.as_dict()
    ):
        raise RuntimeError("sharded tier diverged from vectorized on alg1 n=5000")
    out["alg1"] = {"digest": _digest(sharded.colors), "n": 5_000, "identical": True}
    d = g.to_directed()
    vec = strong_color_arcs(d, seed=RUN_SEED, compute="auto")
    sharded = strong_color_arcs(d, seed=RUN_SEED, compute="sharded", shards=3)
    if (
        _digest(vec.colors) != _digest(sharded.colors)
        or vec.metrics.as_dict() != sharded.metrics.as_dict()
    ):
        raise RuntimeError("sharded tier diverged from vectorized on dima2ed n=5000")
    out["dima2ed"] = {"digest": _digest(sharded.colors), "n": 5_000, "identical": True}
    return out


def run_sweep(smoke: bool, shards_override: Optional[Sequence[int]] = None) -> Dict[str, Any]:
    print("correctness gate (sharded vs vectorized, n=5000) ...", flush=True)
    gate = correctness_gate()
    print("correctness gate OK", flush=True)

    workloads: Dict[str, Any] = {}
    rss_failures = []
    for name, spec in WORKLOADS.items():
        if smoke and not spec["smoke"]:
            continue
        if shards_override:
            shard_counts = tuple(shards_override)
        elif smoke:
            shard_counts = spec.get("smoke_shard_counts", spec["shard_counts"])
        else:
            shard_counts = spec["shard_counts"]
        n = spec["n"]
        print(f"[{name}] generating CSR (n={n}) ...", flush=True)
        indptr, indices = er_csr(n, spec["deg"], GRAPH_SEED)
        delta = int(np.diff(indptr).max())
        mt_pool_bytes = n * _MT_BYTES_PER_NODE
        entry: Dict[str, Any] = {
            "kind": spec["kind"],
            "n": n,
            "edges": int(len(indices)) // 2,
            "delta": delta,
            "mt_pool_bytes": mt_pool_bytes,
            "rss_gated": bool(spec["gate_rss"]),
            "by_shards": {},
        }
        with tempfile.TemporaryDirectory(prefix="repro-bench-shards-") as tmp:
            for k in shard_counts:
                shard_dir = Path(tmp) / f"s{k}"
                write_shards(indptr, indices, shard_dir, k)
                # Drop the parent's references before forking so COW
                # pages don't ride into the child's RSS baseline.
                if k == shard_counts[-1]:
                    del indptr, indices
                    gc.collect()
                print(f"[{name}] shards={k} ...", flush=True)
                result = _measure(shard_dir, spec["kind"], delta)
                rss_bytes = result["peak_rss_kb"] * 1024
                result["rss_over_mt_pool"] = round(rss_bytes / mt_pool_bytes, 3)
                entry["by_shards"][str(k)] = result
                if spec["gate_rss"] and k >= 2:
                    ceiling = RSS_CEILING_FRACTION * mt_pool_bytes
                    ok = rss_bytes < ceiling
                    result["rss_within_ceiling"] = ok
                    if not ok:
                        rss_failures.append(
                            f"{name} shards={k}: peak RSS "
                            f"{rss_bytes / 2**20:.0f} MiB >= ceiling "
                            f"{ceiling / 2**20:.0f} MiB"
                        )
                print(
                    f"[{name}] shards={k} wall {result['wall_s']:.1f}s "
                    f"rss {result['peak_rss_kb'] / 1024:.0f} MiB "
                    f"({result['rss_over_mt_pool']:.2f}x MT pool) "
                    f"exchange {result['shard_exchange_seconds']:.1f}s "
                    f"cross {result['cross_shard_bytes'] / 2**20:.0f} MiB",
                    flush=True,
                )
        one = entry["by_shards"].get("1")
        if one is not None:
            for k, r in entry["by_shards"].items():
                r["wall_over_k1"] = round(r["wall_s"] / one["wall_s"], 3) if one["wall_s"] else None
        workloads[name] = entry
    report = {
        "schema": 1,
        "generated_by": "benchmarks/bench_shard_scaling.py",
        "mode": "smoke" if smoke else "full",
        "python": platform.python_version(),
        "machine": platform.machine(),
        "rss_ceiling_fraction": RSS_CEILING_FRACTION,
        "units": {"wall_s": "seconds", "peak_rss_kb": "KiB", "cross_shard_bytes": "bytes"},
        "correctness": gate,
        "workloads": workloads,
        "rss_failures": rss_failures,
    }
    return report


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true", help="run only the CI subset of workloads"
    )
    parser.add_argument(
        "--out", type=Path, default=DEFAULT_OUT, help="where to write the JSON report"
    )
    parser.add_argument(
        "--shards",
        default=None,
        metavar="K[,K...]",
        help="override every workload's shard-count sweep (e.g. 4 or 1,4,8)",
    )
    args = parser.parse_args(argv)

    shards_override = None
    if args.shards is not None:
        try:
            shards_override = [int(part) for part in str(args.shards).split(",")]
        except ValueError:
            parser.error(f"--shards expects integers, got {args.shards!r}")
        if any(k < 1 for k in shards_override):
            parser.error("--shards values must be >= 1")

    report = run_sweep(smoke=args.smoke, shards_override=shards_override)
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(f"wrote {args.out}")
    if report["rss_failures"]:
        for line in report["rss_failures"]:
            print(f"FAIL: {line}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
