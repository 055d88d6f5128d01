#!/usr/bin/env python
"""Coloring-service load benchmark: mutation latency against session size.

Starts a real :class:`repro.serve.server.ColoringServer` (asyncio, TCP
loopback) on a background thread and, for each algorithm and each
session size, creates one session from an Erdős–Rényi graph of average
degree 4 and drives a deterministic load mix through the blocking
:class:`~repro.serve.protocol.ServeClient`:

* ``mutate`` batches of one edge — mostly insertions (the incremental
  path), some removals;
* ``color`` point queries against edges known to exist.

The sizes sweep the session from about 10³ to 10⁵ edges (smoke: 10³
and 10⁴) at the same batch size, so the report shows whether a
mutation costs time proportional to the batch or to the session.
Reported per algorithm and size: requests/s, p50/p95/p99 latency per op
class, the incremental hit ratio, and the fallback count.  ``--check``
gates (loopback):

* p99 mutate latency under ``--p99-gate`` seconds at every size
  (default 2.0 — a localized rerun is milliseconds; only a pathological
  regression to whole-graph reruns on every batch breaches seconds),
* p50 mutate latency at the largest size at most
  ``P50_GROWTH_GATE`` (2x) the p50 at the smallest, per algorithm,
* zero properness violations (every batch ran under server-side
  verification),
* incremental hit ratio ≥ 0.9 on single-insert batches.

Usage::

    PYTHONPATH=src python benchmarks/bench_serve.py            # full
    PYTHONPATH=src python benchmarks/bench_serve.py --smoke --check
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from pathlib import Path
from typing import Any, Dict, List

REPO_ROOT = Path(__file__).resolve().parents[1]
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))
if str(REPO_ROOT / "benchmarks") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "benchmarks"))

from repro.graphs.generators import erdos_renyi_avg_degree  # noqa: E402
from repro.obs.registry import MetricsRegistry  # noqa: E402
from repro.serve.protocol import ServeClient  # noqa: E402
from repro.serve.server import ColoringServer, ServerThread  # noqa: E402
from repro.serve.session import SessionManager  # noqa: E402

from benchlib import append_bench_history, host_fingerprint  # noqa: E402

DEFAULT_OUT = REPO_ROOT / "benchmarks" / "out" / "BENCH_serve.json"
GRAPH_SEED = 11
LOAD_SEED = 5
#: Session sizes in edges; the graphs have average degree AVG_DEGREE.
SIZES = (10**3, 10**4, 10**5)
SMOKE_SIZES = (10**3, 10**4)
AVG_DEGREE = 4.0
#: --check: p50 mutate latency at the largest size over the smallest.
P50_GROWTH_GATE = 2.0


def _percentile(sorted_values: List[float], q: float) -> float:
    if not sorted_values:
        return 0.0
    idx = min(len(sorted_values) - 1, int(round(q * (len(sorted_values) - 1))))
    return sorted_values[idx]


def _latency_stats(samples: List[float]) -> Dict[str, float]:
    ordered = sorted(samples)
    return {
        "count": len(ordered),
        "p50_s": round(_percentile(ordered, 0.50), 6),
        "p95_s": round(_percentile(ordered, 0.95), 6),
        "p99_s": round(_percentile(ordered, 0.99), 6),
        "max_s": round(ordered[-1] if ordered else 0.0, 6),
    }


def _drive(
    client: ServeClient,
    name: str,
    algorithm: str,
    *,
    edges_target: int,
    requests: int,
    rng: random.Random,
) -> Dict[str, Any]:
    n = round(2 * edges_target / AVG_DEGREE)
    base = erdos_renyi_avg_degree(n, AVG_DEGREE, seed=GRAPH_SEED)
    client.request(
        "create",
        name=name,
        algorithm=algorithm,
        seed=rng.randrange(2**31),
        edges=[[u, v] for u, v in base.edge_list()],
        num_nodes=base.num_nodes,
    )
    edges = list(base.edge_list())
    present = set(edges)
    mutate_lat: List[float] = []
    query_lat: List[float] = []
    single_attempts = 0
    single_hits = 0
    fallbacks = 0
    violations = 0
    t_start = time.perf_counter()
    for _ in range(requests):
        roll = rng.random()
        if roll < 0.55:
            # Single-edge insertion (retry a few times for a non-edge).
            pair = None
            for _ in range(30):
                u, v = rng.sample(range(n), 2)
                if (min(u, v), max(u, v)) not in present:
                    pair = (u, v)
                    break
            if pair is None:
                continue
            t0 = time.perf_counter()
            out = client.request(
                "mutate",
                name=name,
                mutations=[{"op": "add_edge", "u": pair[0], "v": pair[1]}],
            )["outcome"]
            mutate_lat.append(time.perf_counter() - t0)
            edges.append((min(pair), max(pair)))
            present.add(edges[-1])
            single_attempts += 1
            if out["incremental"] and not out["fallback"]:
                single_hits += 1
            fallbacks += out["fallback"]
            violations += len(out["violations"])
        elif roll < 0.7 and len(edges) > n // 2:
            i = rng.randrange(len(edges))
            edges[i], edges[-1] = edges[-1], edges[i]
            u, v = edges.pop()
            present.discard((u, v))
            t0 = time.perf_counter()
            out = client.request(
                "mutate",
                name=name,
                mutations=[{"op": "remove_edge", "u": u, "v": v}],
            )["outcome"]
            mutate_lat.append(time.perf_counter() - t0)
            fallbacks += out["fallback"]
            violations += len(out["violations"])
        else:
            u, v = rng.choice(edges)
            t0 = time.perf_counter()
            client.request("color", name=name, u=u, v=v)
            query_lat.append(time.perf_counter() - t0)
    wall_s = time.perf_counter() - t_start
    client.request("drop", name=name)
    total = len(mutate_lat) + len(query_lat)
    return {
        "algorithm": algorithm,
        "nodes": n,
        "edges": base.num_edges,
        "requests": total,
        "wall_s": round(wall_s, 6),
        "requests_per_s": round(total / wall_s, 1) if wall_s else 0.0,
        "mutate": _latency_stats(mutate_lat),
        "query": _latency_stats(query_lat),
        "single_insert_attempts": single_attempts,
        "single_insert_hits": single_hits,
        "single_insert_hit_ratio": (
            round(single_hits / single_attempts, 4) if single_attempts else None
        ),
        "fallbacks": fallbacks,
        "violations": violations,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true", help="CI-sized run")
    parser.add_argument(
        "--check", action="store_true", help="enforce the gates (see docstring)"
    )
    parser.add_argument(
        "--p99-gate", type=float, default=2.0, metavar="S",
        help="p99 mutate-latency bound in seconds for --check (default 2.0)",
    )
    parser.add_argument(
        "--requests", type=int, default=None,
        help="requests per algorithm and size (default: 600, smoke: 150)",
    )
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT)
    parser.add_argument(
        "--no-history", action="store_true",
        help="skip appending to benchmarks/out/bench_history.jsonl",
    )
    args = parser.parse_args(argv)

    sizes = SMOKE_SIZES if args.smoke else SIZES
    requests = args.requests or (150 if args.smoke else 600)
    rng = random.Random(LOAD_SEED)
    registry = MetricsRegistry()
    server = ColoringServer(SessionManager(), registry=registry)

    report: Dict[str, Any] = {
        "benchmark": "serve",
        "smoke": args.smoke,
        "host": host_fingerprint(),
        "avg_degree": AVG_DEGREE,
        "requests_per_size": requests,
        "algorithms": {},
    }
    with ServerThread(server) as srv:
        with ServeClient(srv.host, srv.port, timeout=120.0) as client:
            for algorithm in ("alg1", "dima2ed"):
                rows = [
                    _drive(
                        client,
                        f"bench-{algorithm}",
                        algorithm,
                        edges_target=size,
                        requests=requests,
                        rng=rng,
                    )
                    for size in sizes
                ]
                smallest = rows[0]["mutate"]["p50_s"]
                report["algorithms"][algorithm] = {
                    "sizes": rows,
                    "p50_growth": (
                        round(rows[-1]["mutate"]["p50_s"] / smallest, 3)
                        if smallest else None
                    ),
                }

    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(report, indent=2, sort_keys=True))
    for algorithm, sweep in report["algorithms"].items():
        for row in sweep["sizes"]:
            print(
                f"serve[{algorithm}, {row['edges']} edges]: {row['requests']} "
                f"requests at {row['requests_per_s']}/s; mutate p50 "
                f"{row['mutate']['p50_s'] * 1e3:.2f}ms p99 "
                f"{row['mutate']['p99_s'] * 1e3:.2f}ms; hit ratio "
                f"{row['single_insert_hit_ratio']}; fallbacks {row['fallbacks']}"
            )
        print(f"serve[{algorithm}]: p50 growth {sweep['p50_growth']}x")
    print(f"report written to {args.out}")

    if not args.no_history:
        entry = {
            "schema": 1,
            "benchmark": "serve",
            "recorded": time.strftime("%Y-%m-%dT%H:%M:%S"),
            "host": report["host"],
            "workloads": {
                f"{alg}-e{row['edges']}": {
                    "serve": {
                        "wall_s": row["wall_s"],
                        "requests_per_s": row["requests_per_s"],
                        "mutate_p50_s": row["mutate"]["p50_s"],
                        "mutate_p99_s": row["mutate"]["p99_s"],
                    }
                }
                for alg, sweep in report["algorithms"].items()
                for row in sweep["sizes"]
            },
        }
        append_bench_history(entry)

    if args.check:
        failures = []
        for algorithm, sweep in report["algorithms"].items():
            for row in sweep["sizes"]:
                where = f"{algorithm} at {row['edges']} edges"
                if row["violations"]:
                    failures.append(
                        f"{where}: {row['violations']} properness violations"
                    )
                if row["mutate"]["p99_s"] > args.p99_gate:
                    failures.append(
                        f"{where}: mutate p99 {row['mutate']['p99_s']}s "
                        f"exceeds gate {args.p99_gate}s"
                    )
                ratio = row["single_insert_hit_ratio"]
                if ratio is not None and ratio < 0.9:
                    failures.append(
                        f"{where}: incremental hit ratio {ratio} < 0.9"
                    )
            growth = sweep["p50_growth"]
            if growth is not None and growth > P50_GROWTH_GATE:
                failures.append(
                    f"{algorithm}: mutate p50 grew {growth}x from "
                    f"{sweep['sizes'][0]['edges']} to "
                    f"{sweep['sizes'][-1]['edges']} edges "
                    f"(gate {P50_GROWTH_GATE}x)"
                )
        if failures:
            for failure in failures:
                print(f"CHECK FAILED: {failure}")
            return 1
        print("checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
