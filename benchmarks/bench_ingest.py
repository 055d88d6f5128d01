#!/usr/bin/env python
"""Ingest benchmark: edge-list file to CSR, array path against line parser.

Writes an Erdős–Rényi graph as a native edge list, then times
``read_edge_list`` followed by ``to_csr()`` two ways:

* ``array`` — the public reader, which parses a canonical native file
  straight into edge arrays (``Graph.from_edge_arrays``);
* ``lines`` — the line parser every other input takes
  (``repro.graphs.io._read_lines``), which builds adjacency sets and
  walks them for the CSR.

Both must give byte-identical CSRs.  The verifiers' graph side
(``repro.verify._arrays.adjacency``: edge arrays for the array-built
graph, a set walk for the other) is timed separately, since the
verifiers run after the kernel, not at ingest.

**Gate (``--check``): the array path is at least 3x faster.**  A ratio
of two timings on one host, so it does not depend on the host's speed.

Usage::

    PYTHONPATH=src python benchmarks/bench_ingest.py                  # full, ~4e5 edges
    PYTHONPATH=src python benchmarks/bench_ingest.py --smoke --check  # CI, ~4e4 edges
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import tempfile
import time
from pathlib import Path
from typing import Callable, Dict

REPO_ROOT = Path(__file__).resolve().parents[1]
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))

import numpy as np  # noqa: E402

from repro.graphs.generators import erdos_renyi_avg_degree  # noqa: E402
from repro.graphs.io import _read_lines, read_edge_list, write_edge_list  # noqa: E402
from repro.verify._arrays import adjacency  # noqa: E402

DEFAULT_OUT = REPO_ROOT / "benchmarks" / "out" / "BENCH_ingest.json"
GRAPH_SEED = 1
AVG_DEGREE = 8.0
#: Node counts: about 4e5 edges in full, 4e4 in smoke.
NODES = {"full": 100_000, "smoke": 10_000}
RATIO_GATE = 3.0
#: Each timing is the best of this many runs.
REPEATS = 3

READERS: Dict[str, Callable] = {"array": read_edge_list, "lines": _read_lines}


def _best(fn: Callable) -> float:
    best = float("inf")
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _row(name: str, path: Path) -> Dict:
    read = READERS[name]

    def ingest():
        graph = read(path)
        graph.to_csr()
        return graph

    wall = _best(ingest)
    graph = ingest()
    verifier = _best(lambda: adjacency(graph, graph.neighbors))
    indptr, indices = graph.to_csr()
    return {
        "path": name,
        "array_built": graph.edge_arrays() is not None,
        "ingest_seconds": wall,
        "verifier_graph_seconds": verifier,
        "csr": indptr.tobytes() + indices.tobytes(),
        "edges": graph.num_edges,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true", help="CI-sized run")
    parser.add_argument("--check", action="store_true", help=f"fail below {RATIO_GATE}x")
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT)
    args = parser.parse_args(argv)
    size = "smoke" if args.smoke else "full"
    n = NODES[size]

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "er.edges"
        write_edge_list(erdos_renyi_avg_degree(n, AVG_DEGREE, seed=GRAPH_SEED), path)
        file_bytes = path.stat().st_size
        rows = [_row(name, path) for name in READERS]

    identical = rows[0].pop("csr") == rows[1].pop("csr")
    ratio = rows[1]["ingest_seconds"] / rows[0]["ingest_seconds"]
    report = {
        "bench": "ingest",
        "size": size,
        "n": n,
        "edges": rows[0]["edges"],
        "avg_degree": AVG_DEGREE,
        "file_bytes": file_bytes,
        "repeats": REPEATS,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "rows": rows,
        "csr_identical": identical,
        "speedup": ratio,
        "ratio_gate": RATIO_GATE,
    }
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(report, indent=2) + "\n")

    for row in rows:
        print(
            f"{row['path']:<6} ingest {row['ingest_seconds'] * 1e3:8.1f} ms   "
            f"verifier graph side {row['verifier_graph_seconds'] * 1e3:7.1f} ms"
        )
    print(f"n={n} m={report['edges']}: array path {ratio:.1f}x faster; CSRs identical: {identical}")

    if not identical or not rows[0]["array_built"] or rows[1]["array_built"]:
        print("FAIL: the two paths disagree, or a graph came from the wrong path")
        return 1
    if args.check and ratio < RATIO_GATE:
        print(f"FAIL: array path {ratio:.2f}x faster, below the {RATIO_GATE}x gate")
        return 1
    if args.check:
        print(f"PASS: array path {ratio:.2f}x >= {RATIO_GATE}x")
    return 0


if __name__ == "__main__":
    sys.exit(main())
