#!/usr/bin/env python3
"""The repository benchmark.

One run of one workload, in this fresh process::

    python3 perfbench/run.py --workload file-pipeline --seed 2012 --seconds 10 --trace 0

prints the end-to-end metrics (``--trace 0``) or the per-layer metrics
of a separate traced run (``--trace 1``), as the last line of standard
output::

    {"correct": true, "attempted": 2, "failed": 0, "metrics": {"setup_s": {"value": 2.2, "unit": "s"}, ...}}

``--workload all`` runs every workload BENCHMARK.json lists, each in a
fresh process, names the dropped ``paper-grid`` and why, and prints a
table of every metric by name and unit.  ``--record FILE``
appends each run's record (result, host fingerprint, numpy version, the
backend ``compute="auto"`` selected); ``--compare OLD NEW`` compares two
record files and refuses when their backends differ.  The workloads,
the metric definitions and the map from each layer to the end-to-end
metric it should move are in ``perfbench/map.json``.

The benchmark builds nothing: it imports the ``repro`` package from the
checkout's own ``src/`` and exits with status 2, printing no result,
when that is missing.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

CHECKOUT = Path(__file__).resolve().parents[1]

#: The workloads BENCHMARK.json gates on, and those dropped, with the reason.
WORKLOADS = ("file-pipeline", "serve-edit", "outofcore")
DROPPED = {
    "paper-grid": "its timings spread 0.22-0.51 (IQR/median) over ten seeds on a 2-core host, "
                  "above any allowed bound; its layers are all measured on file-pipeline",
}
DEFAULT_SEED = 2012
DEFAULT_SECONDS = 25


def _fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    raise SystemExit(2)


def _import_checkout() -> None:
    """Put this checkout's ``src/``, ``benchmarks/`` and root first on the
    path, and make sure ``repro`` really comes from there."""
    for needed in ("src/repro/__init__.py", "benchmarks/benchlib.py",
                   "benchmarks/bench_shard_scaling.py"):
        if not (CHECKOUT / needed).is_file():
            _fail(f"{needed} is missing from {CHECKOUT}; run from a full checkout")
    for entry in (CHECKOUT, CHECKOUT / "benchmarks", CHECKOUT / "src"):
        sys.path.insert(0, str(entry))
    import repro

    if Path(repro.__file__).resolve().parent != CHECKOUT / "src" / "repro":
        _fail(f"imported repro from {repro.__file__}, not from this checkout")


def _parse(argv):
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",),
                        default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "small"), default="full",
                        help="input sizes; 'small' is for the benchmark's own tests")
    parser.add_argument("--record", type=Path, help="append each run record to this file")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("OLD", "NEW"),
                        help="compare two record files instead of running")
    return parser.parse_args(argv)


def run_one(args) -> dict:
    import json

    import numpy as np
    from benchlib import host_fingerprint

    from perfbench import batch, serve_edit
    from perfbench.common import E2E_UNITS, LAYER_UNITS, OUT_ROOT, work_dir
    from repro.core.batched import select_backend

    with work_dir(args.workload) as work:
        if args.workload == "serve-edit":
            report, tracer = serve_edit.run(args.seed, args.seconds, bool(args.trace), args.size, work)
        else:
            report, tracer = batch.run(args.workload, args.seed, args.seconds, bool(args.trace),
                                       args.size, work)
    if args.trace:
        # A layer the workload never calls reads 0.
        units, metrics = LAYER_UNITS, {**dict.fromkeys(LAYER_UNITS, 0.0), **report.metrics}
    else:
        units, metrics = E2E_UNITS, report.metrics
    if set(metrics) != set(units):
        raise RuntimeError(f"metric set mismatch: {sorted(set(units) ^ set(metrics))}")
    if args.trace:
        tracer.write(OUT_ROOT / f"spans-{args.workload}-{args.seed}.jsonl")
    result = {
        "correct": report.failed == 0,
        "attempted": report.attempted,
        "failed": report.failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": unit}
                    for name, unit in units.items()},
    }
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": args.size, "host": host_fingerprint(),
        "numpy": np.__version__, "backend": select_backend("auto"), **report.record,
        "result": result,
    }
    for line in report.lines:
        print(line)
    print("# record " + json.dumps(record, sort_keys=True))
    if args.record is not None:
        with open(args.record, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
    print(json.dumps(result))
    return result


def run_all(args) -> None:
    """Every kept workload, each in a fresh process; then one table."""
    import json
    import subprocess

    for workload, why in DROPPED.items():
        print(f"dropped workload {workload}: {why}")
    results = {}
    for workload in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--size", args.size]
        if args.record is not None:
            cmd += ["--record", str(args.record)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=CHECKOUT)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            _fail(f"workload {workload} exited with status {proc.returncode}")
        results[workload] = json.loads(lines[-1])
    names = list(results[WORKLOADS[0]]["metrics"])
    print(f"\n{'metric':<26} {'unit':<9}" + "".join(f"{w:>16}" for w in WORKLOADS))
    for name in names:
        unit = results[WORKLOADS[0]]["metrics"][name]["unit"]
        values = "".join(f"{results[w]['metrics'][name]['value']:>16.6g}" for w in WORKLOADS)
        print(f"{name:<26} {unit:<9}{values}")
    print(f"{'correct':<36}" + "".join(f"{str(results[w]['correct']):>16}" for w in WORKLOADS))
    print(json.dumps(results))


def compare(old: Path, new: Path) -> None:
    """Median of each (workload, metric) on both sides, with the change."""
    import json

    from perfbench.common import median

    sides = []
    for path in (old, new):
        records = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines() if line]
        if not records:
            _fail(f"{path} holds no run records")
        sides.append(records)
    backends = [{r["backend"] for r in records} for records in sides]
    if len(backends[0] | backends[1]) != 1:
        _fail(f"refusing to compare runs on different backends: {backends[0]} vs {backends[1]}")
    hosts = [{r["host"]["fingerprint"] for r in records} for records in sides]
    if hosts[0] != hosts[1]:
        print(f"warning: host fingerprints differ: {hosts[0]} vs {hosts[1]}")
    print(f"{'workload':<14} {'metric':<26} {'old':>14} {'new':>14} {'change':>8}")
    for workload in WORKLOADS:
        values = [{}, {}]
        for side, records in zip(values, sides):
            for r in records:
                if r["workload"] == workload:
                    for name, m in r["result"]["metrics"].items():
                        side.setdefault(name, []).append(m["value"])
        for name in values[0]:
            if name in values[1]:
                a, b = median(values[0][name]), median(values[1][name])
                change = f"{100 * (b - a) / a:+.1f}%" if a else "n/a"
                print(f"{workload:<14} {name:<26} {a:>14.6g} {b:>14.6g} {change:>8}")


def main(argv=None) -> None:
    # Thread pools pinned to one thread before numpy is imported, here or
    # in the server this process starts, so BLAS-backed calls never
    # compete for the cores.
    os.environ.update({"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"})
    args = _parse(argv)
    _import_checkout()
    if args.compare:
        compare(*args.compare)
    elif args.workload == "all":
        run_all(args)
    else:
        run_one(args)


if __name__ == "__main__":
    main()
