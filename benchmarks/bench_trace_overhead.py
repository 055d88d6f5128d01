#!/usr/bin/env python
"""Observability overhead benchmark: what does watching a run cost?

Runs a traced variant of the delivery-bound flood workload (every node
broadcasts and emits one trace event per superstep — a deliberately
trace-heavy program) on a 10k-node Erdős–Rényi graph under five
observability configurations:

* ``baseline``       — no tracing, no telemetry (the reference);
* ``telemetry``      — :class:`AutomatonTelemetry` counters only;
* ``null-sampled``   — ``EventTracer(sample=1/100)`` into a
  :class:`NullSink` (the lossy-by-contract config);
* ``jsonl-sampled``  — the same sampling into a buffered
  :class:`JsonlSink` (what ``repro trace record --sample`` costs);
* ``null-unsampled`` — a full tracer into a :class:`NullSink`: the
  cost of recording every event.

Each configuration reports wall time and its overhead ratio against
``baseline``; results land in ``benchmarks/out/BENCH_trace_overhead.json``
(same shape conventions as ``BENCH_engine.json``).  The target from the
issue: the sampled-JSONL configuration stays within ~10% of baseline.

Usage::

    PYTHONPATH=src python benchmarks/bench_trace_overhead.py           # full
    PYTHONPATH=src python benchmarks/bench_trace_overhead.py --smoke   # CI
"""

from __future__ import annotations

import argparse
import json
import multiprocessing as mp
import platform
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, Optional, Sequence

REPO_ROOT = Path(__file__).resolve().parents[1]
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))
if str(REPO_ROOT / "benchmarks") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "benchmarks"))

from benchlib import peak_rss_kb  # noqa: E402
from repro.graphs.generators import erdos_renyi_avg_degree  # noqa: E402
from repro.runtime.engine import SynchronousEngine  # noqa: E402
from repro.runtime.message import Message  # noqa: E402
from repro.runtime.node import Context, NodeProgram  # noqa: E402
from repro.runtime.observe import AutomatonTelemetry, JsonlSink, NullSink  # noqa: E402
from repro.runtime.trace import EventTracer  # noqa: E402

DEFAULT_OUT = REPO_ROOT / "benchmarks" / "out" / "BENCH_trace_overhead.json"
FLOOD_ROUNDS = 30
SAMPLE_RATE = 100
GRAPH_SEED = 1
RUN_SEED = 0


class TracedFlood(NodeProgram):
    """Flood probe that emits one trace event per node per superstep.

    Every node broadcasts a rolling checksum each superstep and folds
    only its inbox *length* in, so the engine's delivery dominates; the
    ``ctx.trace`` call per step makes this the worst plausible tracing
    density for a real program (the coloring algorithms trace far less).
    """

    def __init__(self, node_id: int):
        self.node_id = node_id
        self.acc = node_id + 1

    def on_superstep(self, ctx: Context, inbox: Sequence[Message]):
        self.acc = (self.acc * 31 + len(inbox)) % 1_000_003
        ctx.trace("tick", acc=self.acc)
        if ctx.superstep >= FLOOD_ROUNDS:
            self.halt()
        else:
            ctx.broadcast(self.acc)


def _run_config(config: str, n: int, deg: float) -> Dict[str, Any]:
    """Time one run of one observability configuration."""
    g = erdos_renyi_avg_degree(n, deg, seed=GRAPH_SEED)
    tracer = None
    telemetry = None
    sink = None
    if config == "telemetry":
        telemetry = AutomatonTelemetry()
    elif config == "null-sampled":
        sink = NullSink()
        tracer = EventTracer(0, sink=sink, sample={"*": SAMPLE_RATE})
    elif config == "jsonl-sampled":
        sink = JsonlSink(Path(tempfile.mkdtemp(prefix="bench_trace_")) / "trace.jsonl")
        tracer = EventTracer(0, sink=sink, sample={"*": SAMPLE_RATE})
    elif config == "null-unsampled":
        sink = NullSink()
        tracer = EventTracer(0, sink=sink)
    elif config != "baseline":
        raise ValueError(f"unknown config {config}")
    engine = SynchronousEngine(
        g, TracedFlood, seed=RUN_SEED, tracer=tracer, telemetry=telemetry
    )
    t0 = time.perf_counter()
    run = engine.run()
    if sink is not None:
        sink.close()
    wall = time.perf_counter() - t0
    extra = {
        "supersteps": run.supersteps,
        "messages_delivered": run.metrics.messages_delivered,
    }
    if tracer is not None:
        extra["events_emitted"] = getattr(sink, "emitted", None)
        extra["events_sampled_out"] = tracer.sampled_out
    return {"wall_s": round(wall, 4), "peak_rss_kb": peak_rss_kb(), **extra}


def _measure(config: str, n: int, deg: float) -> Dict[str, Any]:
    """Fork-isolate each configuration so allocator state is per-run."""
    if "fork" not in mp.get_all_start_methods():
        return _run_config(config, n, deg)
    ctx = mp.get_context("fork")
    parent, child = ctx.Pipe()

    def _child(conn):
        try:
            conn.send(("ok", _run_config(config, n, deg)))
        except BaseException as exc:
            conn.send(("err", repr(exc)))
        finally:
            conn.close()

    proc = ctx.Process(target=_child, args=(child,))
    proc.start()
    child.close()
    status, payload = parent.recv()
    proc.join()
    if status != "ok":
        raise RuntimeError(f"benchmark child failed for {config}: {payload}")
    return payload


CONFIGS = ("baseline", "telemetry", "null-sampled", "jsonl-sampled", "null-unsampled")


def run_sweep(smoke: bool, repeats: int) -> Dict[str, Any]:
    n, deg = (1_000, 16.0) if smoke else (10_000, 32.0)
    results: Dict[str, Any] = {}
    # Each round runs every configuration once, so all of them sample
    # the same stretches of host time: the first forked child of a
    # sweep can run half again as slow as later ones.  The fastest run
    # of each configuration counts.
    for round_no in range(max(1, repeats)):
        for config in CONFIGS:
            print(f"[{config}] run {round_no + 1} ...", flush=True)
            result = _measure(config, n, deg)
            if config not in results or result["wall_s"] < results[config]["wall_s"]:
                results[config] = result
    base = results["baseline"]["wall_s"]
    for config, entry in results.items():
        entry["overhead_ratio"] = round(entry["wall_s"] / base, 3) if base else None
        print(
            f"[{config}] {entry['wall_s']:.3f}s "
            f"x{entry['overhead_ratio']:.3f} of baseline",
            flush=True,
        )
    return {
        "schema": 1,
        "generated_by": "benchmarks/bench_trace_overhead.py",
        "mode": "smoke" if smoke else "full",
        "python": platform.python_version(),
        "machine": platform.machine(),
        "n": n,
        "deg": deg,
        "flood_rounds": FLOOD_ROUNDS,
        "sample_rate": SAMPLE_RATE,
        "repeats": repeats,
        "configs": results,
    }


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true", help="CI-sized run (1k nodes)"
    )
    parser.add_argument(
        "--out", type=Path, default=DEFAULT_OUT, help="where to write the JSON report"
    )
    parser.add_argument(
        "--repeats",
        type=int,
        default=3,
        help="runs per configuration, one per round; min wall time is reported",
    )
    args = parser.parse_args(argv)

    report = run_sweep(smoke=args.smoke, repeats=args.repeats)
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
