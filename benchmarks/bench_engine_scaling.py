#!/usr/bin/env python
"""Engine scaling benchmark: fast-path delivery core vs. general loop.

Sweeps Erdős–Rényi and scale-free graphs at n ∈ {1k, 10k, 50k} across
three workloads —

* ``flood``    — every node broadcasts a rolling checksum for 30 rounds,
  the delivery-bound workload the fast path targets (dense tier);
* ``alg1``     — the paper's Algorithm 1 edge coloring (mixed phases:
  broadcasts, unicast fans, staggered halting);
* ``dima2ed``  — the DiMa2Ed strong coloring on the symmetric closure —

and runs each with the seed engine's general loop (``fastpath=False``,
``compute="pernode"``), the fast delivery path (``fastpath=True``), and
— for the two algorithm kinds — the fused palette-plane kernels
(``compute="vectorized"``), the disk-backed sharded tier
(``compute="sharded"``; skipped where no spill directory is writable)
and, where numba is installed, the JIT round kernel
(``compute="numba"``), recording wall time, rounds/sec, delivered
messages/sec and peak RSS.  The sharded tier is reported as an
*overhead* ratio over the vectorized kernels — it trades wall time for
a bounded memory footprint, and its scaling story lives in
``bench_shard_scaling.py``.  Each measurement executes in a
forked child process so the RSS high-water mark is per-run, not
cumulative.  All paths must be *bit-identical* (same metrics dict, same
final program state digest) — any divergence fails the benchmark, so
every run doubles as a correctness gate.

Results land in ``BENCH_engine.json`` at the repo root by default.

Usage::

    PYTHONPATH=src python benchmarks/bench_engine_scaling.py            # full sweep
    PYTHONPATH=src python benchmarks/bench_engine_scaling.py --smoke    # CI subset
    PYTHONPATH=src python benchmarks/bench_engine_scaling.py --smoke \
        --out /tmp/smoke.json --check BENCH_engine.json                 # regression gate

The ``--check`` gate compares *speedup ratios* (fast vs. general on the
same machine, same moment), not absolute wall times, so it is stable
across host speeds; a workload regresses if its measured speedup falls
more than ``--tolerance`` (default 20%) below the committed baseline.

``--history [PATH]`` appends the sweep to the bench-history trajectory
(``benchmarks/out/bench_history.jsonl``) and ``--compare BASELINE``
diffs the sweep against a stored baseline — either a ``BENCH_engine``
style JSON report or a history JSONL (its most recent entry) — with
per-(workload, tier) verdicts: wall-time gates on the same host,
speedup-ratio gates everywhere (see ``benchlib.compare_entries``).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import multiprocessing as mp
import platform
import sys
import time
from pathlib import Path
from typing import Any, Dict, Optional, Sequence

REPO_ROOT = Path(__file__).resolve().parents[1]
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))
if str(REPO_ROOT / "benchmarks") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "benchmarks"))

import benchlib  # noqa: E402
from benchlib import peak_rss_kb  # noqa: E402

from repro.core.dima2ed import strong_color_arcs  # noqa: E402
from repro.core.edge_coloring import color_edges  # noqa: E402
from repro.graphs.generators import erdos_renyi_avg_degree, scale_free  # noqa: E402
from repro.runtime.engine import SynchronousEngine  # noqa: E402
from repro.runtime.message import Message  # noqa: E402
from repro.runtime.node import Context, NodeProgram  # noqa: E402
from repro.runtime.observe import AutomatonTelemetry  # noqa: E402

DEFAULT_OUT = REPO_ROOT / "BENCH_engine.json"
FLOOD_ROUNDS = 30


class Flood(NodeProgram):
    """All nodes broadcast a rolling checksum each round, then halt.

    Every superstep is a full-graph broadcast with no halted receivers,
    which is the delivery-bound regime the fast path's dense tier owns.
    The probe does O(1) work per superstep (it folds only the inbox
    *length* into its state) so the measurement isolates the engine's
    delivery rate rather than Python-level message processing; payload
    content and ordering identity between the two paths is enforced by
    the metrics comparison here plus the order-sensitive ``alg1`` /
    ``dima2ed`` workloads and the property suite
    (``tests/property/test_engine_equivalence.py``).
    """

    def __init__(self, node_id: int):
        self.node_id = node_id
        self.acc = node_id + 1

    def on_superstep(self, ctx: Context, inbox: Sequence[Message]):
        self.acc = (self.acc * 31 + len(inbox)) % 1_000_003
        if ctx.superstep >= FLOOD_ROUNDS:
            self.halt()
        else:
            ctx.broadcast(self.acc)


#: name -> spec.  ``smoke`` entries form the CI subset; they keep the
#: same keys as the full sweep so ``--check`` can diff either file.
WORKLOADS: Dict[str, Dict[str, Any]] = {
    "flood-er-n1000-d32": dict(kind="flood", family="er", n=1_000, deg=32.0, smoke=False),
    "flood-er-n10000-d32": dict(kind="flood", family="er", n=10_000, deg=32.0, smoke=True),
    "flood-er-n50000-d32": dict(kind="flood", family="er", n=50_000, deg=32.0, smoke=False),
    "flood-sf-n10000-m16": dict(kind="flood", family="sf", n=10_000, m=16, smoke=False),
    "alg1-er-n1000-d8": dict(kind="alg1", family="er", n=1_000, deg=8.0, smoke=True),
    "alg1-er-n10000-d8": dict(kind="alg1", family="er", n=10_000, deg=8.0, smoke=False),
    "alg1-sf-n1000-m4": dict(kind="alg1", family="sf", n=1_000, m=4, smoke=True),
    "alg1-sf-n10000-m4": dict(kind="alg1", family="sf", n=10_000, m=4, smoke=False),
    "dima2ed-er-n1000-d6": dict(kind="dima2ed", family="er", n=1_000, deg=6.0, smoke=False),
}

GRAPH_SEED = 1
RUN_SEED = 0


def _build_graph(spec: Dict[str, Any]):
    if spec["family"] == "er":
        return erdos_renyi_avg_degree(spec["n"], spec["deg"], seed=GRAPH_SEED)
    return scale_free(spec["n"], spec["m"], seed=GRAPH_SEED)


def _digest(obj: Any) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()[:16]


#: mode -> keyword arguments for the algorithm entry points.  ``general``
#: is the seed engine's per-node loop, ``fast`` the vectorised delivery
#: path, ``vectorized`` the fused palette-plane kernels, ``numba`` the
#: JIT round kernel (requires numba), ``sharded`` the disk-backed tier.
MODES: Dict[str, Dict[str, Any]] = {
    "general": dict(fastpath=False, compute="pernode"),
    "fast": dict(fastpath=True, compute="pernode"),
    "vectorized": dict(fastpath=True, compute="vectorized"),
    "numba": dict(fastpath=True, compute="numba"),
    "sharded": dict(fastpath=True, compute="sharded"),
}

#: ``to_dict`` fields only the sharded tier carries; the wall-clock and
#: RSS ones are host noise, the others simply absent elsewhere — all
#: are stripped before cross-mode identity comparison.
_SHARD_ONLY_FIELDS = (
    "shard_workers",
    "cross_shard_bytes",
    "shard_exchange_seconds",
    "shard_peak_rss_kb",
)


def _numba_usable() -> bool:
    from repro.core.kernels_numba import numba_available

    return numba_available()


def _modes_for(spec: Dict[str, Any]) -> list:
    """The measurement modes applicable to one workload."""
    modes = ["general", "fast"]
    if spec["kind"] in ("alg1", "dima2ed"):
        modes.append("vectorized")
        # compute="numba" without numba installed just reruns the
        # vectorized kernel — measure it only where the JIT actually
        # engages.
        if _numba_usable():
            modes.append("numba")
        if _sharded_usable():
            modes.append("sharded")
    return modes


def _sharded_usable() -> bool:
    from repro.graphs.shards import sharded_available

    return sharded_available()


def _run_one(spec: Dict[str, Any], mode: str, repeats: int) -> Dict[str, Any]:
    """Build the graph once and time ``repeats`` engine runs in a fork.

    Reports the *minimum* wall time (the standard noise-resistant
    estimator for a deterministic computation); the run result itself is
    deterministic, which the digest comparison across repeats asserts.
    """
    g = _build_graph(spec)
    kind = spec["kind"]
    kwargs = MODES[mode]
    dg = g.to_directed() if kind == "dima2ed" else None
    wall = float("inf")
    metrics = rounds = state = None
    for _ in range(max(1, repeats)):
        t0 = time.perf_counter()
        if kind == "flood":
            run = SynchronousEngine(
                g, Flood, seed=RUN_SEED, fastpath=kwargs["fastpath"]
            ).run()
            w = time.perf_counter() - t0
            m, r = run.metrics.to_dict(), run.supersteps
            s = _digest([p.acc for p in run.programs])
        elif kind == "alg1":
            res = color_edges(g, seed=RUN_SEED, **kwargs)
            w = time.perf_counter() - t0
            m, r = res.metrics.to_dict(), res.rounds
            s = _digest(sorted(res.colors.items()))
        else:
            res = strong_color_arcs(dg, seed=RUN_SEED, **kwargs)
            w = time.perf_counter() - t0
            m, r = res.metrics.to_dict(), res.rounds
            s = _digest(sorted(res.colors.items()))
        # The sharded tier's wall-clock/RSS cost fields are host noise;
        # drop them so the determinism check below sees only counters.
        m.pop("shard_exchange_seconds", None)
        m.pop("shard_peak_rss_kb", None)
        if state is not None and (s, m) != (state, metrics):
            raise RuntimeError(f"non-deterministic result for {spec} mode={mode}")
        metrics, rounds, state = m, r, s
        wall = min(wall, w)
    # One extra, untimed run collecting automaton telemetry for the
    # algorithm workloads (fast mode only — telemetry is bit-identical
    # across modes, asserted by the test-suite, so one copy per workload
    # suffices): convergence shape travels with the report without
    # perturbing the timing measurement above.
    telemetry = None
    if kind in ("alg1", "dima2ed") and mode == "fast":
        collector = AutomatonTelemetry()
        if kind == "alg1":
            color_edges(g, seed=RUN_SEED, telemetry=collector, **kwargs)
        else:
            strong_color_arcs(dg, seed=RUN_SEED, telemetry=collector, **kwargs)
        telemetry = collector.compact_dict(max_points=32)
    delivered = metrics["messages_delivered"]
    return {
        "telemetry": telemetry,
        "wall_s": round(wall, 4),
        "supersteps": metrics["supersteps"],
        "rounds": rounds,
        "rounds_per_s": round(rounds / wall, 2),
        "messages_delivered": delivered,
        "delivered_per_s": round(delivered / wall, 1),
        "peak_rss_kb": peak_rss_kb(),
        "metrics": metrics,
        "state_digest": state,
    }


def _measure(spec: Dict[str, Any], mode: str, repeats: int) -> Dict[str, Any]:
    """Run the measurement in a forked child for per-run peak RSS."""
    if "fork" not in mp.get_all_start_methods():
        return _run_one(spec, mode, repeats)  # in-process fallback (RSS cumulative)
    ctx = mp.get_context("fork")
    parent, child = ctx.Pipe()

    def _child(conn):
        try:
            conn.send(("ok", _run_one(spec, mode, repeats)))
        except BaseException as exc:  # surface the failure in the parent
            conn.send(("err", repr(exc)))
        finally:
            conn.close()

    proc = ctx.Process(target=_child, args=(child,))
    proc.start()
    child.close()
    status, payload = parent.recv()
    proc.join()
    if status != "ok":
        raise RuntimeError(f"benchmark child failed for {spec}: {payload}")
    return payload


def _ratio(num: float, den: float) -> float:
    return round(num / den, 3) if den else float("inf")


def run_sweep(smoke: bool, repeats: int) -> Dict[str, Any]:
    workloads: Dict[str, Any] = {}
    for name, spec in WORKLOADS.items():
        if smoke and not spec["smoke"]:
            continue
        results: Dict[str, Dict[str, Any]] = {}
        for mode in _modes_for(spec):
            print(f"[{name}] {mode:<10s} ...", flush=True)
            results[mode] = _measure(spec, mode, repeats=repeats)
        slow, fast = results["general"], results["fast"]
        identical = all(
            {k: v for k, v in r["metrics"].items() if k not in _SHARD_ONLY_FIELDS}
            == slow["metrics"]
            and r["state_digest"] == slow["state_digest"]
            for r in results.values()
        )
        speedup = _ratio(slow["wall_s"], fast["wall_s"])
        speedup_delivered = _ratio(
            fast["delivered_per_s"], slow["delivered_per_s"]
        )
        entry = {
            "kind": spec["kind"],
            "family": spec["family"],
            "n": spec["n"],
            "speedup_wall": speedup,
            "speedup_delivered": speedup_delivered,
            "identical": identical,
        }
        for mode, result in results.items():
            entry[mode] = {
                k: v for k, v in result.items() if k not in ("metrics", "telemetry")
            }
        vec = results.get("vectorized")
        if vec is not None:
            entry["speedup_vectorized_wall"] = _ratio(slow["wall_s"], vec["wall_s"])
            entry["speedup_vectorized_over_fast"] = _ratio(
                fast["wall_s"], vec["wall_s"]
            )
        jit = results.get("numba")
        if jit is not None and vec is not None:
            entry["speedup_numba_over_vectorized"] = _ratio(
                vec["wall_s"], jit["wall_s"]
            )
        sharded = results.get("sharded")
        if sharded is not None and vec is not None:
            # A cost, not a speedup: the disk-backed tier trades wall
            # time for a bounded footprint (see bench_shard_scaling.py).
            entry["overhead_sharded_over_vectorized"] = _ratio(
                sharded["wall_s"], vec["wall_s"]
            )
        if fast.get("telemetry") is not None:
            entry["telemetry"] = fast["telemetry"]
        workloads[name] = entry
        flag = "OK " if identical else "DIVERGED"
        extra = "".join(
            f" {mode} {results[mode]['wall_s']:.3f}s"
            for mode in ("vectorized", "numba")
            if mode in results
        )
        print(
            f"[{name}] {flag} general {slow['wall_s']:.3f}s "
            f"fast {fast['wall_s']:.3f}s  x{speedup:.2f} wall "
            f"x{speedup_delivered:.2f} delivered/s{extra}",
            flush=True,
        )
    return {
        "schema": 3,
        "generated_by": "benchmarks/bench_engine_scaling.py",
        "mode": "smoke" if smoke else "full",
        "python": platform.python_version(),
        "machine": platform.machine(),
        "flood_rounds": FLOOD_ROUNDS,
        "repeats": repeats,
        #: Unit contract for the per-mode measurement fields; peak RSS is
        #: normalised to KiB at the source (see benchlib.peak_rss_kb).
        "units": {"wall_s": "seconds", "peak_rss_kb": "KiB"},
        "workloads": workloads,
    }


#: Workloads with a baseline speedup below this are compute-bound (the
#: program dominates, not delivery); their ratio sits within scheduler
#: noise on shared CI runners, so they are reported but not gated.
GATE_MIN_SPEEDUP = 1.5

#: The vectorized/fast ratio a healthy kernel must clear.  The smoke
#: workloads' kernel walls are well under 0.1 s, so their measured ratio
#: swings widely with scheduler noise; the gate therefore fails only
#: when the ratio regresses below baseline *and* falls under this floor.
#: The vectorized core clears ~7-10x on the algorithm workloads, so 5x
#: is the point where it has genuinely lost its categorical advantage
#: rather than caught scheduler noise.
VECTORIZED_GATE_FLOOR = 5.0


def check_against(report: Dict[str, Any], baseline_path: Path, tolerance: float) -> int:
    """Gate: fail if a delivery-bound workload's speedup regressed > tolerance."""
    baseline = json.loads(baseline_path.read_text())
    failures = 0
    compared = 0
    for name, entry in report["workloads"].items():
        base = baseline.get("workloads", {}).get(name)
        if base is None:
            continue
        compared += 1
        floor = base["speedup_delivered"] * (1.0 - tolerance)
        if base["speedup_delivered"] < GATE_MIN_SPEEDUP:
            status = "info (compute-bound, not gated)"
        elif entry["speedup_delivered"] < floor:
            failures += 1
            status = "REGRESSED"
        else:
            status = "ok"
        print(
            f"check [{name}] baseline x{base['speedup_delivered']:.2f} "
            f"now x{entry['speedup_delivered']:.2f} "
            f"(floor x{floor:.2f}) {status}"
        )
        # Same gate for the kernels' edge over the fast path, when both
        # sides measured it.
        base_b = base.get("speedup_vectorized_over_fast")
        now_b = entry.get("speedup_vectorized_over_fast")
        if base_b is None or now_b is None:
            continue
        label = "vectorized/fast"
        if (base.get("speedup_vectorized_over_batched") or 0.0) < 1.0:
            # Small-n crossover regime, as recorded in the baseline: the
            # plane kernels' fixed costs made the retired bigint kernel
            # faster here, so there is no categorical vectorized edge to
            # defend and the sub-0.1 s walls make the ratio pure noise.
            print(
                f"check [{name}] {label} baseline x{base_b:.2f} "
                "info (batched-preferred size, not gated)"
            )
            continue
        floor_b = base_b * (1.0 - tolerance)
        if base_b < GATE_MIN_SPEEDUP:
            status = "info (below gate threshold, not gated)"
        elif now_b < floor_b and now_b < VECTORIZED_GATE_FLOOR:
            failures += 1
            status = "REGRESSED"
        elif now_b < floor_b:
            status = f"info (noisy, still >= x{VECTORIZED_GATE_FLOOR:.1f})"
        else:
            status = "ok"
        print(
            f"check [{name}] {label} baseline x{base_b:.2f} "
            f"now x{now_b:.2f} (floor x{floor_b:.2f}) {status}"
        )
    if compared == 0:
        print("check: no shared workloads between run and baseline", file=sys.stderr)
        return 1
    return 1 if failures else 0


def profile_workload(name: str, repeats: int) -> int:
    """``--profile``: per-phase wall-clock breakdown for one workload.

    Runs each applicable mode once with a
    :class:`~repro.runtime.observe.PhaseProfiler` attached and prints
    where the engine's superstep time goes (delivery, compute, ...).
    """
    from repro.runtime.observe import PhaseProfiler

    spec = WORKLOADS.get(name)
    if spec is None:
        print(
            f"unknown workload {name!r}; expected one of {sorted(WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    g = _build_graph(spec)
    kind = spec["kind"]
    dg = g.to_directed() if kind == "dima2ed" else None
    for mode in _modes_for(spec):
        kwargs = MODES[mode]
        best: Optional[Dict[str, float]] = None
        best_total = float("inf")
        for _ in range(max(1, repeats)):
            prof = PhaseProfiler()
            if kind == "flood":
                run = SynchronousEngine(
                    g,
                    Flood,
                    seed=RUN_SEED,
                    fastpath=kwargs["fastpath"],
                    profiler=prof,
                ).run()
                phases = dict(run.metrics.phase_seconds)
            elif kind == "alg1":
                res = color_edges(g, seed=RUN_SEED, profiler=prof, **kwargs)
                phases = dict(res.metrics.phase_seconds)
            else:
                res = strong_color_arcs(dg, seed=RUN_SEED, profiler=prof, **kwargs)
                phases = dict(res.metrics.phase_seconds)
            total = sum(phases.values())
            if total < best_total:
                best, best_total = phases, total
        print(f"[{name}] {mode} — {best_total:.4f}s profiled:")
        for phase, secs in sorted(best.items(), key=lambda kv: -kv[1]):
            share = secs / best_total if best_total else 0.0
            print(f"    {phase:<12s} {secs:8.4f}s  {share:6.1%}")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true", help="run only the CI subset of workloads"
    )
    parser.add_argument(
        "--profile",
        nargs="?",
        const="alg1-er-n1000-d8",
        default=None,
        metavar="WORKLOAD",
        help="print a phase-profiler breakdown for one workload (default "
        "alg1-er-n1000-d8) instead of running the sweep",
    )
    parser.add_argument(
        "--out", type=Path, default=DEFAULT_OUT, help="where to write the JSON report"
    )
    parser.add_argument(
        "--check",
        type=Path,
        default=None,
        metavar="BASELINE",
        help="compare speedups against a committed baseline JSON and exit "
        "non-zero on regression",
    )
    parser.add_argument(
        "--repeats",
        type=int,
        default=3,
        help="engine runs per (workload, path); min wall time is reported",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.20,
        help="allowed relative speedup regression for --check (default 0.20)",
    )
    parser.add_argument(
        "--history",
        nargs="?",
        type=Path,
        const=benchlib.DEFAULT_HISTORY,
        default=None,
        metavar="PATH",
        help="append this sweep to the bench-history JSONL trajectory "
        f"(default {benchlib.DEFAULT_HISTORY.relative_to(REPO_ROOT)})",
    )
    parser.add_argument(
        "--compare",
        type=Path,
        default=None,
        metavar="BASELINE",
        help="diff this sweep against a stored baseline — a BENCH_engine "
        "style JSON report or a history JSONL (most recent entry) — and "
        "exit non-zero on a regression verdict",
    )
    args = parser.parse_args(argv)

    if args.profile is not None:
        return profile_workload(args.profile, repeats=args.repeats)

    report = run_sweep(smoke=args.smoke, repeats=args.repeats)
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(f"wrote {args.out}")

    rc = 0
    diverged = [k for k, v in report["workloads"].items() if not v["identical"]]
    if diverged:
        print(
            f"FAIL: a fast or kernel path diverged from general loop on {diverged}",
            file=sys.stderr,
        )
        rc = 1
    if args.check is not None:
        rc = max(rc, check_against(report, args.check, args.tolerance))
    if args.history is not None or args.compare is not None:
        entry = benchlib.history_entry_from_report(report)
        if args.history is not None:
            path = benchlib.append_bench_history(entry, args.history)
            print(f"history: appended to {path}")
        if args.compare is not None:
            baseline = _load_compare_baseline(args.compare)
            if baseline is None:
                print(
                    f"compare: no usable baseline entry in {args.compare}",
                    file=sys.stderr,
                )
                rc = max(rc, 2)
            else:
                result = benchlib.compare_entries(entry, baseline)
                print(benchlib.format_compare(result))
                if not result["ok"]:
                    rc = max(rc, 1)
    return rc


def _load_compare_baseline(path: Path) -> Optional[Dict[str, Any]]:
    """A history entry from ``path`` — report JSON or history JSONL.

    A ``.jsonl`` trajectory yields its most recent entry; anything else
    is parsed as a ``BENCH_engine``-style report and flattened.  The
    report form carries no host fingerprint of its own, so it borrows
    the committed report's python/machine fields when present.
    """
    if path.suffix == ".jsonl":
        entries = benchlib.read_bench_history(path)
        return entries[-1] if entries else None
    report = json.loads(path.read_text())
    host = benchlib.host_fingerprint()
    if report.get("python") != host["python"] or (
        report.get("machine") not in (None, host["machine"])
    ):
        # Recorded elsewhere: synthesize a distinct fingerprint so wall
        # verdicts are skipped and only speedup ratios are gated.
        host = {
            "machine": report.get("machine", "unknown"),
            "system": "unknown",
            "python": report.get("python", "unknown"),
            "fingerprint": "baseline-" + str(report.get("python", "?")),
        }
    return benchlib.history_entry_from_report(
        report, recorded=report.get("recorded", "baseline"), host=host
    )


if __name__ == "__main__":
    raise SystemExit(main())
