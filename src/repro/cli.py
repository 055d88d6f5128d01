"""``repro`` — the command-line frontend.

Two subcommands:

* ``repro color`` (also installed standalone as ``repro-color``): feed
  an edge-list file (``u v`` per line, the format of
  :mod:`repro.graphs.io`), pick an algorithm, get a colored schedule on
  stdout or as TSV/DOT files.
* ``repro trace``: record a run's event stream to a JSONL file and work
  with such files — filter events, summarize convergence, replay one
  node's timeline.  The recorder streams through a
  :class:`~repro.runtime.observe.JsonlSink` (the in-memory ring stays
  empty), so arbitrarily long runs record in bounded memory.
* ``repro bench``: run the engine-scaling benchmark from a checkout
  without remembering its path; with no extra arguments it runs the CI
  smoke sweep and gates against the committed ``BENCH_engine.json``.
* ``repro check``: differential cross-tier equivalence check of one
  (graph, algorithm, seed) configuration, or ``--replay`` of a saved
  counterexample file.
* ``repro fuzz``: randomized cross-tier equivalence fuzzing with a
  time/iteration budget; on divergence the instance is delta-debugged
  to a minimal replayable counterexample JSON.
* ``repro chaos``: a resilience campaign — Algorithm 1 in recovery mode
  under a rotating schedule of fault classes, each run supervised with
  graceful degradation; reports survivability, recovery-time and
  message-overhead distributions as an ASCII table and optional JSON.
  ``--metrics-out`` exports the campaign's metric registry as
  OpenMetrics text; ``--ring`` publishes live snapshots a concurrent
  ``repro top`` can watch.
* ``repro top``: in-place ASCII dashboard over a snapshot ring file
  written by a running (or supervised) process — colored fraction,
  rounds/s, msgs/s, peak RSS, plateau countdown.
* ``repro trace flame`` profiles a run with the span profiler
  (:mod:`repro.obs.spans`) and exports a speedscope-compatible
  flamegraph JSON (open at https://www.speedscope.app/).

Examples
--------
Color a network with Algorithm 1 and print slot assignments::

    repro color network.edges

Strong (channel) coloring of the symmetric closure, exported for
Graphviz::

    repro color network.edges --algorithm dima2ed --dot colored.dot

Record a traced run, then dig into node 3's view of superstep 40+::

    repro trace record network.edges --out run.jsonl
    repro trace inspect run.jsonl --node 3 --since 40
    repro trace summary run.jsonl
    repro trace replay run.jsonl --node 3

Check that every execution tier agrees on a graph, then fuzz for a
minute and keep any counterexample::

    repro check network.edges --algorithm alg1 --seed 7
    repro fuzz --budget 60s --out artifacts/counterexamples
    repro check --replay artifacts/counterexamples/counterexample-*.json
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional

from repro.baselines import greedy_edge_coloring, misra_gries_edge_coloring
from repro.errors import ConfigurationError, ReproError
from repro.core.batched import COMPUTE_MODES
from repro.core.dima2ed import strong_color_arcs
from repro.core.edge_coloring import color_edges
from repro.graphs.export_dot import write_dot
from repro.graphs.io import read_edge_list
from repro.graphs.properties import max_degree
from repro.runtime.observe import AutomatonTelemetry, JsonlSink, iter_jsonl_trace
from repro.runtime.trace import EventTracer, TraceEvent
from repro.verify import assert_proper_edge_coloring, assert_strong_arc_coloring

__all__ = [
    "main",
    "build_parser",
    "trace_main",
    "build_trace_parser",
    "bench_main",
    "check_main",
    "fuzz_main",
    "chaos_main",
    "top_main",
    "build_top_parser",
    "repro_main",
]

ALGORITHMS = ("alg1", "dima2ed", "greedy", "misra-gries")

#: Algorithms the trace recorder can run (the distributed ones — the
#: sequential baselines have no event stream).
TRACEABLE_ALGORITHMS = ("alg1", "dima2ed")

#: Sentinel node/superstep for out-of-band JSONL lines (meta, telemetry).
META_NODE = -1


def build_parser() -> argparse.ArgumentParser:
    """The argparse CLI definition (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="repro-color",
        description="Distributed edge coloring of an edge-list file.",
    )
    parser.add_argument("graph", type=Path, help="edge-list file ('u v' per line)")
    parser.add_argument(
        "--algorithm",
        choices=ALGORITHMS,
        default="alg1",
        help="alg1 (paper, distributed) | dima2ed (strong/channel, distributed) "
        "| greedy / misra-gries (sequential baselines)",
    )
    parser.add_argument("--seed", type=int, default=0, help="run seed")
    parser.add_argument(
        "--out", type=Path, default=None, help="write 'u v color' TSV here"
    )
    parser.add_argument(
        "--dot", type=Path, default=None, help="write a Graphviz DOT rendering here"
    )
    parser.add_argument(
        "--quiet", action="store_true", help="suppress the per-edge listing"
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    graph = read_edge_list(args.graph)
    delta = max_degree(graph)
    rounds: Optional[int] = None

    if args.algorithm == "dima2ed":
        digraph = graph.to_directed()
        result = strong_color_arcs(digraph, seed=args.seed)
        assert_strong_arc_coloring(digraph, result.colors)
        colors = dict(result.colors)
        rounds = result.rounds
        if args.dot:
            write_dot(digraph, args.dot, arc_colors=colors)
    else:
        if args.algorithm == "alg1":
            result = color_edges(graph, seed=args.seed)
            colors = dict(result.colors)
            rounds = result.rounds
        elif args.algorithm == "greedy":
            colors = greedy_edge_coloring(graph)
        else:
            colors = misra_gries_edge_coloring(graph)
        assert_proper_edge_coloring(graph, colors)
        if args.dot:
            write_dot(graph, args.dot, edge_colors=colors)

    num_colors = len(set(colors.values()))
    print(
        f"# n={graph.num_nodes} m={graph.num_edges} Δ={delta} "
        f"algorithm={args.algorithm} colors={num_colors}"
        + (f" rounds={rounds}" if rounds is not None else ""),
        file=sys.stderr,
    )
    lines = [f"{u}\t{v}\t{c}" for (u, v), c in sorted(colors.items())]
    if args.out:
        args.out.write_text("\n".join(lines) + "\n", encoding="utf-8")
    if not args.quiet and not args.out:
        print("\n".join(lines))
    return 0


# ---------------------------------------------------------------------------
# repro trace — record / inspect / summary / replay JSONL traces
# ---------------------------------------------------------------------------


def build_trace_parser() -> argparse.ArgumentParser:
    """The ``repro trace`` argparse definition (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="repro trace",
        description="Record and inspect JSONL event traces of runs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    rec = sub.add_parser("record", help="run an algorithm, streaming its trace")
    rec.add_argument("graph", type=Path, help="edge-list file ('u v' per line)")
    rec.add_argument(
        "--algorithm", choices=TRACEABLE_ALGORITHMS, default="alg1",
        help="distributed algorithm to trace",
    )
    rec.add_argument("--seed", type=int, default=0, help="run seed")
    rec.add_argument(
        "--out", type=Path, required=True, help="JSONL trace output path"
    )
    rec.add_argument(
        "--sample", type=int, default=None, metavar="N",
        help="keep 1 event in N (deterministic)",
    )
    rec.add_argument(
        "--telemetry-out", type=Path, default=None,
        help="also write automaton telemetry (histograms, convergence) as JSON",
    )

    ins = sub.add_parser("inspect", help="filter and print events from a trace")
    ins.add_argument("trace", type=Path, help="JSONL trace file")
    ins.add_argument("--node", type=int, default=None, help="only this node")
    ins.add_argument("--kind", default=None, help="only this event kind")
    ins.add_argument(
        "--since", type=int, default=None, metavar="S",
        help="only supersteps >= S",
    )
    ins.add_argument(
        "--until", type=int, default=None, metavar="S",
        help="only supersteps <= S",
    )
    ins.add_argument(
        "--limit", type=int, default=None, metavar="N",
        help="stop after N matching events",
    )

    summ = sub.add_parser(
        "summary", help="per-kind totals and the convergence table"
    )
    summ.add_argument("trace", type=Path, help="JSONL trace file")
    summ.add_argument(
        "--points", type=int, default=16,
        help="max rows in the convergence table",
    )

    rep = sub.add_parser("replay", help="print one node's timeline in order")
    rep.add_argument("trace", type=Path, help="JSONL trace file")
    rep.add_argument("--node", type=int, required=True, help="node to replay")

    flame = sub.add_parser(
        "flame",
        help="profile a run with the span profiler and export a "
        "speedscope-compatible flamegraph JSON",
    )
    flame.add_argument("graph", type=Path, help="edge-list file ('u v' per line)")
    flame.add_argument(
        "--algorithm", choices=TRACEABLE_ALGORITHMS, default="alg1",
        help="distributed algorithm to profile",
    )
    flame.add_argument("--seed", type=int, default=0, help="run seed")
    flame.add_argument(
        "--out", type=Path, required=True,
        help="flamegraph JSON output path (open at speedscope.app)",
    )
    flame.add_argument(
        "--compute", default="auto",
        choices=COMPUTE_MODES,
        help="compute-core selection, as in color_edges (default auto)",
    )
    return parser


def _iter_events(path: Path) -> Iterator[TraceEvent]:
    """Trace events only — out-of-band meta/telemetry lines skipped."""
    for event in iter_jsonl_trace(path):
        if event.node == META_NODE:
            continue
        yield event


def _read_oob(path: Path) -> Dict[str, Dict[str, Any]]:
    """The out-of-band lines (kind -> data) of a recorded trace."""
    return {
        event.kind: event.data
        for event in iter_jsonl_trace(path)
        if event.node == META_NODE
    }


def _format_event(event: TraceEvent) -> str:
    data = " ".join(f"{k}={v}" for k, v in event.data.items())
    return f"[{event.superstep:>6}] node {event.node:>6} {event.kind:<14} {data}"


def _trace_record(args: argparse.Namespace) -> int:
    graph = read_edge_list(args.graph)
    sample = {"*": args.sample} if args.sample and args.sample > 1 else None
    telemetry = AutomatonTelemetry()
    with JsonlSink(args.out) as sink:
        # capacity=0: pure streaming, nothing retained in memory.
        tracer = EventTracer(0, sink=sink, sample=sample)
        sink.emit(
            -1,
            META_NODE,
            "meta",
            {
                "graph": str(args.graph),
                "n": graph.num_nodes,
                "m": graph.num_edges,
                "algorithm": args.algorithm,
                "seed": args.seed,
                "sample": args.sample,
            },
        )
        if args.algorithm == "dima2ed":
            result = strong_color_arcs(
                graph.to_directed(), seed=args.seed,
                tracer=tracer, telemetry=telemetry,
            )
        else:
            result = color_edges(
                graph, seed=args.seed, tracer=tracer, telemetry=telemetry
            )
        sink.emit(-1, META_NODE, "telemetry", telemetry.compact_dict())
        emitted = sink.emitted
    print(
        f"recorded {emitted - 2} events ({tracer.sampled_out} sampled out) "
        f"over {result.supersteps} supersteps -> {args.out}",
        file=sys.stderr,
    )
    if args.telemetry_out:
        args.telemetry_out.write_text(
            json.dumps(telemetry.to_dict(), indent=2) + "\n", encoding="utf-8"
        )
    return 0


def _trace_inspect(args: argparse.Namespace) -> int:
    shown = 0
    for event in _iter_events(args.trace):
        if args.node is not None and event.node != args.node:
            continue
        if args.kind is not None and event.kind != args.kind:
            continue
        if args.since is not None and event.superstep < args.since:
            continue
        if args.until is not None and event.superstep > args.until:
            continue
        print(_format_event(event))
        shown += 1
        if args.limit is not None and shown >= args.limit:
            break
    print(f"# {shown} events", file=sys.stderr)
    return 0


def _trace_summary(args: argparse.Namespace) -> int:
    kinds: Dict[str, int] = {}
    nodes = set()
    last_superstep = -1
    count = 0
    for event in _iter_events(args.trace):
        kinds[event.kind] = kinds.get(event.kind, 0) + 1
        nodes.add(event.node)
        if event.superstep > last_superstep:
            last_superstep = event.superstep
        count += 1
    print(f"events: {count}  nodes: {len(nodes)}  last superstep: {last_superstep}")
    for kind, n in sorted(kinds.items(), key=lambda kv: -kv[1]):
        print(f"  {kind}: {n}")
    oob = _read_oob(args.trace)
    meta = oob.get("meta")
    if meta:
        print(
            "run: "
            + " ".join(f"{k}={v}" for k, v in meta.items() if v is not None)
        )
    telemetry = oob.get("telemetry")
    if telemetry and telemetry.get("convergence"):
        points = telemetry["convergence"]
        if len(points) > args.points:
            stride = len(points) / args.points
            picked = sorted({min(len(points) - 1, int(i * stride)) for i in range(args.points)})
            if picked[-1] != len(points) - 1:
                picked.append(len(points) - 1)
            points = [points[i] for i in picked]
        print("convergence (superstep  fraction):")
        for point in points:
            frac = point["fraction"]
            bar = "#" * int(round(40 * frac))
            print(f"  {point['superstep']:>6}  {frac:6.4f}  {bar}")
    return 0


def _trace_replay(args: argparse.Namespace) -> int:
    shown = 0
    for event in _iter_events(args.trace):
        if event.node != args.node:
            continue
        print(_format_event(event))
        shown += 1
    print(f"# node {args.node}: {shown} events", file=sys.stderr)
    return 0


def _trace_flame(args: argparse.Namespace) -> int:
    from repro.obs.spans import SpanProfiler

    graph = read_edge_list(args.graph)
    profiler = SpanProfiler()
    if args.algorithm == "dima2ed":
        result = strong_color_arcs(
            graph.to_directed(), seed=args.seed,
            profiler=profiler, compute=args.compute,
        )
    else:
        result = color_edges(
            graph, seed=args.seed, profiler=profiler, compute=args.compute,
        )
    name = f"{args.algorithm} seed={args.seed} {args.graph.name}"
    profiler.write_speedscope(args.out, name=name)
    profile = profiler.to_speedscope(name=name)["profiles"][0]
    print(
        f"profiled {result.supersteps} supersteps "
        f"({profiler.superstep_count} recorded spans, "
        f"{len(profile['events'])} events) -> {args.out}",
        file=sys.stderr,
    )
    return 0


def trace_main(argv: Optional[List[str]] = None) -> int:
    """``repro trace`` entry point; returns a process exit code."""
    args = build_trace_parser().parse_args(argv)
    handler = {
        "record": _trace_record,
        "inspect": _trace_inspect,
        "summary": _trace_summary,
        "replay": _trace_replay,
        "flame": _trace_flame,
    }[args.command]
    try:
        return handler(args)
    except BrokenPipeError:  # pragma: no cover - e.g. `repro trace ... | head`
        # Downstream closed the pipe early; that is a normal way to
        # consume a trace listing, not an error.
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


def bench_main(argv: Optional[List[str]] = None) -> int:
    """``repro bench`` entry point: run a benchmark from a checkout.

    ``--mode engine`` (default) launches
    ``benchmarks/bench_engine_scaling.py``; ``--mode sharded`` launches
    the disk-backed tier's sweep, ``benchmarks/bench_shard_scaling.py``,
    where ``--shards K[,K...]`` pins the worker counts measured.  Both
    scripts live outside the installed package, so they are loaded from
    the repo checkout by path; remaining arguments are passed through
    verbatim.  With no arguments at all, the engine benchmark runs its
    CI smoke sweep and gates against the committed ``BENCH_engine.json``.
    """
    mode_parser = argparse.ArgumentParser(add_help=False)
    mode_parser.add_argument("--mode", choices=("engine", "sharded"), default="engine")
    ns, rest = mode_parser.parse_known_args(argv or [])

    repo_root = Path(__file__).resolve().parents[2]
    script_name = (
        "bench_shard_scaling.py" if ns.mode == "sharded" else "bench_engine_scaling.py"
    )
    script = repo_root / "benchmarks" / script_name
    if not script.is_file():
        print(
            "repro bench requires a repository checkout "
            f"(missing {script})",
            file=sys.stderr,
        )
        return 2
    import importlib.util

    spec = importlib.util.spec_from_file_location(script.stem, script)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    if ns.mode == "engine" and (argv is None or not argv):
        rest = [
            "--smoke",
            "--check",
            str(repo_root / "BENCH_engine.json"),
            "--out",
            str(repo_root / "benchmarks" / "out" / "BENCH_engine_smoke.json"),
        ]
    return module.main(list(rest))


def _parse_budget(text: str) -> float:
    """Parse a time budget: plain seconds, or with an s/m/h suffix."""
    text = text.strip().lower()
    scale = 1.0
    if text.endswith(("s", "m", "h")):
        scale = {"s": 1.0, "m": 60.0, "h": 3600.0}[text[-1]]
        text = text[:-1]
    try:
        seconds = float(text) * scale
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid budget {text!r}; use e.g. 60, 60s, 2m, 1h"
        ) from None
    if seconds <= 0:
        raise argparse.ArgumentTypeError("budget must be positive")
    return seconds


def _parse_tiers(text: str) -> Optional[List[str]]:
    from repro.verify.differential import TIERS

    if text == "all":
        return None
    tiers = [t.strip() for t in text.split(",") if t.strip()]
    if tiers == ["serve"]:
        # The serving tier fuzzes incremental-vs-scratch validity, not
        # cross-tier bit-equality, so it runs as its own campaign.
        return tiers
    unknown = [t for t in tiers if t not in TIERS]
    if unknown:
        raise argparse.ArgumentTypeError(
            f"unknown tier(s) {unknown}; expected a subset of {TIERS}, "
            "'serve' (alone), or 'all'"
        )
    return tiers


def build_check_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro check",
        description="Differential cross-tier equivalence check: run one "
        "(graph, algorithm, seed) configuration on every execution tier "
        "and diff colorings, round counts, metrics and telemetry.",
    )
    parser.add_argument(
        "graph", nargs="?", help="edge-list file (u v per line); omit with --replay"
    )
    parser.add_argument(
        "--replay",
        metavar="FILE",
        help="re-execute a counterexample JSON written by repro fuzz",
    )
    parser.add_argument(
        "--algorithm", choices=("alg1", "dima2ed", "both"), default="both",
        help="which algorithm(s) to check (default: both)",
    )
    parser.add_argument("--seed", type=int, default=0, help="run seed (default 0)")
    parser.add_argument(
        "--tiers", type=_parse_tiers, default=None,
        help="comma-separated tier subset or 'all' (default: all)",
    )
    return parser


def check_main(argv: Optional[List[str]] = None) -> int:
    """``repro check`` entry point.

    Exit 0 iff every tier agrees and 1 when tiers disagree.  Bad input
    exits 2 with one line on stderr: a usage error, a graph or
    counterexample file that cannot be read or parsed, or a
    counterexample naming a tier this checkout lacks.
    """
    args = build_check_parser().parse_args(argv)
    if (args.graph is None) == (args.replay is None):
        print("repro check: give exactly one of GRAPH or --replay", file=sys.stderr)
        return 2
    try:
        return _check(args)
    except (ReproError, OSError) as exc:
        print(f"repro check: {exc}", file=sys.stderr)
        return 2


def _check(args: argparse.Namespace) -> int:
    from repro.verify.differential import diff_tiers
    from repro.verify.fuzz import replay

    if args.replay is not None:
        report = replay(args.replay, tiers=args.tiers)
        print(report.summary())
        return 0 if report.ok else 1
    graph = read_edge_list(Path(args.graph))
    algorithms = ("alg1", "dima2ed") if args.algorithm == "both" else (args.algorithm,)
    ok = True
    for algorithm in algorithms:
        report = diff_tiers(
            graph, algorithm=algorithm, seed=args.seed, tiers=args.tiers
        )
        print(report.summary())
        ok = ok and report.ok
    return 0 if ok else 1


def build_fuzz_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro fuzz",
        description="Randomized cross-tier equivalence fuzzing.  Samples "
        "graphs from every generator family, runs all execution tiers on "
        "each, and on divergence shrinks the instance to a minimal "
        "replayable counterexample (see repro check --replay).",
    )
    parser.add_argument(
        "--budget", type=_parse_budget, default=None, metavar="TIME",
        help="wall-clock budget, e.g. 60s or 2m (default: 60s unless "
        "--iterations is given)",
    )
    parser.add_argument(
        "--iterations", type=int, default=None,
        help="stop after this many configurations instead of (or as well as) "
        "a time budget",
    )
    parser.add_argument("--seed", type=int, default=0, help="campaign seed")
    parser.add_argument(
        "--algorithms", choices=("alg1", "dima2ed", "both"), default="both",
        help="algorithm rotation (default: both)",
    )
    parser.add_argument(
        "--tiers", type=_parse_tiers, default=None,
        help="comma-separated tier subset or 'all' (default: all)",
    )
    parser.add_argument(
        "--out", type=Path, default=Path("artifacts/counterexamples"),
        metavar="DIR", help="where to write counterexample JSON files",
    )
    parser.add_argument(
        "--no-shrink", action="store_true",
        help="keep the raw failing instance instead of delta-debugging it",
    )
    parser.add_argument(
        "--quiet", action="store_true", help="suppress per-iteration progress"
    )
    return parser


def fuzz_main(argv: Optional[List[str]] = None) -> int:
    """``repro fuzz`` entry point.  Exit 0 iff no divergence was found."""
    from repro.verify.fuzz import fuzz

    args = build_fuzz_parser().parse_args(argv)
    budget = args.budget
    if budget is None and args.iterations is None:
        budget = 60.0
    algorithms = (
        ("alg1", "dima2ed") if args.algorithms == "both" else (args.algorithms,)
    )
    if args.tiers == ["serve"]:
        return _fuzz_serve_main(args, budget, algorithms)
    result = fuzz(
        budget_seconds=budget,
        max_iterations=args.iterations,
        seed=args.seed,
        algorithms=algorithms,
        tiers=args.tiers,
        shrink=not args.no_shrink,
        out=args.out,
        log=None if args.quiet else print,
    )
    families = ", ".join(f"{k}:{v}" for k, v in sorted(result.per_family.items()))
    print(
        f"fuzz: {result.iterations} configurations in "
        f"{result.elapsed_seconds:.1f}s ({families})"
    )
    for tier, reason in result.skipped_tiers.items():
        print(f"fuzz: tier {tier} skipped: {reason}")
    if result.ok:
        print("fuzz: no divergence found")
        return 0
    print("fuzz: DIVERGENCE FOUND")
    if result.report is not None:
        print(result.report.summary())
    if result.saved_to is not None:
        print(f"fuzz: replay with: repro check --replay {result.saved_to}")
    return 1


def _fuzz_serve_main(args, budget, algorithms) -> int:
    """``repro fuzz --tiers serve``: incremental-vs-scratch validity."""
    from repro.serve.fuzzing import fuzz_serve

    result = fuzz_serve(
        budget_seconds=budget,
        max_iterations=args.iterations,
        seed=args.seed,
        algorithms=algorithms,
        log=None if args.quiet else print,
    )
    print(result.summary())
    ratio = result.single_insert_hit_ratio
    if ratio is not None and ratio < 0.9:
        print(
            "fuzz: FAIL — incremental hit ratio on single-edge insertions "
            f"is {100.0 * ratio:.1f}% (< 90%)"
        )
        return 1
    if result.violations:
        print("fuzz: PROPERNESS VIOLATIONS FOUND")
        for violation in result.violations[:10]:
            print(f"  {violation}")
        return 1
    print("fuzz: serve tier ok — every served coloring stayed proper")
    return 0


def build_chaos_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro chaos",
        description="Chaos campaign: run Algorithm 1 in recovery mode under "
        "a rotating schedule of fault classes (loss, burst, duplication, "
        "reorder, crash-stop, mixed), each run deadline-supervised so a "
        "stuck network degrades into a verified partial coloring.  Reports "
        "per-class survivability, recovery-time and message-overhead "
        "distributions (p50/p90/p99).",
    )
    parser.add_argument(
        "graph", nargs="?",
        help="edge-list file (u v per line); omit to generate one from "
        "--family/--nodes/--degree",
    )
    parser.add_argument(
        "--budget", type=_parse_budget, default=None, metavar="TIME",
        help="wall-clock budget, e.g. 60s or 2m (default: 60s unless "
        "--runs is given)",
    )
    parser.add_argument(
        "--runs", type=int, default=None,
        help="stop after this many tortured runs instead of (or as well "
        "as) a time budget",
    )
    parser.add_argument("--seed", type=int, default=0, help="campaign seed")
    parser.add_argument(
        "--nodes", type=int, default=1000,
        help="generated-graph size (default 1000; ignored with a graph file)",
    )
    parser.add_argument(
        "--degree", type=float, default=8.0,
        help="generated-graph average degree (default 8)",
    )
    parser.add_argument(
        "--family", default="erdos_renyi",
        choices=("erdos_renyi", "random_regular", "small_world"),
        help="generated-graph family (default erdos_renyi)",
    )
    parser.add_argument(
        "--classes", default=None, metavar="LIST",
        help="comma-separated fault-class subset (default: all)",
    )
    parser.add_argument(
        "--monitor-cap", type=int, default=5_000,
        help="attach the conservation invariant monitor when the graph has "
        "at most this many nodes (default 5000)",
    )
    parser.add_argument(
        "--json", type=Path, default=None, metavar="FILE",
        help="also write the full report (config, per-class distributions, "
        "every record) as JSON",
    )
    parser.add_argument(
        "--quiet", action="store_true", help="suppress per-run progress"
    )
    parser.add_argument(
        "--metrics-out", type=Path, default=None, metavar="FILE",
        help="export the campaign's metric registry (per-class run/verify "
        "counters, recovery-ratio histograms, folded engine counters) as "
        "OpenMetrics text",
    )
    parser.add_argument(
        "--ring", type=Path, default=None, metavar="FILE",
        help="publish live run snapshots to this ring file; watch with "
        "`repro top FILE` from another terminal",
    )
    return parser


def chaos_main(argv: Optional[List[str]] = None) -> int:
    """``repro chaos`` entry point.

    Exit 0 iff every tortured run's coloring verified and no invariant
    monitor fired.
    """
    from repro.resilience.chaos import FAULT_CLASSES, ChaosConfig, chaos_campaign

    args = build_chaos_parser().parse_args(argv)
    budget = args.budget
    if budget is None and args.runs is None:
        budget = 60.0
    classes = (
        tuple(c.strip() for c in args.classes.split(",") if c.strip())
        if args.classes is not None
        else tuple(FAULT_CLASSES)
    )
    graph = read_edge_list(Path(args.graph)) if args.graph else None
    try:
        config = ChaosConfig(
            budget_seconds=budget,
            max_runs=args.runs,
            seed=args.seed,
            nodes=args.nodes,
            avg_degree=args.degree,
            family=args.family,
            fault_classes=classes,
            monitor_cap=args.monitor_cap,
        )
    except ConfigurationError as exc:
        print(f"repro chaos: {exc}", file=sys.stderr)
        return 2
    registry = None
    if args.metrics_out is not None:
        from repro.obs import MetricsRegistry

        registry = MetricsRegistry()
    publisher = None
    if args.ring is not None:
        from repro.obs import SnapshotPublisher

        publisher = SnapshotPublisher(
            args.ring,
            meta={"label": "repro chaos", "seed": args.seed},
        )
    try:
        report = chaos_campaign(
            graph,
            config=config,
            log=None if args.quiet else print,
            registry=registry,
            publisher=publisher,
        )
    finally:
        if publisher is not None:
            publisher.close()
    if not args.quiet:
        print()
    print(report.ascii_report())
    if args.json is not None:
        path = report.to_json(args.json)
        print(f"\nchaos: full report written to {path}")
    if registry is not None:
        from repro.obs import render_openmetrics

        args.metrics_out.parent.mkdir(parents=True, exist_ok=True)
        args.metrics_out.write_text(
            render_openmetrics(registry.snapshot()), encoding="utf-8"
        )
        print(f"chaos: OpenMetrics export written to {args.metrics_out}")
    return 0 if report.ok else 1


def build_serve_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro serve",
        description="Coloring-as-a-service: hold colored graphs as named "
        "sessions behind a newline-delimited-JSON TCP server, recolor "
        "mutation batches incrementally (full rerun as verified fallback), "
        "answer color queries.  Sessions persist across restarts via "
        "--state-dir; --ring feeds `repro top`.",
    )
    parser.add_argument(
        "--host", default="127.0.0.1", help="bind address (default: loopback)"
    )
    parser.add_argument(
        "--port", type=int, default=7421,
        help="TCP port; 0 picks an ephemeral one (default: 7421)",
    )
    parser.add_argument(
        "--state-dir", type=Path, default=None, metavar="DIR",
        help="persist sessions here (loaded on start, saved on shutdown "
        "and on the 'save' op)",
    )
    parser.add_argument("--seed", type=int, default=0, help="default session seed")
    parser.add_argument(
        "--no-verify", action="store_true",
        help="skip the post-batch properness check (trust the incremental "
        "path; fallback then only triggers on non-convergence)",
    )
    parser.add_argument(
        "--no-incremental", action="store_true",
        help="recolor the full graph on every batch (baseline mode)",
    )
    parser.add_argument(
        "--ring", type=Path, default=None, metavar="FILE",
        help="publish live snapshots to this ring file for `repro top`",
    )
    parser.add_argument(
        "--metrics-out", type=Path, default=None, metavar="FILE",
        help="write the metric registry as OpenMetrics text on shutdown",
    )
    return parser


def serve_main(argv: Optional[List[str]] = None) -> int:
    """``repro serve`` entry point: run the coloring server (blocking)."""
    from repro.obs.registry import MetricsRegistry
    from repro.serve.server import run_server

    args = build_serve_parser().parse_args(argv)
    registry = MetricsRegistry()
    publisher = None
    if args.ring is not None:
        from repro.obs.live import SnapshotPublisher

        publisher = SnapshotPublisher(
            args.ring, meta={"label": "serve", "command": "repro serve"}
        )

    def _ready(server) -> None:
        print(f"serve: listening on {server.host}:{server.port}", flush=True)
        if args.state_dir is not None:
            print(
                f"serve: {len(server.manager)} session(s) restored from "
                f"{args.state_dir}",
                flush=True,
            )

    server = run_server(
        host=args.host,
        port=args.port,
        state_dir=args.state_dir,
        seed=args.seed,
        verify=not args.no_verify,
        incremental=not args.no_incremental,
        registry=registry,
        publisher=publisher,
        ready=_ready,
    )
    totals = server.manager.totals()
    print(
        f"serve: stopped after {server.requests_total} requests "
        f"({totals['mutations']} mutations, "
        f"{totals['incremental_batches']} incremental batches, "
        f"{totals['fallback_batches']} fallbacks)"
    )
    if args.metrics_out is not None:
        from repro.obs import render_openmetrics

        args.metrics_out.parent.mkdir(parents=True, exist_ok=True)
        args.metrics_out.write_text(
            render_openmetrics(registry.snapshot()), encoding="utf-8"
        )
        print(f"serve: OpenMetrics export written to {args.metrics_out}")
    return 0


def build_top_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro top",
        description="In-place ASCII dashboard over a snapshot ring file "
        "written by a running process (an engine given a "
        "SnapshotPublisher, a supervised run, or `repro chaos --ring`). "
        "Shows colored fraction, rounds/s, msgs/s, peak RSS and — for "
        "supervised runs — plateau countdown and deadline budget.  Exits "
        "when the publisher marks its final snapshot, or on Ctrl-C.",
    )
    parser.add_argument(
        "ring", type=Path,
        help="snapshot ring file (JSONL, atomically rewritten by the "
        "publisher)",
    )
    parser.add_argument(
        "--interval", type=float, default=0.5, metavar="SECONDS",
        help="refresh period (default 0.5s)",
    )
    parser.add_argument(
        "--once", action="store_true",
        help="render a single frame and exit (no cursor control)",
    )
    parser.add_argument(
        "--timeout", type=float, default=None, metavar="SECONDS",
        help="give up after this long even if no final snapshot arrives",
    )
    parser.add_argument(
        "--color", action="store_true",
        help="force ANSI colors (default: only when stdout is a tty)",
    )
    return parser


def top_main(argv: Optional[List[str]] = None) -> int:
    """``repro top`` entry point: live dashboard over a snapshot ring."""
    import time as _time

    from repro.obs.live import read_ring, render_dashboard

    args = build_top_parser().parse_args(argv)
    color = args.color or (not args.once and sys.stdout.isatty())
    started = _time.monotonic()
    drawn_lines = 0
    try:
        while True:
            try:
                records = read_ring(args.ring)
            except (FileNotFoundError, OSError):
                records = []
            frame = render_dashboard(records, color=color)
            if args.once:
                print(frame)
                return 0
            if drawn_lines:
                # Move the cursor back to the top of the previous frame
                # and clear to end of screen, then redraw in place.
                sys.stdout.write(f"\x1b[{drawn_lines}F\x1b[J")
            print(frame, flush=True)
            drawn_lines = frame.count("\n") + 1
            if records and records[-1].get("snapshot", {}).get("final"):
                return 0
            if (
                args.timeout is not None
                and _time.monotonic() - started >= args.timeout
            ):
                return 0
            _time.sleep(args.interval)
    except KeyboardInterrupt:  # pragma: no cover - interactive exit
        print()
        return 130


def repro_main(argv: Optional[List[str]] = None) -> int:
    """``repro`` umbrella entry point: dispatch to the subcommands."""
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Edge-coloring reproduction toolkit.",
    )
    parser.add_argument(
        "command",
        choices=("color", "trace", "bench", "check", "fuzz", "chaos", "top", "serve"),
        help="color: run an algorithm on a graph file; trace: record and "
        "inspect JSONL event traces (and `trace flame` for speedscope "
        "flamegraphs); bench: run the engine-scaling benchmark (defaults "
        "to the smoke sweep + regression check; --mode sharded runs the "
        "disk-backed tier's scaling sweep, --shards K pins the worker "
        "counts); "
        "check: differential cross-tier equivalence check (or --replay a "
        "counterexample); fuzz: randomized cross-tier equivalence fuzzing; "
        "chaos: fault-injection resilience campaign with a survivability "
        "report; top: live ASCII dashboard over a snapshot ring file; "
        "serve: coloring-as-a-service NDJSON server with persistent "
        "sessions and incremental recoloring",
    )
    if not argv or argv[0] in ("-h", "--help"):
        parser.parse_args(argv or ["--help"])
        return 2  # pragma: no cover - parse_args exits
    head, rest = argv[0], argv[1:]
    ns = parser.parse_args([head])
    if ns.command == "color":
        return main(rest)
    if ns.command == "bench":
        return bench_main(rest)
    if ns.command == "check":
        return check_main(rest)
    if ns.command == "fuzz":
        return fuzz_main(rest)
    if ns.command == "chaos":
        return chaos_main(rest)
    if ns.command == "top":
        return top_main(rest)
    if ns.command == "serve":
        return serve_main(rest)
    return trace_main(rest)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(repro_main())
