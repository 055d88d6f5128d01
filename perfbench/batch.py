"""The batch workloads: ``file-pipeline`` and ``outofcore``.

Each workload is a list of operations ("requests"): one call a library
or CLI user makes, from input to checked coloring.  The timed window
runs whole passes over the list (``passes_for``: nearest to
``--seconds``, at least two when a pass is shorter), and times each
operation on its own; between operations the clock stops while the
benchmark's checker runs on the output, which is then dropped, so no
output stays resident into the next operation.  Passes repeat exactly,
so the exact counts (rounds, messages, colors/Δ, supersteps) are those
of one pass, and a pass that disagrees with the first is a check
failure.
"""

from __future__ import annotations

import math
import shutil
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from perfbench import checker
from perfbench.common import (
    MT_BYTES_PER_NODE,
    SETUP_REPEATS,
    RunReport,
    median,
    passes_for,
    peak_rss_mib,
    repeat_setup,
    reset_peak_rss,
    tail,
)
from perfbench.trace import Tracer
from repro.core.dima2ed import default_strong_round_budget, strong_color_arcs
from repro.core.edge_coloring import color_edges, default_round_budget
from repro.core.sharded import Alg1ShardKernel, DiMa2EdShardKernel
from repro.core.states import PHASES_PER_ROUND
from repro.graphs.generators import erdos_renyi_avg_degree
from repro.graphs.io import read_edge_list, write_edge_list
from repro.graphs.shards import write_shards
from repro.runtime.observe import PhaseProfiler
from repro.runtime.sharded import ShardedEngine
from repro.verify import assert_proper_edge_coloring, assert_strong_arc_coloring

from bench_shard_scaling import er_csr

#: Graph sizes per workload; ``small`` is the test size.
SIZES = {
    "full": {
        "file_alg1": (100_000, 8.0),
        "file_dima2ed": (10_000, 6.0),
        "ooc_alg1": (100_000, 8.0),
        "ooc_dima2ed": (50_000, 6.0),
    },
    "small": {
        "file_alg1": (2_000, 8.0),
        "file_dima2ed": (500, 6.0),
        "ooc_alg1": (2_000, 8.0),
        "ooc_dima2ed": (1_000, 6.0),
    },
}

#: Logical workers of the out-of-core tier.
NUM_SHARDS = 4

#: Nodes of the warm-up graph (see ``_warm_up``).
WARM_UP_NODES = 64


def run_seed(seed: int, *parts: int) -> int:
    """An algorithm seed derived from the workload seed (independent of
    the graph seeds)."""
    return int(np.random.SeedSequence([seed, 0xA16, *parts]).generate_state(1)[0])


@dataclass
class Output:
    """One operation's result, reduced to what the checker and the
    metrics need."""

    algorithm: str
    n: int
    #: The coloring as the program returned it (a dict, or the sharded
    #: tier's ``(s, t, c)`` arrays), until ``check_output`` drops it.
    colored: object
    rounds: int
    supersteps: int
    messages: int
    words: int
    #: Seconds of the operation's read-only step (verification, or the
    #: assignment export on the out-of-core tier): the query latency.
    read_s: float
    compute_s: float = 0.0
    run_s: float = 0.0
    exchange_s: float = 0.0
    cross_bytes: int = 0
    #: Set by ``check_output``: the checker's fault count, and the colors
    #: of the checked arrays (not the program's own count).
    faults: int = 0
    num_colors: int = 0

    def exact(self) -> Tuple[int, ...]:
        return (self.rounds, self.supersteps, self.messages, self.words, self.num_colors)


@dataclass
class Op:
    algorithm: str
    n: int
    edges: int
    #: Ground-truth undirected edges, for the checker and for Δ.
    truth: Tuple[np.ndarray, np.ndarray]
    call: Callable[[Tracer, bool], Output]

    @property
    def delta(self) -> int:
        return checker.max_degree(self.n, *self.truth)


# -- shared operation bodies -----------------------------------------------


def _color_graph(tracer: Tracer, profile: bool, graph, seed: int) -> Output:
    """Algorithm 1 on a ``Graph`` then ``assert_proper_edge_coloring``."""
    profiler = PhaseProfiler() if profile else None
    with tracer.span("core.alg1.color"):
        result = color_edges(graph, seed=seed, profiler=profiler)
        compute = profiler.seconds.get("compute", 0.0) if profiler else 0.0
        tracer.add_child("core.rounds", compute)
    t0 = perf_counter()
    with tracer.span("verify.proper"):
        assert_proper_edge_coloring(graph, result.colors)
    read_s = perf_counter() - t0
    m = result.metrics
    return Output("alg1", graph.num_nodes, result.colors,
                  result.rounds, result.supersteps, m.messages_delivered, m.words_delivered,
                  read_s, compute_s=compute)


def _color_arcs(tracer: Tracer, profile: bool, graph, seed: int) -> Output:
    """``to_directed``, DiMa2Ed, then ``assert_strong_arc_coloring``."""
    profiler = PhaseProfiler() if profile else None
    with tracer.span("graphs.to_directed"):
        digraph = graph.to_directed()
    with tracer.span("core.dima2ed.color"):
        result = strong_color_arcs(digraph, seed=seed, profiler=profiler)
        compute = profiler.seconds.get("compute", 0.0) if profiler else 0.0
        tracer.add_child("core.rounds", compute)
    t0 = perf_counter()
    with tracer.span("verify.strong"):
        assert_strong_arc_coloring(digraph, result.colors)
    read_s = perf_counter() - t0
    m = result.metrics
    return Output("dima2ed", graph.num_nodes, result.colors,
                  result.rounds, result.supersteps, m.messages_delivered, m.words_delivered,
                  read_s, compute_s=compute)


def _warm_up(workload: str, work: Path) -> None:
    """One small call per algorithm, so lazy imports and first-call
    dispatch stay out of the window.  Its own graph: nothing the window
    uses is pre-built."""
    quiet = Tracer("warm-up", enabled=False)
    if workload == "outofcore":
        indptr, indices = er_csr(256, 4.0, 1)
        write_shards(indptr, indices, work / "warm-up", NUM_SHARDS)
        delta = int(np.diff(indptr).max())
        for algorithm in ("alg1", "dima2ed"):
            _sharded_call(algorithm, work / "warm-up", work, delta, 1)(quiet, False)
        shutil.rmtree(work / "warm-up")
        return
    g = erdos_renyi_avg_degree(WARM_UP_NODES, 4.0, seed=1)
    _color_graph(quiet, False, g, 1)
    _color_arcs(quiet, False, g, 1)


# -- file-pipeline ----------------------------------------------------------


def file_pipeline_ops(seed: int, size: str, tracer: Tracer, work: Path) -> Tuple[float, List[Op]]:
    specs = [("alg1", *SIZES[size]["file_alg1"]), ("dima2ed", *SIZES[size]["file_dima2ed"])]
    paths = [work / f"{algorithm}.edges" for algorithm, _, _ in specs]

    def build(_: int):
        graphs = []
        with tracer.span("setup"):
            for index, ((algorithm, n, deg), path) in enumerate(zip(specs, paths)):
                with tracer.span("graphs.generate"):
                    g = erdos_renyi_avg_degree(n, deg, seed=run_seed(seed, 1, index))
                write_edge_list(g, path)
                graphs.append(g)
        return graphs

    setup_s, graphs = repeat_setup(build, _repeats(tracer))
    ops = [
        Op(algorithm, n, g.num_edges, checker.edge_arrays(g),
           _file_call(algorithm, path, run_seed(seed, 2, index)))
        for index, ((algorithm, n, _), path, g) in enumerate(zip(specs, paths, graphs))
    ]
    return setup_s, ops


def _file_call(algorithm: str, path: Path, seed: int):
    body = _color_graph if algorithm == "alg1" else _color_arcs

    def call(tracer: Tracer, profile: bool) -> Output:
        with tracer.span("graphs.read"):
            graph = read_edge_list(path)
        return body(tracer, profile, graph, seed)

    return call


# -- outofcore --------------------------------------------------------------


def outofcore_ops(seed: int, size: str, tracer: Tracer, work: Path) -> Tuple[float, List[Op]]:
    specs = [("alg1", *SIZES[size]["ooc_alg1"]), ("dima2ed", *SIZES[size]["ooc_dima2ed"])]
    dirs = [work / f"shards-{algorithm}" for algorithm, _, _ in specs]

    def build(_: int):
        csrs = []
        with tracer.span("setup"):
            for index, ((algorithm, n, deg), shard_dir) in enumerate(zip(specs, dirs)):
                shutil.rmtree(shard_dir, ignore_errors=True)
                with tracer.span("graphs.generate"):
                    indptr, indices = er_csr(n, deg, run_seed(seed, 3, index))
                with tracer.span("graphs.write_shards"):
                    write_shards(indptr, indices, shard_dir, NUM_SHARDS)
                csrs.append((indptr, indices))
        return csrs

    setup_s, csrs = repeat_setup(build, _repeats(tracer))
    ops = []
    for index, ((algorithm, n, _), shard_dir, (indptr, indices)) in enumerate(zip(specs, dirs, csrs)):
        src = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))
        upper = src < indices
        delta = int(np.diff(indptr).max())
        call = _sharded_call(algorithm, shard_dir, work, delta, run_seed(seed, 4, index))
        ops.append(Op(algorithm, n, int(upper.sum()), (src[upper], indices[upper]), call))
    return setup_s, ops


def _sharded_call(algorithm: str, shard_dir: Path, work: Path, delta: int, seed: int):
    """One sharded run, as color_edges / strong_color_arcs make it with
    ``compute="sharded"``: the same kernel and the library's round budget
    for the algorithm."""
    if algorithm == "alg1":
        kernel_type, budget = Alg1ShardKernel, default_round_budget(delta)
    else:
        kernel_type, budget = DiMa2EdShardKernel, default_strong_round_budget(delta)

    def call(tracer: Tracer, profile: bool) -> Output:
        spill = work / f"spill-{algorithm}"
        profiler = PhaseProfiler() if profile else None
        try:
            with tracer.span(f"core.{algorithm}.color"):
                kernel = kernel_type()
                engine = ShardedEngine(
                    shard_dir, kernel, num_shards=NUM_SHARDS, spill_dir=spill, seed=seed,
                    max_supersteps=budget * PHASES_PER_ROUND, profiler=profiler,
                )
                t0 = perf_counter()
                with tracer.span("sharded.run"):
                    run = engine.run()
                    tracer.add_child("sharded.exchange", run.metrics.shard_exchange_seconds)
                run_s = perf_counter() - t0
                if not run.completed:
                    raise RuntimeError(f"sharded {algorithm} run did not converge")
                t0 = perf_counter()
                colored = kernel.assignment_arrays()
                read_s = perf_counter() - t0
        finally:
            shutil.rmtree(spill, ignore_errors=True)
        m = run.metrics
        return Output(algorithm, engine.shardset.n, colored,
                      math.ceil(run.supersteps / PHASES_PER_ROUND), run.supersteps,
                      m.messages_delivered, m.words_delivered, read_s,
                      compute_s=profiler.seconds.get("compute", 0.0) if profiler else 0.0,
                      run_s=run_s, exchange_s=m.shard_exchange_seconds,
                      cross_bytes=m.cross_shard_bytes)

    return call


# -- the window, the checks and the metrics ---------------------------------


def _repeats(tracer: Tracer) -> int:
    # A traced run reports layers, not setup_s: one set-up is enough.
    return 1 if tracer.enabled else SETUP_REPEATS


@dataclass
class Window:
    seconds: float = 0.0
    passes: int = 0
    latencies: List[float] = field(default_factory=list)
    outputs: List[List[Optional[Output]]] = field(default_factory=list)
    #: The highest of the operations' own RSS high-water marks.
    peak_rss_mb: float = 0.0
    check_s: float = 0.0


def run_window(ops: List[Op], seconds: float, tracer: Tracer, profile: bool) -> Window:
    """Whole passes over ``ops``, as many as ``passes_for`` gives for the
    summed operation time of the first."""
    win = Window()
    target = 1
    while win.passes < target:
        outputs: List[Optional[Output]] = []
        for op in ops:
            reset_peak_rss()
            t0 = perf_counter()
            try:
                with tracer.span("op"):
                    out = op.call(tracer, profile)
            except Exception:  # noqa: BLE001 - a failed operation is counted, not fatal
                traceback.print_exc(file=sys.stderr)
                out = None
            dt = perf_counter() - t0
            win.peak_rss_mb = max(win.peak_rss_mb, peak_rss_mib())
            win.seconds += dt
            win.latencies.append(dt)
            if out is not None:
                win.check_s += check_output(op, out)
            outputs.append(out)
        win.outputs.append(outputs)
        win.passes += 1
        if win.passes == 1:
            target = passes_for(seconds, win.seconds)
    return win


def check_output(op: Op, out: Output) -> float:
    """Off the clock: run the benchmark's checker on ``out``, keep its
    verdict and color count, and drop the coloring.  Returns the
    checker's seconds."""
    t0 = perf_counter()
    colored = out.colored
    out.colored = None
    if isinstance(colored, dict):
        colored = checker.arrays_from_colors(colored)
    elif op.algorithm == "alg1":
        # The sharded tier keeps each edge in either orientation;
        # color_edges gives them canonical (low, high) keys.
        s, t, c = colored
        colored = (np.minimum(s, t), np.maximum(s, t), c)
    check = (checker.edge_coloring_faults if op.algorithm == "alg1"
             else checker.strong_coloring_faults)
    faults = check(op.n, *op.truth, *colored)
    out.faults = checker.total(faults)
    out.num_colors = int(np.unique(colored[2]).size)
    if out.faults:
        print(f"check failed: {op.algorithm} n={op.n}: {faults}", file=sys.stderr)
    return perf_counter() - t0


def window_failures(ops: List[Op], win: Window) -> int:
    """Outputs the checker rejected, or whose exact counts differ from
    the first pass's."""
    failed = 0
    first = win.outputs[0]
    for outputs in win.outputs:
        for op, out, ref in zip(ops, outputs, first):
            if out is None:
                continue
            if out.faults:
                failed += 1
            elif ref is None or out.exact() != ref.exact():
                print(f"check failed: {op.algorithm} n={op.n}: exact counts differ "
                      f"from the first pass", file=sys.stderr)
                failed += 1
    return failed


def e2e_metrics(ops: List[Op], win: Window, setup_s: float, check_failed: int) -> Dict[str, float]:
    outputs = [o for pass_ in win.outputs for o in pass_]
    attempted = len(outputs)
    completed = sum(o is not None for o in outputs)
    edges = sum(op.edges for pass_ in win.outputs for op, o in zip(ops, pass_) if o is not None)
    first = [(op, o) for op, o in zip(ops, win.outputs[0]) if o is not None]
    return {
        "setup_s": setup_s,
        "edges_per_s": edges / win.seconds,
        "peak_rss_mb": win.peak_rss_mb,
        "rounds": sum(o.rounds for _, o in first),
        "messages": sum(o.messages for _, o in first),
        "colors_per_delta": float(np.mean([o.num_colors / op.delta for op, o in first])),
        "ok_frac": (completed - check_failed) / attempted,
        "requests_per_s": completed / win.seconds,
        "mutate_p50_ms": 1e3 * median(win.latencies),
        # The tail rule within each pass (a fixed operation count), then
        # the median across passes.
        "mutate_tail_ms": 1e3 * median([
            tail(win.latencies[i:i + len(ops)]) for i in range(0, len(win.latencies), len(ops))
        ]),
        "query_p50_ms": 1e3 * median([o.read_s for o in outputs if o is not None]),
    }


def layer_metrics(ops: List[Op], win: Window, tracer: Tracer) -> Dict[str, float]:
    totals = tracer.totals()
    first = [o for o in win.outputs[0] if o is not None]
    rounds_s = sum(o.compute_s for o in first)
    color_s = totals.get("core.alg1.color", 0.0) + totals.get("core.dima2ed.color", 0.0)
    run_s = sum(o.run_s for o in first)
    exchange_s = sum(o.exchange_s for o in first)
    return {
        "graphs.generate_s": totals.get("graphs.generate", 0.0),
        "graphs.read_s": totals.get("graphs.read", 0.0),
        "graphs.to_directed_s": totals.get("graphs.to_directed", 0.0),
        "graphs.write_shards_s": totals.get("graphs.write_shards", 0.0),
        "core.alg1.color_s": totals.get("core.alg1.color", 0.0),
        "core.dima2ed.color_s": totals.get("core.dima2ed.color", 0.0),
        "core.rounds_s": rounds_s,
        "core.outside_rounds_s": color_s - rounds_s,
        "core.supersteps": sum(o.supersteps for o in first),
        "core.words_delivered": sum(o.words for o in first),
        "core.rng_pool_mb": max(o.n for o in first) * MT_BYTES_PER_NODE / 2**20,
        "verify.proper_s": totals.get("verify.proper", 0.0),
        "verify.strong_s": totals.get("verify.strong", 0.0),
        "sharded.run_s": run_s,
        "sharded.exchange_s": exchange_s,
        "sharded.compute_s": run_s - exchange_s,
        "sharded.exchange_frac": exchange_s / run_s if run_s else 0.0,
        "sharded.cross_shard_bytes": sum(o.cross_bytes for o in first),
        "unattributed_s": tracer.unattributed(),
    }


BUILDERS = {
    "file-pipeline": file_pipeline_ops,
    "outofcore": outofcore_ops,
}


def run(
    workload: str, seed: int, seconds: float, trace: bool, size: str, work: Path
) -> Tuple[RunReport, Tracer]:
    tracer = Tracer(f"{workload}-{seed}", enabled=trace)
    setup_s, ops = BUILDERS[workload](seed, size, tracer, work)
    _warm_up(workload, work)
    if not trace:
        win = run_window(ops, seconds, tracer, profile=False)
        windows = [win]
        failed = window_failures(ops, win)
        metrics = e2e_metrics(ops, win, setup_s, failed)
        lines = []
    else:
        # Untraced pass first, then the traced pass the layers come from;
        # the ratio of their walls is the tracing overhead.
        plain = run_window(ops, 0, Tracer("plain", enabled=False), profile=False)
        win = run_window(ops, 0, tracer, profile=True)
        windows = [plain, win]
        failed = sum(window_failures(ops, w) for w in windows)
        metrics = layer_metrics(ops, win, tracer)
        metrics["bench.check_s"] = sum(w.check_s for w in windows)
        metrics["trace.overhead_frac"] = win.seconds / plain.seconds - 1.0
        lines = [f"{workload}: self time per layer over {win.seconds:.2f} s of operations"]
        lines += tracer.table()
    outputs = [o for w in windows for p in w.outputs for o in p]
    return RunReport(
        metrics=metrics,
        attempted=len(outputs),
        failed=sum(o is None for o in outputs) + failed,
        lines=lines,
        record={"window_s": win.seconds, "passes": win.passes, "operations": len(ops)},
    ), tracer
