"""The ``serve-edit`` workload: a closed loop of edits and point queries
against the coloring server.

Set-up generates two graphs, creates one session per algorithm through
``SessionManager`` and saves them to a state directory, then starts a
server (``run_server`` with its defaults, ``verify=True`` and
``incremental=True``) in its own process, on the client's core, which
reloads and re-verifies both sessions.  One blocking ``ServeClient`` on one loopback connection
sends a fixed script made from the seed alone: 60% ``color`` point
queries, 30% single-edge inserts and 10% single-edge removals, split
75/25 across the Alg. 1 and DiMa2Ed sessions.  The window runs the
whole script, each time on a server restarted from the saved state, as
many times as ``passes_for`` gives.

After the window the final colorings are fetched and checked against
the edge sets the script implies, and one ``create`` of the Alg. 1
session's graph is sent over the wire on its own connection.  That
request line is about 200 KB; the server's StreamReader keeps asyncio's
64 KiB default line limit, so the server drops the connection.  The
probe counts in ``ok_frac`` and will pass once the server raises the
limit.

The traced run adds an in-process replay of the same script against
``ColoringSession`` with span wrappers on the functions the session
calls.
"""

from __future__ import annotations

import json
import os
import select
import shutil
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional, Tuple

import numpy as np

import repro.serve.session as session_module
from perfbench import checker
from perfbench.common import (
    CHECKOUT,
    SETUP_REPEATS,
    RunReport,
    median,
    passes_for,
    peak_rss_mib,
    tail,
)
from perfbench.trace import Tracer
from repro.errors import ProtocolError
from repro.graphs.adjacency import Graph
from repro.graphs.generators import erdos_renyi_avg_degree
from repro.serve import ColoringSession, Mutation, ServeClient, SessionManager

#: (nodes, average degree) of each session's graph; ``small`` is the test size.
SIZES = {
    "full": {"alg1": (3_000, 8.0), "dima2ed": (300, 6.0), "requests": 1_000},
    "small": {"alg1": (200, 6.0), "dima2ed": (60, 4.0), "requests": 100},
}

#: Request mix: (share of requests, kind); then the share of requests
#: that go to the Alg. 1 session.
MIX = ((0.6, "color"), (0.3, "add_edge"), (0.1, "remove_edge"))
ALG1_SHARE = 0.75

#: The two sessions, named after their algorithms.
SESSIONS = ("alg1", "dima2ed")

SERVER_CODE = """
import json, sys
from repro.serve import run_server

def ready(server):
    print(json.dumps({"port": server.port}), flush=True)

run_server(state_dir=sys.argv[1], ready=ready)
"""

SERVER_START_TIMEOUT_S = 60.0


@dataclass
class Request:
    session: str
    kind: str
    u: int
    v: int

    def mutation(self) -> dict:
        return {"op": self.kind, "u": self.u, "v": self.v}


class EdgeSet:
    """A session's edge set as the script sees it: O(1) insert, removal
    and uniform choice."""

    def __init__(self, n: int, edges) -> None:
        self.n = n
        self.edges: List[Tuple[int, int]] = [tuple(e) for e in edges]
        self.index = {e: i for i, e in enumerate(self.edges)}

    def choice(self, rng) -> Tuple[int, int]:
        return self.edges[int(rng.integers(len(self.edges)))]

    def add(self, e: Tuple[int, int]) -> None:
        self.index[e] = len(self.edges)
        self.edges.append(e)

    def remove(self, e: Tuple[int, int]) -> None:
        i = self.index.pop(e)
        last = self.edges.pop()
        if i < len(self.edges):
            self.edges[i] = last
            self.index[last] = i

    def arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        a = np.array(self.edges, dtype=np.int64).reshape(-1, 2)
        return a[:, 0], a[:, 1]


def make_script(seed: int, graphs: Dict[str, Graph], count: int) -> Tuple[List[Request], Dict[str, EdgeSet]]:
    """The request script and the edge sets it leaves behind — from the
    seed and the initial graphs alone, never from server replies."""
    rng = np.random.default_rng([seed, 0x5E])
    kinds = [kind for share, kind in MIX for _ in range(round(share * count))]
    names = ["alg1"] * round(ALG1_SHARE * count)
    names += ["dima2ed"] * (count - len(names))
    rng.shuffle(kinds)
    rng.shuffle(names)
    sets = {name: EdgeSet(g.num_nodes, g.edge_list()) for name, g in graphs.items()}
    script = []
    for name, kind in zip(names, kinds):
        edges = sets[name]
        if kind == "add_edge":
            while True:
                u, v = (int(x) for x in rng.integers(edges.n, size=2))
                e = (min(u, v), max(u, v))
                if u != v and e not in edges.index:
                    break
            edges.add(e)
        else:
            e = edges.choice(rng)
            if kind == "remove_edge":
                edges.remove(e)
            elif rng.integers(2):
                e = (e[1], e[0])
        script.append(Request(name, kind, *e))
    return script, sets


# -- the server process -----------------------------------------------------


class Server:
    """``run_server`` in a child process, on an ephemeral loopback port."""

    def __init__(self, state_dir: Path, log: Path) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = str(CHECKOUT / "src")
        self._log = open(log, "ab")
        self.proc = subprocess.Popen(
            [sys.executable, "-c", SERVER_CODE, str(state_dir)],
            cwd=CHECKOUT, env=env, stdout=subprocess.PIPE, stderr=self._log,
        )
        ready, _, _ = select.select([self.proc.stdout], [], [], SERVER_START_TIMEOUT_S)
        line = self.proc.stdout.readline() if ready else b""
        if not line:
            self.proc.kill()
            self.proc.wait()
            self._close()
            raise RuntimeError(f"server did not start (log: {log})")
        self.port = json.loads(line)["port"]

    def client(self) -> ServeClient:
        return ServeClient("127.0.0.1", self.port, timeout=120.0)

    def peak_rss_mb(self) -> float:
        return peak_rss_mib(self.proc.pid)

    def stop(self) -> None:
        """Ask for a clean shutdown (sessions persist); kill if it hangs."""
        if self.proc.poll() is None:
            try:
                with self.client() as c:
                    c.request("shutdown")
                self.proc.wait(timeout=30)
            except (OSError, ProtocolError, subprocess.TimeoutExpired):
                self.proc.kill()
                self.proc.wait()
        self._close()

    def _close(self) -> None:
        self.proc.stdout.close()
        self._log.close()


# -- set-up -----------------------------------------------------------------


@dataclass
class Setup:
    graphs: Dict[str, Graph]
    pristine: Path
    live: Path
    log: Path
    server: Optional[Server] = None

    def restart(self) -> None:
        """A fresh server over a fresh copy of the saved state."""
        if self.server is not None:
            self.server.stop()
        shutil.rmtree(self.live, ignore_errors=True)
        shutil.copytree(self.pristine, self.live)
        self.server = Server(self.live, self.log)


def build_setup(seed: int, size: str, work: Path, tracer: Tracer) -> Setup:
    with tracer.span("setup"):
        graphs = {}
        for index, name in enumerate(SESSIONS):
            n, deg = SIZES[size][name]
            with tracer.span("graphs.generate"):
                graphs[name] = erdos_renyi_avg_degree(
                    n, deg, seed=np.random.SeedSequence([seed, 0x5E, index])
                )
        pristine = work / "state-pristine"
        shutil.rmtree(pristine, ignore_errors=True)
        manager = SessionManager(state_dir=pristine)
        for index, (name, g) in enumerate(graphs.items()):
            manager.create(name, algorithm=name, seed=seed + index,
                           edges=g.edge_list(), num_nodes=g.num_nodes)
        manager.save()
        setup = Setup(graphs, pristine, work / "state", work / "server.log")
        setup.restart()
    return setup


# -- one pass of the script over the wire -----------------------------------


@dataclass
class Pass:
    seconds: float = 0.0
    mutate_s: List[float] = field(default_factory=list)
    query_s: List[float] = field(default_factory=list)
    apply_s: List[float] = field(default_factory=list)
    #: Sum of ``outcome.rounds`` per session.
    rounds: Dict[str, int] = field(default_factory=lambda: dict.fromkeys(SESSIONS, 0))
    new_edges: int = 0
    completed: int = 0
    failed: int = 0
    peak_rss_mb: float = 0.0
    stats_before: dict = field(default_factory=dict)
    stats_after: dict = field(default_factory=dict)
    #: Each session's final ``[u, v, color]`` list.
    final: Dict[str, list] = field(default_factory=dict)
    save_ms: float = 0.0


def serve_pass(server: Server, script: List[Request]) -> Pass:
    out = Pass()
    with server.client() as client:
        client.request("ping")  # warm-up: connection and first dispatch
        out.stats_before = client.request("stats")["totals"]
        start = perf_counter()
        for req in script:
            t0 = perf_counter()
            try:
                if req.kind == "color":
                    client.request("color", name=req.session, u=req.u, v=req.v)
                else:
                    outcome = client.request(
                        "mutate", name=req.session, mutations=[req.mutation()]
                    )["outcome"]
            except (ProtocolError, OSError) as exc:
                print(f"request failed: {req}: {exc}", file=sys.stderr)
                out.failed += 1
                continue
            dt = perf_counter() - t0
            out.completed += 1
            if req.kind == "color":
                out.query_s.append(dt)
            else:
                out.mutate_s.append(dt)
                out.apply_s.append(outcome["wall_s"])
                out.rounds[req.session] += outcome["rounds"]
                out.new_edges += outcome["new_edges"]
        out.seconds = perf_counter() - start
        out.peak_rss_mb = server.peak_rss_mb()
        out.stats_after = client.request("stats")["totals"]
        for name in SESSIONS:
            out.final[name] = client.request("colors", name=name)["colors"]
        t0 = perf_counter()
        client.request("save")
        out.save_ms = 1e3 * (perf_counter() - t0)
    return out


def create_probe(server: Server, graph: Graph) -> bool:
    """One over-the-wire ``create`` of ``graph`` on its own connection."""
    try:
        with server.client() as client:
            info = client.request(
                "create", name="probe", algorithm="alg1",
                edges=[list(e) for e in graph.edge_list()], num_nodes=graph.num_nodes,
            )["session"]
            client.request("drop", name="probe")
        return info["edges"] == graph.num_edges
    except (ProtocolError, OSError) as exc:
        print(f"create probe failed ({graph.num_edges} edges): {exc}", file=sys.stderr)
        return False


# -- checks -----------------------------------------------------------------


def final_arrays(final: list) -> checker.Arrays:
    """A ``[u, v, color]`` list as checker arrays; colors keep whatever
    type the server sent, so a non-integer one fails the check."""
    u, v, c = zip(*final) if final else ((), (), ())
    return np.array(u, dtype=np.int64), np.array(v, dtype=np.int64), np.asarray(c)


def check_sessions(p: Pass, sets: Dict[str, EdgeSet], first: Pass) -> int:
    """Sessions whose final coloring the checker rejects, or whose
    coloring or rounds differ from ``first``'s: every pass starts from
    the same state and runs the same script."""
    failed = 0
    for name, edges in sets.items():
        check = checker.edge_coloring_faults if name == "alg1" else checker.strong_coloring_faults
        faults = check(edges.n, *edges.arrays(), *final_arrays(p.final[name]))
        repeats = p.final[name] == first.final[name] and p.rounds[name] == first.rounds[name]
        if checker.total(faults) or not repeats:
            print(f"check failed: session {name}: {faults}, repeats first pass: {repeats}",
                  file=sys.stderr)
            failed += 1
    return failed


def colors_per_delta(final: Dict[str, list], sets: Dict[str, EdgeSet]) -> float:
    return float(np.mean([
        np.unique(final_arrays(final[name])[2]).size / checker.max_degree(edges.n, *edges.arrays())
        for name, edges in sets.items()
    ]))


# -- the traced in-process replay -------------------------------------------


def replay(setup: Setup, script: List[Request], tracer: Tracer) -> Tuple[Pass, float, float]:
    """Load both sessions from the saved state and apply the script to
    them in-process, with span wrappers on what the session calls (when
    the tracer is on).  Returns the final colorings and rounds as a
    ``Pass``, the reload seconds and the seconds spent in ``apply``."""
    t0 = perf_counter()
    sessions = {
        name: ColoringSession.from_state(
            json.loads((setup.pristine / f"{name}.session.json").read_text(encoding="utf-8"))
        )
        for name in SESSIONS
    }
    load_s = perf_counter() - t0
    targets = [
        (session_module, "check_proper_edge_coloring", "verify.proper"),
        (session_module, "check_edge_coloring_complete", "verify.proper"),
        (session_module, "check_strong_arc_coloring", "verify.strong"),
        (session_module, "incremental_edge_colors", "session.recolor"),
        (session_module, "incremental_arc_colors", "session.recolor"),
        (session_module, "color_edges", "session.full_rerun"),
        (session_module, "strong_color_arcs", "session.full_rerun"),
        (Graph, "copy", "session.stage"),
        (Graph, "to_directed", "graphs.to_directed"),
    ]
    apply_s = 0.0
    out = Pass()
    with tracer.patched(targets if tracer.enabled else ()):
        for req in script:
            session = sessions[req.session]
            with tracer.span("op"):
                if req.kind == "color":
                    with tracer.span("serve.query"):
                        session.color_of(req.u, req.v)
                else:
                    t0 = perf_counter()
                    with tracer.span("serve.apply"):
                        outcome = session.apply([Mutation(req.kind, req.u, req.v)])
                    apply_s += perf_counter() - t0
                    out.rounds[req.session] += outcome.rounds
    out.final = {name: [[u, v, c] for (u, v), c in sorted(s.colors.items())]
                 for name, s in sessions.items()}
    return out, load_s, apply_s


# -- the run ----------------------------------------------------------------


def run(seed: int, seconds: float, trace: bool, size: str, work: Path) -> Tuple[RunReport, Tracer]:
    tracer = Tracer(f"serve-edit-{seed}", enabled=trace)
    setup: Optional[Setup] = None
    times = []
    # Client and server (which inherits this) share one core: in the
    # closed loop only one of them runs at a time, and a wake-up across
    # cores cost 50-60 us more than on one core whenever the woken core
    # had gone idle, a third of a query, varying with the host's state.
    cores = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cores)})
    try:
        for _ in range(1 if trace else SETUP_REPEATS):
            if setup is not None:
                setup.server.stop()  # off the clock
            t0 = perf_counter()
            setup = build_setup(seed, size, work, tracer)
            times.append(perf_counter() - t0)
        setup_s = median(times)
        script, sets = make_script(seed, setup.graphs, SIZES[size]["requests"])
        passes = [serve_pass(setup.server, script)]
        target = 1 if trace else passes_for(seconds, passes[0].seconds)
        while len(passes) < target:
            setup.restart()
            passes.append(serve_pass(setup.server, script))
        probe_ok = create_probe(setup.server, setup.graphs["alg1"])
    finally:
        if setup is not None and setup.server is not None:
            setup.server.stop()
        os.sched_setaffinity(0, cores)

    first = passes[0]
    t0 = perf_counter()
    pass_failed = [check_sessions(p, sets, first) for p in passes]
    check_failed = sum(pass_failed)
    check_s = perf_counter() - t0
    requests = sum(p.completed + p.failed for p in passes)
    completed = sum(p.completed for p in passes)
    checks = len(SESSIONS) * len(passes)
    window_s = sum(p.seconds for p in passes)
    # ok_frac per pass: its requests, its final-coloring checks and the
    # create probe; the worst pass counts.
    ok_frac = min(
        (p.completed + len(SESSIONS) - failed + probe_ok) / (len(script) + len(SESSIONS) + 1)
        for p, failed in zip(passes, pass_failed)
    )
    lines = [f"serve-edit: create probe of {setup.graphs['alg1'].num_edges} edges "
             f"{'passed' if probe_ok else 'FAILED (server drops request lines over 64 KiB)'}"]

    if not trace:
        metrics = {
            "setup_s": setup_s,
            "edges_per_s": sum(p.new_edges for p in passes) / window_s,
            "peak_rss_mb": max(p.peak_rss_mb for p in passes),
            "rounds": sum(first.rounds.values()),
            "messages": 2 * first.completed,
            "colors_per_delta": colors_per_delta(first.final, sets),
            "ok_frac": ok_frac,
            "requests_per_s": completed / window_s,
            "mutate_p50_ms": 1e3 * median([x for p in passes for x in p.mutate_s]),
            "mutate_tail_ms": 1e3 * median([tail(p.mutate_s) for p in passes]),
            "query_p50_ms": 1e3 * median([x for p in passes for x in p.query_s]),
        }
    else:
        # Untraced replay first; the traced one gives the layers, and the
        # ratio of their apply times is the tracing overhead.
        _, _, plain_apply_s = replay(setup, script, Tracer("plain", enabled=False))
        replayed, load_s, apply_s = replay(setup, script, tracer)
        t0 = perf_counter()
        check_failed += check_sessions(replayed, sets, first)
        checks += len(SESSIONS)
        check_s += perf_counter() - t0
        metrics = layer_metrics(first, tracer, load_s)
        metrics["bench.check_s"] = check_s
        metrics["trace.overhead_frac"] = apply_s / plain_apply_s - 1.0
        lines.append(f"serve-edit: self time per layer over the in-process replay of "
                     f"{len(script)} requests")
        lines += tracer.table()
    return RunReport(
        metrics=metrics,
        attempted=requests + checks,
        failed=requests - completed + check_failed,
        lines=lines,
        record={"window_s": window_s, "passes": len(passes), "requests": len(script),
                "mutations": len(first.mutate_s),
                "create_probe_ok": probe_ok},
    ), tracer


def layer_metrics(first: Pass, tracer: Tracer, load_s: float) -> Dict[str, float]:
    totals = tracer.totals()
    mutations = len(first.mutate_s)
    before, after = first.stats_before, first.stats_after
    inserts = first.new_edges
    fallbacks = after["fallback_batches"] - before["fallback_batches"]
    verify_s = totals.get("verify.proper", 0.0) + totals.get("verify.strong", 0.0)
    return {
        "graphs.generate_s": totals.get("graphs.generate", 0.0),
        "graphs.to_directed_s": totals.get("graphs.to_directed", 0.0),
        "verify.proper_s": totals.get("verify.proper", 0.0),
        "verify.strong_s": totals.get("verify.strong", 0.0),
        "serve.apply_ms": 1e3 * median(first.apply_s),
        "serve.wire_ms": 1e3 * median([rtt - apply for rtt, apply in zip(first.mutate_s, first.apply_s)]),
        "serve.query_tail_ms": 1e3 * tail(first.query_s),
        "serve.load_s": load_s,
        "serve.save_ms": first.save_ms,
        "session.stage_ms": 1e3 * totals.get("session.stage", 0.0) / mutations,
        "session.recolor_ms": 1e3 * totals.get("session.recolor", 0.0) / mutations,
        "session.verify_ms": 1e3 * verify_s / mutations,
        "session.full_rerun_ms": 1e3 * totals.get("session.full_rerun", 0.0) / mutations,
        "session.hit_ratio": 1.0 - fallbacks / inserts if inserts else 1.0,
        "session.fallbacks": fallbacks,
        "session.full_runs": after["full_runs"] - before["full_runs"],
        "unattributed_s": tracer.unattributed(),
    }
