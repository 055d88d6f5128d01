"""Tests of the benchmark itself: the checker agrees with ``repro.verify``
and catches injected faults, exact counts repeat, and the contract holds.

Run with ``python3 -m pytest perfbench -q`` from the repository root.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
for entry in (ROOT / "src", ROOT / "benchmarks", ROOT):
    if str(entry) not in sys.path:
        sys.path.insert(0, str(entry))

from perfbench import batch, checker, run, serve_edit  # noqa: E402
from perfbench.common import E2E_UNITS, LAYER_UNITS, passes_for  # noqa: E402
from perfbench.run import DROPPED, WORKLOADS  # noqa: E402
from repro.core.dima2ed import strong_color_arcs  # noqa: E402
from repro.core.edge_coloring import color_edges  # noqa: E402
from repro.errors import ProtocolError, VerificationError  # noqa: E402
from repro.graphs.generators import erdos_renyi_avg_degree, scale_free, small_world  # noqa: E402
from repro.verify import check_strong_arc_coloring  # noqa: E402
from repro.verify.edge_coloring import (  # noqa: E402
    check_edge_coloring_complete,
    check_proper_edge_coloring,
)

GRAPHS = [
    lambda s: erdos_renyi_avg_degree(40, 5.0, seed=s),
    lambda s: scale_free(40, 2, seed=s),
    lambda s: small_world(40, 4, 0.3, seed=s),
]


def _alg1(graph, colors):
    eu, ev = checker.edge_arrays(graph)
    ours = checker.total(checker.edge_coloring_faults(graph.num_nodes, eu, ev,
                                                      *checker.arrays_from_colors(colors)))
    theirs = check_proper_edge_coloring(graph, colors) + check_edge_coloring_complete(graph, colors)
    return ours, len(theirs)


def _dima2ed(graph, colors):
    eu, ev = checker.edge_arrays(graph)
    faults = checker.strong_coloring_faults(graph.num_nodes, eu, ev,
                                            *checker.arrays_from_colors(colors))
    theirs = check_strong_arc_coloring(graph.to_directed(), colors, complete=True)
    return faults, len(theirs)


def _arc_pairs(graph, colors):
    """An endpoint-sharing pair and a distance-2 pair of arcs."""
    shared = distance2 = None
    for (u, v) in colors:
        for x in graph.neighbors(u):
            if x != v and shared is None:
                shared = ((u, v), (u, x))
        for w in graph.neighbors(v):
            if w in (u, v):
                continue
            for x in graph.neighbors(w):
                if x not in (u, v) and distance2 is None:
                    distance2 = ((u, v), (w, x))
    return shared, distance2


@pytest.mark.parametrize("make", GRAPHS)
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_edge_checker_agrees_and_catches_faults(make, seed):
    g = make(seed)
    colors = dict(color_edges(g, seed=seed).colors)
    assert _alg1(g, colors) == (0, 0)
    # Shared endpoint: two edges at one vertex with one color.
    u = max(g.nodes(), key=g.degree)
    a, b = sorted((min(u, x), max(u, x)) for x in g.neighbors(u))[:2]
    bad = dict(colors)
    bad[b] = bad[a]
    ours, theirs = _alg1(g, bad)
    assert ours > 0 and theirs > 0
    # Missing edge.
    bad = dict(colors)
    del bad[a]
    ours, theirs = _alg1(g, bad)
    assert ours > 0 and theirs > 0
    # Random recolorings: both verdicts agree.
    rng = np.random.default_rng(seed)
    keys = sorted(colors)
    for _ in range(20):
        bad = dict(colors)
        for i in rng.choice(len(keys), size=3, replace=False):
            bad[keys[i]] = int(rng.integers(max(colors.values()) + 1))
        ours, theirs = _alg1(g, bad)
        assert (ours == 0) == (theirs == 0)


@pytest.mark.parametrize("make", GRAPHS)
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_strong_checker_agrees_and_catches_faults(make, seed):
    g = make(seed)
    colors = dict(strong_color_arcs(g.to_directed(), seed=seed).colors)
    faults, theirs = _dima2ed(g, colors)
    assert checker.total(faults) == 0 and theirs == 0
    shared, distance2 = _arc_pairs(g, colors)
    for (a, b), kind in ((shared, "endpoint_clash"), (distance2, "distance2_clash")):
        bad = dict(colors)
        bad[b] = bad[a]
        faults, theirs = _dima2ed(g, bad)
        assert faults[kind] > 0 and theirs > 0
    bad = dict(colors)
    del bad[shared[0]]
    faults, theirs = _dima2ed(g, bad)
    assert faults["missing"] == 1 and theirs > 0
    rng = np.random.default_rng(seed)
    keys = sorted(colors)
    for _ in range(20):
        bad = dict(colors)
        for i in rng.choice(len(keys), size=2, replace=False):
            bad[keys[i]] = int(rng.integers(max(colors.values()) + 1))
        faults, theirs = _dima2ed(g, bad)
        assert (checker.total(faults) == 0) == (theirs == 0)


def _edge(y, z):
    return (min(y, z), max(y, z))


def test_distance2_is_no_fault_for_edge_coloring():
    g = erdos_renyi_avg_degree(40, 5.0, seed=4)
    colors = dict(color_edges(g, seed=4).colors)

    def free(y, color, skip):
        return all(colors[_edge(y, z)] != color for z in g.neighbors(y) if _edge(y, z) != skip)

    for a, color in colors.items():
        for w in g.neighbors(a[1]):
            for x in g.neighbors(w):
                b = _edge(w, x)
                if not set(a) & set(b) and free(w, color, b) and free(x, color, b):
                    bad = dict(colors)
                    bad[b] = color
                    assert _alg1(g, bad) == (0, 0)
                    return
    pytest.fail("no recolorable distance-2 edge in this graph")


def _run(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)
    return proc


EXACT = {0: ("rounds", "messages", "colors_per_delta"),
         1: ("core.supersteps", "core.words_delivered", "sharded.cross_shard_bytes")}


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_small_runs_are_correct_and_exact_counts_repeat(workload, trace):
    results = []
    for _ in range(2):
        proc = _run("--workload", workload, "--size", "small", "--seconds", "0",
                    "--seed", "7", "--trace", str(trace))
        assert proc.returncode == 0, proc.stderr
        results.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    units = LAYER_UNITS if trace else E2E_UNITS
    for result in results:
        assert result["correct"] and result["failed"] == 0
        assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    for name in EXACT[trace]:
        assert results[0]["metrics"][name] == results[1]["metrics"][name]


def test_passes_nearest_to_the_window_and_two_when_a_pass_is_shorter():
    assert passes_for(0, 5.0) == 1
    assert passes_for(25, 30.0) == 1
    assert passes_for(25, 17.0) == 2  # rounding alone gives 1
    assert passes_for(25, 12.0) == 2
    assert passes_for(25, 9.0) == 3


def _run_in_process(capsys, workload):
    run.run_one(run._parse(["--workload", workload, "--size", "small", "--seconds", "0",
                            "--seed", "7", "--trace", "0"]))
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_an_operation_the_program_rejects_makes_the_run_incorrect(monkeypatch, capsys):
    real = batch.assert_strong_arc_coloring

    def rejecting(digraph, colors):
        if digraph.num_nodes > batch.WARM_UP_NODES:
            raise VerificationError("injected")
        return real(digraph, colors)

    monkeypatch.setattr(batch, "assert_strong_arc_coloring", rejecting)
    result = _run_in_process(capsys, "file-pipeline")
    assert not result["correct"] and result["failed"] == 1
    assert result["metrics"]["ok_frac"]["value"] < 1.0


def test_a_failed_request_makes_the_run_incorrect(monkeypatch, capsys):
    real = serve_edit.ServeClient.request
    calls = []

    def flaky(self, op, **fields):
        if op == "mutate":
            calls.append(op)
            if len(calls) == 1:
                raise ProtocolError("injected")
        return real(self, op, **fields)

    monkeypatch.setattr(serve_edit.ServeClient, "request", flaky)
    result = _run_in_process(capsys, "serve-edit")
    assert not result["correct"] and result["failed"] >= 1


def test_all_runs_every_kept_workload_and_names_the_dropped():
    proc = _run("--workload", "all", "--size", "small", "--seconds", "0")
    assert proc.returncode == 0, proc.stderr
    for workload, why in DROPPED.items():
        assert f"dropped workload {workload}: {why}" in proc.stdout
    results = json.loads(proc.stdout.strip().splitlines()[-1])
    assert list(results) == list(WORKLOADS)
    table = proc.stdout.split("\nmetric", 1)[1]
    for name, unit in E2E_UNITS.items():
        assert re.search(rf"^{re.escape(name)} +{re.escape(unit)} ", table, re.M)
    assert all(r["correct"] for r in results.values())


def test_benchmark_json_matches_the_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == E2E_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == LAYER_UNITS
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
    for w in spec["workloads"]:
        assert len(w["why"]) <= 200 and "\n" not in w["why"]
    name = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    assert all(name.match(m["name"]) for m in spec["end_to_end"] + spec["per_layer"])
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    layer_map = json.loads((ROOT / "perfbench" / "map.json").read_text())
    assert set(layer_map["per_layer"]) == set(LAYER_UNITS)
    assert set(layer_map["workloads"]) == set(WORKLOADS) | set(DROPPED)
    assert set(layer_map["dropped_workloads"]) == set(DROPPED)


def test_compare_refuses_different_backends(tmp_path):
    record = {"workload": "file-pipeline", "backend": "vectorized", "host": {"fingerprint": "x"},
              "result": {"metrics": {"rounds": {"value": 1.0, "unit": "rounds"}}}}
    (tmp_path / "old.jsonl").write_text(json.dumps(record) + "\n")
    (tmp_path / "new.jsonl").write_text(json.dumps(dict(record, backend="numba")) + "\n")
    proc = _run("--compare", str(tmp_path / "old.jsonl"), str(tmp_path / "new.jsonl"))
    assert proc.returncode != 0 and "different backends" in proc.stderr


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run("--workload", "file-pipeline", "--seed", "1", "--seconds", "1", "--trace", "0",
                cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
