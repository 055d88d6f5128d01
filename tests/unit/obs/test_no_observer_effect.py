"""No-observer-effect pins: attaching the full observability stack —
telemetry, span profiler, snapshot publisher, registry fold — must leave
a run bit-identical to a bare one on every compute tier.

``benchmarks/bench_obs_overhead.py`` gates the wall-clock side of the
same contract at production size; these tests pin the bit-identity side
at unit-test size.
"""

import pytest

from repro.core.edge_coloring import color_edges
from repro.graphs.generators import erdos_renyi_avg_degree
from repro.obs import (
    MetricsRegistry,
    SnapshotPublisher,
    SpanProfiler,
    observe_run_metrics,
    read_ring,
)
from repro.runtime.observe import AutomatonTelemetry


@pytest.fixture(scope="module")
def graph():
    return erdos_renyi_avg_degree(150, 6.0, seed=2)


def _bare(graph, **kwargs):
    result = color_edges(graph, seed=0, **kwargs)
    return result.colors, result.supersteps, result.metrics.as_dict()


def _observed(graph, tmp_path, **kwargs):
    telemetry = AutomatonTelemetry()
    prof = SpanProfiler()
    pub = SnapshotPublisher(tmp_path / "ring.jsonl", interval=0.0)
    result = color_edges(
        graph, seed=0, telemetry=telemetry, profiler=prof,
        publisher=pub, **kwargs
    )
    pub.close()
    registry = MetricsRegistry()
    observe_run_metrics(registry, result.metrics)
    metrics = dict(result.metrics.as_dict())
    metrics.pop("phase_seconds", None)  # profiling adds timings, not counts
    return result.colors, result.supersteps, metrics, pub


@pytest.mark.parametrize("compute", ["auto", "general"])
def test_observed_run_is_bit_identical(graph, tmp_path, compute):
    colors, supersteps, metrics = _bare(graph, compute=compute)
    metrics = {k: v for k, v in metrics.items() if k != "phase_seconds"}
    obs_colors, obs_supersteps, obs_metrics, _ = _observed(
        graph, tmp_path, compute=compute
    )
    assert obs_colors == colors
    assert obs_supersteps == supersteps
    assert obs_metrics == metrics


def test_publisher_saw_live_snapshots(graph, tmp_path):
    _, supersteps, _, pub = _observed(graph, tmp_path)
    records = read_ring(pub.path)
    assert records, "interval=0 publisher must write snapshots"
    assert records[-1]["snapshot"]["final"] is True
    live_steps = [
        r["snapshot"]["superstep"]
        for r in records
        if "superstep" in r["snapshot"]
    ]
    assert live_steps == sorted(live_steps)
    assert live_steps and live_steps[-1] <= supersteps
    # live colored-fraction comes from the attached telemetry
    fractions = [
        r["snapshot"]["colored_fraction"]
        for r in records
        if "colored_fraction" in r["snapshot"]
    ]
    assert fractions and all(0.0 <= f <= 1.0 for f in fractions)


def test_supervised_run_publishes_and_folds(tmp_path):
    from repro.resilience.supervisor import supervise_edge_coloring

    g = erdos_renyi_avg_degree(80, 4.0, seed=3)
    registry = MetricsRegistry()
    pub = SnapshotPublisher(tmp_path / "sup.jsonl", interval=0.0)
    result = supervise_edge_coloring(
        g, seed=0, registry=registry, publisher=pub
    )
    assert result.outcome == "completed"
    records = read_ring(pub.path)
    assert records[-1]["snapshot"]["final"] is True
    assert records[-1]["snapshot"]["outcome"] == "completed"
    snap = registry.snapshot()
    (runs,) = snap["repro_supervised_runs"]["samples"]
    assert runs["labels"] == {"outcome": "completed"}
    assert runs["value"] == 1
    assert "repro_supervised_wall_seconds" in snap


def test_chaos_campaign_folds_records(tmp_path):
    from repro.resilience.chaos import ChaosConfig, chaos_campaign

    registry = MetricsRegistry()
    config = ChaosConfig(
        budget_seconds=None, max_runs=2, seed=1, nodes=60, avg_degree=4.0,
        fault_classes=("loss",),
    )
    report = chaos_campaign(None, config=config, registry=registry)
    assert report.runs == 2
    snap = registry.snapshot()
    total = sum(s["value"] for s in snap["repro_chaos_runs"]["samples"])
    assert total == 2
    for sample in snap["repro_chaos_runs"]["samples"]:
        assert sample["labels"]["fault_class"] == "loss"
