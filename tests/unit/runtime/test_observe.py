"""Unit tests for the observability layer (sinks, telemetry, profiler)."""

import json

import pytest

from repro.core.edge_coloring import EdgeColoringProgram, color_edges
from repro.errors import ConfigurationError
from repro.graphs.generators import erdos_renyi_avg_degree
from repro.runtime.engine import SynchronousEngine
from repro.runtime.observe import (
    AutomatonTelemetry,
    JsonlSink,
    NullSink,
    PhaseProfiler,
    RingBufferSink,
    iter_jsonl_trace,
    read_jsonl_trace,
)
from repro.runtime.trace import EventTracer, TraceEvent


class TestNullSink:
    def test_counts_and_discards(self):
        sink = NullSink()
        for i in range(5):
            sink.emit(i, 0, "e", {})
        assert sink.emitted == 5

    def test_context_manager(self):
        with NullSink() as sink:
            sink.emit(0, 0, "e", {})
        assert sink.emitted == 1


class TestRingBufferSink:
    def test_eviction_and_dropped(self):
        sink = RingBufferSink(capacity=3)
        for i in range(8):
            sink.emit(i, 0, f"e{i}", {})
        assert len(sink) == 3
        assert [e.kind for e in sink] == ["e5", "e6", "e7"]
        assert sink.dropped == 5

    def test_unbounded(self):
        sink = RingBufferSink()
        for i in range(50):
            sink.emit(i, 0, "e", {})
        assert len(sink) == 50
        assert sink.dropped == 0

    def test_capacity_zero_counts_everything_dropped(self):
        sink = RingBufferSink(capacity=0)
        for i in range(4):
            sink.emit(i, 0, "e", {})
        assert len(sink) == 0
        assert sink.dropped == 4

    def test_negative_capacity_rejected(self):
        with pytest.raises(ConfigurationError):
            RingBufferSink(capacity=-1)

    def test_clear(self):
        sink = RingBufferSink(capacity=1)
        sink.emit(0, 0, "a", {})
        sink.emit(1, 0, "b", {})
        sink.clear()
        assert len(sink) == 0
        assert sink.dropped == 0

    def test_data_copied(self):
        sink = RingBufferSink()
        data = {"x": 1}
        sink.emit(0, 0, "k", data)
        data["x"] = 2
        assert next(iter(sink)).data == {"x": 1}


class TestJsonlSink:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with JsonlSink(path) as sink:
            sink.emit(0, 3, "invite", {"target": 5, "color": 2})
            sink.emit(1, 5, "accept", {"inviter": 3})
        events = read_jsonl_trace(path)
        assert events == [
            TraceEvent(0, 3, "invite", {"target": 5, "color": 2}),
            TraceEvent(1, 5, "accept", {"inviter": 3}),
        ]

    def test_buffering_flushes_on_close(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        sink = JsonlSink(path, buffer_size=1000)
        sink.emit(0, 0, "e", {})
        # Lazily opened + buffered: nothing on disk yet.
        assert not path.exists()
        sink.close()
        assert len(read_jsonl_trace(path)) == 1

    def test_buffer_size_triggers_write(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        sink = JsonlSink(path, buffer_size=2)
        sink.emit(0, 0, "a", {})
        sink.emit(1, 0, "b", {})
        assert path.exists()
        sink.close()
        assert len(read_jsonl_trace(path)) == 2

    def test_never_touches_disk_unused(self, tmp_path):
        path = tmp_path / "never.jsonl"
        JsonlSink(path).close()
        assert not path.exists()

    def test_valid_jsonl_lines(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with JsonlSink(path) as sink:
            sink.emit(2, 7, "kind", {"a": [1, 2]})
        (line,) = path.read_text().strip().splitlines()
        assert json.loads(line) == {
            "superstep": 2,
            "node": 7,
            "kind": "kind",
            "data": {"a": [1, 2]},
        }

    def test_iter_streams(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with JsonlSink(path) as sink:
            for i in range(10):
                sink.emit(i, i, "e", {})
        assert sum(1 for _ in iter_jsonl_trace(path)) == 10

    def test_bad_buffer_size_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError):
            JsonlSink(tmp_path / "x.jsonl", buffer_size=0)


@pytest.fixture(scope="module")
def er_graph():
    return erdos_renyi_avg_degree(40, 5.0, seed=2)


class TestAutomatonTelemetry:
    def test_histogram_totals_equal_live_counts(self, er_graph):
        telemetry = AutomatonTelemetry()
        result = color_edges(er_graph, seed=3, telemetry=telemetry)
        live = result.metrics.live_nodes_per_superstep
        assert telemetry.supersteps == result.metrics.supersteps == len(live)
        for hist, count in zip(telemetry.state_histograms, live):
            assert sum(hist.values()) == count

    def test_convergence_reaches_one(self, er_graph):
        telemetry = AutomatonTelemetry()
        color_edges(er_graph, seed=3, telemetry=telemetry)
        fractions = telemetry.colored_fraction()
        assert fractions == sorted(fractions)  # monotone without recovery
        assert fractions[-1] == pytest.approx(1.0)

    def test_transitions_conserve_observations(self, er_graph):
        telemetry = AutomatonTelemetry()
        result = color_edges(er_graph, seed=3, telemetry=telemetry)
        observed = sum(
            sum(row.values()) for row in telemetry.transitions.values()
        )
        assert observed == sum(result.metrics.live_nodes_per_superstep)

    def test_states_are_automaton_letters(self, er_graph):
        telemetry = AutomatonTelemetry()
        color_edges(er_graph, seed=3, telemetry=telemetry)
        seen = set(telemetry.state_totals())
        assert seen <= set("CILRWUED")
        assert "D" in seen  # every node eventually halts

    def test_stateless_programs_bucket_unknown(self):
        from repro.runtime.message import Message  # noqa: F401
        from repro.runtime.node import NodeProgram

        class OneShot(NodeProgram):
            def __init__(self, node_id):
                self.node_id = node_id

            def on_superstep(self, ctx, inbox):
                self.halt()

        g = erdos_renyi_avg_degree(10, 2.0, seed=1)
        telemetry = AutomatonTelemetry()
        SynchronousEngine(g, OneShot, seed=0, telemetry=telemetry).run()
        assert set(telemetry.state_totals()) == {"?"}
        assert sum(telemetry.state_totals().values()) == 10

    def test_merge_matches_monolithic(self, er_graph):
        whole = AutomatonTelemetry()
        result = color_edges(er_graph, seed=5, telemetry=whole)
        assert result.metrics.supersteps == whole.supersteps
        # Rebuild from two halves merged: histograms/transitions add up.
        merged = AutomatonTelemetry()
        merged.merge(whole)
        empty = AutomatonTelemetry()
        merged.merge(empty)
        assert merged.to_dict() == whole.to_dict()

    def test_compact_dict_decimates(self, er_graph):
        telemetry = AutomatonTelemetry()
        color_edges(er_graph, seed=3, telemetry=telemetry)
        compact = telemetry.compact_dict(max_points=8)
        assert len(compact["convergence"]) <= 9
        # The last superstep always survives decimation.
        assert compact["convergence"][-1]["superstep"] == telemetry.supersteps - 1
        assert compact["final_fraction"] == pytest.approx(1.0)
        json.dumps(compact)  # JSON-safe

    def test_summary_mentions_totals(self, er_graph):
        telemetry = AutomatonTelemetry()
        color_edges(er_graph, seed=3, telemetry=telemetry)
        text = telemetry.summary()
        assert "state totals" in text
        assert "final work fraction: 1.0000" in text


class TestFastpathSelection:
    def test_telemetry_keeps_fast_path(self, er_graph):
        engine = SynchronousEngine(
            er_graph, EdgeColoringProgram, telemetry=AutomatonTelemetry()
        )
        assert engine._fastpath_engaged()

    def test_profiler_keeps_fast_path(self, er_graph):
        engine = SynchronousEngine(
            er_graph, EdgeColoringProgram, profiler=PhaseProfiler()
        )
        assert engine._fastpath_engaged()

    def test_sampled_tracer_keeps_fast_path(self, er_graph):
        engine = SynchronousEngine(
            er_graph, EdgeColoringProgram, tracer=EventTracer(sample={"*": 10})
        )
        assert engine._fastpath_engaged()

    def test_full_tracer_forces_general_loop(self, er_graph):
        engine = SynchronousEngine(
            er_graph, EdgeColoringProgram, tracer=EventTracer()
        )
        assert not engine._fastpath_engaged()


class TestPhaseProfiler:
    def test_add_and_totals(self):
        prof = PhaseProfiler()
        prof.add("compute", 0.5)
        prof.add("compute", 0.25)
        prof.add("delivery", 0.25)
        assert prof.seconds["compute"] == pytest.approx(0.75)
        assert prof.counts["compute"] == 2
        assert prof.total_seconds == pytest.approx(1.0)

    def test_timer_context(self):
        prof = PhaseProfiler()
        with prof.timer("phase"):
            pass
        assert prof.seconds["phase"] >= 0.0
        assert prof.counts["phase"] == 1

    def test_summary_shares(self):
        prof = PhaseProfiler()
        prof.add("a", 3.0)
        prof.add("b", 1.0)
        text = prof.summary()
        assert "a: 3.0000s (75.0%)" in text
        assert text.index("a:") < text.index("b:")  # sorted descending

    def test_engine_fills_metrics(self, er_graph):
        prof = PhaseProfiler()
        result = color_edges(er_graph, seed=3, profiler=prof, compute="vectorized")
        assert set(result.metrics.phase_seconds) == {"compute"}
        assert result.metrics.phase_seconds == prof.as_dict()
        report = result.metrics.report()
        assert "phase profile:" in report
        assert "compute:" in report

    def test_fused_kernel_profiles_compute(self, er_graph):
        # The default (fused vectorized) kernel has no separate delivery
        # step — delivery is metered arithmetically inside the round —
        # so the engine attributes the whole round to "compute".
        prof = PhaseProfiler()
        result = color_edges(er_graph, seed=3, profiler=prof)
        assert set(result.metrics.phase_seconds) == {"compute"}
        assert result.metrics.phase_seconds == prof.as_dict()

    def test_general_loop_phases(self, er_graph):
        prof = PhaseProfiler()
        result = color_edges(er_graph, seed=3, profiler=prof, fastpath=False)
        assert set(result.metrics.phase_seconds) == {
            "compute",
            "delivery",
            "model_check",
        }

    def test_unprofiled_metrics_have_no_phases(self, er_graph):
        result = color_edges(er_graph, seed=3)
        assert result.metrics.phase_seconds == {}
        assert "phase_seconds" not in result.metrics.to_dict()
