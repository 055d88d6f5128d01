"""Unit tests for the span profiler / flamegraph export (repro.obs.spans)."""

import json

import pytest

from repro.obs.spans import PHASES_PER_ROUND, SpanProfiler
from repro.runtime.observe import PhaseProfiler


def _nesting_ok(events):
    """Validate the speedscope event stream: LIFO nesting, monotone at."""
    stack = []
    last_at = 0.0
    for event in events:
        assert event["at"] >= last_at
        last_at = event["at"]
        if event["type"] == "O":
            stack.append(event["frame"])
        else:
            assert stack and stack[-1] == event["frame"]
            stack.pop()
    return not stack


class TestSpanRecording:
    def test_is_a_phase_profiler(self):
        prof = SpanProfiler()
        assert isinstance(prof, PhaseProfiler)
        prof.add("compute", 0.5)
        prof.add("compute", 0.25)
        assert prof.as_dict()["compute"] == pytest.approx(0.75)

    def test_begin_superstep_groups_phases(self):
        prof = SpanProfiler()
        prof.begin_superstep(0)
        prof.add("delivery", 0.1)
        prof.add("compute", 0.2)
        prof.begin_superstep(1)
        prof.add("compute", 0.3)
        assert prof.superstep_count == 2
        assert prof.spans() == [
            {"superstep": 0, "phase": "delivery", "seconds": 0.1},
            {"superstep": 0, "phase": "compute", "seconds": 0.2},
            {"superstep": 1, "phase": "compute", "seconds": 0.3},
        ]

    def test_add_without_begin_opens_implicit_superstep(self):
        prof = SpanProfiler()
        prof.add("compute", 0.5)
        assert prof.superstep_count == 1
        assert prof.spans()[0]["superstep"] == 0

    def test_negative_elapsed_clamped_in_spans_only(self):
        prof = SpanProfiler()
        prof.add("compute", -0.5)
        assert prof.spans()[0]["seconds"] == 0.0

    def test_round_size_validation(self):
        with pytest.raises(ValueError):
            SpanProfiler(round_size=0)


class TestSpeedscopeExport:
    def _profiler(self):
        prof = SpanProfiler()
        for superstep in range(8):  # two full rounds at round_size=4
            prof.begin_superstep(superstep)
            prof.add("delivery", 0.001 * (superstep + 1))
            prof.add("compute", 0.002)
        return prof

    def test_schema_and_units(self):
        doc = self._profiler().to_speedscope("test run")
        assert doc["$schema"] == "https://www.speedscope.app/file-format-schema.json"
        (profile,) = doc["profiles"]
        assert profile["type"] == "evented"
        assert profile["unit"] == "seconds"
        assert profile["startValue"] == 0.0

    def test_events_nest_and_timestamps_monotone(self):
        doc = self._profiler().to_speedscope()
        assert _nesting_ok(doc["profiles"][0]["events"])

    def test_end_value_is_total_profiled_time(self):
        prof = self._profiler()
        total = sum(span["seconds"] for span in prof.spans())
        assert prof.to_speedscope()["profiles"][0]["endValue"] == pytest.approx(total)

    def test_rounds_group_supersteps(self):
        doc = self._profiler().to_speedscope()
        names = [f["name"] for f in doc["shared"]["frames"]]
        assert "round 0" in names and "round 1" in names
        assert "round 2" not in names  # 8 supersteps = exactly 2 rounds
        assert PHASES_PER_ROUND == 4

    def test_custom_round_size(self):
        prof = SpanProfiler(round_size=2)
        for superstep in range(4):
            prof.begin_superstep(superstep)
            prof.add("compute", 0.001)
        names = [f["name"] for f in prof.to_speedscope()["shared"]["frames"]]
        assert "round 0" in names and "round 1" in names

    def test_write_speedscope_round_trip(self, tmp_path):
        path = tmp_path / "deep" / "flame.json"
        written = self._profiler().write_speedscope(path, name="roundtrip")
        doc = json.loads(open(written).read())
        assert doc["name"] == "roundtrip"
        assert _nesting_ok(doc["profiles"][0]["events"])

    def test_empty_profiler_exports_valid_doc(self):
        doc = SpanProfiler().to_speedscope()
        events = doc["profiles"][0]["events"]
        # just the run open/close pair
        assert [e["type"] for e in events] == ["O", "C"]
        assert doc["profiles"][0]["endValue"] == 0.0


class TestEngineIntegration:
    def test_engine_announces_supersteps(self):
        from repro.core.edge_coloring import color_edges
        from repro.graphs.generators import erdos_renyi_avg_degree

        g = erdos_renyi_avg_degree(60, 4.0, seed=1)
        prof = SpanProfiler()
        result = color_edges(g, seed=0, compute="general", profiler=prof)
        # the per-node loop announces every superstep
        assert prof.superstep_count == result.supersteps
        assert _nesting_ok(prof.to_speedscope()["profiles"][0]["events"])

    def test_fused_kernel_announces_rounds(self):
        from repro.core.edge_coloring import color_edges
        from repro.graphs.generators import erdos_renyi_avg_degree

        g = erdos_renyi_avg_degree(60, 4.0, seed=1)
        prof = SpanProfiler()
        result = color_edges(g, seed=0, profiler=prof)
        # the fused round loop opens one span per round (4 supersteps)
        assert prof.superstep_count > 0
        assert prof.superstep_count <= result.supersteps
