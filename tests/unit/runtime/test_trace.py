"""Unit tests for the event tracer."""

from repro.runtime.observe import NullSink, RingBufferSink
from repro.runtime.trace import EventTracer


class TestRecording:
    def test_record_and_read(self):
        t = EventTracer()
        t.record(0, 3, "invite", {"target": 5})
        t.record(1, 4, "accept", {"inviter": 3})
        assert len(t) == 2
        assert t.events[0].kind == "invite"
        assert t.events[0].data == {"target": 5}

    def test_data_copied(self):
        t = EventTracer()
        data = {"x": 1}
        t.record(0, 0, "k", data)
        data["x"] = 99
        assert t.events[0].data == {"x": 1}

    def test_iteration(self):
        t = EventTracer()
        t.record(0, 0, "a", {})
        assert [e.kind for e in t] == ["a"]


class TestCapacity:
    def test_fifo_eviction(self):
        t = EventTracer(capacity=2)
        for i in range(5):
            t.record(i, 0, f"e{i}", {})
        assert len(t) == 2
        assert [e.kind for e in t] == ["e3", "e4"]
        assert t.dropped == 3

    def test_unbounded_by_default(self):
        t = EventTracer()
        for i in range(100):
            t.record(i, 0, "e", {})
        assert len(t) == 100
        assert t.dropped == 0


class TestFilters:
    def _loaded(self):
        t = EventTracer()
        t.record(0, 1, "invite", {})
        t.record(0, 2, "accept", {})
        t.record(1, 1, "accept", {})
        return t

    def test_by_node(self):
        t = self._loaded()
        assert len(t.by_node(1)) == 2
        assert len(t.by_node(9)) == 0

    def test_by_kind(self):
        t = self._loaded()
        assert len(t.by_kind("accept")) == 2

    def test_clear(self):
        t = self._loaded()
        t.clear()
        assert len(t) == 0
        assert t.dropped == 0


class TestStreamingMode:
    def test_capacity_zero_retains_nothing(self):
        t = EventTracer(0)
        for i in range(10):
            t.record(i, 0, "e", {})
        assert len(t) == 0
        # Streaming mode is intentional, not eviction.
        assert t.dropped == 0

    def test_capacity_zero_still_feeds_sink(self):
        sink = NullSink()
        t = EventTracer(0, sink=sink)
        for i in range(7):
            t.record(i, 0, "e", {})
        assert sink.emitted == 7
        assert len(t) == 0


class TestSink:
    def test_tee_to_sink_and_ring(self):
        sink = RingBufferSink()
        t = EventTracer(capacity=2, sink=sink)
        for i in range(5):
            t.record(i, 0, f"e{i}", {})
        # Ring keeps the tail; the sink saw everything.
        assert [e.kind for e in t] == ["e3", "e4"]
        assert len(sink) == 5
        assert t.dropped == 3
        assert sink.dropped == 0


class TestSampling:
    def test_keep_one_in_n(self):
        t = EventTracer(sample={"e": 3})
        for i in range(9):
            t.record(i, 0, "e", {})
        assert [e.superstep for e in t] == [0, 3, 6]
        assert t.sampled_out == 6

    def test_default_rate_via_star(self):
        t = EventTracer(sample={"*": 2})
        for i in range(4):
            t.record(i, 0, "a", {})
            t.record(i, 0, "b", {})
        # Each kind is sampled on its own counter.
        assert len(t.by_kind("a")) == 2
        assert len(t.by_kind("b")) == 2

    def test_unlisted_kind_kept_without_star(self):
        t = EventTracer(sample={"noisy": 10})
        for i in range(5):
            t.record(i, 0, "rare", {})
        assert len(t) == 5
        assert t.sampled_out == 0

    def test_sampled_events_skip_sink_too(self):
        sink = NullSink()
        t = EventTracer(sink=sink, sample={"*": 5})
        for i in range(10):
            t.record(i, 0, "e", {})
        assert sink.emitted == 2

    def test_clear_resets_sampling_counters(self):
        t = EventTracer(sample={"*": 3})
        for i in range(5):
            t.record(i, 0, "e", {})
        t.clear()
        assert t.sampled_out == 0
        t.record(0, 0, "e", {})
        assert len(t) == 1  # counter restarted: first event kept again
