"""Unit tests for the synchronous engine: delivery, halting, model checks."""

import gc
from typing import Sequence

import pytest

from repro.errors import GraphError, MessagingViolation
from repro.graphs.adjacency import Graph
from repro.graphs.generators import cycle_graph, path_graph, star_graph
from repro.runtime.engine import SynchronousEngine
from repro.runtime.faults import DropRandomMessages
from repro.runtime.message import Message
from repro.runtime.node import Context, NodeProgram
from repro.runtime.observe import PhaseProfiler
from repro.runtime.trace import EventTracer
from repro.verify.monitors import ConservationMonitor


class Recorder(NodeProgram):
    """Runs ``steps`` supersteps, logging inboxes, then halts."""

    def __init__(self, node_id: int, steps: int = 1):
        self.node_id = node_id
        self.steps = steps
        self.inboxes = []

    def on_superstep(self, ctx: Context, inbox: Sequence[Message]):
        self.inboxes.append([(m.sender, m.payload) for m in inbox])
        if ctx.superstep + 1 >= self.steps:
            self.halt()


class PingOnce(Recorder):
    """Broadcasts its id in superstep 0; listens in superstep 1."""

    def __init__(self, node_id: int):
        super().__init__(node_id, steps=2)

    def on_superstep(self, ctx, inbox):
        if ctx.superstep == 0:
            ctx.broadcast(("ping", self.node_id))
        super().on_superstep(ctx, inbox)


def _profiler(profiled: bool):
    """A phase profiler or none: the loop reaches the model checker on
    a timed path under a profiler and on an untimed one without."""
    return PhaseProfiler() if profiled else None


class TestDeliverySemantics:
    def test_messages_arrive_next_superstep(self):
        g = path_graph(2)
        run = SynchronousEngine(g, PingOnce).run()
        p0, p1 = run.programs
        assert p0.inboxes[0] == []  # nothing in flight yet
        assert p0.inboxes[1] == [(1, ("ping", 1))]
        assert p1.inboxes[1] == [(0, ("ping", 0))]

    def test_broadcast_reaches_all_neighbors_only(self):
        g = star_graph(3)  # hub 0
        run = SynchronousEngine(g, PingOnce).run()
        hub = run.programs[0]
        # hub hears all leaves; leaves hear only the hub
        assert sorted(s for s, _ in hub.inboxes[1]) == [1, 2, 3]
        for leaf in run.programs[1:]:
            assert [s for s, _ in leaf.inboxes[1]] == [0]

    def test_inbox_ordered_by_sender_id(self):
        g = star_graph(4)
        run = SynchronousEngine(g, PingOnce).run()
        senders = [s for s, _ in run.programs[0].inboxes[1]]
        assert senders == sorted(senders)

    def test_unicast(self):
        class SendRight(Recorder):
            def __init__(self, node_id):
                super().__init__(node_id, steps=2)

            def on_superstep(self, ctx, inbox):
                if ctx.superstep == 0 and self.node_id + 1 in ctx.neighbors:
                    ctx.send(self.node_id + 1, "hi")
                Recorder.on_superstep(self, ctx, inbox)

        run = SynchronousEngine(path_graph(3), SendRight).run()
        assert run.programs[1].inboxes[1] == [(0, "hi")]
        assert run.programs[2].inboxes[1] == [(1, "hi")]
        assert run.programs[0].inboxes[1] == []


class TestHalting:
    def test_all_halt_completes(self):
        run = SynchronousEngine(cycle_graph(4), lambda u: Recorder(u, steps=3)).run()
        assert run.completed
        assert run.supersteps == 3
        assert all(p.halted for p in run.programs)

    def test_budget_exhaustion(self):
        class Forever(NodeProgram):
            def __init__(self, node_id):
                self.node_id = node_id

            def on_superstep(self, ctx, inbox):
                pass

        run = SynchronousEngine(
            cycle_graph(3), Forever, max_supersteps=5
        ).run()
        assert not run.completed
        assert run.supersteps == 5

    def test_halt_in_on_init(self):
        class Immediate(NodeProgram):
            def __init__(self, node_id):
                self.node_id = node_id

            def on_init(self, ctx):
                self.halt()

            def on_superstep(self, ctx, inbox):  # pragma: no cover
                raise AssertionError("should never run")

        run = SynchronousEngine(path_graph(2), Immediate).run()
        assert run.completed
        assert run.supersteps == 0

    def test_message_to_halted_node_dropped(self):
        class HaltFirst(Recorder):
            """Node 0 halts immediately; node 1 messages it anyway."""

            def on_superstep(self, ctx, inbox):
                if self.node_id == 0:
                    self.halt()
                    return
                if ctx.superstep == 0:
                    ctx.send(0, "too late")
                Recorder.on_superstep(self, ctx, inbox)

        run = SynchronousEngine(path_graph(2), HaltFirst).run()
        assert run.metrics.messages_sent == 1
        assert run.metrics.messages_delivered == 0


class TestModelEnforcement:
    def test_two_unicasts_same_dest_rejected(self):
        class DoubleSend(NodeProgram):
            def __init__(self, node_id):
                self.node_id = node_id

            def on_superstep(self, ctx, inbox):
                if self.node_id == 0:
                    ctx.send(1, "a")
                    ctx.send(1, "b")
                self.halt()

        with pytest.raises(MessagingViolation):
            SynchronousEngine(path_graph(2), DoubleSend).run()

    def test_broadcast_plus_unicast_rejected(self):
        class Both(NodeProgram):
            def __init__(self, node_id):
                self.node_id = node_id

            def on_superstep(self, ctx, inbox):
                if self.node_id == 0:
                    ctx.broadcast("x")
                    ctx.send(1, "y")
                self.halt()

        with pytest.raises(MessagingViolation):
            SynchronousEngine(path_graph(2), Both).run()

    def test_non_neighbor_rejected(self):
        class FarSend(NodeProgram):
            def __init__(self, node_id):
                self.node_id = node_id

            def on_superstep(self, ctx, inbox):
                if self.node_id == 0:
                    ctx.send(2, "skip a hop")
                self.halt()

        with pytest.raises(MessagingViolation):
            SynchronousEngine(path_graph(3), FarSend).run()

    @pytest.mark.parametrize("profiled", [True, False])
    def test_duplicate_target_rejected_on_both_paths(self, profiled):
        # Regression for the all-unicast shortcut (set compression): a
        # duplicated destination must still raise, on both of the
        # loop's paths into the checker (timed under a profiler, and
        # untimed).
        class DoubleSend(NodeProgram):
            def __init__(self, node_id):
                self.node_id = node_id

            def on_superstep(self, ctx, inbox):
                if self.node_id == 0:
                    ctx.send(1, "a")
                    ctx.send(2, "b")
                    ctx.send(1, "c")
                self.halt()

        with pytest.raises(MessagingViolation):
            SynchronousEngine(
                star_graph(3), DoubleSend, profiler=_profiler(profiled)
            ).run()

    @pytest.mark.parametrize("profiled", [True, False])
    def test_non_neighbor_in_multi_unicast_rejected(self, profiled):
        # The all-unicast subset test must catch a non-neighbor mixed
        # into an otherwise valid fan of unicasts.
        class FarFan(NodeProgram):
            def __init__(self, node_id):
                self.node_id = node_id

            def on_superstep(self, ctx, inbox):
                if self.node_id == 0:
                    ctx.send(1, "ok")
                    ctx.send(2, "not my neighbor")
                self.halt()

        with pytest.raises(MessagingViolation):
            SynchronousEngine(
                path_graph(3), FarFan, profiler=_profiler(profiled)
            ).run()

    @pytest.mark.parametrize("profiled", [True, False])
    def test_distinct_unicast_fan_allowed(self, profiled):
        # The happy case the all-unicast shortcut accelerates: one
        # message to each of several distinct neighbors is legal.
        class Fan(NodeProgram):
            def __init__(self, node_id):
                self.node_id = node_id
                self.got = 0

            def on_superstep(self, ctx, inbox):
                self.got += len(inbox)
                if ctx.superstep == 0 and self.node_id == 0:
                    for v in ctx.neighbors:
                        ctx.send(v, "hello")
                if ctx.superstep >= 1:
                    self.halt()

        run = SynchronousEngine(
            star_graph(4), Fan, profiler=_profiler(profiled)
        ).run()
        assert [p.got for p in run.programs] == [0, 1, 1, 1, 1]

    def test_lenient_mode_allows_double_send(self):
        class DoubleSend(NodeProgram):
            def __init__(self, node_id):
                self.node_id = node_id
                self.got = 0

            def on_superstep(self, ctx, inbox):
                self.got += len(inbox)
                if ctx.superstep == 0 and self.node_id == 0:
                    ctx.send(1, "a")
                    ctx.send(1, "b")
                if ctx.superstep >= 1:
                    self.halt()

        run = SynchronousEngine(path_graph(2), DoubleSend, strict=False).run()
        assert run.programs[1].got == 2


class TestValidation:
    def test_noncontiguous_ids_rejected(self):
        g = Graph([(3, 7)])
        with pytest.raises(GraphError):
            SynchronousEngine(g, lambda u: Recorder(u))

    def test_bad_budget(self):
        with pytest.raises(GraphError):
            SynchronousEngine(path_graph(2), Recorder, max_supersteps=0)

    def test_retired_fastpath_keyword_raises(self):
        with pytest.raises(TypeError, match="fastpath"):
            SynchronousEngine(path_graph(2), Recorder, fastpath=True)


class GcProbe(PingOnce):
    """Records whether the cyclic collector ran enabled while stepping."""

    def on_superstep(self, ctx, inbox):
        self.gc_enabled = gc.isenabled()
        super().on_superstep(ctx, inbox)


class TestGcPause:
    """``run()`` pauses the cyclic collector around the loop, for every
    configuration, and restores the caller's setting."""

    @pytest.mark.parametrize(
        "config",
        [
            {},
            {"faults": DropRandomMessages(0.5, seed=1)},
            {"tracer": EventTracer()},
            {"monitors": [ConservationMonitor()]},
            {"strict": False},
        ],
        ids=["plain", "faults", "tracer", "monitors", "lenient"],
    )
    def test_paused_during_the_run_and_restored(self, config):
        assert gc.isenabled()
        run = SynchronousEngine(star_graph(3), GcProbe, **config).run()
        assert not any(p.gc_enabled for p in run.programs)
        assert gc.isenabled()

    def test_caller_disabled_collector_stays_disabled(self):
        gc.disable()
        try:
            SynchronousEngine(star_graph(3), GcProbe).run()
            assert not gc.isenabled()
        finally:
            gc.enable()

    def test_restored_when_the_run_raises(self):
        class FarSend(NodeProgram):
            def __init__(self, node_id):
                self.node_id = node_id

            def on_superstep(self, ctx, inbox):
                ctx.send(self.node_id + 2, "skip a hop")

        with pytest.raises(MessagingViolation):
            SynchronousEngine(path_graph(3), FarSend).run()
        assert gc.isenabled()


class TestMetricsAndTrace:
    def test_message_counting(self):
        run = SynchronousEngine(star_graph(3), PingOnce).run()
        # 4 broadcasts; hub's reaches 3 leaves, each leaf's reaches hub.
        assert run.metrics.messages_sent == 4
        assert run.metrics.messages_delivered == 6
        assert run.metrics.supersteps == 2
        assert run.metrics.live_nodes_per_superstep == [4, 4]

    def test_tracer_wired_to_context(self):
        class Tracey(Recorder):
            def on_superstep(self, ctx, inbox):
                ctx.trace("step", at=ctx.superstep)
                Recorder.on_superstep(self, ctx, inbox)

        tracer = EventTracer()
        SynchronousEngine(path_graph(2), Tracey, tracer=tracer).run()
        assert len(tracer) == 2
        assert {e.kind for e in tracer} == {"step"}

    def test_empty_graph_runs(self):
        run = SynchronousEngine(Graph(), Recorder).run()
        assert run.completed
        assert run.supersteps == 0
