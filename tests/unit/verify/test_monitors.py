"""Unit tests for the runtime invariant monitors.

Each monitor must (a) stay silent on a correct run and (b) fire on a
seeded violation of its invariant.  Violations are seeded with small
malicious node programs driven through the real engine, so the engine's
hook plumbing (begin_run / after_superstep call sites, the ``stepped``
and ``outbound`` arguments) is exercised end to end.
"""

import pytest

from repro.core.edge_coloring import color_edges
from repro.core.dima2ed import strong_color_arcs
from repro.core.states import AutomatonState
from repro.graphs.generators import (
    complete_graph,
    cycle_graph,
    erdos_renyi_avg_degree,
    path_graph,
)
from repro.runtime.engine import SynchronousEngine
from repro.runtime.faults import CrashNodes, DropRandomMessages, compose
from repro.runtime.metrics import RunMetrics
from repro.runtime.node import NodeProgram
from repro.verify import (
    ConservationMonitor,
    InvariantViolation,
    PaletteBoundMonitor,
    RoundInvariantMonitor,
    TransitionLegalityMonitor,
    default_monitors,
)


class ScriptedProgram(NodeProgram):
    """Steps through a scripted per-superstep (state, edge_colors) plan."""

    def __init__(self, node_id, states=None, colorings=None, rounds=2):
        self.node_id = node_id
        self.states = states or []
        self.colorings = colorings or {}
        self.rounds = rounds
        self.edge_colors = {}
        self._step = 0

    @property
    def state(self):
        if self._step == 0 or not self.states:
            return AutomatonState.CHOOSE
        return self.states[min(self._step - 1, len(self.states) - 1)]

    def on_superstep(self, ctx, inbox):
        for v, c in self.colorings.get(self._step, ()):
            self.edge_colors[v] = c
        self._step += 1
        if self._step >= self.rounds * 4:
            self.halted = True


def run_engine(graph, factory, monitors, max_supersteps=64):
    return SynchronousEngine(
        graph, factory, seed=0, monitors=monitors, max_supersteps=max_supersteps
    ).run()


class TestTransitionLegality:
    def test_real_runs_clean(self):
        g = erdos_renyi_avg_degree(20, 4.0, seed=1)
        color_edges(g, seed=2, monitors=[TransitionLegalityMonitor()])
        strong_color_arcs(
            g.to_directed(), seed=2, monitors=[TransitionLegalityMonitor()]
        )

    def test_illegal_jump_fires(self):
        # C -> U skips the invite/listen phase entirely.
        S = AutomatonState
        plan = [S.UPDATE, S.EXCHANGE, S.CHOOSE, S.CHOOSE]

        def factory(u):
            return ScriptedProgram(u, states=plan)

        with pytest.raises(InvariantViolation) as exc:
            run_engine(path_graph(2), factory, [TransitionLegalityMonitor()])
        assert exc.value.monitor == "transition-legality"
        assert exc.value.superstep == 0
        assert "C -> U" in exc.value.detail

    def test_stutter_illegal_without_transport(self):
        # L -> L: a listener must move to U the next superstep.
        S = AutomatonState
        plan = [S.LISTEN, S.LISTEN, S.EXCHANGE, S.CHOOSE]

        def factory(u):
            return ScriptedProgram(u, states=plan)

        with pytest.raises(InvariantViolation) as exc:
            run_engine(path_graph(2), factory, [TransitionLegalityMonitor()])
        assert "L -> L" in exc.value.detail

    def test_transport_stutter_tolerated(self):
        g = cycle_graph(8)
        color_edges(
            g, seed=4, transport=True, monitors=[TransitionLegalityMonitor()]
        )


class TestRoundInvariants:
    def test_real_runs_clean(self):
        g = erdos_renyi_avg_degree(20, 4.0, seed=3)
        color_edges(g, seed=5, monitors=[RoundInvariantMonitor()])
        strong_color_arcs(
            g.to_directed(), seed=5, monitors=[RoundInvariantMonitor()]
        )

    def test_two_edges_in_one_round_fires(self):
        # Node 1 of the path 0-1-2 pairs with both neighbors in round 0.
        def factory(u):
            colorings = {}
            if u == 0:
                colorings = {2: [(1, 0)]}
            elif u == 1:
                colorings = {2: [(0, 0), (2, 1)]}
            elif u == 2:
                colorings = {2: [(1, 1)]}
            return ScriptedProgram(u, colorings=colorings)

        with pytest.raises(InvariantViolation) as exc:
            run_engine(path_graph(3), factory, [RoundInvariantMonitor()])
        assert exc.value.monitor == "round-invariants"
        assert exc.value.superstep == 3
        assert "not a matching" in exc.value.detail

    def test_endpoint_disagreement_fires(self):
        def factory(u):
            # Both endpoints record edge (0, 1) but with different colors.
            return ScriptedProgram(u, colorings={2: [(1 - u, u)]})

        with pytest.raises(InvariantViolation) as exc:
            run_engine(path_graph(2), factory, [RoundInvariantMonitor()])
        assert "disagree" in exc.value.detail

    def test_improper_partial_coloring_fires(self):
        # Round 0 colors (0,1) with 0; round 1 colors (1,2) with 0 —
        # each round is a matching, but the accumulated coloring puts
        # one color on two adjacent edges.
        def factory(u):
            colorings = {
                0: {2: [(1, 0)]},
                1: {2: [(0, 0)], 6: [(2, 0)]},
                2: {6: [(1, 0)]},
            }[u]
            return ScriptedProgram(u, colorings=colorings)

        with pytest.raises(InvariantViolation) as exc:
            run_engine(path_graph(3), factory, [RoundInvariantMonitor()])
        assert exc.value.superstep == 7
        assert "not proper" in exc.value.detail


class TestPaletteBound:
    def test_real_runs_clean(self):
        g = complete_graph(7)
        color_edges(g, seed=1, monitors=[PaletteBoundMonitor()])
        strong_color_arcs(
            g.to_directed(), seed=1, monitors=[PaletteBoundMonitor()]
        )

    def test_breach_fires(self):
        # Path of 2: Delta = 1, bound = 2*1 - 1 = 1, so color 5 breaches.
        def factory(u):
            return ScriptedProgram(u, colorings={2: [(1 - u, 5)]})

        with pytest.raises(InvariantViolation) as exc:
            run_engine(path_graph(2), factory, [PaletteBoundMonitor()])
        assert exc.value.monitor == "palette-bound"
        assert "breaching the palette bound 1" in exc.value.detail

    def test_explicit_bound(self):
        def factory(u):
            return ScriptedProgram(u, colorings={2: [(1 - u, 3)]})

        # Bound 4 admits color 3...
        run_engine(path_graph(2), factory, [PaletteBoundMonitor(bound=4)])
        # ...bound 3 does not.
        with pytest.raises(InvariantViolation):
            run_engine(path_graph(2), factory, [PaletteBoundMonitor(bound=3)])

    def test_random_window_has_no_derived_bound(self):
        # The ablation strategy escalates along paths; the monitor must
        # stay dormant rather than false-positive.
        from repro.core.edge_coloring import EdgeColoringParams

        g = path_graph(12)
        color_edges(
            g,
            seed=3,
            params=EdgeColoringParams(color_strategy="random_window"),
            monitors=[PaletteBoundMonitor()],
        )


class TestConservation:
    def test_real_runs_clean(self):
        g = erdos_renyi_avg_degree(25, 5.0, seed=2)
        color_edges(g, seed=6, monitors=[ConservationMonitor()])

    def test_faulty_runs_still_balance(self):
        # Drops, duplicates and crashes all have conservation terms; the
        # identity must hold under every fault class.
        from repro.core.edge_coloring import EdgeColoringParams
        from repro.runtime.faults import DuplicateMessages

        g = erdos_renyi_avg_degree(20, 4.0, seed=4)
        color_edges(
            g,
            seed=6,
            params=EdgeColoringParams(recovery=True),
            faults=compose(
                DropRandomMessages(0.08, seed=1),
                DuplicateMessages(0.05, seed=2),
                CrashNodes({2: 6}),
            ),
            check_consistency=False,
            monitors=[ConservationMonitor()],
        )

    def test_unbalanced_counters_fire(self):
        from repro.runtime.message import BROADCAST, Message

        g = path_graph(3)
        monitor = ConservationMonitor()
        monitor.begin_run(g, [])
        metrics = RunMetrics()
        metrics.messages_sent = 1
        metrics.messages_delivered = 1  # node 1 broadcast to 2 neighbors
        outbound = [(1, [Message(sender=1, dest=BROADCAST, payload=None)])]
        with pytest.raises(InvariantViolation) as exc:
            monitor.after_superstep(0, [], [0, 1, 2], metrics, outbound)
        assert exc.value.monitor == "message-conservation"
        assert "2 copies addressed but 1 accounted" in exc.value.detail

    def test_sent_mismatch_fires(self):
        from repro.runtime.message import Message

        g = path_graph(2)
        monitor = ConservationMonitor()
        monitor.begin_run(g, [])
        metrics = RunMetrics()  # claims nothing sent
        outbound = [(0, [Message(sender=0, dest=1, payload=None)])]
        with pytest.raises(InvariantViolation) as exc:
            monitor.after_superstep(0, [], [0, 1], metrics, outbound)
        assert "but 1 messages left the outboxes" in exc.value.detail


class TestEngineIntegration:
    def test_monitors_block_batched_core(self):
        from repro.core.batched import batched_eligible

        kwargs = dict(
            compute="auto",
            strict=True,
            faults=None,
            transport=None,
            tracer=None,
            recovery=False,
        )
        assert batched_eligible(**kwargs)
        assert not batched_eligible(**kwargs, monitors=[ConservationMonitor()])

    def test_violation_carries_context(self):
        err = InvariantViolation("m", 7, "boom")
        assert err.monitor == "m"
        assert err.superstep == 7
        assert err.detail == "boom"
        assert "superstep 7" in str(err)
