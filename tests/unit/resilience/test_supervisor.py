"""Unit tests for deadline supervision and graceful degradation."""

import pytest

from repro.core.edge_coloring import EdgeColoringParams, color_edges
from repro.errors import ConfigurationError
from repro.graphs.generators import erdos_renyi_avg_degree
from repro.resilience import (
    CheckpointStore,
    SupervisionPolicy,
    supervise_edge_coloring,
)
from repro.runtime.faults import CrashNodes, DropRandomMessages
from repro.runtime.transport import TransportConfig
from repro.verify import check_proper_edge_coloring

GRAPH = erdos_renyi_avg_degree(90, 5.0, seed=17)


class TestPolicyValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"wall_clock_budget": 0.0},
            {"wall_clock_budget": -1.0},
            {"round_budget": 0},
            {"slice_rounds": 0},
            {"checkpoint_every_rounds": 0},
            {"plateau_rounds": 0},
            {"transport_jitter": 1.0},
            {"transport_jitter": -0.1},
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ConfigurationError):
            SupervisionPolicy(**kwargs)

    def test_defaults_valid(self):
        policy = SupervisionPolicy()
        assert policy.slice_rounds >= 1


class TestCleanRuns:
    def test_matches_unsupervised_run_exactly(self):
        base = color_edges(GRAPH, seed=5)
        sup = supervise_edge_coloring(
            GRAPH, seed=5, policy=SupervisionPolicy(slice_rounds=4)
        )
        assert sup.completed and sup.outcome == "completed"
        assert sup.verified
        assert sup.colors == base.colors
        assert sup.rounds == base.rounds
        assert sup.supersteps == base.supersteps
        assert sup.metrics.to_dict() == base.metrics.to_dict()
        assert sup.legs > 1  # the slicing actually happened

    @pytest.mark.parametrize(
        "transport, lossy",
        [
            (TransportConfig(), False),
            (TransportConfig(jitter=0.25, jitter_seed=5), False),
            (TransportConfig(), True),
        ],
        ids=["reliable", "jitter", "lossy"],
    )
    def test_matches_unsupervised_run_under_transport(self, transport, lossy):
        # Pins the supervisor's transport arithmetic: the window stretch,
        # pulse-counted supersteps and the transport-counter fold.
        graph = erdos_renyi_avg_degree(60, 4.0, seed=17)
        kwargs = dict(seed=5, transport=transport)
        if lossy:
            kwargs["params"] = EdgeColoringParams(recovery=True)
        faults = lambda: DropRandomMessages(0.05, seed=3) if lossy else None
        base = color_edges(
            graph,
            compute="general",
            faults=faults(),
            check_consistency=not lossy,
            **kwargs,
        )
        sup = supervise_edge_coloring(
            graph,
            faults=faults(),
            policy=SupervisionPolicy(slice_rounds=4),
            **kwargs,
        )
        assert sup.completed
        assert sup.colors == base.colors
        assert sup.rounds == base.rounds
        assert sup.supersteps == base.supersteps
        assert sup.metrics.to_dict() == base.metrics.to_dict()
        assert sup.legs > 1

    def test_single_slice_when_budget_generous(self):
        sup = supervise_edge_coloring(
            GRAPH, seed=5, policy=SupervisionPolicy(slice_rounds=10_000)
        )
        assert sup.completed and sup.legs == 1

    def test_colored_fraction_reaches_one(self):
        sup = supervise_edge_coloring(GRAPH, seed=3)
        assert sup.colored_fraction == pytest.approx(1.0)


class TestGracefulDegradation:
    def test_round_budget_yields_verified_partial(self):
        sup = supervise_edge_coloring(
            GRAPH,
            seed=5,
            policy=SupervisionPolicy(round_budget=3, slice_rounds=2),
        )
        assert sup.outcome == "round_budget"
        assert not sup.completed
        assert sup.verified  # partial but proper
        assert 0.0 < sup.colored_fraction < 1.0
        assert check_proper_edge_coloring(GRAPH, sup.colors) == []

    def test_plateau_detected_under_total_loss(self):
        # 100% loss in recovery mode: every node stays live and keeps
        # heartbeating but no edge can ever color — the plateau
        # detector must put the run out of its misery.
        sup = supervise_edge_coloring(
            GRAPH,
            seed=2,
            params=EdgeColoringParams(recovery=True),
            faults=DropRandomMessages(1.0, seed=1),
            policy=SupervisionPolicy(
                plateau_rounds=6, slice_rounds=4, round_budget=5_000
            ),
        )
        assert sup.outcome == "plateau"
        assert sup.colored_fraction == 0.0
        assert sup.verified  # the empty coloring is vacuously proper

    def test_deadline_trips(self):
        sup = supervise_edge_coloring(
            GRAPH,
            seed=2,
            params=EdgeColoringParams(recovery=True),
            faults=DropRandomMessages(0.95, seed=4),
            policy=SupervisionPolicy(
                wall_clock_budget=1e-6, slice_rounds=1, plateau_rounds=None
            ),
        )
        assert sup.outcome == "deadline"
        assert sup.verified

    def test_crashy_run_survives_and_verifies(self):
        sup = supervise_edge_coloring(
            GRAPH,
            seed=6,
            params=EdgeColoringParams(recovery=True),
            faults=CrashNodes.random(GRAPH.num_nodes, 0.08, window=(4, 40), seed=3),
            policy=SupervisionPolicy(slice_rounds=8),
        )
        assert sup.verified
        assert len(sup.crashed) > 0
        assert sup.outcome in ("completed", "round_budget", "plateau")


class TestCheckpointTrail:
    def test_store_receives_checkpoints(self):
        store = CheckpointStore(keep=4)
        sup = supervise_edge_coloring(
            GRAPH,
            seed=5,
            policy=SupervisionPolicy(slice_rounds=4, checkpoint_every_rounds=2),
            store=store,
        )
        assert sup.checkpoints_taken >= len(store.checkpoints) >= 1
        assert all(cp.kind == "pernode" for cp in store.checkpoints)

    def test_legs_and_wall_seconds_reported(self):
        sup = supervise_edge_coloring(
            GRAPH, seed=5, policy=SupervisionPolicy(slice_rounds=4)
        )
        assert sup.legs >= 2
        assert sup.wall_seconds > 0.0
