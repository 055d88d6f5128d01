"""The run path Algorithm 1 and DiMa2Ed share (:mod:`repro.core.batched`)."""

import pytest

from repro.core.dima2ed import StrongColoringParams, strong_color_arcs
from repro.core.edge_coloring import EdgeColoringParams, color_edges
from repro.errors import ConfigurationError
from repro.graphs.generators import erdos_renyi_avg_degree
from repro.resilience import ChaosConfig, chaos_campaign, supervise_edge_coloring

GRAPH = erdos_renyi_avg_degree(30, 3.0, seed=2)

ENTRY_POINTS = {
    "color_edges": lambda rounds: color_edges(
        GRAPH, params=EdgeColoringParams(max_rounds=rounds)
    ),
    "strong_color_arcs": lambda rounds: strong_color_arcs(
        GRAPH.to_directed(), params=StrongColoringParams(max_rounds=rounds)
    ),
    "supervise_edge_coloring": lambda rounds: supervise_edge_coloring(
        GRAPH, params=EdgeColoringParams(max_rounds=rounds)
    ),
    "chaos_campaign": lambda rounds: chaos_campaign(
        GRAPH, config=ChaosConfig(round_budget=rounds, max_runs=1)
    ),
}


@pytest.mark.parametrize("rounds", [0, -3])
@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_round_budget_below_one_is_a_configuration_error(entry, rounds):
    with pytest.raises(
        ConfigurationError, match=f"^max_rounds must be >= 1, got {rounds}$"
    ):
        ENTRY_POINTS[entry](rounds)
