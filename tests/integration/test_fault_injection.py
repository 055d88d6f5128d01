"""Behavior under message loss and crashes: where the paper's
assumptions matter, and how the hardened configurations restore them.

Proposition 2's correctness argument explicitly assumes reliable
delivery.  These tests demonstrate (a) the reliable configuration is
clean, (b) loss slows but rarely corrupts low-rate runs, (c) the
defensive listener check contains the damage loss can cause, and —
the strong claims — (d) recovery mode plus the reliable transport make
lossy runs terminate with proper, **complete** colorings, and (e) with
crash-stop faults the survivors still finish and their coloring passes
the surviving-subgraph verifiers.
"""

import pytest

from repro.core.dima2ed import StrongColoringParams, strong_color_arcs
from repro.core.edge_coloring import EdgeColoringParams, color_edges
from repro.errors import ConvergenceError
from repro.graphs.generators import (
    complete_graph,
    erdos_renyi_avg_degree,
    scale_free,
    small_world,
)
from repro.runtime.faults import CrashNodes, DropLinks, DropRandomMessages
from repro.verify import (
    assert_partial_edge_coloring,
    assert_partial_strong_coloring,
    check_proper_edge_coloring,
    check_strong_arc_coloring,
)


def topologies():
    """The three experiment families at a size quick enough for CI."""
    return [
        ("er", erdos_renyi_avg_degree(28, 4.0, seed=11)),
        ("scale_free", scale_free(28, 2, seed=12)),
        ("small_world", small_world(28, 4, 0.2, seed=13)),
    ]


class TestReliableBaseline:
    def test_zero_loss_filter_equals_no_filter(self):
        g = erdos_renyi_avg_degree(30, 4.0, seed=1)
        plain = color_edges(g, seed=5)
        filtered = color_edges(g, seed=5, faults=DropRandomMessages(0.0, seed=1))
        assert plain.colors == filtered.colors


class TestLossyRuns:
    @pytest.mark.parametrize("rate", [0.01, 0.03])
    def test_low_loss_usually_terminates_properly(self, rate):
        g = erdos_renyi_avg_degree(30, 4.0, seed=2)
        completed = 0
        proper = 0
        for seed in range(6):
            try:
                result = color_edges(
                    g,
                    seed=seed,
                    params=EdgeColoringParams(defensive=True, max_rounds=3000),
                    faults=DropRandomMessages(rate, seed=seed),
                    check_consistency=False,
                )
            except ConvergenceError:
                continue
            completed += 1
            if not check_proper_edge_coloring(g, result.colors):
                proper += 1
        assert completed >= 4
        assert proper == completed  # defensive mode keeps colorings proper

    def test_loss_increases_rounds(self):
        g = erdos_renyi_avg_degree(40, 5.0, seed=3)
        clean = color_edges(g, seed=7).rounds
        lossy = color_edges(
            g,
            seed=7,
            params=EdgeColoringParams(defensive=True, max_rounds=5000),
            faults=DropRandomMessages(0.05, seed=7),
            check_consistency=False,
        ).rounds
        assert lossy >= clean

    def test_metrics_count_drops(self):
        g = erdos_renyi_avg_degree(30, 4.0, seed=4)
        result = color_edges(
            g,
            seed=8,
            params=EdgeColoringParams(defensive=True, max_rounds=5000),
            faults=DropRandomMessages(0.05, seed=8),
            check_consistency=False,
        )
        assert result.metrics.messages_dropped > 0


class TestSeveredLinks:
    def test_severed_exchange_can_cause_color_conflicts(self):
        # Cut every report from node 0 to node 1: node 1's knowledge of
        # 0's colors goes stale; without the defensive check this can
        # produce improper or inconsistent colorings — the exact failure
        # mode Proposition 2 excludes by assuming reliability.  We only
        # assert the run still terminates and the harness surfaces the
        # inconsistency rather than hiding it.
        g = erdos_renyi_avg_degree(20, 4.0, seed=5)
        outcomes = set()
        for seed in range(8):
            try:
                result = color_edges(
                    g,
                    seed=seed,
                    params=EdgeColoringParams(max_rounds=2000),
                    faults=DropLinks([(0, 1)]),
                    check_consistency=False,
                )
            except ConvergenceError:
                outcomes.add("stuck")
                continue
            bad = check_proper_edge_coloring(g, result.colors, complete=True)
            outcomes.add("dirty" if bad else "clean")
        # The protocol must never crash; it may be clean, stuck, or dirty.
        assert outcomes <= {"clean", "stuck", "dirty"}
        assert outcomes  # at least one run executed


class TestHardenedLossyRuns:
    """Recovery + reliable transport: loss must not cost correctness.

    Unlike :class:`TestLossyRuns` above, "stuck" and "dirty" are **not**
    acceptable outcomes here — every run must terminate with a proper,
    complete coloring.
    """

    @pytest.mark.parametrize("name,graph", topologies(), ids=lambda x: x if isinstance(x, str) else "")
    @pytest.mark.parametrize("rate", [0.02, 0.05])
    def test_edge_coloring_clean_under_loss(self, name, graph, rate):
        result = color_edges(
            graph,
            seed=17,
            params=EdgeColoringParams(recovery=True, max_rounds=4000),
            faults=DropRandomMessages(rate, seed=17),
            transport=True,
        )
        assert check_proper_edge_coloring(graph, result.colors) == []
        assert check_proper_edge_coloring(graph, result.colors, complete=True) == []
        assert result.metrics.retransmissions > 0

    @pytest.mark.parametrize("rate", [0.02, 0.05])
    def test_dima2ed_clean_under_loss(self, rate):
        digraph = erdos_renyi_avg_degree(24, 3.0, seed=14).to_directed()
        result = strong_color_arcs(
            digraph,
            seed=19,
            params=StrongColoringParams(recovery=True, max_rounds=4000),
            faults=DropRandomMessages(rate, seed=19),
            transport=True,
        )
        assert check_strong_arc_coloring(digraph, result.colors) == []

    def test_recovery_alone_contains_low_loss(self):
        # Without the transport, recovery's corrective replies +
        # persistent reservations still keep the coloring proper and
        # complete at low loss — the handshake heals endpoint desync.
        g = erdos_renyi_avg_degree(26, 4.0, seed=15)
        result = color_edges(
            g,
            seed=23,
            params=EdgeColoringParams(recovery=True, max_rounds=4000),
            faults=DropRandomMessages(0.03, seed=23),
        )
        assert check_proper_edge_coloring(g, result.colors) == []
        assert check_proper_edge_coloring(g, result.colors, complete=True) == []

    def test_dima2ed_recovery_alone_terminates_consistent(self):
        # DiMa2Ed recovery without transport: termination and endpoint
        # consistency are guaranteed (check_consistency=True would
        # raise); strict strong-properness retains a small residual
        # conflict window, so it is asserted only with transport above.
        digraph = erdos_renyi_avg_degree(22, 3.0, seed=16).to_directed()
        result = strong_color_arcs(
            digraph,
            seed=29,
            params=StrongColoringParams(recovery=True, max_rounds=4000),
            faults=DropRandomMessages(0.03, seed=29),
        )
        assert len(result.colors) == digraph.num_arcs


class TestAsymmetricAbandonment:
    """Regression: a cycle of one-sided abandonments must not livelock.

    On K5 minus the (0,1) edge, severing the directed links 2→3, 3→4
    and 4→2 starves each target of its source's messages while every
    node stays live and heartbeating with its other partners — so no
    silence detector fires for the *abandoning* side's partner, and
    before the abandonment notice in recovery reports each victim
    re-invited its silent partner forever (pre-existing
    ``ConvergenceError``, noted in PR 2; seeds 3 and 5 reproduced it).
    """

    def test_k5_minus_edge_cyclic_severed_links_converges(self):
        g = complete_graph(5)
        g.remove_edge(0, 1)
        for seed in range(8):
            result = color_edges(
                g,
                seed=seed,
                params=EdgeColoringParams(recovery=True, max_rounds=300),
                faults=DropLinks([(2, 3), (3, 4), (4, 2)]),
                check_consistency=False,
            )
            # The three severed edges are abandoned (possibly after a
            # completed handshake on the intact direction); everything
            # recorded must still be proper.
            assert check_proper_edge_coloring(g, result.colors) == []
            assert len(result.colors) >= g.num_edges - 3

    def test_abandonment_notice_reaches_partner(self):
        # A single one-sided severed link: the starved side (3) abandons
        # after presume_dead_after rounds, and its heartbeat notice must
        # make 2 drop the edge too instead of re-inviting forever.
        g = complete_graph(4)
        result = color_edges(
            g,
            seed=2,
            params=EdgeColoringParams(
                recovery=True, presume_dead_after=5, max_rounds=300
            ),
            faults=DropLinks([(2, 3)]),
            check_consistency=False,
        )
        assert check_proper_edge_coloring(g, result.colors) == []


class TestCrashStopRuns:
    """Crash up to 10% of the nodes: survivors finish a valid coloring."""

    def test_edge_coloring_survivors_clean(self):
        g = erdos_renyi_avg_degree(30, 4.0, seed=21)
        faults = CrashNodes.random(30, 0.10, window=(4, 40), seed=31)
        result = color_edges(
            g,
            seed=37,
            params=EdgeColoringParams(recovery=True, max_rounds=4000),
            faults=faults,
            transport=True,
            check_consistency=False,
        )
        assert result.crashed
        assert len(result.crashed) <= 3
        assert_partial_edge_coloring(g, result.colors, result.crashed)

    def test_edge_coloring_silence_detector_without_transport(self):
        # No transport: the automaton's own silence detector must notice
        # the dead partners and the run must still finish clean on the
        # surviving subgraph.
        g = erdos_renyi_avg_degree(24, 3.5, seed=22)
        faults = CrashNodes.random(24, 0.10, window=(4, 40), seed=41)
        result = color_edges(
            g,
            seed=43,
            params=EdgeColoringParams(recovery=True, max_rounds=4000),
            faults=faults,
            check_consistency=False,
        )
        assert result.crashed
        assert_partial_edge_coloring(g, result.colors, result.crashed)

    def test_dima2ed_survivors_clean(self):
        digraph = erdos_renyi_avg_degree(24, 3.0, seed=23).to_directed()
        faults = CrashNodes.random(24, 0.10, window=(4, 40), seed=47)
        result = strong_color_arcs(
            digraph,
            seed=53,
            params=StrongColoringParams(recovery=True, max_rounds=4000),
            faults=faults,
            transport=True,
            check_consistency=False,
        )
        assert result.crashed
        assert_partial_strong_coloring(digraph, result.colors, result.crashed)

    def test_crash_metrics_recorded(self):
        g = erdos_renyi_avg_degree(24, 3.5, seed=24)
        result = color_edges(
            g,
            seed=59,
            params=EdgeColoringParams(recovery=True, max_rounds=4000),
            faults=CrashNodes({3: 8, 11: 16}),
            transport=True,
            check_consistency=False,
        )
        assert result.crashed == frozenset({3, 11})
        assert result.metrics.messages_lost_to_crash > 0
