"""Unit tests for the strong-arc-coloring verifier."""

import numpy as np
import pytest

from repro.errors import VerificationError
from repro.graphs.adjacency import DiGraph
from repro.graphs.generators import complete_graph, path_graph
from repro.verify import assert_strong_arc_coloring, check_strong_arc_coloring


def p4d():
    return path_graph(4).to_directed()


class TestConflictDetection:
    def test_valid_assignment_passes(self):
        d = path_graph(2).to_directed()
        assert check_strong_arc_coloring(d, {(0, 1): 0, (1, 0): 1}) == []

    def test_reverse_arc_same_channel_flagged(self):
        d = path_graph(2).to_directed()
        violations = check_strong_arc_coloring(d, {(0, 1): 0, (1, 0): 0})
        assert len(violations) == 1

    def test_shared_endpoint_flagged(self):
        d = p4d()
        colors = {a: i for i, a in enumerate(d.arc_list())}
        colors[(0, 1)] = colors[(1, 2)] = 42
        violations = check_strong_arc_coloring(d, colors, complete=False)
        assert any("(0, 1)" in v and "(1, 2)" in v for v in violations)

    def test_one_hop_interference_flagged(self):
        d = p4d()
        colors = {a: i for i, a in enumerate(d.arc_list())}
        colors[(0, 1)] = colors[(2, 3)] = 42  # 2 ∈ N(1): conflict
        assert check_strong_arc_coloring(d, colors, complete=False)

    def test_far_arcs_same_channel_ok(self):
        d = path_graph(6).to_directed()
        colors = {a: i for i, a in enumerate(d.arc_list())}
        colors[(0, 1)] = colors[(4, 5)] = 42  # distance > 2: fine
        assert check_strong_arc_coloring(d, colors, complete=False) == []

    def test_rule2_alone_on_a_one_way_digraph(self):
        # b's tail 2 neighbours a's head 1 through the arc (1, 2) only.
        d = DiGraph([(0, 1), (1, 2), (2, 3)])
        violations = check_strong_arc_coloring(d, {(0, 1): 7, (2, 3): 7}, complete=False)
        assert violations == ["arcs (0, 1) and (2, 3) both use channel 7 but conflict"]

    def test_rule3_alone_on_a_one_way_digraph(self):
        # a's tail 1 neighbours b's head 2; b's tail 3 is far from a's head 0.
        d = DiGraph([(1, 0), (1, 2), (3, 2)])
        violations = check_strong_arc_coloring(d, {(1, 0): 7, (3, 2): 7}, complete=False)
        assert violations == ["arcs (1, 0) and (3, 2) both use channel 7 but conflict"]

    def test_no_underlying_edge_no_conflict(self):
        d = DiGraph([(0, 1), (2, 3)])
        assert check_strong_arc_coloring(d, {(0, 1): 7, (2, 3): 7}) == []

    def test_each_conflict_reported_once(self):
        d = path_graph(2).to_directed()
        violations = check_strong_arc_coloring(d, {(0, 1): 3, (1, 0): 3})
        assert len(violations) == 1  # not once per direction


class TestStructuralChecks:
    def test_unknown_arc_flagged(self):
        d = p4d()
        violations = check_strong_arc_coloring(d, {(0, 3): 0}, complete=False)
        assert any("not in the digraph" in v for v in violations)

    def test_invalid_channel_flagged(self):
        d = path_graph(2).to_directed()
        violations = check_strong_arc_coloring(d, {(0, 1): -2}, complete=False)
        assert any("invalid channel" in v for v in violations)

    def test_completeness(self):
        d = path_graph(2).to_directed()
        violations = check_strong_arc_coloring(d, {(0, 1): 0})
        assert any("uncolored" in v for v in violations)

    def test_partial_mode(self):
        d = p4d()
        assert check_strong_arc_coloring(d, {(0, 1): 0}, complete=False) == []


class TestMalformedKeysAndValues:
    """Odd keys and channels keep the verdict the set-walk checker gave
    them (no value is coerced); keys it raised on are named violations."""

    @pytest.mark.parametrize(
        "a, b, expected",
        [
            (1.5, 1, ["arc (0, 1) has invalid channel 1.5"]),
            (1.0, 1, ["arc (0, 1) has invalid channel 1.0",
                      "arcs (0, 1) and (1, 0) both use channel 1.0 but conflict"]),
            (True, 1, ["arc (0, 1) has invalid channel True",
                       "arcs (0, 1) and (1, 0) both use channel True but conflict"]),
            ("red", "red", ["arc (0, 1) has invalid channel 'red'",
                            "arc (1, 0) has invalid channel 'red'",
                            "arcs (0, 1) and (1, 0) both use channel red but conflict"]),
            (None, None, ["arc (0, 1) has invalid channel None",
                          "arc (1, 0) has invalid channel None"]),
            (2**70, 2**70, [f"arcs (0, 1) and (1, 0) both use channel {2**70} but conflict"]),
            (np.int64(1), 1, [f"arc (0, 1) has invalid channel {np.int64(1)!r}",
                              "arcs (0, 1) and (1, 0) both use channel 1 but conflict"]),
        ],
    )
    def test_channel_values(self, a, b, expected):
        d = path_graph(2).to_directed()
        assert check_strong_arc_coloring(d, {(0, 1): a, (1, 0): b}) == expected

    @pytest.mark.parametrize(
        "key, expected",
        [
            ((0.0, 1), ["arcs (0.0, 1) and (1, 0) both use channel 0 but conflict"]),
            ((0.5, 1), ["colored arc (0.5, 1) is not in the digraph"]),
            (("a", "b"), ["colored arc ('a', 'b') is not in the digraph"]),
            ((None, 1), ["colored arc (None, 1) is not in the digraph"]),
            ((2**70, 0), [f"colored arc ({2**70}, 0) is not in the digraph"]),
        ],
    )
    def test_endpoint_values(self, key, expected):
        d = path_graph(2).to_directed()
        colors = {key: 0, (1, 0): 0}
        assert check_strong_arc_coloring(d, colors, complete=False) == expected

    @pytest.mark.parametrize("key", [(0, 1, 2), (0,), 5])
    def test_non_pair_key_is_named(self, key):
        d = path_graph(2).to_directed()
        colors = {key: 0, (1, 0): 0}
        assert check_strong_arc_coloring(d, colors, complete=False) == [
            f"arc key {key!r} is not a (tail, head) pair"
        ]


class TestAssertWrapper:
    def test_raises(self):
        d = path_graph(2).to_directed()
        with pytest.raises(VerificationError):
            assert_strong_arc_coloring(d, {(0, 1): 0, (1, 0): 0})

    def test_passes_on_valid(self):
        d = complete_graph(3).to_directed()
        colors = {a: i for i, a in enumerate(d.arc_list())}
        assert_strong_arc_coloring(d, colors)
