"""Unit tests for the proper-edge-coloring verifier."""

import numpy as np
import pytest

from repro.errors import VerificationError
from repro.graphs.generators import cycle_graph, path_graph, star_graph
from repro.verify import (
    assert_proper_edge_coloring,
    check_proper_edge_coloring,
)


class TestProperness:
    def test_valid_coloring_passes(self):
        g = path_graph(3)
        assert check_proper_edge_coloring(g, {(0, 1): 0, (1, 2): 1}) == []

    def test_adjacent_same_color_flagged(self):
        g = path_graph(3)
        violations = check_proper_edge_coloring(g, {(0, 1): 0, (1, 2): 0})
        assert len(violations) == 1
        assert "vertex 1" in violations[0]

    def test_star_conflicts_counted_per_pair(self):
        g = star_graph(3)
        coloring = {(0, 1): 5, (0, 2): 5, (0, 3): 5}
        violations = check_proper_edge_coloring(g, coloring)
        assert len(violations) == 2  # each new duplicate flagged once

    def test_unknown_edge_flagged(self):
        g = path_graph(2)
        violations = check_proper_edge_coloring(g, {(0, 5): 0})
        assert any("not in the graph" in v for v in violations)

    def test_noncanonical_key_flagged(self):
        g = path_graph(2)
        violations = check_proper_edge_coloring(g, {(1, 0): 0})
        assert any("canonical" in v for v in violations)

    @pytest.mark.parametrize("bad", [-1, 1.5, "red", True, None])
    def test_invalid_color_values(self, bad):
        g = path_graph(2)
        violations = check_proper_edge_coloring(g, {(0, 1): bad})
        assert any("invalid color" in v for v in violations)

    def test_partial_coloring_allowed(self):
        g = cycle_graph(5)
        assert check_proper_edge_coloring(g, {(0, 1): 0}) == []


class TestMalformedKeysAndValues:
    """Odd keys and colors keep the verdict the set-walk checker gave
    them (no value is coerced); keys it raised on are named violations."""

    @pytest.mark.parametrize(
        "color, expected",
        [
            (1.5, ["edge (0, 1) has invalid color 1.5"]),
            (1.0, ["edge (0, 1) has invalid color 1.0",
                   "vertex 1: edges (0, 1) and (1, 2) both colored 1"]),
            (True, ["edge (0, 1) has invalid color True",
                    "vertex 1: edges (0, 1) and (1, 2) both colored 1"]),
            ("red", ["edge (0, 1) has invalid color 'red'"]),
            (None, ["edge (0, 1) has invalid color None"]),
            (2**70, []),
            (np.int64(1), [f"edge (0, 1) has invalid color {np.int64(1)!r}",
                           "vertex 1: edges (0, 1) and (1, 2) both colored 1"]),
        ],
    )
    def test_color_values(self, color, expected):
        colors = {(0, 1): color, (1, 2): 1}
        assert check_proper_edge_coloring(path_graph(3), colors) == expected

    @pytest.mark.parametrize(
        "key, expected",
        [
            ((0.0, 1), ["vertex 1: edges (0.0, 1) and (1, 2) both colored 0"]),
            ((0.5, 1), ["colored edge (0.5, 1) is not in the graph",
                        "vertex 1: edges (0.5, 1) and (1, 2) both colored 0"]),
            ((False, True), ["vertex 1: edges (False, True) and (1, 2) both colored 0"]),
            (("a", "b"), ["colored edge ('a', 'b') is not in the graph"]),
            ((0, 2**70), [f"colored edge (0, {2**70}) is not in the graph"]),
            ((2**70, 0), [f"edge key ({2**70}, 0) is not canonical (low, high)"]),
        ],
    )
    def test_endpoint_values(self, key, expected):
        colors = {key: 0, (1, 2): 0}
        assert check_proper_edge_coloring(path_graph(3), colors) == expected

    @pytest.mark.parametrize("key", [(0, 1, 2), (0,), 5, (None, 1), (0, "a")])
    def test_unusable_key_is_named(self, key):
        colors = {key: 0, (1, 2): 0}
        assert check_proper_edge_coloring(path_graph(3), colors) == [
            f"edge key {key!r} is not a pair of comparable node ids"
        ]

    def test_unusable_key_still_counts_completeness(self):
        violations = check_proper_edge_coloring(
            path_graph(3), {(0, 1, 2): 0}, complete=True
        )
        assert violations == [
            "edge key (0, 1, 2) is not a pair of comparable node ids",
            "edge (0, 1) is uncolored",
            "edge (1, 2) is uncolored",
        ]


class TestCompleteness:
    def test_missing_edges_listed(self):
        g = path_graph(3)
        missing = check_proper_edge_coloring(g, {(0, 1): 0}, complete=True)
        assert missing == ["edge (1, 2) is uncolored"]

    def test_complete_passes(self):
        g = path_graph(3)
        assert check_proper_edge_coloring(g, {(0, 1): 0, (1, 2): 1}, complete=True) == []


class TestAssertWrapper:
    def test_raises_on_violation(self):
        g = path_graph(3)
        with pytest.raises(VerificationError):
            assert_proper_edge_coloring(g, {(0, 1): 0, (1, 2): 0})

    def test_raises_on_incomplete(self):
        g = path_graph(3)
        with pytest.raises(VerificationError):
            assert_proper_edge_coloring(g, {(0, 1): 0})

    def test_partial_ok_when_not_complete(self):
        g = path_graph(3)
        assert_proper_edge_coloring(g, {(0, 1): 0}, complete=False)

    def test_message_truncated(self):
        g = star_graph(30)
        coloring = {e: 0 for e in g.edges()}
        with pytest.raises(VerificationError) as exc:
            assert_proper_edge_coloring(g, coloring)
        assert "violations" in str(exc.value)
