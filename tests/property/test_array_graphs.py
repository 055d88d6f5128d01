"""Array-built graphs behave as set-built graphs do.

:meth:`Graph.from_edge_arrays` keeps edge arrays and a CSR, and builds
adjacency sets only on neighbour-level access.  Here an array-built
graph and a set-built copy of it take the same random mutations,
copies, pickles and neighbour queries, and must stay equal in every
view: ``==``, ``nodes()`` order, ``num_edges``, ``degree_array()``,
``to_csr()`` and the verifiers' verdicts.  After a mutation the graph
has no edge arrays left, so the verifiers read its sets.
"""

import copy
import pickle

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import GraphError
from repro.graphs.adjacency import DiGraph, Graph
from repro.verify import check_proper_edge_coloring, check_strong_arc_coloring

from .strategies import graphs

RELAXED = settings(
    max_examples=100,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def array_graphs(draw, max_nodes: int = 10, min_nodes: int = 0):
    """``(array-built graph, set-built graph)`` with equal edges; the
    arrays list each edge in a random orientation, some twice."""
    g = draw(graphs(max_nodes=max_nodes, min_nodes=min_nodes))
    pairs = []
    for u, v in g.edge_list():
        pairs += [(u, v) if draw(st.booleans()) else (v, u)] * draw(st.integers(1, 2))
    pairs = draw(st.permutations(pairs))
    u = np.array([p[0] for p in pairs], dtype=np.int64)
    v = np.array([p[1] for p in pairs], dtype=np.int64)
    return Graph.from_edge_arrays(g.num_nodes, u, v), g


def _csr_or_error(g):
    try:
        return tuple(a.tobytes() for a in g.to_csr())
    except GraphError as exc:
        return str(exc)


def _assert_same(a, s):
    # The node-level views first: ``==`` reads neighbour sets.
    assert a.nodes() == s.nodes() and list(a) == list(s) and len(a) == len(s)
    assert a.num_nodes == s.num_nodes and a.num_edges == s.num_edges
    assert a.degree_array().tolist() == s.degree_array().tolist()
    assert _csr_or_error(a) == _csr_or_error(s)
    assert a == s and s == a


OPS = st.lists(
    st.tuples(
        st.sampled_from([
            "add_edge", "remove_edge", "add_node", "remove_node", "neighbors",
            "copy", "pickle", "deepcopy", "round_trip_directed",
        ]),
        st.integers(0, 11),
        st.integers(0, 11),
    ),
    max_size=8,
)


def _apply(g, op, x, y):
    if op == "add_edge":
        g.add_edge(x, y)
    elif op == "remove_edge":
        g.remove_edge(x, y)
    elif op == "add_node":
        g.add_node(x)
    elif op == "remove_node":
        g.remove_node(x)
    elif op == "neighbors":
        return sorted(g.neighbors(x))
    elif op == "copy":
        return g.copy()
    elif op == "pickle":
        return pickle.loads(pickle.dumps(g))
    elif op == "deepcopy":
        return copy.deepcopy(g)
    else:
        return g.to_directed().to_undirected()
    return g


def _outcome(g, op, x, y):
    try:
        return _apply(g, op, x, y)
    except Exception as exc:  # noqa: BLE001 - both graphs must raise alike
        return type(exc)


class TestArrayBuiltEqualsSetBuilt:
    @RELAXED
    @given(case=array_graphs(), ops=OPS)
    def test_equal_under_mutations_copies_and_pickles(self, case, ops):
        a, s = case
        mutated = False
        for op, x, y in ops:
            fresh = x not in a  # add_node of a present node changes nothing
            out_a, out_s = _outcome(a, op, x, y), _outcome(s, op, x, y)
            if isinstance(out_a, type):
                assert out_a is out_s
                continue
            if isinstance(out_a, list):
                assert out_a == out_s
                continue
            if out_a is a:
                mutated |= op != "add_node" or fresh
            else:  # a copy replaces the graph it came from
                a, s = out_a, out_s
            _assert_same(a, s)
            if mutated:
                assert a.edge_arrays() is None
        _assert_same(a, s)

    @RELAXED
    @given(case=array_graphs())
    def test_edge_arrays_are_the_canonical_edges(self, case):
        a, s = case
        u, v = a.edge_arrays()
        assert list(zip(u.tolist(), v.tolist())) == s.edge_list()
        assert not u.flags.writeable and not a.to_csr()[1].flags.writeable

    @RELAXED
    @given(case=array_graphs())
    def test_symmetric_view(self, case):
        a, s = case
        d = a.to_directed()
        assert d.edge_arrays() is not None
        assert d.is_symmetric()
        assert d == s.to_directed()
        assert d.num_arcs == 2 * s.num_edges
        assert d.to_undirected().edge_arrays() is not None
        assert d.to_undirected() == s
        assert pickle.loads(pickle.dumps(d)) == d
        assert _csr_or_error(d) == _csr_or_error(s.to_directed())


class TestVerifiersReadSetsAfterAMutation:
    @RELAXED
    @given(case=array_graphs(min_nodes=3))
    def test_added_edge_must_be_colored(self, case):
        a, s = case
        colors = {e: i for i, e in enumerate(s.edge_list())}
        assert check_proper_edge_coloring(a, colors, complete=True) == []
        new = next(((u, v) for u in range(3) for v in range(u + 1, 3) if not s.has_edge(u, v)), None)
        if new is None:
            return
        a.add_edge(*new)
        assert a.edge_arrays() is None
        assert check_proper_edge_coloring(a, colors, complete=True) == [
            f"edge {new} is uncolored"
        ]

    @RELAXED
    @given(case=array_graphs(min_nodes=2))
    def test_removed_arc_no_longer_counts(self, case):
        a, s = case
        d = a.to_directed()
        colors = {arc: i for i, arc in enumerate(sorted(s.to_directed().arcs()))}
        assert check_strong_arc_coloring(d, colors) == []
        if not colors:
            return
        arc = min(colors)
        d.remove_arc(*arc)
        assert d.edge_arrays() is None
        assert check_strong_arc_coloring(d, colors) == [f"colored arc {arc} is not in the digraph"]


class TestFromEdgeArrays:
    def test_self_loop_names_the_first_in_order(self):
        with pytest.raises(GraphError, match=r"self-loop \(3, 3\)"):
            Graph.from_edge_arrays(5, [0, 3, 2], [1, 3, 2])

    @pytest.mark.parametrize("u, v", [([0], [5]), ([-1], [2])])
    def test_endpoint_outside_the_nodes(self, u, v):
        with pytest.raises(GraphError, match="node ids 0..4"):
            Graph.from_edge_arrays(5, u, v)

    def test_mismatched_lengths_and_dtypes(self):
        with pytest.raises(GraphError, match="2 tails but 1 heads"):
            Graph.from_edge_arrays(3, [0, 1], [2])
        with pytest.raises(GraphError, match="integers"):
            Graph.from_edge_arrays(3, [0.0], [1.0])

    def test_caller_arrays_stay_writeable(self):
        u, v = np.array([0, 1]), np.array([1, 2])
        Graph.from_edge_arrays(3, u, v)
        assert u.flags.writeable and v.flags.writeable

    def test_empty(self):
        g = Graph.from_edge_arrays(0, [], [])
        assert g == Graph() and g.num_edges == 0 and g.to_csr()[0].tolist() == [0]
        assert DiGraph() == g.to_directed()
