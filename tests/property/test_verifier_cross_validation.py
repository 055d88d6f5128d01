"""Cross-validation of the coloring *verifiers* against two oracles.

The verifiers are the project's independent second implementation of
the problem definitions.  Two more stand beside them here, and all must
agree:

* the set-walk checkers of :mod:`.set_walk_oracles` — the verifiers'
  own earlier implementation, which walks Python sets around every
  colored edge instead of sorting and probing arrays;
* networkx: proper edge coloring ⟺ proper vertex coloring of
  ``nx.line_graph`` (the textbook equivalence, computed by networkx's
  own line-graph construction), each color class a matching (networkx
  multigraph degrees give the violation count), and the strong
  arc-coloring conflict model re-implemented as a brute force over
  **all arc pairs** with networkx adjacency.

Random colorings (valid and invalid alike) are drawn per graph, so the
oracles are compared on both verdicts, not just on algorithm outputs.
The three-way suites also draw partial colorings, arbitrary node ids,
isolated nodes and non-symmetric digraphs, inject faults, and require
equal violation counts as well as equal verdicts.
"""

import random

import networkx as nx
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.dima2ed import strong_color_arcs
from repro.core.edge_coloring import color_edges
from repro.graphs.convert import to_networkx
from repro.verify import (
    check_proper_edge_coloring,
    check_strong_arc_coloring,
)

from . import set_walk_oracles as set_walk
from .strategies import digraphs, graphs, labeled_graphs, nonempty_graphs

RELAXED = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def nx_proper_edge_coloring(graph, colors) -> bool:
    """Properness via networkx: proper node coloring of the line graph."""
    line = nx.line_graph(to_networkx(graph))

    def color_of(edge):
        return colors[tuple(sorted(edge))]

    return all(color_of(a) != color_of(b) for a, b in line.edges)


def nx_strong_arc_coloring(digraph, colors) -> bool:
    """DESIGN.md's conflict model, brute-forced over all arc pairs."""
    underlying = to_networkx(digraph.to_undirected())

    def conflict(a, b):
        (u, v), (w, x) = a, b
        if {u, v} & {w, x}:
            return True  # shared endpoint (includes the reverse arc)
        if underlying.has_edge(w, v):
            return True  # transmitter w interferes at receiver v
        if underlying.has_edge(u, x):
            return True  # the symmetric pattern
        return False

    arcs = sorted(colors)
    for i, a in enumerate(arcs):
        for b in arcs[i + 1 :]:
            if colors[a] == colors[b] and conflict(a, b):
                return False
    return True


class TestEdgeColoringVerifierAgrees:
    @RELAXED
    @given(graphs(max_nodes=9), st.integers(min_value=0, max_value=2**31))
    def test_random_colorings_same_verdict(self, graph, seed):
        rng = random.Random(seed)
        colors = {edge: rng.randrange(4) for edge in graph.edges()}
        ours = not check_proper_edge_coloring(graph, colors)
        theirs = nx_proper_edge_coloring(graph, colors)
        assert ours == theirs

    @RELAXED
    @given(graphs(max_nodes=9), st.integers(min_value=0, max_value=2**31))
    def test_algorithm_output_passes_both(self, graph, seed):
        colors = color_edges(graph, seed=seed).colors
        assert not check_proper_edge_coloring(graph, colors)
        assert nx_proper_edge_coloring(graph, colors)

    @RELAXED
    @given(nonempty_graphs(max_nodes=9), st.integers(min_value=0, max_value=2**31))
    def test_corrupted_output_fails_both_when_adjacent(self, graph, seed):
        # Overwrite one edge's color with an adjacent edge's color; both
        # oracles must flip to invalid together (edges may be isolated,
        # in which case both must stay valid).
        colors = dict(color_edges(graph, seed=seed).colors)
        edges = sorted(colors)
        victim = edges[seed % len(edges)]
        donor = next(
            (e for e in edges if e != victim and set(e) & set(victim)), None
        )
        if donor is not None:
            colors[victim] = colors[donor]
        ours = not check_proper_edge_coloring(graph, colors)
        theirs = nx_proper_edge_coloring(graph, colors)
        assert ours == theirs
        if donor is not None:
            assert not ours


class TestStrongColoringVerifierAgrees:
    @RELAXED
    @given(graphs(max_nodes=6), st.integers(min_value=0, max_value=2**31))
    def test_random_colorings_same_verdict(self, graph, seed):
        digraph = graph.to_directed()
        rng = random.Random(seed)
        colors = {arc: rng.randrange(6) for arc in digraph.arcs()}
        ours = not check_strong_arc_coloring(digraph, colors, complete=False)
        theirs = nx_strong_arc_coloring(digraph, colors)
        assert ours == theirs

    @RELAXED
    @given(graphs(max_nodes=6), st.integers(min_value=0, max_value=2**31))
    def test_algorithm_output_passes_both(self, graph, seed):
        digraph = graph.to_directed()
        colors = strong_color_arcs(digraph, seed=seed).colors
        assert not check_strong_arc_coloring(digraph, colors)
        assert nx_strong_arc_coloring(digraph, colors)

    @RELAXED
    @given(nonempty_graphs(max_nodes=6), st.integers(min_value=0, max_value=2**31))
    def test_clashing_reverse_arcs_fail_both(self, graph, seed):
        # An arc and its reverse share both endpoints — forcing them to
        # one channel must trip both oracles.
        digraph = graph.to_directed()
        colors = dict(strong_color_arcs(digraph, seed=seed).colors)
        u, v = sorted(colors)[seed % len(colors)]
        colors[(v, u)] = colors[(u, v)]
        assert check_strong_arc_coloring(digraph, colors, complete=False)
        assert not nx_strong_arc_coloring(digraph, colors)


# -- three-way agreement: arrays, set walks and networkx ---------------------

THREE_WAY = settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

#: Colors a fault may write: a negative int, floats (one equal to an
#: int color), a bool, and valid colors that may collide.
FAULT_COLORS = [-1, 1.5, 1.0, True, 0, 1, 2]

EDGE_FAULTS = [
    "shared_endpoint", "missing_edge", "absent_edge", "non_canonical",
    "negative_color", "odd_color",
]
ARC_FAULTS = [
    "shared_endpoint", "reverse_arc", "rule2", "rule3", "missing_arc",
    "absent_arc", "negative_color", "odd_color",
]


def _valid_color(c) -> bool:
    return isinstance(c, int) and not isinstance(c, bool) and c >= 0


def nx_proper_violation_count(graph, colors, complete) -> int:
    """Violations as networkx counts them: per-key faults, then the
    excess degree of every color class (a matching has none), then
    uncolored edges."""
    g = to_networkx(graph)
    count = 0
    classes = {}
    for (u, v), c in colors.items():
        if u > v:
            count += 1  # non-canonical key: nothing else checked for it
        else:
            count += not g.has_edge(u, v)
            count += not _valid_color(c)
        classes.setdefault(c, nx.MultiGraph()).add_edge(u, v)
    count += sum(max(d - 1, 0) for h in classes.values() for _, d in h.degree())
    if complete:
        count += sum(1 for u, v in g.edges() if (min(u, v), max(u, v)) not in colors)
    return count


def nx_strong_violation_count(digraph, colors, complete) -> int:
    """Violations as networkx counts them: per-key faults, uncolored
    arcs, then every conflicting pair of colored arcs by brute force."""
    d = to_networkx(digraph)
    underlying = d.to_undirected()
    count = 0
    present = []
    for arc, c in colors.items():
        if d.has_edge(*arc):
            present.append((arc, c))
        else:
            count += 1
        count += not _valid_color(c)
    if complete:
        count += sum(1 for arc in d.edges() if arc not in colors)
    for i, ((u, v), ca) in enumerate(present):
        for (w, x), cb in present[i + 1 :]:
            if ca == cb and (
                {u, v} & {w, x} or underlying.has_edge(w, v) or underlying.has_edge(u, x)
            ):
                count += 1
    return count


def _inject_edge_fault(draw, graph, colors, fault) -> None:
    edges = sorted(graph.edges())
    keys = sorted(colors)
    if fault == "shared_endpoint" and keys:
        a = draw(st.sampled_from(keys))
        adjacent = [e for e in edges if e != a and set(e) & set(a)]
        if adjacent:
            colors[draw(st.sampled_from(adjacent))] = colors[a]
    elif fault == "missing_edge" and keys:
        del colors[draw(st.sampled_from(keys))]
    elif fault == "absent_edge":
        nodes = sorted(graph.nodes()) + [98, 99]  # never node ids
        u, v = draw(st.lists(st.sampled_from(nodes), min_size=2, max_size=2, unique=True))
        if not graph.has_edge(u, v):
            colors[(min(u, v), max(u, v))] = draw(st.sampled_from(FAULT_COLORS))
    elif fault == "non_canonical" and edges:
        u, v = draw(st.sampled_from(edges))
        colors[(v, u)] = draw(st.sampled_from(FAULT_COLORS))
    elif fault == "negative_color" and keys:
        colors[draw(st.sampled_from(keys))] = -1
    elif fault == "odd_color" and keys:
        colors[draw(st.sampled_from(keys))] = draw(st.sampled_from(FAULT_COLORS))


def _partners(digraph, a, fault):
    """Arcs that conflict with ``a`` the way ``fault`` names; for the
    distance-2 rules, only pairs that share no endpoint."""
    u, v = a

    def near(z):
        return digraph.successors(z) | digraph.predecessors(z)

    arcs = sorted(digraph.arcs())
    if fault == "shared_endpoint":
        return [b for b in arcs if b != a and set(b) & {u, v}]
    if fault == "reverse_arc":
        return [b for b in arcs if b == (v, u)]
    apart = [b for b in arcs if not set(b) & {u, v}]
    if fault == "rule2":  # b's tail next to a's head
        return [b for b in apart if b[0] in near(v)]
    return [b for b in apart if b[1] in near(u)]  # rule3: b's head next to a's tail


def _inject_arc_fault(draw, digraph, colors, fault) -> None:
    keys = [k for k in sorted(colors) if digraph.has_arc(*k)]
    if fault in ("shared_endpoint", "reverse_arc", "rule2", "rule3") and keys:
        a = draw(st.sampled_from(keys))
        partners = _partners(digraph, a, fault)
        if partners:
            colors[draw(st.sampled_from(partners))] = colors[a]
    elif fault == "missing_arc" and keys:
        del colors[draw(st.sampled_from(keys))]
    elif fault == "absent_arc":
        nodes = sorted(digraph.nodes()) + [98, 99]
        u, v = draw(st.lists(st.sampled_from(nodes), min_size=2, max_size=2, unique=True))
        if not digraph.has_arc(u, v):
            colors[(u, v)] = draw(st.sampled_from(FAULT_COLORS))
    elif fault == "negative_color" and keys:
        colors[draw(st.sampled_from(keys))] = -1
    elif fault == "odd_color" and keys:
        colors[draw(st.sampled_from(keys))] = draw(st.sampled_from(FAULT_COLORS))


@st.composite
def edge_colorings(draw):
    """A graph, a partial coloring with injected faults, and ``complete``."""
    graph = draw(labeled_graphs(max_nodes=8, min_nodes=2))
    if not graph.num_edges:
        graph.add_edge(*graph.nodes()[:2])
    edges = sorted(graph.edges())
    colored = draw(st.lists(st.sampled_from(edges), unique=True))
    colors = {e: draw(st.integers(0, 3)) for e in colored}
    for fault in draw(st.lists(st.sampled_from(EDGE_FAULTS), max_size=3)):
        _inject_edge_fault(draw, graph, colors, fault)
    return graph, colors, draw(st.booleans())


@st.composite
def arc_colorings(draw):
    """A digraph, a partial channel map with injected faults, and ``complete``."""
    digraph = draw(digraphs(max_nodes=7, min_nodes=2))
    if not digraph.num_arcs:
        digraph.add_arc(*digraph.nodes()[:2])
    arcs = sorted(digraph.arcs())
    colored = draw(st.lists(st.sampled_from(arcs), unique=True))
    colors = {a: draw(st.integers(0, 5)) for a in colored}
    for fault in draw(st.lists(st.sampled_from(ARC_FAULTS), max_size=3)):
        _inject_arc_fault(draw, digraph, colors, fault)
    return digraph, colors, draw(st.booleans())


class TestThreeWayEdgeColoring:
    @THREE_WAY
    @given(edge_colorings())
    def test_arrays_set_walk_and_networkx_agree(self, case):
        graph, colors, complete = case
        ours = check_proper_edge_coloring(graph, colors, complete=complete)
        assert ours == set_walk.check_proper_edge_coloring(graph, colors, complete=complete)
        assert len(ours) == nx_proper_violation_count(graph, colors, complete)

    @RELAXED
    @given(labeled_graphs(max_nodes=9), st.integers(min_value=0, max_value=2**31))
    def test_algorithm_output_on_arbitrary_ids(self, graph, seed):
        colors = color_edges(graph, seed=seed).colors
        assert check_proper_edge_coloring(graph, colors, complete=True) == []
        assert nx_proper_violation_count(graph, colors, True) == 0


class TestThreeWayStrongColoring:
    @THREE_WAY
    @given(arc_colorings())
    def test_arrays_set_walk_and_networkx_agree(self, case):
        digraph, colors, complete = case
        ours = check_strong_arc_coloring(digraph, colors, complete=complete)
        walk = set_walk.check_strong_arc_coloring(digraph, colors, complete=complete)
        assert sorted(ours) == sorted(walk)
        assert len(ours) == nx_strong_violation_count(digraph, colors, complete)

    @RELAXED
    @given(labeled_graphs(max_nodes=7), st.integers(min_value=0, max_value=2**31))
    def test_algorithm_output_on_arbitrary_ids(self, graph, seed):
        digraph = graph.to_directed()
        colors = strong_color_arcs(digraph, seed=seed).colors
        assert check_strong_arc_coloring(digraph, colors) == []
        assert nx_strong_violation_count(digraph, colors, True) == 0
