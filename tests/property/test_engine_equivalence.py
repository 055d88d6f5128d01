"""Bit-identity of the delivery cores.

The fast-path ``SynchronousEngine`` is a pure optimization: for every
program, topology and seed it must reproduce the general loop's results
*exactly* — final program states, every metric counter (including the
per-superstep live-node trace), superstep count and completion flag.
These properties are the license for ``fastpath=True`` being the
engine default (``compute="pernode"`` in the algorithm wrappers, against
``compute="general"``); a single diverging counter here means the
optimization changed semantics, not just speed.

Graphs are drawn from the three random families the paper's experiments
use (Erdős–Rényi, scale-free, small-world) so the tiers of the fast
path all get exercised: dense broadcast supersteps, sparse ones, mixed
unicast phases (the coloring automata alternate all four phase kinds),
and halted-receiver discards near termination.
"""

from typing import Sequence

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.dima2ed import strong_color_arcs
from repro.core.edge_coloring import color_edges
from repro.graphs.generators import erdos_renyi_avg_degree, scale_free, small_world
from repro.runtime.engine import SynchronousEngine
from repro.runtime.message import Message
from repro.runtime.node import Context, NodeProgram

RELAXED = settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def family_graphs(draw, max_nodes: int = 48):
    """A graph from one of the paper's random families."""
    n = draw(st.integers(min_value=4, max_value=max_nodes))
    gseed = draw(st.integers(min_value=0, max_value=2**16))
    family = draw(st.sampled_from(["er", "sf", "sw"]))
    if family == "er":
        return erdos_renyi_avg_degree(n, min(4.0, n - 1), seed=gseed)
    if family == "sf":
        return scale_free(n, min(2, n - 1), seed=gseed)
    k = min(4, n - 1 - ((n - 1) % 2))  # small_world needs even k < n
    return small_world(n, max(2, k), 0.2, seed=gseed)


class Chatter(NodeProgram):
    """Mixes broadcasts and unicast fans so every delivery tier runs.

    Even supersteps broadcast (vector tiers on larger graphs); odd
    supersteps unicast to a rotating subset of neighbors (scalar tier,
    all-unicast model check).  Nodes halt at staggered times, so late
    supersteps exercise discard-on-halted accounting.
    """

    def __init__(self, node_id: int):
        self.node_id = node_id
        self.trace = node_id + 1

    def on_superstep(self, ctx: Context, inbox: Sequence[Message]):
        for msg in inbox:
            self.trace = (self.trace * 31 + msg.sender * 17 + msg.payload) % 1_000_003
        self.trace = (self.trace + ctx.rng.randrange(997)) % 1_000_003
        s = ctx.superstep
        if s >= 6 + self.node_id % 3:
            self.halt()
            return
        if s % 2 == 0:
            ctx.broadcast(self.trace)
        else:
            for v in ctx.neighbors[s % 3 :: 3]:
                ctx.send(v, self.trace + v)


def _identical(a, b):
    assert a.metrics.to_dict() == b.metrics.to_dict()
    assert a.supersteps == b.supersteps
    assert a.completed == b.completed


class TestFastPathBitIdentity:
    @RELAXED
    @given(g=family_graphs(), seed=st.integers(0, 2**16))
    def test_chatter_states_and_metrics(self, g, seed):
        slow = SynchronousEngine(g, Chatter, seed=seed, fastpath=False).run()
        fast = SynchronousEngine(g, Chatter, seed=seed, fastpath=True).run()
        _identical(slow, fast)
        assert [p.trace for p in slow.programs] == [p.trace for p in fast.programs]

    @RELAXED
    @given(g=family_graphs(), seed=st.integers(0, 2**16))
    def test_algorithm1_coloring(self, g, seed):
        slow = color_edges(g, seed=seed, compute="general")
        fast = color_edges(g, seed=seed, compute="pernode")
        assert fast.colors == slow.colors
        assert fast.rounds == slow.rounds
        assert fast.metrics.to_dict() == slow.metrics.to_dict()

    @RELAXED
    @given(g=family_graphs(max_nodes=24), seed=st.integers(0, 2**16))
    def test_dima2ed_coloring(self, g, seed):
        dg = g.to_directed()
        slow = strong_color_arcs(dg, seed=seed, compute="general")
        fast = strong_color_arcs(dg, seed=seed, compute="pernode")
        assert fast.colors == slow.colors
        assert fast.rounds == slow.rounds
        assert fast.metrics.to_dict() == slow.metrics.to_dict()
