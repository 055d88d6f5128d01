"""Property-based tests of engine semantics (sync, async).

These pin the delivery laws with arbitrary topologies and a gossip
program whose state fingerprints everything it ever heard — any
misdelivery, reorder, or lost/duplicated message changes the
fingerprint.
"""

from typing import Sequence

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.runtime.async_engine import AsyncEngine
from repro.runtime.engine import SynchronousEngine
from repro.runtime.message import Message
from repro.runtime.node import Context, NodeProgram

from .strategies import graphs

RELAXED = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


class Fingerprint(NodeProgram):
    """Gossips a rolling hash of everything heard for k supersteps."""

    K = 4

    def __init__(self, node_id: int):
        self.node_id = node_id
        self.state = node_id + 1

    def on_superstep(self, ctx: Context, inbox: Sequence[Message]):
        for msg in inbox:
            # order-sensitive mixing: reordering changes the fingerprint
            self.state = (self.state * 31 + msg.sender * 17 + msg.payload) % 1_000_003
        self.state = (self.state + ctx.rng.randrange(1000)) % 1_000_003
        if ctx.superstep < self.K:
            ctx.broadcast(self.state)
        else:
            self.halt()


class TestDeliveryLaws:
    @RELAXED
    @given(g=graphs(max_nodes=10), seed=st.integers(0, 2**10))
    def test_conservation(self, g, seed):
        """Every delivered copy corresponds to a live one-hop neighbor."""
        run = SynchronousEngine(g, Fingerprint, seed=seed).run()
        m = run.metrics
        assert run.completed
        # K+1 supersteps, everyone lives K+1 supersteps, broadcasts K times.
        assert m.messages_sent == g.num_nodes * Fingerprint.K
        # all receivers stay live while broadcasts fly (halting is at K)
        expected_copies = Fingerprint.K * sum(g.degree(u) for u in g)
        assert m.messages_delivered == expected_copies
        assert m.messages_dropped == 0

    @RELAXED
    @given(g=graphs(max_nodes=10), seed=st.integers(0, 2**10))
    def test_determinism(self, g, seed):
        a = SynchronousEngine(g, Fingerprint, seed=seed).run()
        b = SynchronousEngine(g, Fingerprint, seed=seed).run()
        assert [p.state for p in a.programs] == [p.state for p in b.programs]


class TestAsyncEquivalenceProperty:
    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(
        g=graphs(max_nodes=8),
        seed=st.integers(0, 2**10),
        max_delay=st.integers(1, 6),
    )
    def test_synchronizer_reconstructs_rounds(self, g, seed, max_delay):
        seq = SynchronousEngine(g, Fingerprint, seed=seed).run()
        asy = AsyncEngine(g, Fingerprint, seed=seed, max_delay=max_delay).run()
        assert asy.completed
        assert [p.state for p in asy.programs] == [p.state for p in seq.programs]
        assert asy.metrics.messages_sent == seq.metrics.messages_sent
        assert asy.metrics.messages_delivered == seq.metrics.messages_delivered
