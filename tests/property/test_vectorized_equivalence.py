"""Bit-identity of the vectorized plane kernels against the per-node loop.

The vectorized kernels (:mod:`repro.core.vectorized`) re-derive both
algorithms — fixed-width uint64 palette planes, whole-population numpy
rounds, and a replayed RNG (:mod:`repro.core.vecrng`) instead of
per-node ``random.Random`` objects.  Nothing in them shares state with
the per-node programs, so the reference is the general per-node loop
(``fastpath=False, compute="pernode"``): for every family, seed and
strategy combination, colorings, round/superstep counts and the full
metrics dict must match it exactly.

The numba backend is the same kernel family once more with the inner
loops njit-compiled; its tests run the *interpreted* fallback (numba is
not a dependency of this repo) by forcing the backend probe, which
executes the identical Python source the JIT would compile.
"""

import hashlib

import pytest

import repro.core.kernels_numba as kernels_numba
from repro.core.dima2ed import StrongColoringParams, strong_color_arcs
from repro.core.edge_coloring import EdgeColoringParams, color_edges
from repro.graphs.generators import (
    erdos_renyi_avg_degree,
    random_regular,
    scale_free,
    small_world,
)

FAMILIES = {
    "er": lambda seed: erdos_renyi_avg_degree(48, 5.0, seed=seed),
    "scale-free": lambda seed: scale_free(48, 3, seed=seed),
    "small-world": lambda seed: small_world(48, 4, 0.2, seed=seed),
    "regular": lambda seed: random_regular(48, 4, seed=seed),
}

SEEDS = (0, 1, 2)


def _digest(colors) -> str:
    return hashlib.sha256(repr(sorted(colors.items())).encode()).hexdigest()


def _assert_same(got, want):
    assert got.colors == want.colors
    assert _digest(got.colors) == _digest(want.colors)
    assert got.rounds == want.rounds
    assert got.supersteps == want.supersteps
    assert got.metrics.to_dict() == want.metrics.to_dict()


@pytest.mark.parametrize("family", sorted(FAMILIES))
@pytest.mark.parametrize("seed", SEEDS)
def test_alg1_vectorized_bit_identical(family, seed):
    g = FAMILIES[family](seed)
    reference = color_edges(g, seed=seed, fastpath=False, compute="pernode")
    vectorized = color_edges(g, seed=seed, compute="vectorized")
    _assert_same(vectorized, reference)
    assert vectorized.palette == reference.palette


@pytest.mark.parametrize("family", sorted(FAMILIES))
@pytest.mark.parametrize("seed", SEEDS)
def test_dima2ed_vectorized_bit_identical(family, seed):
    d = FAMILIES[family](seed).to_directed()
    reference = strong_color_arcs(d, seed=seed, fastpath=False, compute="pernode")
    vectorized = strong_color_arcs(d, seed=seed, compute="vectorized")
    _assert_same(vectorized, reference)


@pytest.mark.parametrize("color_strategy", ["lowest", "random_window"])
@pytest.mark.parametrize("responder_strategy", ["random", "lowest_color"])
def test_alg1_strategy_combinations(color_strategy, responder_strategy):
    g = FAMILIES["er"](7)
    params = EdgeColoringParams(
        color_strategy=color_strategy, responder_strategy=responder_strategy
    )
    reference = color_edges(
        g, seed=7, params=params, fastpath=False, compute="pernode"
    )
    vectorized = color_edges(g, seed=7, params=params, compute="vectorized")
    _assert_same(vectorized, reference)


@pytest.mark.parametrize("channel_strategy", ["random_window", "first_fit"])
def test_dima2ed_channel_strategies(channel_strategy):
    d = FAMILIES["er"](5).to_directed()
    params = StrongColoringParams(channel_strategy=channel_strategy)
    reference = strong_color_arcs(
        d, seed=5, params=params, fastpath=False, compute="pernode"
    )
    vectorized = strong_color_arcs(d, seed=5, params=params, compute="vectorized")
    _assert_same(vectorized, reference)


class TestNumbaInterpretedPath:
    """compute="numba" with the backend probe forced on runs the numba
    kernel's functions as plain Python (the ``_njit_or_identity``
    fallback) — the exact source the JIT would compile."""

    @pytest.fixture
    def force_numba_backend(self, monkeypatch):
        monkeypatch.setattr(kernels_numba, "numba_available", lambda: True)

    @pytest.mark.parametrize("family", ["er", "scale-free"])
    def test_alg1_matches_vectorized(self, force_numba_backend, family):
        g = FAMILIES[family](1)
        vectorized = color_edges(g, seed=1, compute="vectorized")
        numba = color_edges(g, seed=1, compute="numba")
        _assert_same(numba, vectorized)

    @pytest.mark.parametrize("color_strategy", ["lowest", "random_window"])
    @pytest.mark.parametrize("responder_strategy", ["random", "lowest_color"])
    def test_alg1_strategies_match(
        self, force_numba_backend, color_strategy, responder_strategy
    ):
        g = FAMILIES["regular"](3)
        params = EdgeColoringParams(
            color_strategy=color_strategy, responder_strategy=responder_strategy
        )
        vectorized = color_edges(g, seed=3, params=params, compute="vectorized")
        numba = color_edges(g, seed=3, params=params, compute="numba")
        _assert_same(numba, vectorized)

    @pytest.mark.parametrize("family", ["er", "small-world"])
    def test_dima2ed_matches_vectorized(self, force_numba_backend, family):
        d = FAMILIES[family](2).to_directed()
        vectorized = strong_color_arcs(d, seed=2, compute="vectorized")
        numba = strong_color_arcs(d, seed=2, compute="numba")
        _assert_same(numba, vectorized)

    @pytest.mark.parametrize("channel_strategy", ["random_window", "first_fit"])
    def test_dima2ed_strategies_match(self, force_numba_backend, channel_strategy):
        d = FAMILIES["regular"](4).to_directed()
        params = StrongColoringParams(channel_strategy=channel_strategy)
        vectorized = strong_color_arcs(d, seed=4, params=params, compute="vectorized")
        numba = strong_color_arcs(d, seed=4, params=params, compute="numba")
        _assert_same(numba, vectorized)

    def test_dima2ed_without_numba_falls_back_silently(self, monkeypatch):
        # With numba genuinely unavailable, compute="numba" routes to the
        # vectorized kernel — same answer, no error, no warning.
        monkeypatch.setattr(kernels_numba, "numba_available", lambda: False)
        d = FAMILIES["er"](6).to_directed()
        vectorized = strong_color_arcs(d, seed=6, compute="vectorized")
        fallback = strong_color_arcs(d, seed=6, compute="numba")
        _assert_same(fallback, vectorized)
