"""Bit-identity of the default compute path against the per-node loop.

``color_edges(g)`` and ``strong_color_arcs(d)`` with no ``compute``
argument run whichever whole-population kernel
:func:`repro.core.batched.select_backend` picks for ``"auto"`` on this
host (numba where it imports, the vectorized plane kernels otherwise),
driven by :class:`repro.runtime.engine.BatchedEngine`.  Nothing in the
kernels shares code with the per-node programs, so equality here is an
end-to-end proof that the default path preserves the semantics *and*
the RNG draw sequence: the general per-node loop (``fastpath=False,
compute="pernode"``) and the default path must agree on every coloring,
the round/superstep counts, the full metrics dict, the automaton
telemetry dump and the final-state digest, for every graph family and
seed.  Each pinned kernel is held to the same reference in
``test_vectorized_equivalence.py``.
"""

import hashlib
import json

import pytest

from repro.core.dima2ed import strong_color_arcs
from repro.core.edge_coloring import color_edges
from repro.graphs.generators import (
    erdos_renyi_avg_degree,
    random_regular,
    scale_free,
    small_world,
)
from repro.runtime.observe import AutomatonTelemetry

FAMILIES = {
    "er": lambda seed: erdos_renyi_avg_degree(48, 5.0, seed=seed),
    "scale-free": lambda seed: scale_free(48, 3, seed=seed),
    "small-world": lambda seed: small_world(48, 4, 0.2, seed=seed),
    "regular": lambda seed: random_regular(48, 4, seed=seed),
}

SEEDS = (0, 1, 2)


def _digest(colors) -> str:
    return hashlib.sha256(repr(sorted(colors.items())).encode()).hexdigest()


def _dump(telemetry) -> str:
    return json.dumps(telemetry.to_dict())


@pytest.mark.parametrize("family", sorted(FAMILIES))
@pytest.mark.parametrize("seed", SEEDS)
def test_alg1_batched_bit_identical(family, seed):
    g = FAMILIES[family](seed)
    ref_tel, tel = AutomatonTelemetry(), AutomatonTelemetry()
    reference = color_edges(
        g, seed=seed, fastpath=False, compute="pernode", telemetry=ref_tel
    )
    batched = color_edges(g, seed=seed, telemetry=tel)
    assert batched.colors == reference.colors
    assert _digest(batched.colors) == _digest(reference.colors)
    assert batched.rounds == reference.rounds
    assert batched.supersteps == reference.supersteps
    assert batched.metrics.to_dict() == reference.metrics.to_dict()
    assert batched.palette == reference.palette
    assert _dump(tel) == _dump(ref_tel)


@pytest.mark.parametrize("family", sorted(FAMILIES))
@pytest.mark.parametrize("seed", SEEDS)
def test_dima2ed_batched_bit_identical(family, seed):
    d = FAMILIES[family](seed).to_directed()
    ref_tel, tel = AutomatonTelemetry(), AutomatonTelemetry()
    reference = strong_color_arcs(
        d, seed=seed, fastpath=False, compute="pernode", telemetry=ref_tel
    )
    batched = strong_color_arcs(d, seed=seed, telemetry=tel)
    assert batched.colors == reference.colors
    assert _digest(batched.colors) == _digest(reference.colors)
    assert batched.rounds == reference.rounds
    assert batched.supersteps == reference.supersteps
    assert batched.metrics.to_dict() == reference.metrics.to_dict()
    assert _dump(tel) == _dump(ref_tel)
