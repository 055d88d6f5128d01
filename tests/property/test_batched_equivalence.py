"""Bit-identity of the default compute path against the per-node loop.

``color_edges(g)`` and ``strong_color_arcs(d)`` with no ``compute``
argument run the kernel :func:`repro.core.batched.select_backend`
picks for ``"auto"`` — the vectorized plane kernels — driven by
:class:`repro.runtime.engine.BatchedEngine`.  Nothing in the
kernels shares code with the per-node programs, so equality here is an
end-to-end proof that the default path preserves the semantics *and*
the RNG draw sequence: the general per-node loop (``compute="general"``)
and the default path must agree on every coloring,
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
from repro.graphs.adjacency import Graph
from repro.graphs.generators import (
    erdos_renyi_avg_degree,
    random_regular,
    scale_free,
    small_world,
)
from repro.runtime.observe import AutomatonTelemetry

def _er(seed):
    return erdos_renyi_avg_degree(48, 5.0, seed=seed)


def _er_labeled(label):
    """The ER family with node ``u`` renamed ``label(u)``."""

    def make(seed):
        base = _er(seed)
        g = Graph()
        g.add_nodes_from(label(u) for u in base)
        g.add_edges_from((label(u), label(v)) for u, v in base.edges())
        return g

    return make


FAMILIES = {
    "er": _er,
    "scale-free": lambda seed: scale_free(48, 3, seed=seed),
    "small-world": lambda seed: small_world(48, 4, 0.2, seed=seed),
    "regular": lambda seed: random_regular(48, 4, seed=seed),
    # Caller labels: the kernels run on contiguous ids and must hand
    # back these, including ones an int64 id table cannot hold.
    "er-labels-beyond-int64": _er_labeled(lambda u: u * 2**64 - 7),
    "er-labels-negative": _er_labeled(lambda u: -u - 1),
    "er-labels-str": _er_labeled(lambda u: f"v{u}"),
    "er-labels-digit-str": _er_labeled(str),
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
        g, seed=seed, compute="general", telemetry=ref_tel
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
        d, seed=seed, compute="general", telemetry=ref_tel
    )
    batched = strong_color_arcs(d, seed=seed, telemetry=tel)
    assert batched.colors == reference.colors
    assert _digest(batched.colors) == _digest(reference.colors)
    assert batched.rounds == reference.rounds
    assert batched.supersteps == reference.supersteps
    assert batched.metrics.to_dict() == reference.metrics.to_dict()
    assert _dump(tel) == _dump(ref_tel)
