"""Deterministic per-node random streams.

Each compute node owns a private ``random.Random`` whose seed is derived
from the run seed via ``numpy.random.SeedSequence.spawn``.  Two
properties matter:

* **Independence** — spawned child sequences are statistically
  independent, so node decisions do not correlate through seed reuse.
* **Placement invariance** — a node's stream depends only on
  ``(run_seed, node_id)``, never on scheduling order, so the synchronous
  and asynchronous engines make identical random choices.

``random.Random`` (not numpy) is used node-side because the algorithms
draw scalars — coin flips and single choices from short lists — where the
stdlib generator is several times faster than a numpy Generator call.
"""

from __future__ import annotations

import random
from typing import List

import numpy as np

__all__ = ["spawn_node_rngs", "node_rng"]


def spawn_node_rngs(run_seed: int, n: int) -> List[random.Random]:
    """Create ``n`` independent RNGs for nodes ``0 .. n-1`` of one run."""
    children = np.random.SeedSequence(run_seed).spawn(n)
    return [random.Random(int(child.generate_state(1)[0])) for child in children]


def node_rng(run_seed: int, node_id: int, n: int) -> random.Random:
    """The RNG node ``node_id`` would receive from :func:`spawn_node_rngs`.

    Rebuilds one node's stream without holding the whole population's
    RNG objects — the placement-invariance property above, stated as a
    function.
    """
    if not 0 <= node_id < n:
        raise ValueError(f"node_id {node_id} out of range for n={n}")
    child = np.random.SeedSequence(run_seed).spawn(n)[node_id]
    return random.Random(int(child.generate_state(1)[0]))
