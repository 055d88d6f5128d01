"""Structural graph properties used throughout the experiments.

The paper's evaluation is parameterized almost entirely by the maximum
degree Δ; these helpers compute Δ and the other summary statistics the
harness reports alongside it.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Set, Union

import numpy as np

from repro.graphs.adjacency import DiGraph, Graph
from repro.types import NodeId

__all__ = [
    "max_degree",
    "min_degree",
    "average_degree",
    "degree_histogram",
    "connected_components",
    "is_connected",
    "bfs_order",
    "density",
]

AnyGraph = Union[Graph, DiGraph]


def _degrees(g: AnyGraph) -> List[int]:
    if isinstance(g, DiGraph):
        # For symmetric digraphs the relevant Δ in the paper is the
        # underlying undirected degree, i.e. the number of neighbors.
        return [g.out_degree(u) for u in g]
    # An array-built graph answers from its CSR, without building sets.
    return g.degree_array().tolist()


def max_degree(g: AnyGraph) -> int:
    """Δ — the maximum degree.  Zero for the empty graph.

    For a :class:`DiGraph` this is the maximum *out*-degree, which on the
    symmetric digraphs DiMa2Ed runs on equals the underlying undirected
    degree.
    """
    degs = _degrees(g)
    return max(degs) if degs else 0


def min_degree(g: AnyGraph) -> int:
    """δ — the minimum degree.  Zero for the empty graph."""
    degs = _degrees(g)
    return min(degs) if degs else 0


def average_degree(g: AnyGraph) -> float:
    """Mean degree.  Zero for the empty graph."""
    degs = _degrees(g)
    return float(np.mean(degs)) if degs else 0.0


def degree_histogram(g: AnyGraph) -> Dict[int, int]:
    """Mapping degree -> number of nodes with that degree."""
    hist: Dict[int, int] = {}
    for d in _degrees(g):
        hist[d] = hist.get(d, 0) + 1
    return hist


def density(g: Graph) -> float:
    """Edge density m / C(n, 2); zero for graphs with < 2 nodes."""
    n = g.num_nodes
    if n < 2:
        return 0.0
    return 2.0 * g.num_edges / (n * (n - 1))


def connected_components(g: Graph) -> List[Set[NodeId]]:
    """Connected components as a list of node sets (BFS)."""
    seen: Set[NodeId] = set()
    components: List[Set[NodeId]] = []
    for start in g:
        if start in seen:
            continue
        comp: Set[NodeId] = {start}
        queue = deque([start])
        while queue:
            u = queue.popleft()
            for v in g.neighbors(u):
                if v not in comp:
                    comp.add(v)
                    queue.append(v)
        seen |= comp
        components.append(comp)
    return components


def is_connected(g: Graph) -> bool:
    """True if the graph has at most one connected component."""
    return len(connected_components(g)) <= 1


def bfs_order(g: Graph, start: NodeId) -> List[NodeId]:
    """Nodes of ``start``'s component in breadth-first order.

    Used by the sequential strong-coloring baseline, which colors edges
    in BFS order to mimic a wave expanding through the network.
    """
    order = [start]
    seen = {start}
    queue = deque([start])
    while queue:
        u = queue.popleft()
        for v in sorted(g.neighbors(u)):
            if v not in seen:
                seen.add(v)
                order.append(v)
                queue.append(v)
    return order
