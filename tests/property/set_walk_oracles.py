"""The set-walk verifiers, kept as reference oracles.

These were ``repro.verify``'s checkers before it moved to sort-and-probe
arrays.  They walk Python sets around every colored edge or arc: slow
(O(m·Δ²) interpreter work for the strong property) but direct.  The
cross-validation suite requires the array checkers, these oracles and
the networkx oracles to agree on verdicts and violation counts.

They take well-formed input only: a key that is not a pair raises here
where the array checkers report it.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Set

from repro.graphs.adjacency import DiGraph, Graph
from repro.types import Arc, Color, Edge, canonical_edge


def check_proper_edge_coloring(
    graph: Graph, colors: Mapping[Edge, Color], *, complete: bool = False
) -> List[str]:
    """Violations of properness (and, with ``complete``, of completeness)."""
    violations: List[str] = []
    for edge, color in colors.items():
        u, v = edge
        if canonical_edge(u, v) != edge:
            violations.append(f"edge key {edge} is not canonical (low, high)")
            continue
        if not graph.has_edge(u, v):
            violations.append(f"colored edge {edge} is not in the graph")
        if not isinstance(color, int) or isinstance(color, bool) or color < 0:
            violations.append(f"edge {edge} has invalid color {color!r}")

    per_vertex: Dict[int, Dict[Color, Edge]] = {}
    for edge, color in colors.items():
        for endpoint in edge:
            seen = per_vertex.setdefault(endpoint, {})
            if color in seen:
                violations.append(
                    f"vertex {endpoint}: edges {seen[color]} and {edge} "
                    f"both colored {color}"
                )
            else:
                seen[color] = edge
    if complete:
        violations += [
            f"edge {edge} is uncolored"
            for edge in graph.edges()
            if edge not in colors
        ]
    return violations


def _underlying_neighbors(d: DiGraph, u: int) -> Set[int]:
    return d.successors(u) | d.predecessors(u)


def check_strong_arc_coloring(
    digraph: DiGraph, colors: Mapping[Arc, Color], *, complete: bool = True
) -> List[str]:
    """Violations of the strong-coloring property (empty = valid)."""
    violations: List[str] = []

    for arc, color in colors.items():
        u, v = arc
        if not digraph.has_arc(u, v):
            violations.append(f"colored arc {arc} is not in the digraph")
        if not isinstance(color, int) or isinstance(color, bool) or color < 0:
            violations.append(f"arc {arc} has invalid channel {color!r}")

    if complete:
        violations += [
            f"arc {arc} is uncolored" for arc in digraph.arcs() if arc not in colors
        ]

    reported = set()
    for a, ca in colors.items():
        u, v = a
        if not digraph.has_arc(u, v):
            continue
        # Candidate conflicting arcs anchored within one hop.
        candidates: Set[Arc] = set()
        for z in (u, v):  # shared endpoint
            for w in digraph.successors(z):
                candidates.add((z, w))
            for w in digraph.predecessors(z):
                candidates.add((w, z))
        for w in _underlying_neighbors(digraph, v):  # w transmits near v
            for x in digraph.successors(w):
                candidates.add((w, x))
        for x in _underlying_neighbors(digraph, u):  # u transmits near x
            for w in digraph.predecessors(x):
                candidates.add((w, x))
        candidates.discard(a)

        for b in candidates:
            cb = colors.get(b)
            if cb is None or cb != ca:
                continue
            key = (min(a, b), max(a, b))
            if key in reported:
                continue
            reported.add(key)
            violations.append(
                f"arcs {a} and {b} both use channel {ca} but conflict"
            )
    return violations
