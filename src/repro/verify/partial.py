"""Verification of colorings restricted to the surviving subgraph.

When a fault model crash-stops nodes mid-run (see
:class:`~repro.runtime.faults.CrashNodes`), the full-graph guarantees are
unattainable by construction: an edge incident to a crashed node may be
colored on one side only, or not at all, and no surviving node can fix
that.  The meaningful contract — the one the recovery modes promise — is
that the coloring is proper and complete **on the subgraph induced by
the surviving nodes**.

These checkers project both the graph and the recorded coloring onto the
survivors and then delegate to the full-strength verifiers, so the
definition-level logic stays in one place.  Records involving crashed
nodes are *discarded*, not flagged: a half-colored abandoned edge is
expected debris, not a violation.  Properness among survivors is still
judged against every recorded surviving edge, so a conflict smuggled in
by a crash-recovery bug cannot hide.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Set, Tuple

from repro.errors import VerificationError
from repro.graphs.adjacency import DiGraph, Graph
from repro.types import Arc, Color, Edge

__all__ = [
    "surviving_subgraph",
    "check_partial_edge_coloring",
    "assert_partial_edge_coloring",
    "check_partial_strong_coloring",
    "assert_partial_strong_coloring",
]


def surviving_subgraph(graph: Graph, crashed: Iterable[int]) -> Graph:
    """The subgraph induced by the nodes *not* in ``crashed``."""
    dead = set(crashed)
    return graph.subgraph(u for u in graph.nodes() if u not in dead)


def _split_edges(
    colors: Mapping[Edge, Color], dead: Set[int]
) -> Tuple[Dict[Edge, Color], int]:
    """Surviving-edge colors and the count of discarded crash records."""
    surviving: Dict[Edge, Color] = {}
    discarded = 0
    for edge, color in colors.items():
        if edge[0] in dead or edge[1] in dead:
            discarded += 1
        else:
            surviving[edge] = color
    return surviving, discarded


def check_partial_edge_coloring(
    graph: Graph,
    colors: Mapping[Edge, Color],
    crashed: Iterable[int],
    *,
    complete: bool = True,
) -> List[str]:
    """Violations of properness/completeness on the surviving subgraph.

    ``colors`` may be the full recorded coloring of a crashed run —
    entries touching a crashed node are ignored.  With ``complete=True``
    every edge between two survivors must be colored; edges incident to
    a crashed node are never required.
    """
    from repro.verify.edge_coloring import check_proper_edge_coloring

    dead = set(crashed)
    alive = surviving_subgraph(graph, dead)
    surviving, _ = _split_edges(colors, dead)
    return check_proper_edge_coloring(alive, surviving, complete=complete)


def assert_partial_edge_coloring(
    graph: Graph,
    colors: Mapping[Edge, Color],
    crashed: Iterable[int],
    *,
    complete: bool = True,
) -> None:
    """Raise unless the coloring is valid on the surviving subgraph."""
    violations = check_partial_edge_coloring(
        graph, colors, crashed, complete=complete
    )
    if violations:
        preview = "; ".join(violations[:5])
        raise VerificationError(
            f"invalid partial edge coloring ({len(violations)} violations "
            f"on the surviving subgraph): {preview}"
        )


def check_partial_strong_coloring(
    digraph: DiGraph,
    colors: Mapping[Arc, Color],
    crashed: Iterable[int],
    *,
    complete: bool = True,
) -> List[str]:
    """Violations of the strong property on the surviving sub-digraph.

    The induced sub-digraph is built arc-by-arc (``DiGraph`` has no
    ``subgraph``); interference is then judged within it, so a conflict
    pattern routed *through* a crashed relay is out of scope — a crashed
    radio transmits nothing.
    """
    from repro.verify.strong_coloring import check_strong_arc_coloring

    dead = set(crashed)
    alive = DiGraph()
    for u in digraph.nodes():
        if u not in dead:
            alive.add_node(u)
    for tail, head in digraph.arcs():
        if tail not in dead and head not in dead:
            alive.add_arc(tail, head)
    surviving = {
        arc: color
        for arc, color in colors.items()
        if arc[0] not in dead and arc[1] not in dead
    }
    return check_strong_arc_coloring(alive, surviving, complete=complete)


def assert_partial_strong_coloring(
    digraph: DiGraph,
    colors: Mapping[Arc, Color],
    crashed: Iterable[int],
    *,
    complete: bool = True,
) -> None:
    """Raise unless the channels are valid on the surviving sub-digraph."""
    violations = check_partial_strong_coloring(
        digraph, colors, crashed, complete=complete
    )
    if violations:
        preview = "; ".join(violations[:5])
        raise VerificationError(
            f"invalid partial strong coloring ({len(violations)} violations "
            f"on the surviving subgraph): {preview}"
        )
