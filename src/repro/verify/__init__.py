"""Independent result verifiers.

Each verifier re-checks an algorithm output against the problem
*definition*, sharing no code with the algorithm implementations — a
deliberate two-implementations discipline so a bug must appear twice to
slip through.  All verifiers return a list of human-readable violation
strings (empty = valid) and have ``assert_*`` wrappers that raise
:class:`~repro.errors.VerificationError`.
"""

from repro.verify.differential import (
    DiffReport,
    Divergence,
    TierRun,
    available_tiers,
    colors_digest,
    diff_tiers,
    run_tier,
)
from repro.verify.edge_coloring import (
    assert_proper_edge_coloring,
    check_proper_edge_coloring,
)
from repro.verify.fuzz import (
    Counterexample,
    FuzzResult,
    fuzz,
    load_counterexample,
    replay,
)
from repro.verify.matching import assert_matching, check_matching, check_maximal_matching
from repro.verify.monitors import (
    ConservationMonitor,
    InvariantMonitor,
    InvariantViolation,
    PaletteBoundMonitor,
    RoundInvariantMonitor,
    TransitionLegalityMonitor,
    default_monitors,
)
from repro.verify.shrink import ShrinkResult, shrink_graph
from repro.verify.partial import (
    assert_partial_edge_coloring,
    assert_partial_strong_coloring,
    check_partial_edge_coloring,
    check_partial_strong_coloring,
    surviving_subgraph,
)
from repro.verify.strong_coloring import (
    assert_strong_arc_coloring,
    check_strong_arc_coloring,
)
from repro.verify.vertex_coloring import (
    assert_proper_vertex_coloring,
    check_proper_vertex_coloring,
)

__all__ = [
    "check_proper_vertex_coloring",
    "assert_proper_vertex_coloring",
    "check_proper_edge_coloring",
    "assert_proper_edge_coloring",
    "check_strong_arc_coloring",
    "assert_strong_arc_coloring",
    "check_matching",
    "check_maximal_matching",
    "assert_matching",
    "surviving_subgraph",
    "check_partial_edge_coloring",
    "assert_partial_edge_coloring",
    "check_partial_strong_coloring",
    "assert_partial_strong_coloring",
    "InvariantViolation",
    "InvariantMonitor",
    "TransitionLegalityMonitor",
    "RoundInvariantMonitor",
    "PaletteBoundMonitor",
    "ConservationMonitor",
    "default_monitors",
    "TierRun",
    "Divergence",
    "DiffReport",
    "available_tiers",
    "colors_digest",
    "diff_tiers",
    "run_tier",
    "ShrinkResult",
    "shrink_graph",
    "Counterexample",
    "FuzzResult",
    "fuzz",
    "load_counterexample",
    "replay",
]
