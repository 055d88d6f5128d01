"""Randomized cross-tier equivalence fuzzing.

:func:`fuzz` draws random (family, size, algorithm, seed) configurations,
runs every requested execution tier on each via
:func:`~repro.verify.differential.diff_tiers`, and stops at the first
divergence.  The offending instance is then minimized with the
delta-debugging shrinker (:mod:`repro.verify.shrink`) — re-running the
full differential check after every candidate reduction — and persisted
as a replayable JSON counterexample.

A counterexample file is self-contained: the exact edge list, algorithm,
run seed and tier set, plus the human-readable divergence summary from
both the original and the shrunk instance.  ``repro check --replay
file.json`` (or :func:`replay`) re-executes it and reports whether the
divergence still reproduces — the workflow for bisecting a fix.

Generator families cover the paper's experimental section plus the
structured worst cases: Erdős–Rényi, preferential attachment, Watts–
Strogatz, random-regular, unit-disk, and the complete/cycle/star/grid
family.  All sampling is driven by one ``random.Random(seed)`` stream,
so a fuzz campaign is reproducible from its seed alone.
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.graphs.adjacency import Graph
from repro.graphs.generators import (
    complete_graph,
    cycle_graph,
    erdos_renyi_avg_degree,
    grid_graph,
    path_graph,
    random_regular,
    scale_free,
    small_world,
    star_graph,
    unit_disk,
)
from repro.verify.differential import (
    ALGORITHMS,
    DiffReport,
    diff_tiers,
)
from repro.verify.shrink import shrink_graph

__all__ = [
    "FAMILIES",
    "Counterexample",
    "FuzzResult",
    "fuzz",
    "load_counterexample",
    "replay",
]

#: Counterexample file format version (bump on incompatible change).
_FORMAT = 1


def _sample_er(rng: random.Random) -> Graph:
    n = rng.randint(8, 40)
    avg = rng.uniform(1.5, min(8.0, n - 1))
    return erdos_renyi_avg_degree(n, avg, seed=rng.randrange(2**31))


def _sample_ba(rng: random.Random) -> Graph:
    n = rng.randint(8, 40)
    m = rng.randint(1, 4)
    power = rng.choice([0.5, 1.0, 1.5])
    return scale_free(n, m, power=power, seed=rng.randrange(2**31))


def _sample_ws(rng: random.Random) -> Graph:
    n = rng.randint(8, 40)
    k = rng.choice([2, 4, 6])
    k = min(k, (n - 1) // 2 * 2)
    beta = rng.uniform(0.0, 0.6)
    return small_world(n, max(2, k), beta, seed=rng.randrange(2**31))


def _sample_regular(rng: random.Random) -> Graph:
    n = rng.randint(6, 36)
    d = rng.randint(2, 5)
    if (n * d) % 2:
        n += 1
    return random_regular(n, d, seed=rng.randrange(2**31))


def _sample_udg(rng: random.Random) -> Graph:
    n = rng.randint(8, 36)
    radius = rng.uniform(0.18, 0.42)
    return unit_disk(n, radius, seed=rng.randrange(2**31))


def _sample_structured(rng: random.Random) -> Graph:
    kind = rng.choice(("complete", "cycle", "star", "grid", "path"))
    if kind == "complete":
        return complete_graph(rng.randint(3, 9))
    if kind == "cycle":
        return cycle_graph(rng.randint(3, 24))
    if kind == "star":
        return star_graph(rng.randint(3, 24))
    if kind == "path":
        return path_graph(rng.randint(2, 24))
    return grid_graph(rng.randint(2, 6), rng.randint(2, 6))


#: name -> sampler(rng) drawing one random instance of the family.
FAMILIES: Dict[str, Callable[[random.Random], Graph]] = {
    "erdos-renyi": _sample_er,
    "scale-free": _sample_ba,
    "small-world": _sample_ws,
    "random-regular": _sample_regular,
    "unit-disk": _sample_udg,
    "structured": _sample_structured,
}


@dataclass
class Counterexample:
    """A replayable record of one cross-tier divergence."""

    algorithm: str
    seed: int
    tiers: List[str]
    edges: List[Tuple[int, int]]
    family: str = "unknown"
    #: Human-readable divergence summary (of the shrunk instance).
    summary: str = ""
    #: The pre-shrink instance's size, for the record.
    original_nodes: int = 0
    original_edges: int = 0
    format: int = _FORMAT

    def graph(self) -> Graph:
        g = Graph()
        g.add_edges_from(map(_edge, self.edges))
        return g

    def to_json(self) -> str:
        return json.dumps(
            {
                "format": self.format,
                "algorithm": self.algorithm,
                "seed": self.seed,
                "tiers": list(self.tiers),
                "family": self.family,
                "edges": [list(e) for e in self.edges],
                "original_nodes": self.original_nodes,
                "original_edges": self.original_edges,
                "summary": self.summary,
            },
            indent=2,
        )

    @classmethod
    def from_json(cls, text: str) -> "Counterexample":
        """Parse a counterexample; :class:`ConfigurationError` names a
        newer format, a missing key or an edge that is no pair."""
        data = json.loads(text)
        if not isinstance(data, dict):
            raise ConfigurationError("a counterexample is a JSON object")
        if data.get("format", 1) > _FORMAT:
            raise ConfigurationError(
                f"counterexample format {data['format']} is newer than "
                f"this checkout understands ({_FORMAT})"
            )
        for key in _REQUIRED:
            if key not in data:
                raise ConfigurationError(f"counterexample has no {key!r} key")
        return cls(
            algorithm=data["algorithm"],
            seed=data["seed"],
            tiers=list(data["tiers"]),
            edges=[_edge(e) for e in data["edges"]],
            family=data.get("family", "unknown"),
            summary=data.get("summary", ""),
            original_nodes=data.get("original_nodes", 0),
            original_edges=data.get("original_edges", 0),
            format=data.get("format", 1),
        )

    def save(self, path) -> Path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(self.to_json())
        return path

    def run(self, *, tiers: Optional[Sequence[str]] = None) -> DiffReport:
        """Re-execute the recorded configuration (see :func:`replay`).

        ``tiers`` overrides the recorded set.  A recorded tier this
        checkout has retired is not run: the report lists it under
        ``skipped`` with the reason.
        """
        retired: Dict[str, str] = {}
        if tiers is None:
            tiers = [t for t in self.tiers if t not in _RETIRED_TIERS]
            retired = {
                t: _RETIRED_TIERS[t] for t in self.tiers if t in _RETIRED_TIERS
            }
        report = diff_tiers(
            self.graph(),
            algorithm=self.algorithm,
            seed=self.seed,
            tiers=list(tiers),
        )
        report.skipped.update(retired)
        return report


#: The keys a counterexample file cannot do without.
_REQUIRED = ("algorithm", "seed", "tiers", "edges")

#: Tiers a saved counterexample may list that this checkout no longer
#: runs -> the skip reason its replay reports.
_RETIRED_TIERS: Dict[str, str] = {
    "fastpath": "retired with the engine's fast-path delivery core; "
    "its per-node programs run on the general tier",
}


def _edge(edge) -> Tuple[int, int]:
    """``edge`` as a ``(u, v)`` tuple, or :class:`ConfigurationError`
    naming it."""
    if not isinstance(edge, (list, tuple)) or len(edge) != 2:
        raise ConfigurationError(
            f"counterexample edge {edge!r} is not a (u, v) pair"
        )
    return tuple(edge)


def load_counterexample(path) -> Counterexample:
    """Load a counterexample JSON file written by :func:`fuzz`."""
    return Counterexample.from_json(Path(path).read_text())


def replay(path, *, tiers: Optional[Sequence[str]] = None) -> DiffReport:
    """Replay a saved counterexample and return the fresh diff report."""
    return load_counterexample(path).run(tiers=tiers)


@dataclass
class FuzzResult:
    """Outcome of one fuzz campaign."""

    iterations: int
    elapsed_seconds: float
    #: configurations checked per family name.
    per_family: Dict[str, int] = field(default_factory=dict)
    #: Tiers skipped on this host (e.g. sharded without a spill directory).
    skipped_tiers: Dict[str, str] = field(default_factory=dict)
    #: None when every configuration agreed.
    counterexample: Optional[Counterexample] = None
    #: Diff report of the (shrunk) counterexample, when one was found.
    report: Optional[DiffReport] = None
    #: Where the counterexample JSON was written (when out was given).
    saved_to: Optional[Path] = None

    @property
    def ok(self) -> bool:
        return self.counterexample is None


def fuzz(
    *,
    budget_seconds: Optional[float] = None,
    max_iterations: Optional[int] = None,
    seed: int = 0,
    algorithms: Sequence[str] = ALGORITHMS,
    tiers: Optional[Sequence[str]] = None,
    families: Optional[Sequence[str]] = None,
    shrink: bool = True,
    shrink_tests: int = 400,
    out: Optional[Path] = None,
    log: Optional[Callable[[str], None]] = None,
) -> FuzzResult:
    """Fuzz for cross-tier divergences until the budget runs out.

    Parameters
    ----------
    budget_seconds / max_iterations:
        Stop after whichever budget is exhausted first; at least one
        must be given.  An iteration in flight when the clock expires is
        finished, not aborted.
    seed:
        Campaign seed — drives family choice, instance sampling, the
        algorithm rotation and each run's seed, so a campaign is exactly
        reproducible.
    algorithms / tiers / families:
        Subsets of :data:`~repro.verify.differential.ALGORITHMS`,
        :data:`~repro.verify.differential.TIERS` and :data:`FAMILIES`
        (None = all).
    shrink:
        Minimize the first failing instance via
        :func:`~repro.verify.shrink.shrink_graph` (``shrink_tests``
        bounds the differential re-runs it may spend).
    out:
        Directory (or exact ``.json`` path) for the counterexample file.
    log:
        Optional progress callback (one short line per event).

    Returns
    -------
    FuzzResult
        ``result.ok`` is True when no divergence was found.
    """
    if budget_seconds is None and max_iterations is None:
        raise ConfigurationError("fuzz needs budget_seconds or max_iterations")
    unknown = [a for a in algorithms if a not in ALGORITHMS]
    if unknown:
        raise ConfigurationError(
            f"unknown algorithm(s) {unknown}; expected a subset of {ALGORITHMS}"
        )
    family_names = list(families) if families is not None else list(FAMILIES)
    unknown = [f for f in family_names if f not in FAMILIES]
    if unknown:
        raise ConfigurationError(
            f"unknown family(s) {unknown}; expected a subset of {sorted(FAMILIES)}"
        )
    say = log or (lambda line: None)
    rng = random.Random(seed)
    started = time.monotonic()
    result = FuzzResult(iterations=0, elapsed_seconds=0.0)

    def out_of_budget() -> bool:
        if max_iterations is not None and result.iterations >= max_iterations:
            return True
        if budget_seconds is not None and time.monotonic() - started >= budget_seconds:
            return True
        return False

    while not out_of_budget():
        family = family_names[result.iterations % len(family_names)]
        algorithm = list(algorithms)[result.iterations % len(algorithms)]
        graph = FAMILIES[family](rng)
        run_seed = rng.randrange(2**31)
        report = diff_tiers(graph, algorithm=algorithm, seed=run_seed, tiers=tiers)
        result.iterations += 1
        result.per_family[family] = result.per_family.get(family, 0) + 1
        result.skipped_tiers.update(report.skipped)
        if report.ok:
            say(
                f"[{result.iterations}] {family} n={graph.num_nodes} "
                f"m={graph.num_edges} {algorithm} seed={run_seed}: ok"
            )
            continue

        say(
            f"[{result.iterations}] DIVERGENCE: {family} n={graph.num_nodes} "
            f"m={graph.num_edges} {algorithm} seed={run_seed}"
        )
        tier_list = list(report.runs) + list(report.errors)
        final_graph = graph
        if shrink and graph.num_edges:

            def still_fails(candidate: Graph) -> bool:
                return not diff_tiers(
                    candidate, algorithm=algorithm, seed=run_seed, tiers=tiers
                ).ok

            shrunk = shrink_graph(graph, still_fails, max_tests=shrink_tests)
            final_graph = shrunk.graph
            say(
                f"shrunk {graph.num_nodes}v/{graph.num_edges}e -> "
                f"{final_graph.num_nodes}v/{final_graph.num_edges}e "
                f"in {shrunk.tests} differential runs"
            )
        final_report = diff_tiers(
            final_graph, algorithm=algorithm, seed=run_seed, tiers=tiers
        )
        ce = Counterexample(
            algorithm=algorithm,
            seed=run_seed,
            tiers=tier_list,
            edges=sorted(tuple(sorted(e)) for e in final_graph.edges()),
            family=family,
            summary=final_report.summary(),
            original_nodes=graph.num_nodes,
            original_edges=graph.num_edges,
        )
        result.counterexample = ce
        result.report = final_report
        if out is not None:
            path = Path(out)
            if path.suffix != ".json":
                path = path / f"counterexample-{algorithm}-{run_seed}.json"
            result.saved_to = ce.save(path)
            say(f"counterexample written to {result.saved_to}")
        break

    result.elapsed_seconds = time.monotonic() - started
    return result
