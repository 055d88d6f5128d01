"""Experiment execution and report assembly.

``run_edge_coloring_workload`` / ``run_dima2ed_workload`` drive the
respective algorithm over a workload grid, verify **every** run with the
independent verifiers (a reproduction that silently produced invalid
colorings would be worthless), and collect flat :class:`RunRecord` rows.
:class:`ExperimentReport` turns rows into the tables and fits the paper
plots.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

import numpy as np

from repro.analysis.distribution import excess_color_histogram
from repro.analysis.stats import group_by, linear_fit, summarize
from repro.core.dima2ed import StrongColoringParams, strong_color_arcs
from repro.core.edge_coloring import EdgeColoringParams, color_edges
from repro.experiments.tables import render_histogram, render_scatter, render_table
from repro.experiments.workloads import WorkloadCell, materialize
from repro.runtime.observe import AutomatonTelemetry
from repro.verify import assert_proper_edge_coloring, assert_strong_arc_coloring

__all__ = [
    "RunRecord",
    "ExperimentReport",
    "run_edge_coloring_workload",
    "run_dima2ed_workload",
]


@dataclass(frozen=True)
class RunRecord:
    """One algorithm run on one graph (a row of the experiment data)."""

    experiment: str
    cell: str
    replicate: int
    n: int
    m: int
    delta: int
    rounds: int
    colors: int
    messages: int
    seed: int

    @property
    def excess_colors(self) -> int:
        """colors − Δ (0 = colored with exactly Δ colors)."""
        return self.colors - self.delta

    @property
    def rounds_per_delta(self) -> float:
        """rounds / Δ — the paper's O(Δ) constant."""
        return self.rounds / self.delta if self.delta else 0.0


@dataclass
class ExperimentReport:
    """All runs of one experiment plus rendering helpers."""

    experiment: str
    records: List[RunRecord] = field(default_factory=list)
    #: ``"cell/replicate"`` -> compact automaton telemetry (state
    #: histograms, convergence curve) for each run; populated only when
    #: the workload runner was asked to collect it.
    telemetry: Dict[str, Dict[str, Any]] = field(default_factory=dict)

    # -- aggregates -------------------------------------------------------

    def cell_table(self) -> str:
        """Per-cell aggregate table (one row per workload cell)."""
        rows = []
        for cell, records in group_by(self.records, lambda r: r.cell).items():
            deltas = summarize([r.delta for r in records])
            rounds = summarize([r.rounds for r in records])
            colors = summarize([r.colors for r in records])
            rpd = summarize([r.rounds_per_delta for r in records])
            rows.append(
                [
                    cell,
                    len(records),
                    deltas.mean,
                    rounds.mean,
                    rounds.std,
                    rpd.mean,
                    colors.mean,
                    max(r.excess_colors for r in records),
                ]
            )
        return render_table(
            [
                "cell",
                "runs",
                "mean Δ",
                "mean rounds",
                "sd rounds",
                "rounds/Δ",
                "mean colors",
                "max colors−Δ",
            ],
            rows,
        )

    def delta_series(self) -> Dict[int, float]:
        """Δ -> mean rounds (the series behind the paper's figures)."""
        return {
            delta: summarize([r.rounds for r in records]).mean
            for delta, records in sorted(
                group_by(self.records, lambda r: r.delta).items()
            )
        }

    def rounds_fit(self):
        """OLS fit of rounds against Δ across all runs."""
        return linear_fit(
            [r.delta for r in self.records], [r.rounds for r in self.records]
        )

    def excess_histogram(self) -> Dict[int, int]:
        """Histogram of colors−Δ across all runs (Conjecture 2's subject)."""
        return excess_color_histogram(
            [r.colors for r in self.records], [r.delta for r in self.records]
        )

    def render(self, *, scatter: bool = True) -> str:
        """Full plain-text report (tables, fit, histogram, ASCII scatter)."""
        fit = self.rounds_fit()
        parts = [
            f"== {self.experiment} ({len(self.records)} runs) ==",
            self.cell_table(),
            "",
            f"rounds vs Δ: {fit}",
            "Δ -> mean rounds: "
            + ", ".join(f"{d}:{r:.1f}" for d, r in self.delta_series().items()),
            "",
            "colors − Δ distribution:",
            render_histogram(self.excess_histogram(), label="colors−Δ"),
        ]
        if scatter and len({r.delta for r in self.records}) > 1:
            parts += [
                "",
                render_scatter(
                    [r.delta for r in self.records],
                    [r.rounds for r in self.records],
                    xlabel="Δ",
                    ylabel="rounds",
                ),
            ]
        return "\n".join(parts)


def _run_seed(base_seed: int, cell_label: str, replicate: int) -> int:
    """Derive the algorithm seed for one run (independent of graph seeds)."""
    import zlib

    key = zlib.crc32(f"{cell_label}/{replicate}".encode("utf-8"))
    return int(np.random.SeedSequence([base_seed, key, 0xA16]).generate_state(1)[0])


def run_edge_coloring_workload(
    experiment: str,
    cells: List[WorkloadCell],
    *,
    base_seed: int = 2012,
    params: Optional[EdgeColoringParams] = None,
    verify: bool = True,
    telemetry: bool = False,
    compute: str = "auto",
) -> ExperimentReport:
    """Run Algorithm 1 over every graph of every cell.

    With ``telemetry=True`` each run collects
    :class:`~repro.runtime.observe.AutomatonTelemetry` and its compact
    dump lands in ``report.telemetry`` keyed ``"cell/replicate"``;
    results are bit-identical either way.  ``compute`` is forwarded to
    :func:`~repro.core.edge_coloring.color_edges` to pin a kernel or
    the per-node core for A/B sweeps.
    """
    report = ExperimentReport(experiment=experiment)
    for cell, replicate, graph in materialize(cells, base_seed):
        seed = _run_seed(base_seed, cell.label, replicate)
        collector = AutomatonTelemetry() if telemetry else None
        result = color_edges(
            graph, seed=seed, params=params, telemetry=collector, compute=compute
        )
        if collector is not None:
            report.telemetry[f"{cell.label}/{replicate}"] = collector.compact_dict()
        if verify:
            assert_proper_edge_coloring(graph, result.colors)
        report.records.append(
            RunRecord(
                experiment=experiment,
                cell=cell.label,
                replicate=replicate,
                n=graph.num_nodes,
                m=graph.num_edges,
                delta=result.delta,
                rounds=result.rounds,
                colors=result.num_colors,
                messages=result.metrics.messages_sent,
                seed=seed,
            )
        )
    return report


def run_dima2ed_workload(
    experiment: str,
    cells: List[WorkloadCell],
    *,
    base_seed: int = 2012,
    params: Optional[StrongColoringParams] = None,
    verify: bool = True,
    telemetry: bool = False,
    compute: str = "auto",
) -> ExperimentReport:
    """Run DiMa2Ed over the symmetric closure of every cell graph.

    ``telemetry`` and ``compute`` work as in
    :func:`run_edge_coloring_workload`.
    """
    report = ExperimentReport(experiment=experiment)
    for cell, replicate, graph in materialize(cells, base_seed):
        digraph = graph.to_directed()
        seed = _run_seed(base_seed, cell.label, replicate)
        collector = AutomatonTelemetry() if telemetry else None
        result = strong_color_arcs(
            digraph, seed=seed, params=params, telemetry=collector, compute=compute
        )
        if collector is not None:
            report.telemetry[f"{cell.label}/{replicate}"] = collector.compact_dict()
        if verify:
            assert_strong_arc_coloring(digraph, result.colors)
        report.records.append(
            RunRecord(
                experiment=experiment,
                cell=cell.label,
                replicate=replicate,
                n=graph.num_nodes,
                m=digraph.num_arcs,
                delta=result.delta,
                rounds=result.rounds,
                colors=result.num_colors,
                messages=result.metrics.messages_sent,
                seed=seed,
            )
        )
    return report
