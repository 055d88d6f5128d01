"""Experiment ABL: ablations of the design choices DESIGN.md calls out.

None of these appear in the paper (its §V defers "improving on the
experimental results" to future work); they quantify the knobs our
implementation exposes:

* **coin bias** — the C state's invite probability.  The paper's 1/2 is
  the symmetric choice; the 1/4 pairing bound of Proposition 1 peaks at
  a graph-dependent bias, so we sweep it.
* **channel strategy** (DiMa2Ed) — first-fit vs random-window proposal
  channels (DESIGN.md faithfulness note 3).
* **defensive acceptance + message loss** (Algorithm 1) — how the
  reliable-network assumption degrades: with loss, plain Algorithm 1
  can produce improper colorings or endpoint disagreements; the
  defensive check restores properness at a rounds cost.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from repro.analysis.stats import summarize
from repro.core.dima2ed import StrongColoringParams, strong_color_arcs
from repro.core.edge_coloring import EdgeColoringParams, color_edges
from repro.errors import ConvergenceError
from repro.experiments.tables import render_table
from repro.graphs.generators import erdos_renyi_avg_degree
from repro.runtime.faults import DropRandomMessages
from repro.verify import check_proper_edge_coloring

__all__ = [
    "NAME",
    "sweep_invite_bias",
    "compare_color_rules",
    "compare_channel_strategies",
    "fault_injection_study",
    "main",
]

NAME = "ablations"


@dataclass(frozen=True)
class AblationRow:
    """One ablation configuration's aggregate outcome."""

    label: str
    runs: int
    mean_rounds: float
    mean_colors: float
    failures: int = 0


def _er_graphs(n: int, deg: float, count: int, base_seed: int):
    return [
        erdos_renyi_avg_degree(n, deg, seed=base_seed + i) for i in range(count)
    ]


def sweep_invite_bias(
    biases: Sequence[float] = (0.2, 0.35, 0.5, 0.65, 0.8),
    *,
    n: int = 120,
    deg: float = 8.0,
    count: int = 10,
    base_seed: int = 77,
) -> List[AblationRow]:
    """Algorithm 1 rounds/colors as a function of the invite-coin bias."""
    graphs = _er_graphs(n, deg, count, base_seed)
    rows = []
    for bias in biases:
        params = EdgeColoringParams(p_invite=bias)
        results = [
            color_edges(g, seed=base_seed + j, params=params)
            for j, g in enumerate(graphs)
        ]
        rows.append(
            AblationRow(
                label=f"p_invite={bias:g}",
                runs=len(results),
                mean_rounds=summarize([r.rounds for r in results]).mean,
                mean_colors=summarize([r.num_colors for r in results]).mean,
            )
        )
    return rows


def compare_color_rules(
    *,
    n: int = 100,
    deg: float = 8.0,
    count: int = 8,
    base_seed: int = 88,
) -> List[AblationRow]:
    """Algorithm 1's proposal and acceptance rules, crossed.

    The paper fixes lowest-color proposals (line 11) and uniform
    acceptance (R state); the alternatives trade palette width against
    proposal decorrelation:

    * random-window proposals pair slightly faster on dense graphs but
      spread the palette well past Δ+1;
    * lowest-color acceptance biases quality at zero round cost.
    """
    graphs = _er_graphs(n, deg, count, base_seed)
    rows = []
    for color_rule in ("lowest", "random_window"):
        for responder_rule in ("random", "lowest_color"):
            params = EdgeColoringParams(
                color_strategy=color_rule, responder_strategy=responder_rule
            )
            results = [
                color_edges(g, seed=base_seed + j, params=params)
                for j, g in enumerate(graphs)
            ]
            rows.append(
                AblationRow(
                    label=f"propose={color_rule} accept={responder_rule}",
                    runs=len(results),
                    mean_rounds=summarize([r.rounds for r in results]).mean,
                    mean_colors=summarize([r.num_colors for r in results]).mean,
                )
            )
    return rows


def compare_channel_strategies(
    *,
    n: int = 80,
    deg: float = 6.0,
    count: int = 8,
    base_seed: int = 99,
) -> List[AblationRow]:
    """DiMa2Ed first-fit vs random-window proposal channels."""
    graphs = _er_graphs(n, deg, count, base_seed)
    rows = []
    for strategy in ("first_fit", "random_window"):
        params = StrongColoringParams(channel_strategy=strategy)
        results = [
            strong_color_arcs(g.to_directed(), seed=base_seed + j, params=params)
            for j, g in enumerate(graphs)
        ]
        rows.append(
            AblationRow(
                label=f"channel={strategy}",
                runs=len(results),
                mean_rounds=summarize([r.rounds for r in results]).mean,
                mean_colors=summarize([r.num_colors for r in results]).mean,
            )
        )
    return rows


def fault_injection_study(
    drop_rates: Sequence[float] = (0.0, 0.01, 0.05),
    *,
    n: int = 80,
    deg: float = 6.0,
    count: int = 8,
    base_seed: int = 123,
    max_rounds: int = 4000,
) -> List[AblationRow]:
    """Algorithm 1 under message loss, defensive acceptance on vs off.

    A "failure" is a run that either exceeded the round budget, left
    edges uncolored/disagreeing, or produced an improper coloring —
    each a way the paper's reliable-network assumption can bite.
    """
    graphs = _er_graphs(n, deg, count, base_seed)
    rows = []
    for rate in drop_rates:
        for defensive in (False, True):
            rounds_seen: List[int] = []
            colors_seen: List[int] = []
            failures = 0
            for j, g in enumerate(graphs):
                faults = (
                    DropRandomMessages(rate, seed=base_seed + j) if rate else None
                )
                params = EdgeColoringParams(
                    defensive=defensive, max_rounds=max_rounds
                )
                try:
                    result = color_edges(
                        g,
                        seed=base_seed + j,
                        params=params,
                        faults=faults,
                        check_consistency=False,
                    )
                except ConvergenceError:
                    failures += 1
                    continue
                bad = check_proper_edge_coloring(g, result.colors, complete=True)
                if bad:
                    failures += 1
                    continue
                rounds_seen.append(result.rounds)
                colors_seen.append(result.num_colors)
            rows.append(
                AblationRow(
                    label=f"drop={rate:g} defensive={defensive}",
                    runs=len(graphs),
                    mean_rounds=(
                        summarize(rounds_seen).mean if rounds_seen else float("nan")
                    ),
                    mean_colors=(
                        summarize(colors_seen).mean if colors_seen else float("nan")
                    ),
                    failures=failures,
                )
            )
    return rows


def render_rows(title: str, rows: List[AblationRow]) -> str:
    """Tabulate a list of ablation rows."""
    return f"== {title} ==\n" + render_table(
        ["config", "runs", "mean rounds", "mean colors", "failures"],
        [[r.label, r.runs, r.mean_rounds, r.mean_colors, r.failures] for r in rows],
    )


def main() -> None:
    """Run all four ablations and print their tables (CLI entry)."""
    print(render_rows("invite-coin bias (Algorithm 1)", sweep_invite_bias()))
    print()
    print(render_rows("proposal/acceptance rules (Algorithm 1)", compare_color_rules()))
    print()
    print(render_rows("channel strategy (DiMa2Ed)", compare_channel_strategies()))
    print()
    print(render_rows("message loss (Algorithm 1)", fault_injection_study()))


if __name__ == "__main__":  # pragma: no cover
    main()
