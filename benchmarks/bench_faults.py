"""Bench FAULTS — price of robustness on an unreliable network.

Sweeps message-loss rate × hardening mode for Algorithm 1 and reports
what each layer costs (rounds, retransmissions, palette) and what it
buys (proper/complete vs dirty/stuck).  The per-cell benches time the
hardened configurations at the paper's density; the series bench
writes the full sweep to ``benchmarks/out/fault_sweep.txt``.
"""

import pytest

from conftest import save_report
from repro.core.edge_coloring import EdgeColoringParams, color_edges
from repro.errors import ConvergenceError
from repro.graphs.generators import erdos_renyi_avg_degree
from repro.runtime.faults import CrashNodes, DropRandomMessages
from repro.verify import assert_partial_edge_coloring, check_proper_edge_coloring

GRAPH = erdos_renyi_avg_degree(100, 8.0, seed=3001)
SEED = 3001


def _run(rate, *, recovery=False, transport=False, seed=SEED):
    return color_edges(
        GRAPH,
        seed=seed,
        params=EdgeColoringParams(
            recovery=recovery,
            defensive=True,
            max_rounds=6000,
        ),
        faults=DropRandomMessages(rate, seed=seed) if rate else None,
        transport=transport or None,
        check_consistency=False,
    )


@pytest.mark.parametrize(
    "mode",
    ["defensive", "recovery", "recovery+transport"],
)
def test_hardening_overhead_at_p02(benchmark, mode):
    """Wall clock of each hardening layer at 2% loss."""
    recovery = mode != "defensive"
    transport = mode == "recovery+transport"
    result = benchmark.pedantic(
        lambda: _run(0.02, recovery=recovery, transport=transport),
        rounds=2,
        iterations=1,
    )
    benchmark.extra_info.update(
        rounds=result.rounds,
        colors=result.num_colors,
        retransmissions=result.metrics.retransmissions,
        frames=result.metrics.transport_frames,
    )


def test_transport_overhead_clean_network(benchmark):
    """What the reliable transport costs when nothing is ever lost."""
    result = benchmark.pedantic(
        lambda: _run(0.0, recovery=True, transport=True),
        rounds=2,
        iterations=1,
    )
    benchmark.extra_info.update(
        rounds=result.rounds,
        frames=result.metrics.transport_frames,
        retransmissions=result.metrics.retransmissions,
    )


def test_crash_recovery(benchmark):
    """Recovery + transport with 10% of the fleet crash-stopped."""

    def run():
        result = color_edges(
            GRAPH,
            seed=SEED,
            params=EdgeColoringParams(recovery=True, max_rounds=6000),
            faults=CrashNodes.random(
                GRAPH.num_nodes, 0.10, window=(4, 60), seed=SEED
            ),
            transport=True,
            check_consistency=False,
        )
        assert_partial_edge_coloring(GRAPH, result.colors, result.crashed)
        return result

    result = benchmark.pedantic(run, rounds=2, iterations=1)
    benchmark.extra_info.update(
        rounds=result.rounds,
        crashed=len(result.crashed),
        colors=result.num_colors,
    )


def test_series_fault_sweep(report_dir):
    """Loss-rate × mode sweep -> benchmarks/out/fault_sweep.txt."""
    rates = [0.0, 0.01, 0.02, 0.05]
    modes = [
        ("defensive", dict(recovery=False, transport=False)),
        ("recovery", dict(recovery=True, transport=False)),
        ("recovery+transport", dict(recovery=True, transport=True)),
    ]
    replicates = 3

    lines = [
        "Fault sweep: Algorithm 1 on G(100, davg=8), defensive listener on",
        f"replicates per cell: {replicates}",
        "",
        f"{'loss':>5} {'mode':>20} {'ok':>5} {'rounds':>8} "
        f"{'colors':>7} {'retx':>7} {'outcome':>10}",
    ]
    for rate in rates:
        for name, cfg in modes:
            ok = 0
            rounds = []
            colors = []
            retx = []
            outcome = "clean"
            for rep in range(replicates):
                try:
                    result = _run(rate, seed=SEED + rep, **cfg)
                except ConvergenceError:
                    outcome = "stuck"
                    continue
                bad = check_proper_edge_coloring(GRAPH, result.colors, complete=True)
                if bad:
                    outcome = "dirty"
                    continue
                ok += 1
                rounds.append(result.rounds)
                colors.append(result.num_colors)
                retx.append(result.metrics.retransmissions)
            mean = lambda xs: sum(xs) / len(xs) if xs else float("nan")
            lines.append(
                f"{rate:>5.2f} {name:>20} {ok}/{replicates:>1} "
                f"{mean(rounds):>8.1f} {mean(colors):>7.1f} "
                f"{mean(retx):>7.1f} {outcome:>10}"
            )
    lines += [
        "",
        "Reading: 'recovery+transport' must be clean at every rate —",
        "retransmissions absorb loss, corrective replies heal desync.",
        "Bare 'defensive' may go stuck/dirty as the rate grows; that gap",
        "is the value of the reliability layer (Proposition 2's premise).",
    ]
    lines += _chaos_percentile_section()
    save_report(report_dir, "fault_sweep", "\n".join(lines))
    assert (report_dir / "fault_sweep.txt").exists()


def _chaos_percentile_section():
    """Recovery-time / message-overhead percentiles per fault class.

    Runs a deterministic chaos campaign (three supervised runs per fault
    class) on the bench graph and reports p50/p99 of rounds-over-baseline
    and messages-over-baseline — the distributions the resilience
    subsystem promises to keep bounded (see docs/resilience.md).
    """
    from repro.resilience import ChaosConfig, chaos_campaign

    classes = ("loss", "burst", "dup", "reorder", "crash", "mixed")
    report = chaos_campaign(
        GRAPH,
        config=ChaosConfig(
            budget_seconds=None,
            max_runs=3 * len(classes),
            seed=SEED,
            fault_classes=classes,
        ),
    )
    lines = [
        "",
        "Chaos percentiles: recovery time (rounds/baseline) and message",
        f"overhead (messages/baseline), {report.runs} supervised runs,",
        f"baseline {report.baseline_rounds} rounds / "
        f"{report.baseline_messages} messages, "
        f"survivability {100.0 * report.survivability:.1f}%, "
        f"monitor violations {report.monitor_violations}",
        "",
        f"{'class':>8} {'runs':>5} {'recov p50':>10} {'recov p99':>10} "
        f"{'msg p50':>8} {'msg p99':>8}",
    ]
    for name, agg in report.per_class().items():
        rec = agg["recovery_ratio"]
        ovh = agg["message_overhead"]
        lines.append(
            f"{name:>8} {agg['runs']:>5} {rec['p50']:>10.2f} "
            f"{rec['p99']:>10.2f} {ovh['p50']:>8.2f} {ovh['p99']:>8.2f}"
        )
    return lines
