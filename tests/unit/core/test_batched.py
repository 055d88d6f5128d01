"""Gating, dispatch and observability of the whole-population kernels.

The bit-identity of the kernels themselves is pinned by
``tests/property/test_vectorized_equivalence.py``; this module covers
the dispatch policy in :mod:`repro.core.batched` — which configurations
may use a kernel, that ineligible ones fall back to the per-node loop
*silently*, which kernel each ``compute`` mode selects — and that the
kernel telemetry stream is byte-for-byte the per-node one.
"""

import inspect
import json
import re

import pytest

from repro.core.batched import COMPUTE_MODES, batched_eligible, select_backend
from repro.core.vectorized import Alg1VecKernel, DiMa2EdVecKernel
from repro.core.dima2ed import StrongColoringParams, strong_color_arcs
from repro.core.edge_coloring import EdgeColoringParams, color_edges
from repro.errors import ConfigurationError
from repro.graphs.generators import erdos_renyi_avg_degree
from repro.runtime.faults import DropRandomMessages
from repro.runtime.observe import AutomatonTelemetry, PhaseProfiler
from repro.runtime.trace import EventTracer

ELIGIBLE = dict(
    compute="auto",
    strict=True,
    faults=None,
    transport=None,
    tracer=None,
    recovery=False,
    defensive=False,
)


class TestBatchedEligible:
    def test_default_configuration_is_eligible(self):
        assert batched_eligible(**ELIGIBLE)

    def test_compute_batched_same_gates(self):
        # Pinning a kernel changes which one runs, never the gates.
        for compute in ("auto", "sharded"):
            assert batched_eligible(**{**ELIGIBLE, "compute": compute})
            assert not batched_eligible(
                **{**ELIGIBLE, "compute": compute, "strict": False}
            )

    @pytest.mark.parametrize(
        "override",
        [
            {"compute": "general"},
            {"strict": False},
            {"faults": object()},
            {"transport": object()},
            {"tracer": object()},
            {"recovery": True},
            {"defensive": True},
        ],
    )
    def test_each_gate_dimension_disables(self, override):
        assert not batched_eligible(**{**ELIGIBLE, **override})

    def test_unknown_compute_mode_raises(self):
        with pytest.raises(ConfigurationError):
            batched_eligible(**{**ELIGIBLE, "compute": "nope"})

    def test_compute_is_the_only_core_selector(self):
        # No wrapper, gate, engine or resilience entry point takes a
        # ``fastpath=`` switch.
        from repro.resilience import resume_engine, supervise_edge_coloring
        from repro.runtime.engine import SynchronousEngine

        assert "general" in COMPUTE_MODES
        for entry in (
            color_edges,
            strong_color_arcs,
            batched_eligible,
            supervise_edge_coloring,
            resume_engine,
            SynchronousEngine,
        ):
            params = inspect.signature(entry).parameters
            assert "fastpath" not in params, entry.__name__
            assert all(p.kind is not p.VAR_KEYWORD for p in params.values())

    def test_retired_batched_mode_raises(self):
        # Not an alias for any kernel: each fails like any unknown mode.
        for retired in ("batched", "numba"):
            assert retired not in COMPUTE_MODES
            with pytest.raises(ConfigurationError, match="compute must be one of"):
                batched_eligible(**{**ELIGIBLE, "compute": retired})

    def test_retired_pernode_and_vectorized_modes_raise(self):
        # ``"pernode"`` selected the deleted fast-path core and
        # ``"vectorized"`` was an alias for ``"auto"``; both now fail
        # with the error that lists the modes.
        g = erdos_renyi_avg_degree(20, 3.0, seed=0)
        for retired in ("pernode", "vectorized"):
            assert retired not in COMPUTE_MODES
            message = f"compute must be one of {COMPUTE_MODES}, got {retired!r}"
            with pytest.raises(ConfigurationError, match=re.escape(message)):
                batched_eligible(**{**ELIGIBLE, "compute": retired})
            with pytest.raises(ConfigurationError, match=re.escape(message)):
                color_edges(g, seed=0, compute=retired)


@pytest.fixture
def forbid_kernels(monkeypatch):
    """Make any kernel activation explode loudly."""

    def boom(self, *args, **kwargs):  # pragma: no cover - must not run
        raise AssertionError("batched kernel selected for a gated configuration")

    monkeypatch.setattr(Alg1VecKernel, "bind_graph", boom)
    monkeypatch.setattr(DiMa2EdVecKernel, "bind_graph", boom)


class TestSilentFallback:
    """Gated configurations must use the per-node loop without noise."""

    def test_positive_control_default_args_use_kernel(self, forbid_kernels):
        g = erdos_renyi_avg_degree(20, 3.0, seed=0)
        with pytest.raises(AssertionError, match="batched kernel selected"):
            color_edges(g, seed=0)
        with pytest.raises(AssertionError, match="batched kernel selected"):
            strong_color_arcs(g.to_directed(), seed=0)

    def test_fault_plan_falls_back(self, forbid_kernels):
        g = erdos_renyi_avg_degree(20, 3.0, seed=0)
        res = color_edges(g, seed=0, faults=DropRandomMessages(0.0, seed=1))
        assert res.colors

    def test_full_tracer_falls_back(self, forbid_kernels):
        g = erdos_renyi_avg_degree(20, 3.0, seed=0)
        res = color_edges(g, seed=0, tracer=EventTracer(64))
        assert res.colors

    def test_sampled_tracer_also_falls_back(self, forbid_kernels):
        # The kernels emit no events at all, so any tracer gates them,
        # sampled or not.
        g = erdos_renyi_avg_degree(20, 3.0, seed=0)
        tracer = EventTracer(64, sample={"*": 10})
        res = color_edges(g, seed=0, tracer=tracer)
        assert res.colors

    def test_non_strict_falls_back(self, forbid_kernels):
        g = erdos_renyi_avg_degree(20, 3.0, seed=0)
        res = color_edges(g, seed=0, params=EdgeColoringParams(strict=False))
        assert res.colors

    def test_defensive_falls_back(self, forbid_kernels):
        g = erdos_renyi_avg_degree(20, 3.0, seed=0)
        res = color_edges(g, seed=0, params=EdgeColoringParams(defensive=True))
        assert res.colors

    def test_recovery_falls_back(self, forbid_kernels):
        g = erdos_renyi_avg_degree(20, 3.0, seed=0)
        res = color_edges(g, seed=0, params=EdgeColoringParams(recovery=True))
        assert res.colors

    def test_fastpath_false_falls_back(self, forbid_kernels):
        # ``compute="general"`` is how the wrappers keep the kernels out;
        # they take no ``fastpath=`` keyword.
        g = erdos_renyi_avg_degree(20, 3.0, seed=0)
        res = color_edges(g, seed=0, compute="general")
        assert res.colors
        for entry in (color_edges, strong_color_arcs):
            with pytest.raises(TypeError, match="fastpath"):
                entry(g, seed=0, fastpath=False)

    def test_general_mode_runs_the_general_loop(self, forbid_kernels):
        # A kernel-eligible graph and configuration: only the mode keeps
        # the kernels out, and the per-node loop meters the model check
        # as its own phase.
        g = erdos_renyi_avg_degree(20, 3.0, seed=0)
        assert batched_eligible(**ELIGIBLE)
        for entry, graph in (
            (color_edges, g),
            (strong_color_arcs, g.to_directed()),
        ):
            general = entry(graph, seed=0, compute="general", profiler=PhaseProfiler())
            assert {"delivery", "model_check"} <= set(general.metrics.phase_seconds)

    def test_dima2ed_gates_mirror_alg1(self, forbid_kernels):
        d = erdos_renyi_avg_degree(20, 3.0, seed=0).to_directed()
        assert strong_color_arcs(d, seed=0, compute="general").colors
        assert strong_color_arcs(d, seed=0, tracer=EventTracer(64)).colors
        assert strong_color_arcs(
            d, seed=0, params=StrongColoringParams(recovery=True)
        ).colors

    def test_unknown_compute_mode_raises_from_wrapper(self):
        g = erdos_renyi_avg_degree(20, 3.0, seed=0)
        with pytest.raises(ConfigurationError):
            color_edges(g, seed=0, compute="vectorised")
        with pytest.raises(ConfigurationError):
            strong_color_arcs(g.to_directed(), seed=0, compute="vectorised")


class TestBatchedTelemetry:
    """Telemetry collected on BatchedEngine is the per-node stream."""

    @pytest.mark.parametrize("seed", [0, 3])
    def test_alg1_telemetry_byte_identical(self, seed):
        g = erdos_renyi_avg_degree(60, 5.0, seed=seed)
        per_node, batched = AutomatonTelemetry(), AutomatonTelemetry()
        a = color_edges(g, seed=seed, compute="general", telemetry=per_node)
        b = color_edges(g, seed=seed, compute="auto", telemetry=batched)
        assert json.dumps(per_node.to_dict()) == json.dumps(batched.to_dict())
        assert a.metrics.to_dict() == b.metrics.to_dict()

    @pytest.mark.parametrize("seed", [0, 3])
    def test_dima2ed_telemetry_byte_identical(self, seed):
        d = erdos_renyi_avg_degree(40, 4.0, seed=seed).to_directed()
        per_node, batched = AutomatonTelemetry(), AutomatonTelemetry()
        a = strong_color_arcs(d, seed=seed, compute="general", telemetry=per_node)
        b = strong_color_arcs(d, seed=seed, compute="auto", telemetry=batched)
        assert json.dumps(per_node.to_dict()) == json.dumps(batched.to_dict())
        assert a.metrics.to_dict() == b.metrics.to_dict()


class TestSelectBackend:
    """Backend dispatch: the sharded pin is honored, and ``"auto"`` takes
    the vectorized kernels (never the opt-in sharded tier)."""

    def test_explicit_pins(self):
        assert select_backend("sharded") == "sharded"

    def test_auto_routes_to_a_vec_kernel(self, monkeypatch):
        """compute="auto" on an eligible run must instantiate the plane
        kernels."""
        assert select_backend("auto") == "vectorized"
        bound = []
        orig = Alg1VecKernel.bind_graph

        def spy(self, *args, **kwargs):
            bound.append(type(self).__name__)
            return orig(self, *args, **kwargs)

        monkeypatch.setattr(Alg1VecKernel, "bind_graph", spy)
        g = erdos_renyi_avg_degree(30, 4.0, seed=0)
        color_edges(g, seed=0, compute="auto")
        assert bound and all("Vec" in name for name in bound)
