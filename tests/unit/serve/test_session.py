"""Unit tests for coloring sessions and the session manager."""

import copy
import json
from pathlib import Path

import pytest

from repro.errors import ServeError, VerificationError
from repro.graphs.adjacency import Graph
from repro.graphs.generators import erdos_renyi_avg_degree
from repro.serve.session import (
    ColoringSession,
    Mutation,
    SessionManager,
)
from repro.types import canonical_edge
from repro.verify.edge_coloring import check_proper_edge_coloring
from repro.verify.strong_coloring import check_strong_arc_coloring


def _session(algorithm="alg1", n=20, seed=2):
    g = erdos_renyi_avg_degree(n, 4.0, seed=seed)
    s = ColoringSession("s", algorithm=algorithm, seed=seed)
    s.load_edges(g.edge_list(), g.num_nodes)
    return s


def _non_edge(g):
    return next(
        (u, v)
        for u in g.nodes()
        for v in g.nodes()
        if u < v and not g.has_edge(u, v)
    )


def _assert_valid(s):
    if s.algorithm == "dima2ed":
        assert check_strong_arc_coloring(
            s.graph.to_directed(), s.colors, complete=True
        ) == []
    else:
        assert check_proper_edge_coloring(s.graph, s.colors) == []
        assert check_proper_edge_coloring(s.graph, s.colors, complete=True) == []


class TestMutationValidation:
    def test_unknown_op_rejected(self):
        with pytest.raises(ServeError):
            Mutation("paint_edge", 0, 1)

    def test_edge_ops_need_both_endpoints(self):
        with pytest.raises(ServeError):
            Mutation("add_edge", 0)

    def test_vertex_ops_take_no_second_endpoint(self):
        with pytest.raises(ServeError):
            Mutation("add_vertex", 0, 1)

    def test_bool_endpoints_rejected(self):
        with pytest.raises(ServeError):
            Mutation("add_edge", True, 1)

    def test_from_dict_round_trip(self):
        m = Mutation.from_dict({"op": "add_edge", "u": 3, "v": 7})
        assert m.to_dict() == {"op": "add_edge", "u": 3, "v": 7}

    def test_from_dict_unknown_fields_rejected(self):
        with pytest.raises(ServeError):
            Mutation.from_dict({"op": "add_vertex", "u": 1, "weight": 2})


class TestSessionLifecycle:
    def test_bad_name_rejected(self):
        with pytest.raises(ServeError):
            ColoringSession("../etc/passwd")

    def test_bad_algorithm_rejected(self):
        with pytest.raises(ServeError):
            ColoringSession("s", algorithm="greedy")

    def test_initial_coloring_is_proper(self):
        s = _session()
        _assert_valid(s)
        assert s.info()["edges"] == s.graph.num_edges

    def test_double_populate_rejected(self):
        s = _session()
        with pytest.raises(ServeError):
            s.load_edges([(0, 1)])


class TestMutationBatches:
    @pytest.mark.parametrize("algorithm", ["alg1", "dima2ed"])
    def test_mixed_batch_stays_valid(self, algorithm):
        s = _session(algorithm=algorithm, n=14)
        u, v = next(
            (a, b)
            for a in s.graph.nodes()
            for b in s.graph.nodes()
            if a < b and not s.graph.has_edge(a, b)
        )
        out = s.apply(
            [
                Mutation("add_edge", u, v),
                Mutation("add_vertex", 100),
                Mutation("add_edge", 100, u),
            ]
        )
        assert out.applied == 3
        assert out.new_edges == 2
        _assert_valid(s)

    def test_removal_only_batch_never_recolors(self):
        s = _session()
        u, v = s.graph.edge_list()[0]
        before = s.stats["full_runs"]
        out = s.apply([Mutation("remove_edge", u, v)])
        assert out.new_edges == 0 and out.removed_edges == 1
        assert out.incremental and not out.fallback
        assert s.stats["full_runs"] == before
        assert canonical_edge(u, v) not in s.colors
        _assert_valid(s)

    def test_remove_vertex_drops_incident_colors(self):
        s = _session()
        victim = max(s.graph.nodes(), key=s.graph.degree)
        degree = s.graph.degree(victim)
        out = s.apply([Mutation("remove_vertex", victim)])
        assert out.removed_edges == degree
        assert not any(victim in edge for edge in s.colors)
        _assert_valid(s)

    def test_batch_is_atomic_on_invalid_mutation(self):
        s = _session()
        nodes = s.graph.num_nodes
        edges = s.graph.num_edges
        colors = dict(s.colors)
        with pytest.raises(ServeError):
            s.apply(
                [
                    Mutation("add_vertex", 500),
                    Mutation("remove_edge", 500, 501),  # not an edge
                ]
            )
        assert s.graph.num_nodes == nodes
        assert s.graph.num_edges == edges
        assert s.colors == colors

    def test_self_loop_rejected(self):
        s = _session()
        with pytest.raises(ServeError):
            s.apply([Mutation("add_edge", 3, 3)])

    def test_duplicate_add_edge_is_noop(self):
        s = _session()
        u, v = s.graph.edge_list()[0]
        out = s.apply([Mutation("add_edge", u, v)])
        assert out.new_edges == 0

    def test_add_then_remove_in_one_batch(self):
        s = _session()
        out = s.apply(
            [
                Mutation("add_vertex", 300),
                Mutation("add_vertex", 301),
                Mutation("add_edge", 300, 301),
                Mutation("remove_edge", 300, 301),
            ]
        )
        assert out.new_edges == 0
        # The edge never existed before the batch, so it is not counted
        # as removed either.
        assert out.removed_edges == 0
        _assert_valid(s)

    def test_non_incremental_mode_always_reruns(self):
        s = ColoringSession("full", seed=1, incremental=False)
        s.load_edges([(0, 1), (1, 2)])
        runs = s.stats["full_runs"]
        out = s.apply([Mutation("add_edge", 2, 0)])
        assert not out.incremental and not out.fallback
        assert s.stats["full_runs"] == runs + 1
        _assert_valid(s)

    def test_stats_accumulate(self):
        s = _session()
        s.apply([Mutation("add_vertex", 200)])
        s.apply([Mutation("add_edge", 200, 0)])
        assert s.stats["batches"] == 2
        assert s.stats["mutations"] == 2
        assert s.batches == 2


class TestInPlaceStaging:
    """Batches are staged on the session's own graph and colors, with an
    undo log; a rejected batch is rolled back exactly."""

    @staticmethod
    def _snapshot(s):
        return {
            "nodes": s.graph.nodes(),
            "adjacency": {u: set(s.graph.neighbors(u)) for u in s.graph.nodes()},
            "colors": copy.deepcopy(s.colors),
            "batches": s.batches,
            "stats": copy.deepcopy(s.stats),
        }

    @pytest.mark.parametrize("algorithm", ["alg1", "dima2ed"])
    def test_rejected_batch_is_rolled_back_exactly(self, algorithm):
        s = _session(algorithm=algorithm, n=16)
        twin = _session(algorithm=algorithm, n=16)
        before = self._snapshot(s)
        graph = s.graph
        x, y = s.graph.edge_list()[0]
        victim = max(s.graph.nodes(), key=s.graph.degree)
        if victim in (x, y):
            victim = next(u for u in s.graph.nodes() if u not in (x, y) and s.graph.degree(u))
        with pytest.raises(ServeError, match="not in session"):
            s.apply(
                [
                    Mutation("add_vertex", 500),
                    Mutation("add_edge", 501, 502),  # creates both endpoints
                    Mutation("remove_edge", x, y),
                    Mutation("remove_vertex", victim),
                    Mutation("add_edge", victim, 500),  # brings it back
                    Mutation("remove_edge", 500, 503),  # not an edge
                ]
            )
        assert s.graph is graph
        assert self._snapshot(s) == before
        # Full reruns relabel by node order, so the next one must give
        # the colors of a session that never saw the batch.
        s.incremental = twin.incremental = False
        u, v = _non_edge(s.graph)
        s.apply([Mutation("add_edge", u, v)])
        twin.apply([Mutation("add_edge", u, v)])
        assert s.graph.nodes() == twin.graph.nodes()
        assert s.colors == twin.colors

    def test_removed_then_readded_vertex_moves_to_the_end(self):
        s = _session()
        nodes = s.graph.nodes()
        first, second = nodes[0], nodes[1]
        s.apply(
            [
                Mutation("add_vertex", 700),
                Mutation("remove_vertex", first),
                Mutation("remove_vertex", second),
                Mutation("add_vertex", first),
                Mutation("add_edge", 701, second),
            ]
        )
        # As on a fresh insertion: the re-added vertices follow the
        # others, in the order of their last addition.
        assert s.graph.nodes() == nodes[2:] + [700, first, 701, second]
        assert s.graph.degree(first) == 0
        _assert_valid(s)

    @pytest.mark.parametrize("algorithm", ["alg1", "dima2ed"])
    def test_single_insert_never_copies_the_session_graph(
        self, algorithm, monkeypatch
    ):
        s = _session(algorithm=algorithm, n=14)
        own = s.graph
        for name in ("copy", "to_directed"):
            original = getattr(Graph, name)

            def guarded(graph, _original=original, _name=name):
                if graph is own:
                    raise AssertionError(f"Graph.{_name} on the session graph")
                return _original(graph)

            monkeypatch.setattr(Graph, name, guarded)
        u, v = _non_edge(s.graph)
        out = s.apply([Mutation("add_edge", u, v)])
        assert out.incremental and not out.fallback
        assert s.graph is own and s.graph.has_edge(u, v)
        monkeypatch.undo()
        _assert_valid(s)

    def test_phase_timings_stay_off_the_wire(self):
        s = _session()
        u, v = _non_edge(s.graph)
        out = s.apply([Mutation("add_edge", u, v)])
        assert out.stage_s > 0 and out.recolor_s > 0 and out.verify_s > 0
        assert out.stage_s + out.recolor_s + out.verify_s <= out.wall_s
        assert set(out.to_dict()) == {
            "applied", "new_edges", "removed_edges", "incremental",
            "fallback", "rounds", "violations", "wall_s",
        }


class TestQueries:
    def test_color_of_counts_queries(self):
        s = _session()
        u, v = s.graph.edge_list()[0]
        expected = s.colors[canonical_edge(u, v)]
        assert expected is not None
        assert s.color_of(u, v) == expected
        assert s.color_of(v, u) == expected
        assert s.stats["queries"] == 2

    def test_arc_query_is_directional(self):
        s = _session(algorithm="dima2ed", n=10)
        u, v = s.graph.edge_list()[0]
        assert s.color_of(u, v) == s.colors[(u, v)]
        assert s.color_of(v, u) == s.colors[(v, u)]


class TestPersistence:
    def test_state_round_trip(self):
        s = _session()
        s.apply([Mutation("add_vertex", 99), Mutation("add_edge", 99, 0)])
        state = json.loads(json.dumps(s.to_state()))
        back = ColoringSession.from_state(state)
        assert back.graph == s.graph
        assert back.colors == s.colors
        assert back.batches == s.batches
        assert back.stats == s.stats

    def test_arc_state_round_trip(self):
        s = _session(algorithm="dima2ed", n=10)
        back = ColoringSession.from_state(
            json.loads(json.dumps(s.to_state()))
        )
        assert back.colors == s.colors

    def test_tampered_state_rejected(self):
        s = _session()
        state = s.to_state()
        # Force two incident edges onto one color.
        edges = s.graph.incident_edges(0)
        if len(edges) >= 2:
            state_colors = {
                (u, v): c for u, v, c in state["colors"]
            }
            (a, b), (c, d) = edges[0], edges[1]
            state_colors[canonical_edge(c, d)] = state_colors[
                canonical_edge(a, b)
            ]
            state["colors"] = [
                [u, v, c] for (u, v), c in sorted(state_colors.items())
            ]
            with pytest.raises(Exception):
                ColoringSession.from_state(state)

    @pytest.mark.parametrize("algorithm", ["alg1", "dima2ed"])
    @pytest.mark.parametrize(
        "row",
        [
            [[0], 1, 0],
            [0, 1.0, 0],
            [0, 1, 0.5],
            [True, 1, 0],
            [0, 1, True],
            ["0", 1, 0],
            [0, 1, "0"],
            [2**70, 1, 0],
            [0, 1, 2**70],
            [0, 1],
            [0, 1, 0, 0],
            "0 1 0",
            None,
        ],
    )
    def test_malformed_colors_row_is_a_serve_error(self, algorithm, row):
        state = json.loads(json.dumps(_session(algorithm=algorithm).to_state()))
        state["colors"][0] = row
        with pytest.raises(ServeError, match="malformed colors row"):
            ColoringSession.from_state(state)

    @pytest.mark.parametrize("row", [[[0], 1], [0, 1.5], [0, None], [0, 2**70], [0]])
    def test_malformed_edges_row_is_a_serve_error(self, row):
        state = json.loads(json.dumps(_session().to_state()))
        state["edges"][0] = row
        with pytest.raises(ServeError, match="malformed edges row"):
            ColoringSession.from_state(state)

    def test_invalid_coloring_on_load_says_so(self):
        state = json.loads(json.dumps(_session().to_state()))
        state["colors"][0][2] = -1
        with pytest.raises(VerificationError, match="invalid on load"):
            ColoringSession.from_state(state)

    def test_newer_format_refused(self):
        s = _session()
        state = s.to_state()
        state["format"] = 99
        with pytest.raises(ServeError):
            ColoringSession.from_state(state)


GOLDEN = Path(__file__).parent / "golden"


class TestGoldenState:
    """Format-1 ``*.session.json`` files, one per algorithm, written by
    ``SessionManager.save`` before in-place staging and local
    verification landed."""

    @pytest.mark.parametrize("algorithm", ["alg1", "dima2ed"])
    def test_loads_and_passes_the_on_load_check(self, algorithm):
        state = json.loads((GOLDEN / f"{algorithm}.session.json").read_text())
        assert state["format"] == 1
        session = ColoringSession.from_state(state)
        assert session.algorithm == algorithm
        assert session.batches == 2
        _assert_valid(session)

    @pytest.mark.parametrize("algorithm", ["alg1", "dima2ed"])
    def test_writes_back_the_same_json(self, algorithm):
        text = (GOLDEN / f"{algorithm}.session.json").read_text()
        session = ColoringSession.from_state(json.loads(text))
        assert json.dumps(session.to_state(), sort_keys=True) == text

    @pytest.mark.parametrize("algorithm", ["alg1", "dima2ed"])
    def test_format_2_is_refused_by_number(self, algorithm):
        state = json.loads((GOLDEN / f"{algorithm}.session.json").read_text())
        state["format"] = 2
        with pytest.raises(ServeError, match="format 2"):
            ColoringSession.from_state(state)


class TestSessionManager:
    def test_create_get_drop(self, tmp_path):
        mgr = SessionManager(state_dir=tmp_path)
        mgr.create("a", edges=[(0, 1)])
        assert mgr.names() == ["a"]
        with pytest.raises(ServeError):
            mgr.create("a")
        mgr.drop("a")
        with pytest.raises(ServeError):
            mgr.get("a")

    def test_save_load_round_trip(self, tmp_path):
        mgr = SessionManager(state_dir=tmp_path, default_seed=3)
        mgr.create("x", edges=[(0, 1), (1, 2)])
        mgr.create("y", algorithm="dima2ed", edges=[(0, 1)])
        assert mgr.save() == 2
        fresh = SessionManager(state_dir=tmp_path)
        assert fresh.load() == 2
        assert fresh.get("x").colors == mgr.get("x").colors
        assert fresh.get("y").algorithm == "dima2ed"

    def test_drop_removes_state_file(self, tmp_path):
        mgr = SessionManager(state_dir=tmp_path)
        mgr.create("gone", edges=[(0, 1)])
        mgr.save()
        assert (tmp_path / "gone.session.json").exists()
        mgr.drop("gone")
        assert not (tmp_path / "gone.session.json").exists()

    def test_totals_aggregate(self):
        mgr = SessionManager()
        mgr.create("a", edges=[(0, 1)])
        mgr.create("b", edges=[(0, 1)])
        totals = mgr.totals()
        assert totals["sessions"] == 2
        assert totals["full_runs"] == 2
