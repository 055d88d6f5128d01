"""Unit and integration tests for the coloring server.

Most cases drive :meth:`ColoringServer.handle_request` /
:meth:`handle_line` synchronously — the same code path the event loop
runs, minus the sockets.  The end-to-end cases start a real server on
a loopback port via :class:`ServerThread` and talk NDJSON through
:class:`ServeClient`.
"""

import json

import pytest

import repro.serve.protocol as protocol
from repro.errors import ProtocolError
from repro.graphs.generators import erdos_renyi_avg_degree
from repro.obs.live import SnapshotPublisher, read_ring
from repro.obs.registry import MetricsRegistry
from repro.serve.protocol import ServeClient
from repro.serve.server import ColoringServer, ServerThread
from repro.serve.session import SessionManager


def _server(**kwargs):
    return ColoringServer(SessionManager(), **kwargs)


def _ok(server, op, **fields):
    payload = server.handle_request({"op": op, **fields})
    return payload


class TestSynchronousCore:
    def test_ping(self):
        server = _server()
        out = _ok(server, "ping")
        assert out["pong"] is True and out["sessions"] == 0
        assert server.requests_total == 1

    def test_create_info_color_drop(self):
        server = _server()
        created = _ok(
            server, "create", name="g", edges=[[0, 1], [1, 2]], seed=4
        )
        assert created["session"]["edges"] == 2
        info = _ok(server, "info", name="g")["session"]
        assert info["name"] == "g" and info["algorithm"] == "alg1"
        color = _ok(server, "color", name="g", u=0, v=1)
        assert isinstance(color["color"], int)
        assert _ok(server, "drop", name="g") == {"dropped": "g"}
        assert _ok(server, "sessions") == {"sessions": []}

    def test_mutate_and_colors(self):
        server = _server()
        _ok(server, "create", name="g", edges=[[0, 1], [1, 2]], seed=1)
        out = _ok(
            server,
            "mutate",
            name="g",
            mutations=[{"op": "add_edge", "u": 2, "v": 0}],
        )["outcome"]
        assert out["applied"] == 1 and out["violations"] == []
        colors = _ok(server, "colors", name="g")["colors"]
        assert len(colors) == 3
        assert all(len(row) == 3 for row in colors)

    def test_stats_counts_requests(self):
        server = _server()
        _ok(server, "ping")
        out = _ok(server, "stats")
        assert out["requests"] == 2
        assert out["totals"]["sessions"] == 0

    def test_missing_name_is_protocol_error(self):
        server = _server()
        with pytest.raises(ProtocolError):
            server.handle_request({"op": "info"})

    def test_unknown_session_error_response(self):
        server = _server()
        raw = server.handle_line(
            b'{"op": "info", "name": "missing", "id": 9}\n'
        )
        response = json.loads(raw)
        assert response["ok"] is False and response["id"] == 9
        assert "missing" in response["error"]

    def test_malformed_line_yields_error_not_exception(self):
        server = _server()
        response = json.loads(server.handle_line(b"garbage\n"))
        assert response["ok"] is False

    def test_color_of_non_edge_rejected(self):
        server = _server()
        _ok(server, "create", name="g", edges=[[0, 1]])
        raw = server.handle_line(
            b'{"op": "color", "name": "g", "u": 0, "v": 5}\n'
        )
        assert json.loads(raw)["ok"] is False


class TestMetrics:
    def test_registry_counters_accumulate(self):
        registry = MetricsRegistry()
        server = _server(registry=registry)
        _ok(server, "create", name="g", edges=[[0, 1], [1, 2]], seed=2)
        _ok(
            server,
            "mutate",
            name="g",
            mutations=[{"op": "add_edge", "u": 2, "v": 0}],
        )
        server.handle_line(b"garbage\n")
        snap = registry.snapshot()
        requests = {
            sample["labels"]["op"]: sample["value"]
            for sample in snap["repro_serve_requests"]["samples"]
        }
        assert requests["create"] == 1 and requests["mutate"] == 1
        assert snap["repro_serve_errors"]["samples"][0]["value"] == 1
        assert snap["repro_serve_mutations"]["samples"][0]["value"] == 1
        assert snap["repro_serve_sessions"]["samples"][0]["value"] == 1
        # Exactly one recoloring path was taken for the one batch.
        batch_samples = snap["repro_serve_batches"]["samples"]
        assert sum(sample["value"] for sample in batch_samples) == 1

    def test_publisher_receives_request_totals(self, tmp_path):
        ring = tmp_path / "serve.jsonl"
        publisher = SnapshotPublisher(ring, interval=0.0)
        server = _server(publisher=publisher)
        _ok(server, "create", name="g", edges=[[0, 1]])
        _ok(server, "ping")
        server._publish_snapshot(final=True)
        rows = read_ring(ring)
        last = rows[-1]["snapshot"]
        assert last["final"] is True
        assert last["messages_sent"] == 2
        assert last["sessions"] == 1


class TestEndToEnd:
    def test_socket_round_trip_with_persistence(self, tmp_path):
        manager = SessionManager(state_dir=tmp_path)
        server = ColoringServer(manager)
        with ServerThread(server) as srv:
            with ServeClient(srv.host, srv.port, timeout=30.0) as client:
                pong = client.request("ping")
                assert pong["version"] >= 1
                client.request(
                    "create", name="e2e", edges=[[0, 1], [1, 2], [2, 3]]
                )
                out = client.request(
                    "mutate",
                    name="e2e",
                    mutations=[{"op": "add_edge", "u": 3, "v": 0}],
                )["outcome"]
                assert out["violations"] == []
                color = client.request("color", name="e2e", u=3, v=0)
                assert isinstance(color["color"], int)
                with pytest.raises(ProtocolError):
                    client.request("info", name="nope")
        # Server shutdown saved the session state.
        assert (tmp_path / "e2e.session.json").exists()
        fresh = SessionManager(state_dir=tmp_path)
        assert fresh.load() == 1
        assert fresh.get("e2e").graph.has_edge(3, 0)


class TestLineLimit:
    """A request line is bounded by ``protocol.MAX_LINE_BYTES``, not by
    the stream reader's 64 KiB default, and an over-limit line gets an
    error response rather than a dropped connection."""

    def test_create_past_64_kib_succeeds(self):
        g = erdos_renyi_avg_degree(3_200, 8.0, seed=1)
        edges = [[u, v] for u, v in g.edges()]
        assert len(edges) >= 12_000
        request = {"op": "create", "id": 1, "name": "big", "edges": edges}
        assert len(protocol.encode(request)) > 64 * 1024
        with ServerThread(ColoringServer(SessionManager())) as srv:
            with ServeClient(srv.host, srv.port, timeout=60.0) as client:
                info = client.request("create", name="big", edges=edges)
                assert info["session"]["edges"] == len(edges)
                assert client.request("ping")["ok"]

    def test_over_limit_line_gets_error_response(self, monkeypatch):
        monkeypatch.setattr(protocol, "MAX_LINE_BYTES", 1024)
        registry = MetricsRegistry()
        server = ColoringServer(SessionManager(), registry=registry)
        with ServerThread(server) as srv:
            with ServeClient(srv.host, srv.port, timeout=30.0) as client:
                with pytest.raises(ProtocolError, match="exceeds 1024 bytes"):
                    client.request("create", name="x", edges=[[0, 1]] * 600)
                # The rest of an overrun line may still be in flight, so
                # the server hangs up after answering.
                with pytest.raises((ProtocolError, ConnectionError)):
                    client.request("ping")
            # Only that client was dropped; others carry on.
            with ServeClient(srv.host, srv.port, timeout=30.0) as client:
                assert client.request("ping")["ok"]
        errors = registry.snapshot()["repro_serve_errors"]["samples"]
        assert errors[0]["value"] == 1

