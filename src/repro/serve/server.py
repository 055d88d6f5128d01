"""The asyncio coloring server plus test/bench embedding helpers.

:class:`ColoringServer` listens on one TCP port, speaks the NDJSON
protocol of :mod:`repro.serve.protocol`, and drives a
:class:`~repro.serve.session.SessionManager`.  Request handling is a
*synchronous* method (:meth:`ColoringServer.handle_request`) called from
the per-connection coroutine without any intervening ``await`` — on a
single event loop that makes every request atomic with respect to
session state, so no locks are needed and results stay deterministic
under concurrent clients (ordering aside).  The synchronous core is
also what the unit tests exercise directly, sockets not required.

Observability rides the same rails as the engines: pass a
:class:`~repro.obs.registry.MetricsRegistry` to meter requests,
mutations, incremental/fallback batches, live sessions and the seconds
each batch spends staging, recoloring and verifying (plus each save's
persist time), and a
:class:`~repro.obs.live.SnapshotPublisher` to feed ``repro top`` (the
cumulative request count is published as ``messages_sent`` so the
dashboard's rate row doubles as requests/s).

:class:`ServerThread` runs a server on a private event loop in a
daemon thread — the embedding used by ``benchmarks/bench_serve.py`` and
the integration tests.
"""

from __future__ import annotations

import asyncio
import threading
import time
from typing import Any, Dict, Optional

from repro.errors import ProtocolError, ReproError, ServeError
from repro.serve import protocol
from repro.serve.session import SessionManager

__all__ = ["ColoringServer", "ServerThread", "run_server"]

#: Bucket bounds of ``repro_serve_phase_seconds``: a batch phase takes
#: from tens of microseconds (staging) to seconds (a full rerun).
_PHASE_BUCKETS = (0.0001, 0.0005, 0.001, 0.005, 0.025, 0.1, 0.5, 1.0, 5.0, 30.0)


class ColoringServer:
    """One NDJSON coloring service over a :class:`SessionManager`."""

    def __init__(
        self,
        manager: Optional[SessionManager] = None,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        registry=None,
        publisher=None,
    ) -> None:
        self.manager = manager if manager is not None else SessionManager()
        self.host = host
        self.port = port
        self.registry = registry
        self.publisher = publisher
        self.requests_total = 0
        self._server: Optional[asyncio.base_events.Server] = None
        self._shutdown: Optional[asyncio.Event] = None
        self._conn_tasks: set = set()
        self._writers: set = set()
        if registry is not None:
            self._m_requests = registry.counter(
                "repro_serve_requests", "Requests handled", ("op",)
            )
            self._m_errors = registry.counter(
                "repro_serve_errors", "Requests answered with an error"
            )
            self._m_mutations = registry.counter(
                "repro_serve_mutations", "Graph mutations applied"
            )
            self._m_batches = registry.counter(
                "repro_serve_batches",
                "Mutation batches by recoloring path",
                ("path",),
            )
            self._m_healed = registry.counter(
                "repro_serve_violations_healed",
                "Properness violations caught post-batch and healed by fallback",
            )
            self._m_sessions = registry.gauge(
                "repro_serve_sessions", "Live sessions"
            )
            self._m_phase = registry.histogram(
                "repro_serve_phase_seconds",
                "Seconds per mutation-batch phase (stage, recolor, verify) "
                "and per save (persist)",
                ("phase",),
                buckets=_PHASE_BUCKETS,
            )

    # -- synchronous request core ---------------------------------------

    def handle_line(self, line: bytes) -> bytes:
        """One request line in, one response line out; never raises."""
        req_id = None
        try:
            request = protocol.parse_request(line)
            req_id = request.get("id")
            payload = self.handle_request(request)
            response = protocol.ok_response(req_id, **payload)
        except ReproError as exc:
            self._count_error()
            response = protocol.error_response(req_id, str(exc))
        except Exception as exc:  # noqa: BLE001 - protocol boundary
            self._count_error()
            response = protocol.error_response(
                req_id, f"internal error: {type(exc).__name__}: {exc}"
            )
        return protocol.encode(response)

    def handle_request(self, request: Dict[str, Any]) -> Dict[str, Any]:
        """Dispatch one validated request; returns the ``ok`` payload."""
        op = request["op"]
        self.requests_total += 1
        if self.registry is not None:
            self._m_requests.add(1, op=op)
        handler = getattr(self, f"_op_{op}")
        payload = handler(request)
        if self.registry is not None:
            self._m_sessions.set(len(self.manager))
        self._publish_snapshot()
        return payload

    def _count_error(self) -> None:
        if self.registry is not None:
            self._m_errors.add(1)

    def _publish_snapshot(self, *, final: bool = False) -> None:
        if self.publisher is None:
            return
        totals = self.manager.totals()
        snapshot = {
            "sessions": totals["sessions"],
            # Cumulative requests ride the messages_sent key so `repro
            # top` renders a requests/s rate without a new field.
            "messages_sent": self.requests_total,
            "mutations": totals["mutations"],
            "incremental_batches": totals["incremental_batches"],
            "fallback_batches": totals["fallback_batches"],
        }
        if final:
            self.publisher.close(snapshot)
        else:
            self.publisher.publish(snapshot)

    # -- operations ------------------------------------------------------

    @staticmethod
    def _name(request: Dict[str, Any]) -> str:
        name = request.get("name")
        if not isinstance(name, str):
            raise ProtocolError("request needs a string 'name' field")
        return name

    @staticmethod
    def _endpoint(request: Dict[str, Any], key: str) -> int:
        value = request.get(key)
        if not isinstance(value, int) or isinstance(value, bool):
            raise ProtocolError(f"request needs an integer {key!r} field")
        return value

    def _op_ping(self, request: Dict[str, Any]) -> Dict[str, Any]:
        return {
            "pong": True,
            "version": protocol.PROTOCOL_VERSION,
            "sessions": len(self.manager),
        }

    def _op_create(self, request: Dict[str, Any]) -> Dict[str, Any]:
        edges = request.get("edges")
        if edges is not None:
            if not isinstance(edges, list) or not all(
                isinstance(e, list) and len(e) == 2 for e in edges
            ):
                raise ProtocolError("'edges' must be a list of [u, v] pairs")
            edges = [(e[0], e[1]) for e in edges]
        num_nodes = request.get("num_nodes")
        if num_nodes is not None and (
            not isinstance(num_nodes, int) or isinstance(num_nodes, bool)
        ):
            raise ProtocolError("'num_nodes' must be an integer")
        session = self.manager.create(
            self._name(request),
            algorithm=request.get("algorithm", "alg1"),
            seed=request.get("seed"),
            edges=edges,
            num_nodes=num_nodes,
        )
        return {"session": session.info()}

    def _op_drop(self, request: Dict[str, Any]) -> Dict[str, Any]:
        name = self._name(request)
        self.manager.drop(name)
        return {"dropped": name}

    def _op_sessions(self, request: Dict[str, Any]) -> Dict[str, Any]:
        return {
            "sessions": [
                self.manager.get(name).info() for name in self.manager.names()
            ]
        }

    def _op_info(self, request: Dict[str, Any]) -> Dict[str, Any]:
        return {"session": self.manager.get(self._name(request)).info()}

    def _op_mutate(self, request: Dict[str, Any]) -> Dict[str, Any]:
        session = self.manager.get(self._name(request))
        mutations = protocol.parse_mutations(request.get("mutations"))
        outcome = session.apply(mutations)
        if self.registry is not None:
            self._m_mutations.add(outcome.applied)
            if outcome.fallback:
                path = "fallback"
            elif not outcome.new_edges:
                path = "removal_only"
            elif outcome.incremental:
                path = "incremental"
            else:
                path = "full"
            self._m_batches.add(1, path=path)
            if outcome.violations:
                self._m_healed.add(len(outcome.violations))
            self._m_phase.observe_labels(outcome.stage_s, phase="stage")
            self._m_phase.observe_labels(outcome.recolor_s, phase="recolor")
            self._m_phase.observe_labels(outcome.verify_s, phase="verify")
        return {"outcome": outcome.to_dict()}

    def _op_color(self, request: Dict[str, Any]) -> Dict[str, Any]:
        session = self.manager.get(self._name(request))
        u = self._endpoint(request, "u")
        v = self._endpoint(request, "v")
        if not session.graph.has_edge(u, v):
            raise ServeError(
                f"edge ({u}, {v}) is not in session {session.name!r}"
            )
        return {"u": u, "v": v, "color": session.color_of(u, v)}

    def _op_colors(self, request: Dict[str, Any]) -> Dict[str, Any]:
        session = self.manager.get(self._name(request))
        return {
            "algorithm": session.algorithm,
            "colors": [
                [u, v, c] for (u, v), c in sorted(session.colors.items())
            ],
        }

    def _op_stats(self, request: Dict[str, Any]) -> Dict[str, Any]:
        return {
            "totals": self.manager.totals(),
            "requests": self.requests_total,
        }

    def _op_save(self, request: Dict[str, Any]) -> Dict[str, Any]:
        t0 = time.perf_counter()
        written = self.manager.save()
        if self.registry is not None:
            self._m_phase.observe_labels(time.perf_counter() - t0, phase="persist")
        return {"written": written}

    def _op_shutdown(self, request: Dict[str, Any]) -> Dict[str, Any]:
        if self._shutdown is not None:
            self._shutdown.set()
        return {"stopping": True}

    # -- asyncio wiring --------------------------------------------------

    async def start(self) -> None:
        """Bind the listening socket (resolving an ephemeral port)."""
        self.manager.load()
        self._shutdown = asyncio.Event()
        # StreamReader's default limit (64 KiB) would cap a request
        # line far below the protocol's own bound.
        self._server = await asyncio.start_server(
            self._on_client, self.host, self.port,
            limit=protocol.MAX_LINE_BYTES,
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def _on_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        self._conn_tasks.add(task)
        self._writers.add(writer)
        try:
            while True:
                try:
                    line = await reader.readline()
                except ConnectionResetError:
                    break
                except ValueError:
                    # The line overran the reader's limit.  Its tail is
                    # still arriving, so answer once and hang up (close
                    # below flushes the response).
                    self._count_error()
                    overrun = protocol.error_response(
                        None, f"request line exceeds {protocol.MAX_LINE_BYTES} bytes"
                    )
                    writer.write(protocol.encode(overrun))
                    break
                if not line:
                    break
                writer.write(self.handle_line(line))
                await writer.drain()
        finally:
            self._writers.discard(writer)
            self._conn_tasks.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def serve_until_shutdown(self) -> None:
        """Serve until a ``shutdown`` request arrives, then stop cleanly."""
        if self._server is None:
            await self.start()
        assert self._shutdown is not None
        await self._shutdown.wait()
        await self.stop()

    async def stop(self) -> None:
        """Persist sessions, close the listener, publish the final snapshot.

        Open connections are closed (pending response bytes flush first
        — transports drain their buffer on ``close``) and their handler
        tasks awaited, so the loop never tears down mid-handler.
        """
        self.manager.save()
        self._publish_snapshot(final=True)
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for writer in list(self._writers):
            writer.close()
        if self._conn_tasks:
            await asyncio.gather(*self._conn_tasks, return_exceptions=True)


def run_server(
    *,
    host: str = "127.0.0.1",
    port: int = 0,
    state_dir=None,
    seed: int = 0,
    verify: bool = True,
    incremental: bool = True,
    registry=None,
    publisher=None,
    ready=None,
) -> ColoringServer:
    """Run a server until its ``shutdown`` request (blocking).

    ``ready`` is an optional callback invoked with the server once the
    port is bound — the CLI prints the address there, tests grab it.
    Returns the (stopped) server so callers can inspect final state.
    """
    manager = SessionManager(
        state_dir=state_dir,
        default_seed=seed,
        verify=verify,
        incremental=incremental,
    )
    server = ColoringServer(
        manager,
        host=host,
        port=port,
        registry=registry,
        publisher=publisher,
    )

    async def _main() -> None:
        await server.start()
        if ready is not None:
            ready(server)
        await server.serve_until_shutdown()

    try:
        asyncio.run(_main())
    except KeyboardInterrupt:
        # Ctrl-C is the other orderly exit: sessions still persist, the
        # final snapshot still goes out.
        manager.save()
        server._publish_snapshot(final=True)
    return server


class ServerThread:
    """A coloring server on a daemon thread (tests and benchmarks).

    >>> with ServerThread() as srv:                   # doctest: +SKIP
    ...     client = ServeClient(srv.host, srv.port)
    """

    def __init__(self, server: Optional[ColoringServer] = None) -> None:
        self.server = server if server is not None else ColoringServer()
        self._thread: Optional[threading.Thread] = None
        self._started = threading.Event()

    @property
    def host(self) -> str:
        return self.server.host

    @property
    def port(self) -> int:
        return self.server.port

    def __enter__(self) -> "ServerThread":
        def _run() -> None:
            async def _main() -> None:
                await self.server.start()
                self._started.set()
                await self.server.serve_until_shutdown()

            asyncio.run(_main())

        self._thread = threading.Thread(
            target=_run, name="repro-serve", daemon=True
        )
        self._thread.start()
        if not self._started.wait(timeout=30.0):
            raise RuntimeError("coloring server failed to start within 30s")
        return self

    def __exit__(self, *exc) -> None:
        try:
            from repro.serve.protocol import ServeClient

            with ServeClient(self.host, self.port, timeout=10.0) as client:
                client.request("shutdown")
        except Exception:
            pass  # server already gone; the daemon thread dies with us
        if self._thread is not None:
            self._thread.join(timeout=30.0)
