"""The synchronous (BSP) execution engine.

``SynchronousEngine`` advances every live node program through lock-step
supersteps over a fixed communication topology.  Delivery semantics:

* messages queued during superstep *s* are delivered at the start of
  superstep *s + 1* — exactly the paper's synchronous rounds;
* only one-hop communication exists: unicast to a neighbor, or broadcast
  to all neighbors;
* in strict mode (default) the model constraint "each node can
  communicate with each of its neighbors once during any communication
  round" is enforced — a second message to the same neighbor in one
  superstep raises :class:`~repro.errors.MessagingViolation`;
* messages to halted (Done) nodes are discarded, like frames sent to a
  radio that has left the protocol (counted in
  ``RunMetrics.messages_discarded_halted``);
* a fault model may additionally crash-stop nodes (see
  :class:`~repro.runtime.faults.CrashNodes`): a crashed node executes
  nothing further, its queued inbox is destroyed, and frames addressed
  to it are lost — live neighbors observe silence, which is *not* the
  same as Done.

The engine is algorithm-agnostic; round semantics (the automaton's
C/I/L/R/W/U/E states) live entirely inside the node programs.

Two delivery cores implement these semantics (see docs/performance.md):

* the **general loop** supports every feature — fault filters, tracing,
  lenient mode, crash-stop — and pays per-message dispatch for it;
* the **fast path** exploits the fault-free strict configuration: a CSR
  neighbor layout (``Graph.to_csr``), a pool of reused inbox buffers, a
  bytearray live-flag table instead of set membership, and — on
  broadcast-only supersteps — fan-out as one vectorized gather over the
  CSR ``indices`` array with per-receiver inboxes cut out as array
  slices, instead of one Python-level append per delivered copy.

The fast path is bit-identical to the general loop (same final program
states, metrics, and superstep count — pinned by the property suite) and
is selected automatically whenever ``faults`` and lenient mode are
absent and any attached tracer samples its stream (see
:mod:`repro.runtime.observe`).  Counters-only observability — automaton
telemetry and the phase profiler — never forces the general loop, so
runs stay inspectable at full speed.
"""

from __future__ import annotations

import gc
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.errors import GraphError, MessagingViolation
from repro.graphs.adjacency import Graph
from repro.runtime.faults import MessageFilter
from repro.runtime.message import BROADCAST, Message
from repro.runtime.metrics import RunMetrics
from repro.runtime.node import Context, NodeProgram
from repro.runtime.observe import AutomatonTelemetry, PhaseProfiler
from repro.runtime.rng import spawn_node_rngs
from repro.runtime.trace import EventTracer

__all__ = ["SynchronousEngine", "BatchedEngine", "RunResult", "ProgramFactory"]

#: Builds the program for one node given its id.
ProgramFactory = Callable[[int], NodeProgram]

#: Shared empty inbox handed to nodes with no pending messages (the fast
#: path materializes inboxes only for nodes that actually received).
_EMPTY_INBOX: Tuple[Message, ...] = ()

#: Below this many adjacency arcs the vectorized broadcast fan-out costs
#: more in numpy call overhead than it saves; use the scalar loop.
_VECTOR_MIN_ARCS = 2048


def _edge_count(topology) -> int:
    """Edge (or arc) count for checkpoint fingerprints.

    Both captures and thaw validation go through this, so Graph and
    DiGraph topologies fingerprint consistently.
    """
    arcs = getattr(topology, "num_arcs", None)
    return topology.num_edges if arcs is None else arcs


def _live_snapshot(superstep, live, metrics, telemetry):
    """Compact snapshot the engines feed a live-monitor publisher.

    Built only when the publisher's throttle says a write is due (see
    ``SnapshotPublisher.ready``), so the common superstep pays one
    comparison.  Everything here is a read of already-maintained state —
    no observer effect on the run.
    """
    snap = {
        "superstep": superstep,
        "live": live,
        "messages_sent": metrics.messages_sent,
        "messages_delivered": metrics.messages_delivered,
    }
    if telemetry is not None:
        snap["colored_fraction"] = telemetry.current_colored_fraction()
    return snap


@dataclass
class RunResult:
    """Outcome of one engine run.

    Attributes
    ----------
    programs:
        The per-node program objects, indexed by node id.  Algorithm
        wrappers read their final local state (colors, matches) here.
    metrics:
        Exact communication counters.
    completed:
        True if every surviving node halted before the superstep budget
        ran out (crash-stopped nodes cannot halt and do not count
        against completion — check :attr:`crashed`).
    supersteps:
        Number of supersteps executed.
    crashed:
        Node ids crash-stopped by the fault model during the run.
    """

    programs: List[NodeProgram]
    metrics: RunMetrics
    completed: bool
    supersteps: int
    crashed: FrozenSet[int] = frozenset()


class SynchronousEngine:
    """Run a set of node programs over a communication topology.

    Parameters
    ----------
    topology:
        Undirected communication graph with contiguous node ids
        ``0 .. n-1`` (use ``Graph.relabeled()`` first if needed).  For
        directed algorithms on symmetric digraphs, pass the underlying
        undirected graph — links are bidirectional radio channels.
    factory:
        Callable building the :class:`NodeProgram` for each node id.
    seed:
        Run seed; node RNG streams are derived deterministically.
    max_supersteps:
        Hard budget; the run stops (with ``completed=False``) if any
        program is still live when it is exhausted.
    strict:
        Enforce the one-message-per-neighbor-per-round model constraint.
    faults:
        Optional delivery filter (see :mod:`repro.runtime.faults`).
    tracer:
        Optional :class:`EventTracer` receiving ``ctx.trace`` events.
    telemetry:
        Optional :class:`~repro.runtime.observe.AutomatonTelemetry`
        collecting per-superstep automaton-state histograms, the state
        transition matrix and the convergence curve.  Counters-only —
        it never touches delivery, so it is fast-path compatible and
        bit-identical to a run without it.
    profiler:
        Optional :class:`~repro.runtime.observe.PhaseProfiler` timing
        the engine's per-superstep phases; the accumulated wall-clock
        seconds are folded into ``RunMetrics.phase_seconds`` at the end
        of the run.  Fast-path compatible (two timer reads per phase
        per superstep).
    fastpath:
        Allow the specialized fault-free delivery core.  It engages only
        when ``faults is None``, ``strict`` is on, and any ``tracer`` is
        sampled (``EventTracer.fastpath_compatible``); other
        configurations fall back to the general loop.  Results are
        identical either way — disable only to measure the general loop
        (``benchmarks/bench_engine_scaling.py`` does).
    monitors:
        Optional sequence of runtime invariant monitors (see
        :mod:`repro.verify.monitors`).  Each gets ``begin_run`` after
        ``on_init`` and ``after_superstep`` at the end of every
        superstep, and may raise
        :class:`~repro.verify.monitors.InvariantViolation`.  A monitored
        run always executes on the general loop (the reference delivery
        semantics — same policy as an unsampled tracer); passing no
        monitors keeps the fast path, so an unmonitored run pays
        nothing.
    checkpointer:
        Optional snapshot collector (see
        :mod:`repro.resilience.checkpoint`).  Any object with
        ``due(superstep) -> bool`` and ``capture(kind, superstep,
        state, meta)`` works; the engine calls ``capture`` with its
        full mid-run state at each due superstep *boundary* (before
        that superstep executes) and — when the superstep budget runs
        out with programs still live — once more at the stopping point,
        so no completed work is ever lost.  Compatible with every
        delivery core; capture cost is one deep copy of live state.
    resume:
        Optional checkpoint to thaw instead of booting fresh: any
        object with ``kind``, ``superstep``, ``needs_general`` and
        ``restore() -> dict`` (see
        :class:`repro.resilience.checkpoint.EngineCheckpoint`).  The
        run continues from the captured boundary — same programs, RNG
        positions, undelivered inboxes, metrics, telemetry, fault and
        monitor state — and is bit-identical to a run that was never
        interrupted.  ``factory`` and ``seed`` are ignored on resume
        (the checkpoint carries the booted state); the topology and
        ``strict`` flag must match the capturing engine.
    """

    def __init__(
        self,
        topology: Graph,
        factory: ProgramFactory,
        *,
        seed: int = 0,
        max_supersteps: int = 100_000,
        strict: bool = True,
        faults: Optional[MessageFilter] = None,
        tracer: Optional[EventTracer] = None,
        telemetry: Optional[AutomatonTelemetry] = None,
        profiler: Optional[PhaseProfiler] = None,
        fastpath: bool = True,
        monitors: Optional[Sequence] = None,
        checkpointer=None,
        resume=None,
        publisher=None,
        registry=None,
    ) -> None:
        n = topology.num_nodes
        nodes = topology.nodes()
        if sorted(nodes) != list(range(n)):
            raise GraphError(
                "engine topology requires contiguous node ids 0..n-1; "
                "call Graph.relabeled() first"
            )
        if max_supersteps < 1:
            raise GraphError(f"max_supersteps must be >= 1, got {max_supersteps}")
        self.topology = topology
        self.factory = factory
        self.seed = seed
        self.max_supersteps = max_supersteps
        self.strict = strict
        self.faults = faults
        self.tracer = tracer
        self.telemetry = telemetry
        self.profiler = profiler
        self.fastpath = fastpath
        self.monitors: Tuple = tuple(monitors) if monitors else ()
        self.checkpointer = checkpointer
        self.resume = resume
        self.publisher = publisher
        self.registry = registry
        if resume is not None and getattr(resume, "kind", None) != "pernode":
            raise GraphError(
                f"SynchronousEngine can only resume 'pernode' checkpoints, "
                f"got {getattr(resume, 'kind', None)!r}"
            )
        # One CSR pass feeds every adjacency view the engine needs: the
        # int arrays for vectorized fan-out, plain-int row lists for the
        # scalar loop, and the tuple/frozenset views of the seed layout.
        indptr, indices = topology.to_csr()
        self._indptr = indptr
        self._indices = indices
        iptr = indptr.tolist()
        ind = indices.tolist()  # Python ints: faster to iterate than int64
        self._iptr_list = iptr
        self._nbr_lists: List[List[int]] = [
            ind[iptr[u] : iptr[u + 1]] for u in range(n)
        ]
        self._neighbor_map: Dict[int, Tuple[int, ...]] = {
            u: tuple(row) for u, row in enumerate(self._nbr_lists)
        }
        # Frozen set views for O(1) membership in the strict checker.
        self._neighbor_sets: Dict[int, frozenset] = {
            u: frozenset(nbrs) for u, nbrs in self._neighbor_map.items()
        }
        self._degs = np.diff(indptr)
        self._deg_list: List[int] = self._degs.tolist()
        self._scratch_covered: Set[int] = set()

    # -- shared setup -----------------------------------------------------

    def _boot(self):
        """Instantiate programs/contexts and run ``on_init`` everywhere."""
        n = self.topology.num_nodes
        rngs = spawn_node_rngs(self.seed, n)
        programs: List[NodeProgram] = [self.factory(u) for u in range(n)]
        contexts: List[Context] = [
            Context(u, self._neighbor_map[u], rngs[u], self.tracer) for u in range(n)
        ]
        for u in range(n):
            contexts[u]._begin_superstep(-1)
            programs[u].on_init(contexts[u])
        live = [u for u in range(n) if not programs[u].halted]
        return programs, contexts, live

    def _checkpoint_meta(self) -> Dict[str, object]:
        """Fingerprint stored with captures and validated on resume."""
        return {
            "nodes": self.topology.num_nodes,
            "edges": _edge_count(self.topology),
            "strict": self.strict,
            "seed": self.seed,
        }

    def _pernode_state(self, programs, contexts, inboxes, live, crashed, metrics):
        """The loop state a checkpoint must capture (both per-node cores)."""
        return {
            "programs": programs,
            "contexts": contexts,
            "inboxes": inboxes,
            "live": live,
            "crashed": crashed,
            "metrics": metrics,
            "telemetry": self.telemetry,
            "monitors": self.monitors,
            "faults": self.faults,
        }

    def _thaw(self):
        """Reconstruct mid-run state from ``self.resume``.

        Restores the stateful collaborators (faults, monitors,
        telemetry) onto the engine so both cores and the caller see the
        checkpointed objects, and reattaches this engine's tracer to
        the restored contexts (tracers hold live file handles, so they
        are stripped at capture time).
        """
        meta = getattr(self.resume, "meta", None)
        if meta:
            expected = self._checkpoint_meta()
            for key in ("nodes", "edges", "strict"):
                if key in meta and meta[key] != expected[key]:
                    raise GraphError(
                        f"checkpoint was captured with {key}={meta[key]!r}, "
                        f"this engine has {key}={expected[key]!r}"
                    )
        state = self.resume.restore()
        programs = state["programs"]
        contexts = state["contexts"]
        for ctx in contexts:
            ctx._tracer = self.tracer
        self.faults = state["faults"]
        self.monitors = tuple(state["monitors"])
        # Telemetry continuity belongs to the checkpoint: the restored
        # collector carries the curves up to the capture point (None if
        # the captured run collected nothing).
        self.telemetry = state["telemetry"]
        return (
            programs,
            contexts,
            state["inboxes"],
            list(state["live"]),
            set(state["crashed"]),
            state["metrics"],
            int(self.resume.superstep),
        )

    def _fastpath_engaged(self) -> bool:
        """Whether :meth:`run` will select the fast delivery core.

        Telemetry and the profiler never block it (they are read-only
        over program state and superstep boundaries); a tracer blocks it
        unless it samples (``EventTracer.fastpath_compatible``); any
        invariant monitor forces the general loop (the reference
        delivery semantics are what the monitors audit).
        """
        if self.monitors:
            return False
        if not (self.fastpath and self.strict and self.faults is None):
            return False
        if self.resume is not None and getattr(self.resume, "needs_general", False):
            # The checkpoint carries fault or monitor state the fast
            # path cannot honor; thaw on the general loop.
            return False
        tracer = self.tracer
        return tracer is None or getattr(tracer, "fastpath_compatible", False)

    def run(self) -> RunResult:
        """Execute until every program halts or the budget is exhausted."""
        if self._fastpath_engaged():
            # The fast path's per-superstep garbage (inbox slices,
            # messages, payloads) is acyclic, so refcounting frees all
            # of it promptly and the cyclic collector only adds gen-2
            # sweeps over the large long-lived adjacency structures.
            # Pause it for the duration of the run (restoring the
            # caller's setting) — worth ~25% on delivery-bound runs.
            gc_was_enabled = gc.isenabled()
            if gc_was_enabled:
                gc.disable()
            try:
                result = self._run_fast()
            finally:
                if gc_was_enabled:
                    gc.enable()
        else:
            result = self._run_general()
        self._fold_registry(result)
        return result

    def _fold_registry(self, result: "RunResult") -> None:
        """Fold the finished run's counters into an attached registry.

        Runs resumed from a checkpoint carry their accumulated metrics
        forward, so a resumed leg folds the cumulative totals — exactly
        what a dashboard watching the registry expects to keep counting
        from.
        """
        if self.registry is None:
            return
        from repro.obs.registry import observe_run_metrics

        observe_run_metrics(
            self.registry,
            result.metrics,
            {"engine": getattr(self, "_CHECKPOINT_KIND", "pernode")},
        )

    # -- fast path --------------------------------------------------------

    def _run_fast(self) -> RunResult:
        """Fault-free strict-mode delivery core.

        Invariants exploited (vs. the general loop):

        * no fault filter — no per-copy verdict dispatch, no crashes, no
          inbox reordering;
        * strict mode — a broadcasting node sends exactly one message,
          so a broadcast-only superstep delivers each arc at most once
          and fan-out can be computed as a CSR gather;
        * no tracer — contexts skip event plumbing.

        Delivery runs in one of three tiers, chosen per superstep:

        * **dense vector** — every node broadcast and nobody has halted:
          per-receiver inboxes are slices of one object-array gather
          over CSR ``indices`` with ``indptr`` itself as the offsets (no
          masking, no cumsum);
        * **sparse vector** — broadcast-only superstep whose estimated
          copy count is a large fraction of the arcs: boolean compress
          over the arc array, then slice fan-out;
        * **scalar** — everything else: per-copy appends into pooled
          inbox buffers, liveness read off a bytearray flag table.

        Bit-identical to :meth:`_run_general` in this configuration:
        same stepping order, same inbox ordering (ascending sender id —
        CSR rows are sorted), same counters.
        """
        n = self.topology.num_nodes
        resumed = self.resume is not None
        restored_inboxes: List[List[Message]] = []
        if resumed:
            (
                programs,
                contexts,
                restored_inboxes,
                live,
                _crashed,
                metrics,
                start_superstep,
            ) = self._thaw()
        else:
            programs, contexts, live = self._boot()
            # The general loop discards anything sent from ``on_init``
            # when it installs a fresh outbox at superstep 0; mirror
            # that here since this loop clears outboxes at delivery
            # time instead.
            for ctx in contexts:
                if ctx._outbox:
                    ctx._outbox.clear()
            metrics = RunMetrics()
            start_superstep = 0
        telemetry = self.telemetry
        prof = self.profiler
        # Span-aware profilers (repro.obs.spans.SpanProfiler) expose a
        # begin_superstep hook; look it up once so a plain PhaseProfiler
        # adds zero per-superstep work.
        span_begin = getattr(prof, "begin_superstep", None)
        pub = self.publisher
        if telemetry is not None and not resumed:
            telemetry.begin_run(programs)

        live_flags = bytearray(n)  # O(1) liveness, no set hashing
        for u in live:
            live_flags[u] = 1
        live_np = np.zeros(n, dtype=bool)
        live_np[live] = True
        num_halted = n - len(live)

        indices = self._indices
        indptr = self._indptr
        degs = self._degs
        deg_list = self._deg_list
        iptr_list = self._iptr_list
        nbr_lists = self._nbr_lists
        neighbor_sets = self._neighbor_sets
        total_arcs = iptr_list[-1] if iptr_list else 0
        use_vector = total_arcs >= _VECTOR_MIN_ARCS
        # row_ids[k] = receiving row of arc k, for masking halted
        # receivers with one gather instead of an np.repeat per step.
        row_ids = (
            np.repeat(np.arange(n, dtype=np.int64), degs) if use_vector else None
        )
        # Reused per-superstep numpy scratch (senders, payload sizes).
        sent_np = np.zeros(n, dtype=bool)
        sizes_np = np.zeros(n, dtype=np.int64)
        out_objs = np.empty(n, dtype=object)

        # inbox_store[u] is u's pending inbox (None = empty).  Consumed
        # buffers are cleared and recycled through ``pool`` so steady
        # state allocates no new per-node lists.
        inbox_store: List[Optional[List[Message]]] = [None] * n
        for u, box in enumerate(restored_inboxes):
            if box:
                inbox_store[u] = box
        pool_cap = min(n, 4096)
        pool: List[List[Message]] = [[] for _ in range(min(n, 1024))]
        pool_append = pool.append
        pool_pop = pool.pop

        check_model = self._check_model
        checkpointer = self.checkpointer
        superstep = start_superstep

        while live and superstep < self.max_supersteps:
            if checkpointer is not None and checkpointer.due(superstep):
                checkpointer.capture(
                    "pernode",
                    superstep,
                    self._pernode_state(
                        programs,
                        contexts,
                        [box or [] for box in inbox_store],
                        live,
                        set(),
                        metrics,
                    ),
                    self._checkpoint_meta(),
                )
            metrics.begin_superstep(len(live))
            if span_begin is not None:
                span_begin(superstep)
            if pub is not None and pub.ready():
                pub.publish(_live_snapshot(superstep, len(live), metrics, telemetry))
            if prof is not None:
                _t0 = perf_counter()

            # Stepping loop.  The strict single-message model check is
            # inlined: a lone broadcast is always legal, a lone unicast
            # needs only an adjacency test; multi-message outboxes take
            # the full checker.  ``est`` accumulates the prospective
            # copy count of a broadcast-only superstep to pick the
            # delivery tier below.
            out_senders: List[int] = []
            out_boxes: List[List[Message]] = []
            halted_now: List[int] = []
            all_broadcast = True
            est = 0
            for u in live:
                ctx = contexts[u]
                ctx._superstep = superstep
                prog = programs[u]
                pending = inbox_store[u]
                if pending is None:
                    prog.on_superstep(ctx, _EMPTY_INBOX)
                else:
                    inbox_store[u] = None
                    prog.on_superstep(ctx, pending)
                    if len(pool) < pool_cap:
                        pending.clear()
                        pool_append(pending)
                out = ctx._outbox
                if out:
                    if len(out) == 1:
                        dest = out[0].dest
                        if dest != BROADCAST:
                            all_broadcast = False
                            if dest not in neighbor_sets[u]:
                                raise MessagingViolation(
                                    f"node {u} addressed non-neighbor {dest}"
                                )
                        else:
                            est += deg_list[u]
                    else:
                        all_broadcast = False
                        check_model(u, out)
                    out_senders.append(u)
                    out_boxes.append(out)
                if prog.halted:
                    halted_now.append(u)

            if prof is not None:
                # The model check is inlined above, so its cost lands in
                # "compute" here (the general loop meters it separately).
                prof.add("compute", perf_counter() - _t0)
            if telemetry is not None:
                telemetry.after_superstep(superstep, programs, live)

            if halted_now:
                for u in halted_now:
                    live_flags[u] = 0
                    live_np[u] = False
                num_halted += len(halted_now)
                live = [u for u in live if live_flags[u]]

            nsend = len(out_senders)
            if not nsend:
                superstep += 1
                continue

            if prof is not None:
                _t0 = perf_counter()
            if (
                use_vector
                and all_broadcast
                and num_halted == 0
                and nsend == n
            ):
                # Dense tier: every arc carries exactly one copy, so the
                # compact delivery array is a single object gather over
                # ``indices`` and the per-receiver offsets are ``indptr``
                # verbatim — no sent mask, no compress, no cumsum.
                for i in range(nsend):
                    out = out_boxes[i]
                    msg = out[0]
                    out.clear()
                    out_objs[out_senders[i]] = msg
                    sizes_np[out_senders[i]] = msg.size()
                metrics.messages_sent += nsend
                metrics.messages_delivered += total_arcs
                metrics.words_delivered += int((sizes_np * degs).sum())
                compact = out_objs[indices].tolist()
                for r in live:
                    o0 = iptr_list[r]
                    o1 = iptr_list[r + 1]
                    if o0 != o1:
                        inbox_store[r] = compact[o0:o1]
            elif use_vector and all_broadcast and 5 * est >= 2 * total_arcs:
                # Sparse vector tier: one gather over the CSR arc array,
                # one boolean compress, then per-receiver inboxes cut
                # out as list slices.  Per delivered copy the
                # Python-level work is a C-speed pointer copy.
                for i in range(nsend):
                    u = out_senders[i]
                    out = out_boxes[i]
                    msg = out[0]
                    out.clear()
                    out_objs[u] = msg
                    sent_np[u] = True
                    sizes_np[u] = msg.size()
                arc_deliver = sent_np[indices]
                if num_halted:
                    # Mask arcs whose receiving row is halted and count
                    # per-sender live audiences for the word meter.
                    arc_deliver &= live_np[row_ids]
                    live_cs = np.concatenate(
                        ([0], np.cumsum(live_np[indices]))
                    )
                    audience = live_cs[indptr[1:]] - live_cs[indptr[:-1]]
                    metrics.messages_discarded_halted += int(
                        ((degs - audience) * sent_np).sum()
                    )
                else:
                    audience = degs
                delivered_np = np.where(sent_np, audience, 0)
                metrics.messages_sent += nsend
                metrics.messages_delivered += int(delivered_np.sum())
                metrics.words_delivered += int((sizes_np * delivered_np).sum())
                cs = np.concatenate(([0], np.cumsum(arc_deliver)))
                off = cs[indptr].tolist()
                compact = out_objs[indices[arc_deliver]].tolist()
                for r in live:
                    o0 = off[r]
                    o1 = off[r + 1]
                    if o0 != o1:
                        inbox_store[r] = compact[o0:o1]
                sent_np[:] = False
            else:
                # Scalar tier for mixed unicast/broadcast supersteps,
                # low-traffic rounds and small graphs: per-copy appends
                # into pooled inbox buffers.
                sent = delivered = words = discarded = 0
                for i in range(nsend):
                    sender = out_senders[i]
                    msgs = out_boxes[i]
                    for msg in msgs:
                        sent += 1
                        size = msg.size()
                        dest = msg.dest
                        if dest == BROADCAST:
                            for r in nbr_lists[sender]:
                                if live_flags[r]:
                                    box = inbox_store[r]
                                    if box is None:
                                        box = pool_pop() if pool else []
                                        inbox_store[r] = box
                                    box.append(msg)
                                    delivered += 1
                                    words += size
                                else:
                                    discarded += 1
                        elif live_flags[dest]:
                            box = inbox_store[dest]
                            if box is None:
                                box = pool_pop() if pool else []
                                inbox_store[dest] = box
                            box.append(msg)
                            delivered += 1
                            words += size
                        else:
                            discarded += 1
                    msgs.clear()
                metrics.messages_sent += sent
                metrics.messages_delivered += delivered
                metrics.words_delivered += words
                metrics.messages_discarded_halted += discarded

            if prof is not None:
                prof.add("delivery", perf_counter() - _t0)
            superstep += 1

        if checkpointer is not None and live:
            # Budget exhausted mid-run: capture the stopping point so a
            # supervisor can extend the budget without losing work.
            checkpointer.capture(
                "pernode",
                superstep,
                self._pernode_state(
                    programs,
                    contexts,
                    [box or [] for box in inbox_store],
                    live,
                    set(),
                    metrics,
                ),
                self._checkpoint_meta(),
            )
        if prof is not None:
            metrics.phase_seconds.update(prof.as_dict())
        return RunResult(
            programs=programs,
            metrics=metrics,
            completed=not live,
            supersteps=superstep,
        )

    # -- general loop ------------------------------------------------------

    def _run_general(self) -> RunResult:
        """Reference delivery loop: faults, tracing, lenient mode."""
        n = self.topology.num_nodes
        resumed = self.resume is not None
        if resumed:
            (
                programs,
                contexts,
                inboxes,
                live,
                crashed,
                metrics,
                superstep,
            ) = self._thaw()
        else:
            programs, contexts, live = self._boot()
            inboxes = [[] for _ in range(n)]
            metrics = RunMetrics()
            superstep = 0
            crashed = set()
        telemetry = self.telemetry
        prof = self.profiler
        span_begin = getattr(prof, "begin_superstep", None)
        pub = self.publisher
        monitors = self.monitors
        if not resumed:
            if telemetry is not None:
                telemetry.begin_run(programs)
            for monitor in monitors:
                monitor.begin_run(self.topology, programs)

        checkpointer = self.checkpointer
        crashes_at = getattr(self.faults, "crashes_at", None)
        reorder_inbox = getattr(self.faults, "reorder_inbox", None)

        while live and superstep < self.max_supersteps:
            if checkpointer is not None and checkpointer.due(superstep):
                checkpointer.capture(
                    "pernode",
                    superstep,
                    self._pernode_state(
                        programs, contexts, inboxes, live, crashed, metrics
                    ),
                    self._checkpoint_meta(),
                )
            if crashes_at is not None:
                if prof is not None:
                    _t0 = perf_counter()
                newly_crashed = crashes_at(superstep)
                if newly_crashed:
                    for u in newly_crashed:
                        if 0 <= u < n and u not in crashed:
                            crashed.add(u)
                            inboxes[u] = []  # queued frames die with the node
                    live = [u for u in live if u not in crashed]
                if prof is not None:
                    prof.add("faults", perf_counter() - _t0)
                if not live:
                    break
            metrics.begin_superstep(len(live))
            if span_begin is not None:
                span_begin(superstep)
            if pub is not None and pub.ready():
                pub.publish(_live_snapshot(superstep, len(live), metrics, telemetry))
            stepped = live  # the list object survives the halt filtering
            if prof is not None:
                _t0 = perf_counter()
                _check_s = 0.0
            outbound: List[Tuple[int, List[Message]]] = []
            for u in live:
                ctx = contexts[u]
                ctx._begin_superstep(superstep)
                inbox = inboxes[u]
                inboxes[u] = []
                programs[u].on_superstep(ctx, inbox)
                out = ctx._drain_outbox()
                if out:
                    if self.strict:
                        if prof is None:
                            self._check_model(u, out)
                        else:
                            _t1 = perf_counter()
                            self._check_model(u, out)
                            _check_s += perf_counter() - _t1
                    outbound.append((u, out))
            if prof is not None:
                # Disjoint phases: "compute" excludes the model check.
                prof.add("compute", perf_counter() - _t0 - _check_s)
                if self.strict:
                    prof.add("model_check", _check_s)
            if telemetry is not None:
                telemetry.after_superstep(superstep, programs, live)

            halted_now = {u for u in live if programs[u].halted}
            live = [u for u in live if u not in halted_now]
            live_set = set(live)

            # Hot loop: local counters instead of per-copy method calls,
            # attribute lookups hoisted (profiled; see docs/performance.md).
            if prof is not None:
                _t0 = perf_counter()
            neighbor_map = self._neighbor_map
            faults = self.faults
            sent = delivered = dropped = words = 0
            discarded_halted = lost_crash = duplicated = 0
            for sender, msgs in outbound:
                for msg in msgs:
                    sent += 1
                    if msg.is_broadcast:
                        receivers: Sequence[int] = neighbor_map[sender]
                    else:
                        receivers = (msg.dest,)
                    size = msg.size()
                    for r in receivers:
                        if r not in live_set:
                            if r in crashed:
                                lost_crash += 1  # receiver crash-stopped
                            else:
                                discarded_halted += 1  # receiver is Done
                            continue
                        if faults is not None:
                            verdict = faults(superstep, msg, r)
                            if not verdict:
                                dropped += 1
                                continue
                            if verdict is not True and verdict > 1:
                                # Duplication fault: k copies land this round.
                                copies = int(verdict)
                                inboxes[r].extend([msg] * copies)
                                duplicated += copies - 1
                                delivered += copies
                                words += size * copies
                                continue
                        inboxes[r].append(msg)
                        delivered += 1
                        words += size
            metrics.messages_sent += sent
            metrics.messages_delivered += delivered
            metrics.messages_dropped += dropped
            metrics.words_delivered += words
            metrics.messages_discarded_halted += discarded_halted
            metrics.messages_lost_to_crash += lost_crash
            metrics.messages_duplicated += duplicated
            if prof is not None:
                # Per-copy fault verdicts are delivery-side work; only
                # crash processing and inbox reordering land in "faults".
                prof.add("delivery", perf_counter() - _t0)

            if reorder_inbox is not None:
                if prof is not None:
                    _t0 = perf_counter()
                for r in live:
                    if len(inboxes[r]) > 1:
                        reorder_inbox(superstep, r, inboxes[r])
                if prof is not None:
                    prof.add("faults", perf_counter() - _t0)

            # End-of-superstep: monitors see the post-delivery world the
            # next superstep will start from.
            for monitor in monitors:
                monitor.after_superstep(
                    superstep, programs, stepped, metrics, outbound
                )

            superstep += 1

        if checkpointer is not None and live:
            # Budget exhausted mid-run: capture the stopping point so a
            # supervisor can extend the budget without losing work.
            checkpointer.capture(
                "pernode",
                superstep,
                self._pernode_state(
                    programs, contexts, inboxes, live, crashed, metrics
                ),
                self._checkpoint_meta(),
            )
        if prof is not None:
            metrics.phase_seconds.update(prof.as_dict())
        return RunResult(
            programs=programs,
            metrics=metrics,
            completed=not live,
            supersteps=superstep,
            crashed=frozenset(crashed),
        )

    def _check_model(self, sender: int, outbox: List[Message]) -> None:
        """Enforce one message per neighbor per superstep, neighbors only."""
        neighbor_set = self._neighbor_sets[sender]
        if len(outbox) == 1:
            # Fast path (the automaton programs send at most one message
            # per superstep): a lone broadcast covers each neighbor once
            # by construction; a lone unicast only needs adjacency.
            msg = outbox[0]
            if msg.dest != BROADCAST and msg.dest not in neighbor_set:
                raise MessagingViolation(
                    f"node {sender} addressed non-neighbor {msg.dest}"
                )
            return
        for msg in outbox:
            if msg.dest == BROADCAST:
                break
        else:
            # All-unicast fast path: set compression detects duplicate
            # targets (fewer distinct dests than messages) and a subset
            # test validates adjacency, with no per-message coverage
            # bookkeeping.  On violation fall through to the exact loop
            # so the reported offender matches the reference semantics.
            dests = {m.dest for m in outbox}
            if len(dests) == len(outbox) and dests <= neighbor_set:
                return
        covered = self._scratch_covered  # reused scratch, cleared per call
        covered.clear()
        for msg in outbox:
            if msg.dest == BROADCAST:
                targets: Sequence[int] = self._neighbor_map[sender]
            else:
                if msg.dest not in neighbor_set:
                    raise MessagingViolation(
                        f"node {sender} addressed non-neighbor {msg.dest}"
                    )
                targets = (msg.dest,)
            for t in targets:
                if t in covered:
                    raise MessagingViolation(
                        f"node {sender} sent more than one message to {t} "
                        "in a single communication round"
                    )
                covered.add(t)


class BatchedEngine:
    """Lockstep executor for a whole-population compute kernel.

    Where :class:`SynchronousEngine` steps per-node programs and routes
    per-message objects, this engine drives one fused *kernel* (see
    :mod:`repro.core.vectorized`) that executes a whole round for the
    entire live population at once over structure-of-arrays state.  The
    engine owns everything algorithm-agnostic: the round loop, the
    metrics counters, telemetry recording, phase profiling, checkpoint
    capture, GC pausing and the superstep budget.

    Delivery is *metered, not performed*: the automaton's messages are
    local broadcasts consumed inside the same kernel state, so per
    superstep the kernel only reports how many nodes sent (at most one
    broadcast per node — the strict model), the copies delivered to and
    discarded at halted neighbors, and the uniform word size of that
    phase's payload.

    Bit-identity with ``SynchronousEngine`` on an eligible configuration
    — same metrics dict, same superstep count, same telemetry dump —
    is pinned by the property suite.  ``RunResult.programs`` is empty:
    results live on the kernel (``assignments``/``arc_assignments``).
    """

    #: Checkpoint kind this engine captures and resumes (subclasses —
    #: the sharded engine — stamp their own).
    _CHECKPOINT_KIND = "batched"

    def __init__(
        self,
        topology: Graph,
        kernel,
        *,
        seed: int = 0,
        max_supersteps: int = 100_000,
        telemetry: Optional[AutomatonTelemetry] = None,
        profiler: Optional[PhaseProfiler] = None,
        checkpointer=None,
        resume=None,
        publisher=None,
        registry=None,
    ) -> None:
        n = topology.num_nodes
        if sorted(topology.nodes()) != list(range(n)):
            raise GraphError(
                "engine topology requires contiguous node ids 0..n-1; "
                "call Graph.relabeled() first"
            )
        if max_supersteps < 1:
            raise GraphError(f"max_supersteps must be >= 1, got {max_supersteps}")
        self.topology = topology
        self.kernel = kernel
        self.seed = seed
        self.max_supersteps = max_supersteps
        self.telemetry = telemetry
        self.profiler = profiler
        self.checkpointer = checkpointer
        self.resume = resume
        self.publisher = publisher
        self.registry = registry
        kind = self._CHECKPOINT_KIND
        if resume is not None and getattr(resume, "kind", None) != kind:
            raise GraphError(
                f"{type(self).__name__} can only resume {kind!r} checkpoints, "
                f"got {getattr(resume, 'kind', None)!r}"
            )
        self._indptr, self._indices = topology.to_csr()

    def run(self) -> RunResult:
        """Execute until the kernel halts every node or the budget ends."""
        # Same rationale as the fast path: per-superstep garbage is
        # acyclic, so pause the cyclic collector for the run.
        gc_was_enabled = gc.isenabled()
        if gc_was_enabled:
            gc.disable()
        try:
            result = self._run()
        finally:
            if gc_was_enabled:
                gc.enable()
        # Same contract as SynchronousEngine: an attached registry gets
        # the finished (possibly resumed) run's counters folded in.
        SynchronousEngine._fold_registry(self, result)
        return result

    def _run(self) -> RunResult:
        resumed = self.resume is not None
        state = self.resume.restore() if resumed else None
        # A restored kernel replaces the constructor's: callers read
        # results (assignments, arc_assignments) off ``engine.kernel``
        # after the run.
        kernel = state["kernel"] if resumed else self.kernel
        return self._run_fused(kernel, state)

    def _bind_fused_kernel(self, kernel) -> None:
        """Bind a fresh fused kernel to this engine's topology (the
        sharded engine binds shard files instead of resident CSR)."""
        kernel.bind_graph(self._indptr, self._indices, self.seed)

    def _finalize_fused_metrics(self, kernel, metrics) -> None:
        """Post-run hook for engine-specific metrics (no-op here; the
        sharded engine folds its cross-shard cost counters in)."""

    def _fused_checkpoint_state(self, kernel, metrics) -> dict:
        """Checkpoint payload (``kind == "batched"``).  The live list
        keeps the format-1 payload shape; on resume the kernel's own
        arrays are authoritative.
        """
        return {
            "kernel": kernel,
            "live": kernel.live_ids(),
            "metrics": metrics,
            "telemetry": self.telemetry,
        }

    def _checkpoint_meta_batched(self) -> dict:
        return {
            "nodes": self.topology.num_nodes,
            "edges": _edge_count(self.topology),
            "strict": True,
            "seed": self.seed,
        }

    def _run_fused(self, kernel, state) -> RunResult:
        """Drive a fused kernel: whole rounds per call, per-phase records.

        The kernel owns live/audience bookkeeping internally (it needs
        them on the hot path anyway); the engine keeps what it alone is
        responsible for — metrics counters, telemetry recording,
        checkpoint capture and the superstep budget.  Each record a
        round hands back is booked as one superstep, exactly as the
        per-node loop books it.
        """
        resumed = state is not None
        if resumed:
            self.kernel = kernel
            metrics = state["metrics"]
            self.telemetry = state["telemetry"]
            superstep = int(self.resume.superstep)
        else:
            self._bind_fused_kernel(kernel)
            metrics = RunMetrics()
            superstep = 0

        telemetry = self.telemetry
        prof = self.profiler
        span_begin = getattr(prof, "begin_superstep", None)
        pub = self.publisher
        collect = telemetry is not None
        if collect and not resumed:
            telemetry.begin_batch(0, kernel.work_total)

        checkpointer = self.checkpointer
        max_supersteps = self.max_supersteps
        live_count = kernel.live_count
        while live_count and superstep < max_supersteps:
            # Up to one full round, clipped by the budget (and, on the
            # first iteration after a mid-round resume, by the round
            # boundary).
            phases = min(4 - (superstep & 3), max_supersteps - superstep)
            if checkpointer is not None and any(
                checkpointer.due(superstep + d) for d in range(phases)
            ):
                # Captures land on the round boundary covering the due
                # superstep: the kernel state between phases is exactly
                # the state at that superstep, so the label is faithful.
                checkpointer.capture(
                    self._CHECKPOINT_KIND,
                    superstep,
                    self._fused_checkpoint_state(kernel, metrics),
                    self._checkpoint_meta_batched(),
                )
            if span_begin is not None:
                # The fused kernel executes the whole round in one call,
                # so the round's phases share one superstep span whose
                # compute leaf covers all of them — faithful to what is
                # actually measured.
                span_begin(superstep)
            if pub is not None and pub.ready():
                pub.publish(
                    _live_snapshot(superstep, live_count, metrics, telemetry)
                )
            if prof is not None:
                _t0 = perf_counter()
            records = kernel.step_round(superstep, collect, phases)
            if prof is not None:
                prof.add("compute", perf_counter() - _t0)
            for (
                stepped,
                senders,
                delivered,
                discarded,
                words_each,
                hist,
                trans,
                done,
            ) in records:
                metrics.begin_superstep(stepped)
                if collect:
                    telemetry.record_batch_superstep(hist, trans, done)
                if senders:
                    metrics.messages_sent += senders
                    metrics.messages_delivered += delivered
                    metrics.words_delivered += delivered * words_each
                    metrics.messages_discarded_halted += discarded
                superstep += 1
            live_count = kernel.live_count

        if checkpointer is not None and live_count:
            # Budget exhausted mid-run: capture the stopping point.
            checkpointer.capture(
                self._CHECKPOINT_KIND,
                superstep,
                self._fused_checkpoint_state(kernel, metrics),
                self._checkpoint_meta_batched(),
            )
        if prof is not None:
            metrics.phase_seconds.update(prof.as_dict())
        self._finalize_fused_metrics(kernel, metrics)
        return RunResult(
            programs=[],
            metrics=metrics,
            completed=not live_count,
            supersteps=superstep,
        )
