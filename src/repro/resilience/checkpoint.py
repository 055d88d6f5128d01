"""Checkpoint/restart for engine runs.

A checkpoint is a versioned deep snapshot of everything a delivery core
needs to continue a run from a superstep *boundary*: the per-node
program objects, their contexts (RNG stream positions included — the
snapshot captures the exact ``random.Random`` state, not the seed),
undelivered inboxes, the live/crashed sets, the accumulated
:class:`~repro.runtime.metrics.RunMetrics`, the telemetry collector, and
the stateful fault-model and monitor objects.  Restoring one into a
fresh engine resumes mid-run and is **bit-identical** to a run that was
never interrupted — same coloring, same round count, same metrics dict —
pinned by ``tests/property/test_checkpoint_restart.py`` across the
general, fast-path and batched delivery cores.

Wiring (see ``SynchronousEngine``/``BatchedEngine`` docs):

>>> store = CheckpointStore(keep=3)
>>> engine = SynchronousEngine(g, factory, seed=7,
...                            checkpointer=Checkpointer(8, store))
>>> result = engine.run()                       # snapshots every 8 steps
>>> # ... process dies; later:
>>> result = resume_engine(store.latest(), g).run()   # doctest: +SKIP

Engines also capture once at budget exhaustion (programs still live),
so a supervisor extending the budget slice-by-slice never loses work.

Snapshots are process-internal objects; :meth:`EngineCheckpoint.save`
persists one to disk with :mod:`pickle` behind a small versioned header,
and :func:`load_checkpoint` refuses files newer than this checkout
understands.  Event tracers are *not* captured (they hold live file
handles); the resuming engine's own tracer is reattached on thaw.
"""

from __future__ import annotations

import copy
import hashlib
import pickle
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional

from repro.errors import ConfigurationError
from repro.graphs.adjacency import Graph
from repro.runtime.engine import BatchedEngine, SynchronousEngine

__all__ = [
    "CHECKPOINT_FORMAT",
    "EngineCheckpoint",
    "CheckpointStore",
    "Checkpointer",
    "load_checkpoint",
    "resume_engine",
]

#: On-disk / in-memory checkpoint format version (bump on incompatible
#: change; loaders refuse newer versions).
CHECKPOINT_FORMAT = 1

#: Engine kinds a checkpoint can come from.  The two per-node delivery
#: cores share one schema ("pernode") — they are bit-identical, so a
#: snapshot captured on the fast path may thaw on the general loop and
#: vice versa.  The kernels on BatchedEngine have their own
#: ("batched"), and the sharded tier its own ("sharded") — its payload
#: holds a *frozen* plain-array kernel state (memmaps cannot ride in a
#: deepcopy), thawed against a shard directory on resume.
_KINDS = ("pernode", "batched", "sharded")


@dataclass
class EngineCheckpoint:
    """One restorable snapshot of a run at a superstep boundary.

    ``payload`` is the deep-copied engine state dict (schema per
    ``kind``); :meth:`restore` hands out a fresh deep copy each time, so
    one checkpoint can seed any number of resumed runs and a resumed
    engine can never corrupt the stored state.
    """

    kind: str
    superstep: int
    #: True when the captured run carried fault or monitor state — the
    #: resuming engine must then use the general delivery loop.
    needs_general: bool
    #: Capture-side fingerprint (nodes, edges, strict, seed); validated
    #: against the resuming engine's topology on thaw.
    meta: Dict[str, Any]
    payload: Dict[str, Any]
    format: int = CHECKPOINT_FORMAT

    def restore(self) -> Dict[str, Any]:
        """A fresh deep copy of the captured state (engine-facing)."""
        return copy.deepcopy(self.payload)

    def digest(self) -> str:
        """Content digest of the captured state (hex, 16 bytes).

        Two checkpoints of the same run at the same superstep digest
        equal; useful as a cheap state fingerprint in reports.  Stable
        within a platform (pickle byte stream).
        """
        blob = pickle.dumps(
            (self.kind, self.superstep, self.payload), protocol=4
        )
        return hashlib.blake2b(blob, digest_size=16).hexdigest()

    def save(self, path) -> Path:
        """Persist to ``path`` (pickle behind a versioned header)."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "wb") as fh:
            pickle.dump(
                {
                    "format": self.format,
                    "kind": self.kind,
                    "superstep": self.superstep,
                    "needs_general": self.needs_general,
                    "meta": self.meta,
                    "payload": self.payload,
                },
                fh,
                protocol=4,
            )
        return path


class _CheckpointUnpickler(pickle.Unpickler):
    """Unpickler that names the file and class a payload can no longer
    find (a checkpoint of a kernel this checkout has removed)."""

    def __init__(self, fh, path: Path) -> None:
        super().__init__(fh)
        self._path = path

    def find_class(self, module: str, name: str):
        try:
            return super().find_class(module, name)
        except (AttributeError, ImportError) as exc:
            raise ConfigurationError(
                f"checkpoint {self._path} pickles {module}.{name}, which "
                "this checkout does not have; rerun from the start"
            ) from exc


def load_checkpoint(path) -> EngineCheckpoint:
    """Load a checkpoint written by :meth:`EngineCheckpoint.save`.

    Raises :class:`~repro.errors.ConfigurationError` for a format newer
    than this checkout, or a payload that pickles a class it no longer
    has.
    """
    path = Path(path)
    with open(path, "rb") as fh:
        data = _CheckpointUnpickler(fh, path).load()
    fmt = data.get("format", 1)
    if fmt > CHECKPOINT_FORMAT:
        raise ConfigurationError(
            f"checkpoint format {fmt} is newer than this checkout "
            f"understands ({CHECKPOINT_FORMAT})"
        )
    return EngineCheckpoint(
        kind=data["kind"],
        superstep=data["superstep"],
        needs_general=data["needs_general"],
        meta=data["meta"],
        payload=data["payload"],
        format=fmt,
    )


class CheckpointStore:
    """Bounded in-memory ring of checkpoints, optionally disk-backed.

    Keeps the ``keep`` most recent snapshots (older ones are evicted —
    a restart wants the *latest* consistent state, plus a margin in case
    the latest file is torn).  With ``directory`` set, every push also
    persists to ``checkpoint-<superstep>.ckpt`` there.
    """

    def __init__(self, keep: int = 2, directory=None) -> None:
        if keep < 1:
            raise ConfigurationError(f"keep must be >= 1, got {keep}")
        self.keep = keep
        self.directory = Path(directory) if directory is not None else None
        self._ring: List[EngineCheckpoint] = []

    def push(self, checkpoint: EngineCheckpoint) -> None:
        self._ring.append(checkpoint)
        if len(self._ring) > self.keep:
            del self._ring[0]
        if self.directory is not None:
            checkpoint.save(
                self.directory / f"checkpoint-{checkpoint.superstep:08d}.ckpt"
            )

    def latest(self) -> Optional[EngineCheckpoint]:
        return self._ring[-1] if self._ring else None

    @property
    def checkpoints(self) -> List[EngineCheckpoint]:
        """The retained snapshots, oldest first."""
        return list(self._ring)

    def __len__(self) -> int:
        return len(self._ring)

    @classmethod
    def load_latest(cls, directory) -> Optional[EngineCheckpoint]:
        """The newest on-disk checkpoint under ``directory`` (or None)."""
        directory = Path(directory)
        files = sorted(directory.glob("checkpoint-*.ckpt"))
        return load_checkpoint(files[-1]) if files else None


class Checkpointer:
    """Engine-facing snapshot collector.

    The engine calls :meth:`due` at every superstep boundary and
    :meth:`capture` when it answers True (plus once at budget
    exhaustion).  Capture deep-copies the state in one pass, so object
    identity shared *within* the state — e.g. the RNG stream a transport
    wrapper's inner context shares with its outer context — is preserved
    in the snapshot; tracers are stripped first (live file handles).
    """

    def __init__(
        self, every: int, store: Optional[CheckpointStore] = None
    ) -> None:
        if every < 1:
            raise ConfigurationError(f"every must be >= 1, got {every}")
        self.every = every
        self.store = store if store is not None else CheckpointStore()
        self.captures = 0

    def due(self, superstep: int) -> bool:
        """Snapshot at every ``every``-th boundary (never at 0 — that is
        the fresh-boot state the seed already reproduces)."""
        return superstep > 0 and superstep % self.every == 0

    def capture(
        self,
        kind: str,
        superstep: int,
        state: Dict[str, Any],
        meta: Dict[str, Any],
    ) -> EngineCheckpoint:
        if kind not in _KINDS:
            raise ConfigurationError(f"unknown checkpoint kind {kind!r}")
        contexts = state.get("contexts") or ()
        stashed = [ctx._tracer for ctx in contexts]
        for ctx in contexts:
            ctx._tracer = None
        try:
            payload = copy.deepcopy(state)
        finally:
            for ctx, tracer in zip(contexts, stashed):
                ctx._tracer = tracer
        checkpoint = EngineCheckpoint(
            kind=kind,
            superstep=superstep,
            needs_general=(
                state.get("faults") is not None or bool(state.get("monitors"))
            ),
            meta=dict(meta),
            payload=payload,
        )
        self.store.push(checkpoint)
        self.captures += 1
        return checkpoint


def _unused_factory(node_id: int):
    raise AssertionError(
        "resumed engines boot from the checkpoint; the factory must not run"
    )


def resume_engine(
    checkpoint: EngineCheckpoint,
    topology: Graph,
    *,
    max_supersteps: int = 100_000,
    tracer=None,
    profiler=None,
    fastpath: bool = True,
    checkpointer: Optional[Checkpointer] = None,
    publisher=None,
    registry=None,
    spill_dir=None,
):
    """Build the engine that continues ``checkpoint`` on ``topology``.

    Returns a ready-to-``run()`` :class:`SynchronousEngine` (kind
    ``"pernode"``), :class:`BatchedEngine` (kind ``"batched"``) or
    :class:`~repro.runtime.sharded.ShardedEngine` (kind ``"sharded"``;
    ``topology`` may then also be a shard directory path or
    ``ShardSet``, and ``spill_dir`` names where the resumed leg's
    mutable memmaps go — a private temp dir when omitted).  The
    topology must be the one the capturing engine ran on — the engine
    validates the stored fingerprint on thaw.  Pass ``checkpointer`` to
    keep snapshotting during the resumed leg.

    Observability does not ride inside checkpoints (publishers hold
    file paths, registries live aggregation state), so a resumed run
    only keeps publishing and metering when the caller hands its
    ``publisher`` (:class:`~repro.obs.live.SnapshotPublisher`, feeds
    ``repro top``) and ``registry``
    (:class:`~repro.obs.registry.MetricsRegistry`, folded once the leg
    finishes) back in here — both are threaded through the thaw path
    to the resumed engine.
    """
    if checkpoint.kind == "sharded":
        from repro.runtime.sharded import ShardedEngine

        return ShardedEngine(
            topology,
            None,  # the thawed kernel replaces it
            num_shards=checkpoint.meta.get("num_shards", 4),
            spill_dir=spill_dir,
            seed=checkpoint.meta.get("seed", 0),
            max_supersteps=max_supersteps,
            profiler=profiler,
            checkpointer=checkpointer,
            resume=checkpoint,
            publisher=publisher,
            registry=registry,
        )
    if checkpoint.kind == "batched":
        return BatchedEngine(
            topology,
            None,  # the restored kernel replaces it on thaw
            seed=checkpoint.meta.get("seed", 0),
            max_supersteps=max_supersteps,
            profiler=profiler,
            checkpointer=checkpointer,
            resume=checkpoint,
            publisher=publisher,
            registry=registry,
        )
    return SynchronousEngine(
        topology,
        _unused_factory,
        seed=checkpoint.meta.get("seed", 0),
        max_supersteps=max_supersteps,
        strict=checkpoint.meta.get("strict", True),
        tracer=tracer,
        profiler=profiler,
        fastpath=fastpath,
        checkpointer=checkpointer,
        resume=checkpoint,
        publisher=publisher,
        registry=registry,
    )
