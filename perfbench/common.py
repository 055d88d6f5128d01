"""Shared pieces of the benchmark: paths, metric units, statistics,
peak-RSS probes and the per-run result record."""

from __future__ import annotations

import os
import shutil
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median  # noqa: F401 - shared by the workload modules
from typing import Callable, Dict, Iterator, List, Sequence, Tuple, TypeVar

#: Root of the checkout the benchmark runs in (the parent of ``perfbench/``).
CHECKOUT = Path(__file__).resolve().parents[1]

#: Scratch space for set-up files (edge lists, shards, session state);
#: one subdirectory per run, removed when the run ends.
WORK_ROOT = CHECKOUT / ".perfbench-work"

#: Where traced runs write their spans.
OUT_ROOT = CHECKOUT / ".perfbench-out"

#: How many times each run repeats its set-up; ``setup_s`` is the median.
SETUP_REPEATS = 3

#: End-to-end metrics, reported on every workload (``--trace 0``).
E2E_UNITS: Dict[str, str] = {
    "setup_s": "s",
    "edges_per_s": "edges/s",
    "peak_rss_mb": "MiB",
    "rounds": "rounds",
    "messages": "messages",
    "colors_per_delta": "ratio",
    "ok_frac": "ratio",
    "requests_per_s": "req/s",
    "mutate_p50_ms": "ms",
    "mutate_tail_ms": "ms",
    "query_p50_ms": "ms",
}

#: Per-layer metrics, reported on every workload (``--trace 1``); a layer
#: a workload never calls reads 0.
LAYER_UNITS: Dict[str, str] = {
    "graphs.generate_s": "s",
    "graphs.read_s": "s",
    "graphs.to_directed_s": "s",
    "graphs.write_shards_s": "s",
    "core.alg1.color_s": "s",
    "core.dima2ed.color_s": "s",
    "core.rounds_s": "s",
    "core.outside_rounds_s": "s",
    "core.supersteps": "count",
    "core.words_delivered": "words",
    "core.rng_pool_mb": "MiB",
    "verify.proper_s": "s",
    "verify.strong_s": "s",
    "sharded.run_s": "s",
    "sharded.exchange_s": "s",
    "sharded.compute_s": "s",
    "sharded.exchange_frac": "ratio",
    "sharded.cross_shard_bytes": "bytes",
    "serve.apply_ms": "ms",
    "serve.wire_ms": "ms",
    "serve.query_tail_ms": "ms",
    "serve.load_s": "s",
    "serve.save_ms": "ms",
    "session.stage_ms": "ms",
    "session.recolor_ms": "ms",
    "session.verify_ms": "ms",
    "session.full_rerun_ms": "ms",
    "session.hit_ratio": "ratio",
    "session.fallbacks": "count",
    "session.full_runs": "count",
    "bench.check_s": "s",
    "trace.overhead_frac": "ratio",
    "unattributed_s": "s",
}

#: Bytes of MT19937 state per node in the resident RNG pool.
MT_BYTES_PER_NODE = 624 * 4

T = TypeVar("T")


def tail(values: Sequence[float], beyond: int = 10) -> float:
    """The highest order statistic with at least ``beyond`` samples above
    it: the 11th-largest sample, or the maximum when there are fewer
    than ``beyond + 1`` samples."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("tail of no samples")
    return ordered[-beyond - 1] if len(ordered) > beyond else ordered[-1]


def passes_for(seconds: float, first_s: float) -> int:
    """Whole passes that bring the window nearest to ``seconds``, given
    that the first took ``first_s``; at least two whenever one pass is
    shorter than ``seconds``, so a workload whose pass is near two-thirds
    of ``seconds`` does not flip between one and two passes as the
    host's speed drifts, and every pass but the first is checked
    against the first."""
    if seconds <= 0:
        return 1
    return max(round(seconds / first_s), 2 if first_s < seconds else 1)


def repeat_setup(build: Callable[[int], T], repeats: int = SETUP_REPEATS) -> Tuple[float, T]:
    """Run ``build(i)`` ``repeats`` times; return (median seconds, last result).

    Each call must leave nothing behind that the next one reuses, so
    every repeat pays the whole set-up.
    """
    times: List[float] = []
    result = None
    for i in range(repeats):
        t0 = time.perf_counter()
        result = build(i)
        times.append(time.perf_counter() - t0)
    return median(times), result


def _status_kib(pid: int | str, key: str) -> int:
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith(key + ":"):
                return int(line.split()[1])
    raise KeyError(key)


def reset_peak_rss() -> None:
    """Reset this process's RSS high-water mark to its current RSS, so the
    next :func:`peak_rss_mib` covers only what follows (Linux
    ``clear_refs``)."""
    try:
        with open("/proc/self/clear_refs", "w", encoding="ascii") as fh:
            fh.write("5")
    except OSError:
        pass  # the peak then also covers what came before


def peak_rss_mib(pid: int | str = "self") -> float:
    """High-water RSS of ``pid`` (this process by default) in MiB."""
    return _status_kib(pid, "VmHWM") / 1024.0


@contextmanager
def work_dir(tag: str) -> Iterator[Path]:
    """A private scratch directory inside the checkout, removed afterwards."""
    path = WORK_ROOT / f"{tag}-{os.getpid()}"
    if path.exists():
        shutil.rmtree(path)
    path.mkdir(parents=True)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass


@dataclass
class RunReport:
    """What one workload run hands back to ``run.py``."""

    metrics: Dict[str, float]
    attempted: int
    #: Operations that raised or failed a request, plus outputs the
    #: benchmark's own checker rejected; the run is correct only at 0.
    failed: int
    #: Human-readable lines printed before the result line.
    lines: List[str] = field(default_factory=list)
    #: Extra facts for the run record (window length, passes, probe...).
    record: Dict[str, object] = field(default_factory=dict)
