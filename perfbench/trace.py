"""Spans recorded by the benchmark around its calls into each layer.

A :class:`Tracer` keeps spans in memory — name, start, end, parent and
run id — and writes them out once, when the run ends.  A layer's self
time is its spans' duration minus what their child spans cover; the
self time of the structural spans (``op``, ``serve.apply``,
``serve.query``) is the ``unattributed`` row.  A disabled tracer
records nothing, which is how the timed runs use it.
"""

from __future__ import annotations

import json
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from functools import wraps
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple

#: Spans that only group layer calls; their self time is unattributed.
#: Every timed operation of a window is one ``op`` span.
STRUCTURAL = ("op", "serve.apply", "serve.query")


@dataclass
class Span:
    sid: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    run: str

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self, run_id: str, enabled: bool = True) -> None:
        self.run_id = run_id
        self.enabled = enabled
        self.spans: List[Span] = []
        self._stack: List[int] = []

    def span(self, name: str):
        return self._span(name) if self.enabled else nullcontext()

    @contextmanager
    def _span(self, name: str) -> Iterator[None]:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        record = Span(sid, name, perf_counter(), 0.0, parent, self.run_id)
        self.spans.append(record)
        self._stack.append(sid)
        try:
            yield
        finally:
            self._stack.pop()
            record.end = perf_counter()

    def add_child(self, name: str, seconds: float) -> None:
        """Record a child of the innermost open span whose duration the
        program measured itself (profiler compute, shard exchange)."""
        if not self.enabled or not self._stack:
            return
        parent = self.spans[self._stack[-1]]
        start = parent.start
        self.spans.append(Span(len(self.spans), name, start, start + seconds, parent.sid, self.run_id))

    def wrap(self, name: str, fn: Callable) -> Callable:
        @wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    @contextmanager
    def patched(self, targets: Iterable[Tuple[object, str, str]]) -> Iterator[None]:
        """Install span wrappers on ``(owner, attribute, span name)`` for
        the duration of the block, then restore the originals."""
        saved = []
        try:
            for owner, attr, name in targets:
                original = getattr(owner, attr)
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(name, original))
            yield
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    # -- reports ---------------------------------------------------------

    def totals(self, root: Optional[str] = None) -> Dict[str, float]:
        """Summed duration per span name (optionally only under ``root``)."""
        out: Dict[str, float] = {}
        for s in self._under(root):
            out[s.name] = out.get(s.name, 0.0) + s.seconds
        return out

    def self_times(self, root: Optional[str] = None) -> Dict[str, float]:
        """Summed self time per span name (children never overlap, so the
        covered part is the sum of the children's durations)."""
        covered: Dict[int, float] = {}
        for s in self.spans:
            if s.parent is not None:
                covered[s.parent] = covered.get(s.parent, 0.0) + s.seconds
        out: Dict[str, float] = {}
        for s in self._under(root):
            out[s.name] = out.get(s.name, 0.0) + s.seconds - covered.get(s.sid, 0.0)
        return out

    def unattributed(self, root: str = "op") -> float:
        selfs = self.self_times(root)
        return sum(selfs.get(name, 0.0) for name in STRUCTURAL)

    def _under(self, root: Optional[str]) -> List[Span]:
        if root is None:
            return self.spans
        keep = set()
        for s in self.spans:
            if s.name == root or (s.parent is not None and s.parent in keep):
                keep.add(s.sid)
        return [s for s in self.spans if s.sid in keep]

    def table(self, root: str = "op") -> List[str]:
        """Self time per layer under ``root``, largest first, with the
        unattributed row."""
        selfs = self.self_times(root)
        totals = self.totals(root)
        wall = totals.get(root, 0.0) or 1.0
        rows = [(n, t) for n, t in selfs.items() if n not in STRUCTURAL]
        rows.append(("unattributed", self.unattributed(root)))
        rows.sort(key=lambda r: -r[1])
        lines = [f"  {'layer':<22} {'self_s':>10} {'share':>7}"]
        lines += [f"  {n:<22} {t:>10.4f} {100 * t / wall:>6.1f}%" for n, t in rows]
        return lines

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(
                    json.dumps(
                        {"id": s.sid, "name": s.name, "start": s.start, "end": s.end,
                         "parent": s.parent, "run": s.run}
                    )
                    + "\n"
                )
