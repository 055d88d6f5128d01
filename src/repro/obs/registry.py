"""Low-overhead metrics registry: counters, gauges, histograms.

Design constraints, in order:

1. **No observer effect** — metric updates never read or mutate run
   state, so an instrumented run stays bit-identical to a bare one.
2. **Cheap on the hot path** — a labelled child is resolved once and
   cached; each update is one Python float/int addition behind the GIL
   (no locks of our own, which is what "lock-free per-engine
   instances" means here: every engine run owns its children outright
   and never contends).
3. **Deterministic output** — :meth:`MetricsRegistry.snapshot` orders
   families by metric name and children by label values, so two
   snapshots of equal state are byte-equal after rendering, whatever
   the registration or update order was.

The registry is storage plus naming; the export formats live next door
(:mod:`repro.obs.openmetrics` for scrape-style text,
:mod:`repro.obs.series` for append-only JSONL time series).
"""

from __future__ import annotations

import bisect
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.errors import ConfigurationError

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_BUCKETS",
    "observe_run_metrics",
]

#: Default histogram bucket upper bounds (seconds-flavored: the spread
#: covers per-phase wall times from sub-millisecond kernels to
#: minute-long supervised legs).  ``+Inf`` is implicit.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.001,
    0.005,
    0.025,
    0.1,
    0.5,
    1.0,
    5.0,
    30.0,
    120.0,
)

_VALID_TYPES = ("counter", "gauge", "histogram")


def _check_name(name: str) -> None:
    if not name or not all(c.isalnum() or c == "_" for c in name):
        raise ConfigurationError(
            f"metric name must be non-empty [A-Za-z0-9_]+, got {name!r}"
        )
    if name[0].isdigit():
        raise ConfigurationError(f"metric name must not start with a digit: {name!r}")


class _Child:
    """One labelled instance of a metric family."""

    __slots__ = ("labels", "value")

    def __init__(self, labels: Tuple[Tuple[str, str], ...]) -> None:
        self.labels = labels
        self.value = 0.0


class _Family:
    """Shared machinery of Counter / Gauge / Histogram families."""

    kind = "untyped"

    def __init__(self, name: str, help: str, label_names: Sequence[str]) -> None:
        _check_name(name)
        for label in label_names:
            _check_name(label)
        self.name = name
        self.help = help
        self.label_names = tuple(label_names)
        self._children: Dict[Tuple[str, ...], object] = {}

    def _make_child(self, labels: Tuple[Tuple[str, str], ...]):
        return _Child(labels)

    def labels(self, **labels: object):
        """The child for one label-value combination (created on first use).

        Resolve once outside a loop and update the returned child
        directly — that is the hot-path contract.
        """
        if set(labels) != set(self.label_names):
            raise ConfigurationError(
                f"metric {self.name} takes labels {self.label_names}, "
                f"got {tuple(sorted(labels))}"
            )
        key = tuple(str(labels[k]) for k in self.label_names)
        child = self._children.get(key)
        if child is None:
            child = self._make_child(tuple(zip(self.label_names, key)))
            self._children[key] = child
        return child

    def _sorted_children(self):
        return [self._children[k] for k in sorted(self._children)]


class Counter(_Family):
    """Monotonically increasing count (events, messages, rounds)."""

    kind = "counter"

    def __init__(self, name: str, help: str, label_names: Sequence[str] = ()) -> None:
        super().__init__(name, help, label_names)
        if not label_names:
            self._default = self.labels()

    def inc(self, amount: float = 1.0) -> None:
        """Increment the unlabelled child (label-free families only)."""
        if amount < 0:
            raise ConfigurationError(f"counter {self.name} cannot decrease")
        self._default.value += amount

    def add(self, amount: float, **labels: object) -> None:
        """One-shot labelled increment (resolves the child each call)."""
        if amount < 0:
            raise ConfigurationError(f"counter {self.name} cannot decrease")
        self.labels(**labels).value += amount


class Gauge(_Family):
    """Point-in-time value (live nodes, colored fraction, RSS)."""

    kind = "gauge"

    def __init__(self, name: str, help: str, label_names: Sequence[str] = ()) -> None:
        super().__init__(name, help, label_names)
        if not label_names:
            self._default = self.labels()

    def set(self, value: float) -> None:
        """Set the unlabelled child (label-free families only)."""
        self._default.value = value

    def set_labels(self, value: float, **labels: object) -> None:
        """One-shot labelled set (resolves the child each call)."""
        self.labels(**labels).value = value


class _HistChild:
    """One labelled histogram: per-bucket counts, sum, total count."""

    __slots__ = ("labels", "bounds", "bucket_counts", "sum", "count")

    def __init__(
        self, labels: Tuple[Tuple[str, str], ...], bounds: Tuple[float, ...]
    ) -> None:
        self.labels = labels
        self.bounds = bounds
        self.bucket_counts = [0] * (len(bounds) + 1)  # last = +Inf overflow
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        self.bucket_counts[bisect.bisect_left(self.bounds, value)] += 1
        self.sum += value
        self.count += 1

    def cumulative(self) -> List[int]:
        """Per-bucket counts as the cumulative ``le`` series (ends at count)."""
        out: List[int] = []
        running = 0
        for c in self.bucket_counts:
            running += c
            out.append(running)
        return out


class Histogram(_Family):
    """Distribution sample (per-phase seconds, recovery ratios)."""

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str,
        label_names: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> None:
        bounds = tuple(float(b) for b in buckets)
        if not bounds:
            raise ConfigurationError(f"histogram {name} needs at least one bucket")
        if list(bounds) != sorted(set(bounds)):
            raise ConfigurationError(
                f"histogram {name} buckets must be strictly increasing: {bounds}"
            )
        super().__init__(name, help, label_names)
        self.buckets = bounds
        if not label_names:
            self._default = self.labels()

    def _make_child(self, labels: Tuple[Tuple[str, str], ...]):
        return _HistChild(labels, self.buckets)

    def observe(self, value: float) -> None:
        """Record into the unlabelled child (label-free families only)."""
        self._default.observe(value)

    def observe_labels(self, value: float, **labels: object) -> None:
        """One-shot labelled observation (resolves the child each call)."""
        self.labels(**labels).observe(value)


class MetricsRegistry:
    """A namespace of metric families with deterministic snapshots.

    Families register idempotently: asking for an existing name with the
    same type/labels/buckets returns the existing family (so library
    code can declare its metrics unconditionally), while a mismatched
    re-registration raises :class:`~repro.errors.ConfigurationError`.
    """

    def __init__(self) -> None:
        self._families: Dict[str, _Family] = {}

    def __len__(self) -> int:
        return len(self._families)

    def __contains__(self, name: str) -> bool:
        return name in self._families

    def _register(self, cls, name, help, label_names, **kwargs) -> _Family:
        existing = self._families.get(name)
        if existing is not None:
            same = (
                type(existing) is cls
                and existing.label_names == tuple(label_names)
                and (
                    kwargs.get("buckets") is None
                    or tuple(float(b) for b in kwargs["buckets"])
                    == getattr(existing, "buckets", None)
                )
            )
            if not same:
                raise ConfigurationError(
                    f"metric {name!r} already registered as "
                    f"{existing.kind} with labels {existing.label_names}"
                )
            return existing
        family = (
            cls(name, help, label_names, kwargs["buckets"])
            if kwargs.get("buckets") is not None
            else cls(name, help, label_names)
        )
        self._families[name] = family
        return family

    def counter(self, name: str, help: str = "", label_names: Sequence[str] = ()) -> Counter:
        return self._register(Counter, name, help, label_names)

    def gauge(self, name: str, help: str = "", label_names: Sequence[str] = ()) -> Gauge:
        return self._register(Gauge, name, help, label_names)

    def histogram(
        self,
        name: str,
        help: str = "",
        label_names: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> Histogram:
        return self._register(Histogram, name, help, label_names, buckets=buckets)

    def snapshot(self) -> Dict[str, Dict[str, object]]:
        """JSON-safe dump of every family, in deterministic order.

        Families are keyed and ordered by metric name; each family's
        samples are ordered by label-value tuple.  Histogram samples
        carry the *cumulative* bucket series, the bounds, the sum and
        the count — exactly what the OpenMetrics renderer and the JSONL
        series writer consume.
        """
        out: Dict[str, Dict[str, object]] = {}
        for name in sorted(self._families):
            family = self._families[name]
            samples: List[Dict[str, object]] = []
            for child in family._sorted_children():
                labels = dict(child.labels)
                if isinstance(child, _HistChild):
                    samples.append(
                        {
                            "labels": labels,
                            "buckets": child.cumulative(),
                            "bounds": list(child.bounds),
                            "sum": child.sum,
                            "count": child.count,
                        }
                    )
                else:
                    samples.append({"labels": labels, "value": child.value})
            out[name] = {
                "type": family.kind,
                "help": family.help,
                "label_names": list(family.label_names),
                "samples": samples,
            }
        return out


# ---------------------------------------------------------------------------
# RunMetrics -> registry fold
# ---------------------------------------------------------------------------

#: RunMetrics counter -> (metric name, help).  Every engine tier and the
#: transport/fault layers account into RunMetrics, so this one fold
#: instruments all of them: general/fast/vectorized/sharded runs,
#: reliable-transport retransmit/backoff traffic, and fault-model
#: loss/duplication/crash accounting.
RUN_COUNTERS: Dict[str, Tuple[str, str]] = {
    "supersteps": ("repro_supersteps", "Supersteps executed"),
    "messages_sent": ("repro_messages_sent", "Point-to-point sends"),
    "messages_delivered": ("repro_messages_delivered", "Delivered message copies"),
    "messages_dropped": ("repro_messages_dropped", "Copies removed by a fault filter"),
    "words_delivered": ("repro_words_delivered", "Abstract payload words delivered"),
    "messages_discarded_halted": (
        "repro_messages_discarded_halted",
        "Frames addressed to halted (Done) nodes",
    ),
    "messages_lost_to_crash": (
        "repro_messages_lost_to_crash",
        "Frames addressed to crash-stopped nodes",
    ),
    "messages_duplicated": (
        "repro_messages_duplicated",
        "Extra copies injected by duplication faults",
    ),
    "retransmissions": (
        "repro_transport_retransmissions",
        "Reliable-transport resends of unacked frames (backoff-scheduled)",
    ),
    "transport_frames": ("repro_transport_frames", "Reliable-transport frames sent"),
    "transport_duplicates_dropped": (
        "repro_transport_duplicates_dropped",
        "Duplicate payloads suppressed by sequence numbers",
    ),
    "transport_probes": (
        "repro_transport_probes",
        "Liveness probes issued while blocked on a silent neighbor",
    ),
}


def observe_run_metrics(
    registry: MetricsRegistry,
    metrics,
    labels: Optional[Mapping[str, object]] = None,
    *,
    runs_metric: str = "repro_runs",
) -> None:
    """Fold one finished run's :class:`RunMetrics` into ``registry``.

    ``labels`` (e.g. ``{"algorithm": "alg1", "tier": "vectorized"}``)
    become the label set of every folded family, so runs aggregate per
    dimension.  Counters accumulate across calls; the live-node peak
    and the per-phase wall clock land in a gauge and a counter family
    respectively.  Safe to call with any RunMetrics-shaped object (it
    reads ``as_dict``, ``phase_seconds`` and ``live_nodes_peak`` only).
    """
    labels = dict(labels or {})
    names = tuple(labels)
    registry.counter(runs_metric, "Engine runs folded into this registry", names).add(
        1, **labels
    )
    counters = metrics.as_dict()
    for field, (metric, help) in RUN_COUNTERS.items():
        value = counters.get(field, 0)
        if value:
            registry.counter(metric, help, names).add(value, **labels)
    peak = getattr(metrics, "live_nodes_peak", 0)
    if peak:
        registry.gauge(
            "repro_live_nodes_peak",
            "Most nodes live at the start of any superstep of the last run",
            names,
        ).set_labels(peak, **labels)
    phase_seconds = getattr(metrics, "phase_seconds", None) or {}
    if phase_seconds:
        phase_names = names + ("phase",)
        family = registry.counter(
            "repro_phase_seconds",
            "Wall-clock seconds spent per engine phase",
            phase_names,
        )
        for phase in sorted(phase_seconds):
            family.add(phase_seconds[phase], phase=phase, **labels)
    # Sharded-tier extras (zero/absent on every other tier).
    shard_workers = getattr(metrics, "shard_workers", 0)
    if shard_workers:
        registry.gauge(
            "repro_shard_workers",
            "Logical shard workers of the last sharded run",
            names,
        ).set_labels(shard_workers, **labels)
        registry.counter(
            "repro_cross_shard_bytes",
            "Abstract payload bytes crossing shard boundaries",
            names,
        ).add(getattr(metrics, "cross_shard_bytes", 0), **labels)
        registry.counter(
            "repro_shard_exchange_seconds",
            "Wall-clock seconds mapping shard RNG pools and routing draws",
            names,
        ).add(getattr(metrics, "shard_exchange_seconds", 0.0), **labels)
        rss = getattr(metrics, "shard_peak_rss_kb", 0)
        if rss:
            registry.gauge(
                "repro_shard_peak_rss_kb",
                "Peak resident set size of the sharded run's process (KiB)",
                names,
            ).set_labels(rss, **labels)
