"""Unified metrics registry: labeled counters, gauges and histograms.

One registry instance is the single source of exported numbers for a
session: ``SessionStats`` mirrors its tallies here, the gateway feeds
every terminal request outcome into its counters and histograms
(:func:`repro.serve.gateway.outcome_recorder`), and the telemetry
endpoint renders it as Prometheus text or a JSON snapshot.

Design constraints, in order:

* **Cheap when hot.** ``Counter.inc`` / ``Histogram.observe`` are a
  dict lookup plus a float add under a lock — no string formatting, no
  allocation on the steady path.
* **Mergeable.** All histograms of a metric share one fixed bucket
  ladder, so snapshots from different reports/processes add
  bucket-wise (:meth:`HistogramSnapshot.merge`).
"""

from __future__ import annotations

import json
import math
import re
import threading
from bisect import bisect_left
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Iterator, Mapping, Sequence

__all__ = [
    "LATENCY_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "HistogramSnapshot",
    "MetricsRegistry",
    "snapshot_from_values",
]

#: Default log-spaced bucket upper bounds (seconds): 32 us .. ~1100 s,
#: doubling each step. Fixed across the codebase so any two latency
#: histograms merge bucket-wise.
LATENCY_BUCKETS: tuple[float, ...] = tuple(32e-6 * 2.0**i for i in range(25))

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")


#: memo for `_label_key`: raw (k, v) item tuples -> canonical key. Label
#: sets are low-cardinality (status/tenant/family/worker), so the memo
#: turns the sort+stringify into one dict hit on the hot path; the cap
#: guards against a pathological unbounded label.
_KEY_MEMO: dict[tuple, tuple[tuple[str, str], ...]] = {}
_KEY_MEMO_CAP = 4096


def _label_key(labels: Mapping[str, Any]) -> tuple[tuple[str, str], ...]:
    """Canonical hashable form of a label set (sorted, stringified).
    Label names are checked when a key is built, so a memo hit pays
    nothing for it."""
    if not labels:
        return ()
    items = tuple(labels.items())
    try:
        key = _KEY_MEMO.get(items)
    except TypeError:  # unhashable label value: skip the memo
        return _build_label_key(labels)
    if key is None:
        key = _build_label_key(labels)
        if len(_KEY_MEMO) < _KEY_MEMO_CAP:
            _KEY_MEMO[items] = key
    return key


def _build_label_key(labels: Mapping[str, Any]) -> tuple[tuple[str, str], ...]:
    for k in labels:
        if not _LABEL_RE.match(k):
            raise ValueError(f"invalid label name {k!r}")
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def _escape_label_value(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _render_labels(key: tuple[tuple[str, str], ...], extra: str = "") -> str:
    parts = [f'{k}="{_escape_label_value(v)}"' for k, v in key]
    if extra:
        parts.append(extra)
    return "{" + ",".join(parts) + "}" if parts else ""


class _Metric:
    """Shared plumbing: a name, a help string, per-label-set series."""

    kind = "untyped"

    def __init__(self, name: str, help: str = "") -> None:
        if not _NAME_RE.match(name):
            raise ValueError(f"invalid metric name {name!r}")
        self.name = name
        self.help = help
        self._lock = threading.Lock()


class Counter(_Metric):
    """Monotonically increasing labeled counter."""

    kind = "counter"

    def __init__(self, name: str, help: str = "") -> None:
        super().__init__(name, help)
        self._values: dict[tuple[tuple[str, str], ...], float] = {}

    def inc(self, amount: float = 1.0, **labels: Any) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        self.inc_key(_label_key(labels), amount)

    def inc_key(
        self, key: tuple[tuple[str, str], ...], amount: float = 1.0
    ) -> None:
        """Increment by pre-canonicalized label key (hot-path variant:
        callers that cache `_label_key` output skip the kwargs dict).
        Lock-free under the GIL — see :meth:`Histogram.observe_key` for
        the single-writer-per-metric discipline this relies on."""
        values = self._values
        values[key] = values.get(key, 0.0) + amount

    def value(self, **labels: Any) -> float:
        """Value of one series (0.0 if never incremented)."""
        return self._values.get(_label_key(labels), 0.0)

    def total(self) -> float:
        """Sum over every label combination."""
        with self._lock:
            return sum(self._values.values())

    def series(self) -> Iterator[tuple[tuple[tuple[str, str], ...], float]]:
        with self._lock:
            yield from list(self._values.items())

    def render(self) -> Iterator[str]:
        for key, value in self.series():
            yield f"{self.name}{_render_labels(key)} {_fmt(value)}"

    def snapshot(self) -> list[dict[str, Any]]:
        return [
            {"labels": dict(key), "value": value} for key, value in self.series()
        ]


class Gauge(_Metric):
    """Labeled gauge: set to the latest value, may go up or down."""

    kind = "gauge"

    def __init__(self, name: str, help: str = "") -> None:
        super().__init__(name, help)
        self._values: dict[tuple[tuple[str, str], ...], float] = {}

    def set(self, value: float, **labels: Any) -> None:
        with self._lock:
            self._values[_label_key(labels)] = float(value)

    def add(self, amount: float, **labels: Any) -> None:
        key = _label_key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + amount

    def value(self, **labels: Any) -> float:
        return self._values.get(_label_key(labels), 0.0)

    def series(self) -> Iterator[tuple[tuple[tuple[str, str], ...], float]]:
        with self._lock:
            yield from list(self._values.items())

    def render(self) -> Iterator[str]:
        for key, value in self.series():
            yield f"{self.name}{_render_labels(key)} {_fmt(value)}"

    def snapshot(self) -> list[dict[str, Any]]:
        return [
            {"labels": dict(key), "value": value} for key, value in self.series()
        ]


@dataclass(frozen=True)
class HistogramSnapshot:
    """Immutable bucketed view of a distribution.

    ``bounds`` are inclusive upper edges; ``counts`` has
    ``len(bounds) + 1`` entries (the last is the +Inf overflow bucket).
    Snapshots with identical bounds merge bucket-wise, which is the
    mechanism behind mergeable cross-report latency histograms.
    """

    bounds: tuple[float, ...]
    counts: tuple[int, ...]
    sum: float
    count: int

    def __post_init__(self) -> None:
        if len(self.counts) != len(self.bounds) + 1:
            raise ValueError(
                f"need {len(self.bounds) + 1} counts for "
                f"{len(self.bounds)} bounds, got {len(self.counts)}"
            )

    def merge(self, other: "HistogramSnapshot") -> "HistogramSnapshot":
        if other.bounds != self.bounds:
            raise ValueError("cannot merge histograms with different buckets")
        return HistogramSnapshot(
            bounds=self.bounds,
            counts=tuple(a + b for a, b in zip(self.counts, other.counts)),
            sum=self.sum + other.sum,
            count=self.count + other.count,
        )

    def percentile(self, p: float) -> float:
        """Bucket-interpolated percentile estimate (p in [0, 100])."""
        if self.count == 0:
            return math.nan
        rank = p / 100.0 * self.count
        seen = 0
        lo = 0.0
        for bound, n in zip(self.bounds, self.counts):
            if seen + n >= rank and n > 0:
                frac = (rank - seen) / n
                return lo + frac * (bound - lo)
            seen += n
            lo = bound
        return self.bounds[-1] if self.bounds else math.nan

    def mean(self) -> float:
        return self.sum / self.count if self.count else math.nan

    def to_dict(self) -> dict[str, Any]:
        return {
            "bounds": list(self.bounds),
            "counts": list(self.counts),
            "sum": self.sum,
            "count": self.count,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "HistogramSnapshot":
        return cls(
            bounds=tuple(data["bounds"]),
            counts=tuple(data["counts"]),
            sum=float(data["sum"]),
            count=int(data["count"]),
        )


def snapshot_from_values(
    values: Iterable[float], bounds: Sequence[float] = LATENCY_BUCKETS
) -> HistogramSnapshot:
    """Bucket a finished value list into a mergeable snapshot."""
    bounds = tuple(bounds)
    counts = [0] * (len(bounds) + 1)
    total = 0.0
    n = 0
    for v in values:
        counts[bisect_left(bounds, v)] += 1
        total += v
        n += 1
    return HistogramSnapshot(bounds=bounds, counts=tuple(counts), sum=total, count=n)


class Histogram(_Metric):
    """Labeled histogram over a fixed bucket ladder."""

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str = "",
        buckets: Sequence[float] = LATENCY_BUCKETS,
    ) -> None:
        super().__init__(name, help)
        self.bounds = tuple(sorted(buckets))
        if not self.bounds:
            raise ValueError("histogram needs at least one bucket bound")
        self._counts: dict[tuple[tuple[str, str], ...], list[int]] = {}
        self._sums: dict[tuple[tuple[str, str], ...], float] = {}

    def observe(self, value: float, **labels: Any) -> None:
        self.observe_key(_label_key(labels), value)

    def observe_key(
        self, key: tuple[tuple[str, str], ...], value: float
    ) -> None:
        """Observe under a pre-canonicalized label key (hot path).

        Lock-free: bucket counts and sums are plain dict/list updates,
        safe under the GIL for the single-writer-per-metric discipline
        the codebase follows (each metric is fed from one thread;
        renders/snapshots read via atomic ``list()``/``dict()`` copies
        and tolerate a transiently torn count/sum pair).
        """
        value = float(value)
        idx = bisect_left(self.bounds, value)
        counts = self._counts.get(key)
        if counts is None:
            with self._lock:  # series creation is the rare, racy part
                counts = self._counts.get(key)
                if counts is None:
                    counts = self._counts[key] = [0] * (len(self.bounds) + 1)
                    self._sums.setdefault(key, 0.0)
        counts[idx] += 1
        self._sums[key] += value

    def snapshot_of(self, **labels: Any) -> HistogramSnapshot:
        key = _label_key(labels)
        with self._lock:
            counts = self._counts.get(key)
            if counts is None:
                return HistogramSnapshot(self.bounds, tuple([0] * (len(self.bounds) + 1)), 0.0, 0)
            return HistogramSnapshot(
                self.bounds, tuple(counts), self._sums[key], sum(counts)
            )

    def merged(self) -> HistogramSnapshot:
        """One snapshot summing every label combination."""
        out = HistogramSnapshot(self.bounds, tuple([0] * (len(self.bounds) + 1)), 0.0, 0)
        with self._lock:
            items = [(tuple(c), self._sums[k]) for k, c in self._counts.items()]
        for counts, total in items:
            out = out.merge(
                HistogramSnapshot(self.bounds, counts, total, sum(counts))
            )
        return out

    def series(self) -> Iterator[tuple[tuple[tuple[str, str], ...], HistogramSnapshot]]:
        with self._lock:
            keys = list(self._counts)
        for key in keys:
            with self._lock:
                counts = tuple(self._counts[key])
                total = self._sums[key]
            yield key, HistogramSnapshot(self.bounds, counts, total, sum(counts))

    def render(self) -> Iterator[str]:
        for key, snap in self.series():
            acc = 0
            for bound, n in zip(snap.bounds, snap.counts):
                acc += n
                le = _render_labels(key, f'le="{_fmt(bound)}"')
                yield f"{self.name}_bucket{le} {acc}"
            acc += snap.counts[-1]
            le = _render_labels(key, 'le="+Inf"')
            yield f"{self.name}_bucket{le} {acc}"
            yield f"{self.name}_sum{_render_labels(key)} {_fmt(snap.sum)}"
            yield f"{self.name}_count{_render_labels(key)} {snap.count}"

    def snapshot(self) -> list[dict[str, Any]]:
        return [
            {"labels": dict(key), **snap.to_dict()} for key, snap in self.series()
        ]


def _fmt(value: float) -> str:
    """Compact numeric rendering: integers without the trailing .0."""
    if value == math.inf:
        return "+Inf"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


class MetricsRegistry:
    """Named home for every metric of one session/gateway.

    ``counter``/``gauge``/``histogram`` are get-or-create (re-requesting
    a name returns the same object; re-requesting under a different
    kind raises). Collector callbacks registered with
    :meth:`register_collector` run just before every render/snapshot —
    used to pull counters that live elsewhere (the socket backends'
    wire tallies) into exported gauges without hot-path coupling.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: dict[str, _Metric] = {}
        self._collectors: list[Callable[["MetricsRegistry"], None]] = []

    # -- creation ------------------------------------------------------
    def counter(self, name: str, help: str = "") -> Counter:
        return self._get_or_create(name, Counter, help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get_or_create(name, Gauge, help)

    def histogram(
        self,
        name: str,
        help: str = "",
        buckets: Sequence[float] = LATENCY_BUCKETS,
    ) -> Histogram:
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                if not isinstance(existing, Histogram):
                    raise ValueError(
                        f"metric {name!r} already registered as {existing.kind}"
                    )
                return existing
            metric = Histogram(name, help, buckets=buckets)
            self._metrics[name] = metric
            return metric

    def _get_or_create(self, name: str, cls: type, help: str) -> Any:
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                if not isinstance(existing, cls):
                    raise ValueError(
                        f"metric {name!r} already registered as {existing.kind}"
                    )
                return existing
            metric = cls(name, help)
            self._metrics[name] = metric
            return metric

    def get(self, name: str) -> _Metric | None:
        with self._lock:
            return self._metrics.get(name)

    def register_collector(self, fn: Callable[["MetricsRegistry"], None]) -> None:
        with self._lock:
            self._collectors.append(fn)

    def _collect(self) -> None:
        with self._lock:
            collectors = list(self._collectors)
        for fn in collectors:
            fn(self)

    # -- export --------------------------------------------------------
    def render_prometheus(self) -> str:
        """Prometheus text exposition format (v0.0.4)."""
        self._collect()
        with self._lock:
            metrics = sorted(self._metrics.values(), key=lambda m: m.name)
        lines: list[str] = []
        for metric in metrics:
            if metric.help:
                lines.append(f"# HELP {metric.name} {metric.help}")
            lines.append(f"# TYPE {metric.name} {metric.kind}")
            lines.extend(metric.render())
        return "\n".join(lines) + "\n"

    def snapshot(self) -> dict[str, Any]:
        """JSON-able {name: {kind, help, series}} snapshot."""
        self._collect()
        with self._lock:
            metrics = sorted(self._metrics.values(), key=lambda m: m.name)
        return {
            m.name: {"kind": m.kind, "help": m.help, "series": m.snapshot()}
            for m in metrics
        }

    def to_json(self) -> str:
        return json.dumps(self.snapshot(), sort_keys=True)
