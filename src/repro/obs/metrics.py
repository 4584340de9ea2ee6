"""Unified metrics registry: labeled counters, gauges and histograms.

One registry instance is the single source of exported numbers for a
session, rendered by the telemetry endpoint as Prometheus text or a
JSON snapshot.

Design constraints, in order:

* **Folded at read, not pushed on the hot path.** The session's round
  series are a view of ``SessionStats.records`` and the gateway's
  request series a view of its terminal outcomes: each registers a
  collector (:meth:`MetricsRegistry.register_collector`) that folds
  the log entries appended since its last run. Every read of the
  registry runs the collectors first, so a round or a request costs
  no metric write; only the per-dispatch backend series are pushed.
* **One fixed ladder.** Every latency histogram uses
  :data:`LATENCY_BUCKETS`, so a series and a recount of the same
  values (:func:`snapshot_from_values`) compare bucket for bucket.
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
#: histograms compare bucket-wise.
LATENCY_BUCKETS: tuple[float, ...] = tuple(32e-6 * 2.0**i for i in range(25))

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")


#: memo for `_label_key`: raw (k, v) item tuples -> canonical key. Label
#: sets are low-cardinality (status/tenant/family/worker), so the memo
#: turns the sort+stringify into one dict hit; the cap guards against a
#: pathological unbounded label.
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
        key = _label_key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + amount

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

    def to_dict(self) -> dict[str, Any]:
        return {
            "bounds": list(self.bounds),
            "counts": list(self.counts),
            "sum": self.sum,
            "count": self.count,
        }


def snapshot_from_values(
    values: Iterable[float], bounds: Sequence[float] = LATENCY_BUCKETS
) -> HistogramSnapshot:
    """Bucket a finished value list into a snapshot (the reference a
    histogram series is recounted against)."""
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
        value = float(value)
        key = _label_key(labels)
        idx = bisect_left(self.bounds, value)
        with self._lock:
            counts = self._counts.get(key)
            if counts is None:
                counts = self._counts[key] = [0] * (len(self.bounds) + 1)
                self._sums[key] = 0.0
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
    :meth:`register_collector` run before every read (:meth:`get`,
    :meth:`render_prometheus`, :meth:`snapshot`): the session's and the
    gateway's fold their logs' new entries into their series, the
    socket backends' mirror the wire tallies into gauges.

    Collectors run one reader at a time under their own lock, so two
    concurrent scrapes never fold an entry twice. That lock is not the
    creation lock, so a collector may get-or-create its metrics; it
    must not read the registry through :meth:`get`.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._collect_lock = threading.Lock()
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
        self._collect()
        with self._lock:
            return self._metrics.get(name)

    def register_collector(self, fn: Callable[["MetricsRegistry"], None]) -> None:
        with self._lock:
            self._collectors.append(fn)

    def _collect(self) -> None:
        with self._collect_lock:
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
