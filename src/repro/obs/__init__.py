"""End-to-end observability: tracing, metrics, and live telemetry.

Switched on with ``SessionConfig(observability=True)``. One
:class:`Observability` object per session bundles the
:class:`~repro.obs.trace.Tracer` (request-to-round span trees, worker
sub-spans shipped back over the wire) and the
:class:`~repro.obs.metrics.MetricsRegistry` (labeled counters / gauges
/ histograms) that every layer writes to. The
:class:`~repro.obs.exporter.TelemetryServer` — a threaded HTTP server
the caller runs beside ``Gateway.run`` — serves both live (``/metrics``
Prometheus text, ``/metrics.json``, ``/trace/<id>``, ``/healthz``) and
the ``repro obs`` CLI renders dumps or polls a live endpoint. With the
knob off nothing here is instantiated — reports and wire frames are
byte-identical to an untraced build.
"""

from __future__ import annotations

import itertools
import json
from typing import IO, Any

from .audit import (
    GENESIS,
    AuditLog,
    ChainError,
    RoundCommitment,
    digest_array,
    diff_chains,
    load_jsonl,
    record_hash,
    verify_chain,
)
from .metrics import (
    LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    HistogramSnapshot,
    MetricsRegistry,
    snapshot_from_values,
)
from .trace import Span, Tracer

__all__ = [
    "GENESIS",
    "LATENCY_BUCKETS",
    "AuditLog",
    "ChainError",
    "Counter",
    "Gauge",
    "Histogram",
    "HistogramSnapshot",
    "MetricsRegistry",
    "Observability",
    "RoundCommitment",
    "Span",
    "Tracer",
    "diff_chains",
    "digest_array",
    "load_jsonl",
    "record_hash",
    "snapshot_from_values",
    "verify_chain",
]


class Observability:
    """Per-session bundle of tracer + metrics registry."""

    def __init__(self, *, max_traces: int = 4096) -> None:
        self.tracer = Tracer(max_traces=max_traces)
        self.registry = MetricsRegistry()
        #: the session's :class:`AuditLog` when *both* observability
        #: and audit are armed — feeds the live ``/audit`` endpoints
        self.audit: AuditLog | None = None
        self._round_seq = itertools.count()
        self._rounds_total = self.registry.counter(
            "backend_rounds_total", "rounds dispatched, by backend"
        )
        self._broadcast_elements = self.registry.counter(
            "backend_broadcast_elements_total",
            "field elements broadcast to the fleet, by backend",
        )

    def next_round_trace_id(self) -> str:
        """Fresh ``round-<n>`` trace id for one round's span tree."""
        return f"round-{next(self._round_seq)}"

    def on_dispatch(self, backend_name: str, job: Any, n_participants: int) -> None:
        """Uniform per-backend dispatch hook (all five backends)."""
        self._rounds_total.inc(backend=backend_name)
        try:
            elements = job.broadcast_elements()
        except Exception:
            elements = 0
        self._broadcast_elements.inc(float(elements), backend=backend_name)
        self.registry.gauge(
            "backend_round_participants", "participants in the latest round"
        ).set(n_participants, backend=backend_name)

    # -- export --------------------------------------------------------
    def snapshot(self) -> dict[str, Any]:
        return {"metrics": self.registry.snapshot(), "traces": self.tracer.dump()}

    def dump(self, fp: IO[str]) -> None:
        json.dump(self.snapshot(), fp)

    def dump_path(self, path: str) -> None:
        with open(path, "w") as fp:
            self.dump(fp)
