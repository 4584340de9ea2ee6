"""End-to-end observability: tracing, metrics, and live telemetry.

Switched on with ``SessionConfig(observability=True)``. One
:class:`Observability` object per session bundles the
:class:`~repro.obs.trace.Tracer` (request-to-round span trees, worker
sub-spans shipped back over the wire) and the
:class:`~repro.obs.metrics.MetricsRegistry` (labeled counters / gauges
/ histograms). The session's and the gateway's series are folded from
their logs (``SessionStats.records``, the terminal request outcomes)
when the registry is read; only the backends' per-dispatch series are
written as rounds go out. The
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
import math
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


def _outcome_collector(outcomes: list[Any]) -> Any:
    """A registry collector over the terminal request outcomes every
    gateway of the session appends, in the order they ended: each read
    folds what was appended since the last into the four request series
    and drops it from the log, so the log holds only what no read has
    folded yet and no finished gateway's outcomes stay behind."""

    def fold(registry: MetricsRegistry) -> None:
        n = len(outcomes)
        if not n:
            return
        requests = registry.counter(
            "gateway_requests_total", "terminal request outcomes by status"
        )
        slo = registry.counter(
            "gateway_slo_requests_total",
            "deadline-carrying completions by SLO verdict",
        )
        latency = registry.histogram(
            "gateway_request_latency_seconds",
            "end-to-end served latency (arrival to decode)",
        )
        slack = registry.histogram(
            "gateway_deadline_slack_seconds",
            "deadline minus completion for served SLO requests",
        )
        for o in outcomes[:n]:
            requests.inc(status=o.status, tenant=o.tenant, family=o.family)
            has_deadline = math.isfinite(o.deadline)
            if has_deadline:
                slo.inc(met=o.slo_met)
            if o.status == "served" and o.latency is not None:
                latency.observe(o.latency, tenant=o.tenant)
                if has_deadline and o.completed is not None:
                    slack.observe(o.deadline - o.completed)
        # a gateway appending meanwhile only adds past ``n``
        del outcomes[:n]

    return fold


class Observability:
    """Per-session bundle of tracer + metrics registry."""

    def __init__(self, *, max_traces: int = 4096) -> None:
        self.tracer = Tracer(max_traces=max_traces)
        self.registry = MetricsRegistry()
        #: terminal request outcomes not yet folded into the request
        #: series: every gateway on the session appends here, and a
        #: registry read drains it
        self.outcomes: list[Any] = []
        self.registry.register_collector(_outcome_collector(self.outcomes))
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
        self._round_participants = self.registry.gauge(
            "backend_round_participants", "participants in the latest round"
        )

    def next_round_trace_id(self) -> str:
        """Fresh ``round-<n>`` trace id for one round's span tree."""
        return f"round-{next(self._round_seq)}"

    def on_dispatch(self, backend_name: str, job: Any, n_participants: int) -> None:
        """Per-round dispatch hook, called by both backends (``sim`` and
        ``tcp``): a dispatched round's size and roster are in no log."""
        self._rounds_total.inc(backend=backend_name)
        self._broadcast_elements.inc(
            float(job.broadcast_elements()), backend=backend_name
        )
        self._round_participants.set(n_participants, backend=backend_name)

    # -- export --------------------------------------------------------
    def snapshot(self) -> dict[str, Any]:
        return {"metrics": self.registry.snapshot(), "traces": self.tracer.dump()}

    def dump(self, fp: IO[str]) -> None:
        json.dump(self.snapshot(), fp)

    def dump_path(self, path: str) -> None:
        with open(path, "w") as fp:
            self.dump(fp)
