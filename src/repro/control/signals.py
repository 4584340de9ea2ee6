"""Per-window control signals: what the autoscaler policy sees.

One :class:`WindowSignals` summarizes a fixed-length slice of a
gateway run — the serving-quality side (completions, sheds, queue
depth, SLO attainment, tail latency, deadline slack) joined with the
fleet side (live/pending/dead workers, straggler and Byzantine
observations from the session's adaptation telemetry). The gateway
builds one per ``control_interval`` (see
:class:`~repro.serve.gateway.Gateway`); the policy never reaches into
the gateway or session itself.

The gateway computes each window from the terminal outcomes it
collected since the previous one, with observability on or off. When
the session runs with observability enabled, :func:`record_outcome`
additionally feeds every terminal outcome into the gateway's counters
and histograms in the unified
:class:`~repro.obs.metrics.MetricsRegistry`, for export.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Any

__all__ = [
    "WindowSignals",
    "outcome_recorder",
    "record_outcome",
]

#: metric names the gateway accounting lives under (obs-enabled runs)
GATEWAY_REQUESTS = "gateway_requests_total"
GATEWAY_SLO = "gateway_slo_requests_total"
GATEWAY_LATENCY = "gateway_request_latency_seconds"
GATEWAY_SLACK = "gateway_deadline_slack_seconds"


def _gateway_handles(registry: Any) -> tuple[Any, Any, Any, Any]:
    """Get-or-create the four gateway metrics once per registry; the
    per-request path then skips the registry's name lookup + lock."""
    handles = getattr(registry, "_gateway_handles", None)
    if handles is None:
        handles = (
            registry.counter(
                GATEWAY_REQUESTS, "terminal request outcomes by status"
            ),
            registry.counter(
                GATEWAY_SLO, "deadline-carrying completions by SLO verdict"
            ),
            registry.histogram(
                GATEWAY_LATENCY,
                "end-to-end served latency (arrival to decode)",
            ),
            registry.histogram(
                GATEWAY_SLACK,
                "deadline minus completion for served SLO requests",
            ),
        )
        registry._gateway_handles = handles
    return handles


#: canonical label-key memos for the per-request fast path (label sets
#: are low-cardinality: statuses x tenants x families)
_REQ_KEYS: dict[tuple, tuple] = {}
_TENANT_KEYS: dict[str, tuple] = {}
_MET_KEYS = {
    True: (("met", "True"),),
    False: (("met", "False"),),
    None: (("met", "None"),),
}
_NO_LABELS: tuple = ()


def outcome_recorder(registry: Any) -> Any:
    """Bind the per-request outcome fast path once for ``registry``:
    returns (and caches on the registry) a ``record(outcome)``
    callable closed over the four gateway metric handles and the
    label-key memos — the per-call cost is the metric bumps alone."""
    rec = getattr(registry, "_outcome_recorder", None)
    if rec is not None:
        return rec
    requests, slo, latency, slack = _gateway_handles(registry)

    def record(
        outcome: Any,
        _req_keys=_REQ_KEYS,
        _tenant_keys=_TENANT_KEYS,
        _met_keys=_MET_KEYS,
        _no_labels=_NO_LABELS,
        _isfinite=math.isfinite,
    ) -> None:
        triple = (outcome.status, outcome.tenant, outcome.family)
        key = _req_keys.get(triple)
        if key is None:
            key = _req_keys[triple] = tuple(
                sorted(zip(("status", "tenant", "family"), map(str, triple)))
            )
        requests.inc_key(key)
        has_deadline = _isfinite(outcome.deadline)
        if has_deadline:
            slo.inc_key(_met_keys[outcome.slo_met])
        if outcome.status == "served" and outcome.latency is not None:
            tenant = outcome.tenant
            tkey = _tenant_keys.get(tenant)
            if tkey is None:
                tkey = _tenant_keys[tenant] = (("tenant", str(tenant)),)
            latency.observe_key(tkey, outcome.latency)
            if has_deadline and outcome.completed is not None:
                slack.observe_key(
                    _no_labels, outcome.deadline - outcome.completed
                )

    registry._outcome_recorder = record
    return record


def record_outcome(registry: Any, outcome: Any) -> None:
    """Feed one terminal request outcome into the metrics registry.

    ``outcome`` is duck-typed (any object with the
    :class:`~repro.serve.gateway.RequestOutcome` fields) so the
    control layer stays import-independent of the serving layer.
    """
    outcome_recorder(registry)(outcome)


@dataclass(frozen=True)
class WindowSignals:
    """One control window's observations (all trace-clock seconds).

    Attributes
    ----------
    window_index:
        0-based window ordinal within the run.
    t_start, t_end:
        The window's bounds on the trace clock.
    completed:
        Requests that reached a terminal outcome this window.
    served, shed:
        Split of ``completed`` into successes and sheds.
    queue_depth:
        Requests waiting in the admission queues at window close.
    slo_attainment:
        Fraction of this window's deadline-carrying completions that
        met their deadline (1.0 when none carried one).
    p99_latency:
        p99 latency of this window's served requests (NaN if none).
    deadline_slack:
        Minimum ``deadline - completion`` over this window's served
        deadline-carrying requests — how close the service is sailing
        to the SLO cliff (NaN if none; negative = misses).
    live_workers, pending_workers, dead_workers:
        Fleet roster at window close (pending = handshaken joiners
        awaiting admission).
    observed_stragglers, detected_byzantine:
        Distinct worker counts from the session's adaptation/round
        telemetry since the previous window.
    """

    window_index: int
    t_start: float
    t_end: float
    completed: int
    served: int
    shed: int
    queue_depth: int
    slo_attainment: float
    p99_latency: float
    deadline_slack: float
    live_workers: int
    pending_workers: int
    dead_workers: int
    observed_stragglers: int = 0
    detected_byzantine: int = 0

    @property
    def shed_rate(self) -> float:
        """Sheds as a fraction of this window's completions."""
        if not self.completed:
            return 0.0
        return self.shed / self.completed

    def to_dict(self) -> dict[str, Any]:
        """JSON-able form (non-finite floats become ``None``)."""
        out = asdict(self)
        for key, value in out.items():
            if isinstance(value, float) and not math.isfinite(value):
                out[key] = None
        out["shed_rate"] = self.shed_rate
        return out
