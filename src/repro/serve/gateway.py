"""The serving gateway: traffic in, verified results + a ServeReport out.

:class:`Gateway` turns a :class:`~repro.api.session.Session` into a
traffic-driven service. One event loop drives the whole pipeline

    generate → admit (fair queues, shedding) → micro-batch → submit →
    resolve

against the backend clock — *virtual* time on the simulator (the loop
advances the clock to the next arrival or batch deadline, and round
execution advances it through broadcast/verify/decode costs exactly as
in the experiments), *wall* time on the threaded/process backends
(``advance_to`` only floors the bookkeeping clock, so a recorded
arrival schedule replays as-fast-as-possible).

Every request terminates in exactly one :class:`RequestOutcome` —
``served`` (with dispatch/completion times and latency) or shed
(``shed-queue-full`` at admission, ``shed-expired`` at admission,
dequeue or dispatch) — and the run returns a :class:`ServeReport`:
latency percentiles (p50/p95/p99), SLO attainment, shed counts,
throughput, per-tenant breakdowns and a Jain fairness index, all
JSON-able for the benchmark/CI artifact path. Decoded result vectors
are kept on :attr:`Gateway.results` (by request id) so parity tests
can check byte-identical service against unbatched execution.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field as dc_field
from typing import Any, Mapping, Protocol, runtime_checkable

import numpy as np

from repro.api.session import JobHandle, Session
from repro.control.signals import (
    WindowSignals,
    outcome_recorder,
    set_window_tracking,
)
from repro.obs.metrics import HistogramSnapshot, snapshot_from_values
from repro.serve.batcher import MicroBatcher, PendingBatch, make_batch_policy
from repro.serve.queueing import SHED_EXPIRED, FairQueue
from repro.serve.workload import Request

__all__ = ["Gateway", "GatewayConfig", "RequestOutcome", "ServeReport", "TrafficSource"]

#: outcome statuses
SERVED = "served"


@runtime_checkable
class TrafficSource(Protocol):
    """What the gateway needs from a traffic generator: the initial
    arrival schedule, plus a closed-loop feedback hook invoked once
    per *terminal* outcome — served or shed — so a client whose
    request was dropped still paces its next one."""

    def initial(self) -> list[Request]:
        ...  # pragma: no cover

    def on_complete(self, request: Request, now: float) -> Request | None:
        ...  # pragma: no cover


@dataclass(frozen=True)
class GatewayConfig:
    """Gateway policy knobs (the session's own config governs the
    coded-computing side).

    Attributes
    ----------
    batch_policy:
        Registered policy name (``"count" | "deadline" | "hybrid"``
        built in; see :mod:`repro.serve.batcher`).
    policy_options:
        Keyword arguments for the policy factory (e.g. ``{"window": 16,
        "safety": 1.5}``).
    max_batch:
        Hard cap on requests per dispatched round; effectively also
        capped by the session's ``batch_window`` (the gateway never
        submits more than one auto-flush worth of jobs per round).
    queue_depth:
        Per-tenant admission bound; offers beyond it are shed.
    tenant_weights:
        Fair-dequeue weights (unknown tenants get 1.0).
    """

    batch_policy: str = "hybrid"
    policy_options: Mapping[str, Any] = dc_field(default_factory=dict)
    max_batch: int = 32
    queue_depth: int = 64
    tenant_weights: Mapping[str, float] = dc_field(default_factory=dict)

    def __post_init__(self):
        if self.max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {self.max_batch}")
        if self.queue_depth < 1:
            raise ValueError(f"queue_depth must be >= 1, got {self.queue_depth}")
        object.__setattr__(self, "policy_options", dict(self.policy_options))
        object.__setattr__(self, "tenant_weights", dict(self.tenant_weights))


@dataclass(frozen=True)
class RequestOutcome:
    """Terminal accounting for one request."""

    request_id: int
    tenant: str
    family: str
    arrival: float
    deadline: float
    status: str  # "served" | "shed-queue-full" | "shed-expired"
    dispatched: float | None = None
    completed: float | None = None
    latency: float | None = None
    #: None when the request carried no (finite) deadline
    slo_met: bool | None = None
    #: sequence number of the audit-chain commitment backing this
    #: request's round (``SessionConfig.audit`` on); ``None`` — and
    #: absent from :meth:`to_dict` — otherwise
    audit_seq: int | None = None

    def to_dict(self) -> dict[str, Any]:
        def clean(x: float | None) -> float | None:
            if x is None or (isinstance(x, float) and not math.isfinite(x)):
                return None
            return float(x)

        out = {
            "request_id": self.request_id,
            "tenant": self.tenant,
            "family": self.family,
            "arrival": clean(self.arrival),
            "deadline": clean(self.deadline),
            "status": self.status,
            "dispatched": clean(self.dispatched),
            "completed": clean(self.completed),
            "latency": clean(self.latency),
            "slo_met": self.slo_met,
        }
        if self.audit_seq is not None:
            # only audited runs carry the key: unaudited report rows
            # stay byte-identical to pre-audit builds
            out["audit_seq"] = self.audit_seq
        return out


@dataclass(frozen=True)
class ServeReport:
    """Aggregate service quality of one gateway run (JSON-able)."""

    outcomes: tuple[RequestOutcome, ...]
    t_start: float
    t_end: float
    tenant_weights: Mapping[str, float] = dc_field(default_factory=dict)
    rounds_executed: int = 0
    batching_factor: float = 0.0
    pipeline_occupancy: float = 0.0

    # ------------------------------------------------------------------
    @property
    def duration(self) -> float:
        return self.t_end - self.t_start

    @property
    def total(self) -> int:
        return len(self.outcomes)

    @property
    def served(self) -> tuple[RequestOutcome, ...]:
        return tuple(o for o in self.outcomes if o.status == SERVED)

    @property
    def shed_queue_full(self) -> int:
        return sum(1 for o in self.outcomes if o.status == "shed-queue-full")

    @property
    def shed_expired(self) -> int:
        return sum(1 for o in self.outcomes if o.status == "shed-expired")

    @property
    def shed(self) -> int:
        return self.total - len(self.served)

    def latencies(self) -> np.ndarray:
        return np.array([o.latency for o in self.served], dtype=float)

    def latency_histogram(self) -> HistogramSnapshot:
        """Served latencies on the shared fixed bucket ladder — two
        reports' histograms merge losslessly
        (:meth:`~repro.obs.metrics.HistogramSnapshot.merge`)."""
        return snapshot_from_values(self.latencies().tolist())

    def tenant_latency_histograms(self) -> dict[str, HistogramSnapshot]:
        """Per-tenant served-latency histograms (same ladder)."""
        out: dict[str, HistogramSnapshot] = {}
        for tenant in sorted({o.tenant for o in self.served}):
            out[tenant] = snapshot_from_values(
                [o.latency for o in self.served if o.tenant == tenant]
            )
        return out

    def latency_percentile(self, p: float) -> float:
        lat = self.latencies()
        if lat.size == 0:
            return math.nan
        return float(np.percentile(lat, p))

    @property
    def p50(self) -> float:
        return self.latency_percentile(50.0)

    @property
    def p95(self) -> float:
        return self.latency_percentile(95.0)

    @property
    def p99(self) -> float:
        return self.latency_percentile(99.0)

    @property
    def slo_attainment(self) -> float:
        """Fraction of deadline-carrying requests served within their
        deadline (sheds count against; 1.0 when nothing carried one)."""
        with_slo = [o for o in self.outcomes if math.isfinite(o.deadline)]
        if not with_slo:
            return 1.0
        return sum(1 for o in with_slo if o.slo_met) / len(with_slo)

    @property
    def throughput(self) -> float:
        """Served requests per backend-clock second."""
        if self.duration <= 0:
            return 0.0
        return len(self.served) / self.duration

    # ------------------------------------------------------------------
    def tenant_summary(self) -> dict[str, dict[str, float]]:
        """Per-tenant served/shed counts and mean/p99 latency."""
        out: dict[str, dict[str, float]] = {}
        for tenant in sorted({o.tenant for o in self.outcomes}):
            mine = [o for o in self.outcomes if o.tenant == tenant]
            served = [o for o in mine if o.status == SERVED]
            lat = np.array([o.latency for o in served], dtype=float)
            out[tenant] = {
                "submitted": len(mine),
                "served": len(served),
                "shed": len(mine) - len(served),
                "mean_latency": float(lat.mean()) if lat.size else math.nan,
                "p99_latency": float(np.percentile(lat, 99)) if lat.size else math.nan,
            }
        return out

    def fairness_index(self) -> float:
        """Jain's index over per-tenant weight-normalized service
        (1.0 = perfectly weight-proportional; 1/n = one tenant took
        everything)."""
        shares = []
        for tenant, row in self.tenant_summary().items():
            weight = float(self.tenant_weights.get(tenant, 1.0))
            shares.append(row["served"] / weight)
        if not shares or all(s == 0 for s in shares):
            return 1.0
        x = np.array(shares, dtype=float)
        return float(x.sum() ** 2 / (x.size * (x**2).sum()))

    # ------------------------------------------------------------------
    def metrics(self) -> dict[str, float]:
        """Headline scalars (the benchmark/CI surface)."""
        return {
            "total": float(self.total),
            "served": float(len(self.served)),
            "shed_queue_full": float(self.shed_queue_full),
            "shed_expired": float(self.shed_expired),
            "p50_latency": self.p50,
            "p95_latency": self.p95,
            "p99_latency": self.p99,
            "slo_attainment": self.slo_attainment,
            "throughput": self.throughput,
            "fairness_index": self.fairness_index(),
            "duration": self.duration,
            "rounds_executed": float(self.rounds_executed),
            "batching_factor": self.batching_factor,
            "pipeline_occupancy": self.pipeline_occupancy,
        }

    def to_dict(self, include_histograms: bool = False) -> dict[str, Any]:
        def clean(v: float) -> float | None:
            return None if isinstance(v, float) and not math.isfinite(v) else v

        out = {
            "metrics": {k: clean(v) for k, v in self.metrics().items()},
            "tenants": {
                t: {k: clean(v) for k, v in row.items()}
                for t, row in self.tenant_summary().items()
            },
            "requests": [o.to_dict() for o in self.outcomes],
        }
        if include_histograms:
            # opt-in so the default serialization stays byte-identical
            out["histograms"] = {
                "latency": self.latency_histogram().to_dict(),
                "tenants": {
                    t: h.to_dict()
                    for t, h in self.tenant_latency_histograms().items()
                },
            }
        return out

    def summary(self) -> str:
        return (
            f"{len(self.served)}/{self.total} served "
            f"({self.shed_expired} expired, {self.shed_queue_full} queue-full shed) "
            f"in {self.duration:.4f}s; p50 {self.p50:.4f}s p99 {self.p99:.4f}s, "
            f"SLO attainment {self.slo_attainment:.1%}, "
            f"fairness {self.fairness_index():.3f}, "
            f"{self.rounds_executed} rounds (batching x{self.batching_factor:.2f})"
        )


# ----------------------------------------------------------------------
class Gateway:
    """Drive a traffic source through a session; collect a ServeReport.

    The gateway owns the serving policy (admission, fairness,
    micro-batching) and *borrows* the session — callers construct and
    close the session (typically as a context manager) and must have
    called ``session.load(x)`` before :meth:`run` if the traffic
    contains matvec/gramian requests.
    """

    def __init__(
        self,
        session: Session,
        source: TrafficSource,
        config: GatewayConfig | None = None,
        *,
        control_interval: float | None = None,
        controller: Any = None,
    ):
        self.session = session
        self.source = source
        self.config = config or GatewayConfig()
        if controller is not None and control_interval is None:
            raise ValueError(
                "a controller needs control_interval (the window length in "
                "trace seconds) to receive windows"
            )
        if control_interval is not None and control_interval <= 0:
            raise ValueError(
                f"control_interval must be > 0, got {control_interval}"
            )
        #: window length (trace seconds) for control-plane telemetry;
        #: None disables windowing entirely (zero-overhead default)
        self.control_interval = control_interval
        #: anything exposing on_window(WindowSignals) — typically a
        #: repro.control.controller.FleetController
        self.controller = controller
        #: one WindowSignals per closed control window, in order
        self.window_history: list[WindowSignals] = []
        self._fresh_outcomes: list[RequestOutcome] = []
        self._next_window = (
            control_interval if control_interval is not None else math.inf
        )
        self._window_index = 0
        self._records_mark = 0
        self._adapt_mark = 0
        policy = make_batch_policy(
            self.config.batch_policy, **self.config.policy_options
        )
        # never out-batch the session's own auto-flush window: the
        # gateway dispatches exactly one coalesced round per batch
        max_batch = min(self.config.max_batch, session.batch_window)
        self._batcher = MicroBatcher(
            policy, session.estimate_round_time, max_batch=max_batch
        )
        self._queue = FairQueue(
            depth=self.config.queue_depth, weights=self.config.tenant_weights
        )
        self._inflight: list[tuple[Request, JobHandle, float]] = []
        self._outcomes: dict[int, RequestOutcome] = {}
        #: decoded result vectors by request id (parity checks)
        self.results: dict[int, np.ndarray] = {}
        self._ran = False
        self._t0 = 0.0
        self._floor = 0.0
        #: the session's Observability (None unless the session config
        #: enabled it) — tracing and window accounting hang off it
        self.obs = getattr(session, "obs", None)
        self.audit = getattr(session, "audit", None)
        self._record_outcome: Any = None
        if self.obs is not None:
            # no control loop -> nobody ever drains the raw-value
            # windows; disarm them so the hot path skips the appends
            set_window_tracking(self.obs.registry, control_interval is not None)
            self._record_outcome = outcome_recorder(self.obs.registry)
        self._obs_marks: dict[Any, float] = {}
        #: request_id -> (root "request" span, "gateway.queue" span)
        self._req_spans: dict[int, list[Any]] = {}
        #: (tenant, family) -> shared root-attr dict for admission spans
        self._admit_attrs: dict[tuple[str, str], dict[str, Any]] = {}

    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """The current *trace* time: backend seconds since :meth:`run`
        started. Workload arrival/deadline timestamps count from t=0,
        but by the time the gateway runs, the backend clock has already
        paid for ``session.load`` (share distribution); rebasing keeps
        the trace aligned — the service opens its doors at trace t=0 —
        instead of silently charging every early request's latency and
        SLO budget for the setup.

        ``_floor`` carries the last :meth:`_advance` target exactly:
        ``(_t0 + t) - _t0`` can round to a hair below ``t``, and
        without the floor the event loop would re-advance to the same
        instant forever."""
        return max(self.session.now - self._t0, self._floor)

    def _advance(self, t: float) -> None:
        self.session.backend.advance_to(self._t0 + t)
        if t > self._floor:
            self._floor = t

    @staticmethod
    def _session_family(request: Request) -> str | None:
        """Map a request to the session's encoded-family key (None =
        unbatchable, dispatch alone)."""
        if request.family == "matvec":
            return "bwd" if request.transpose else "fwd"
        if request.family == "gramian":
            return "gram"
        return None  # matmul: factors pre-ship at submission, no batching

    # ------------------------------------------------------------------
    def run(self) -> ServeReport:
        """Execute the full trace; every request ends served or shed."""
        if self._ran:
            raise RuntimeError("gateway already ran; build a fresh one per trace")
        self._ran = True
        self._t0 = self.session.now  # trace t=0 (see `now`)
        self._floor = 0.0
        heap: list[tuple[float, int, Request]] = [
            (r.arrival, r.request_id, r) for r in self.source.initial()
        ]
        heapq.heapify(heap)
        while True:
            self._harvest(heap)
            self._control_tick()
            self._ingest(heap)
            self._fill(heap)
            due = self._batcher.take_due(self.now)
            if due:
                for batch in due:
                    self._dispatch(batch, heap)
                continue
            t_next = min(
                heap[0][0] if heap else math.inf, self._batcher.next_due()
            )
            if math.isfinite(t_next):
                # nothing due yet: sleep (virtually) until the next
                # arrival or the earliest batch-dispatch obligation.
                # A dispatch inside _fill may have advanced the clock
                # past t_next already — then just loop to re-ingest.
                if t_next > self.now:
                    self._advance(t_next)
                continue
            if self._batcher.pending:
                # arrivals exhausted: flush the remainder
                for batch in self._batcher.drain():
                    self._dispatch(batch, heap)
                continue
            if self._inflight:
                self.session.drain()
                self._harvest(heap)  # may spawn closed-loop arrivals
            if heap:
                continue
            break
        return self._build_report()

    # ------------------------------------------------------------------
    # control plane (inert unless control_interval is set)
    # ------------------------------------------------------------------
    def _control_tick(self) -> None:
        """Close every control window the clock has passed: build its
        :class:`~repro.control.signals.WindowSignals` and hand it to
        the controller (if any). Called between dispatches, so any
        controller-triggered membership change goes through a drained
        session quiesce point."""
        while self.now >= self._next_window:
            signals = self._build_window(self._next_window)
            self.window_history.append(signals)
            self._next_window += self.control_interval
            if self.controller is not None:
                self.controller.on_window(signals)

    def _build_window(self, t_end: float) -> WindowSignals:
        fresh = self._fresh_outcomes
        self._fresh_outcomes = []
        stats = self.session.stats
        byz = {
            w
            for r in stats.records[self._records_mark :]
            for w in r.rejected_workers
        }
        self._records_mark = len(stats.records)
        strag = {
            w
            for a in stats.adaptations[self._adapt_mark :]
            for w in a.observed_stragglers
        }
        self._adapt_mark = len(stats.adaptations)
        view = self.session.backend.membership()
        # only dead workers still in the coding roster are actionable
        # drift — once the master evicts them a re-code is a no-op, and
        # counting them forever would make the policy re-fire every
        # window until the daemons are restarted.
        dead = set(view.dead)
        roster = getattr(self.session.master, "active", None)
        if roster is not None:
            dead &= set(roster)
        if self.obs is not None:
            # registry-fed accounting: counter deltas + window-exact
            # histogram drains (bit-equal to the legacy path below)
            self.obs.registry.gauge(
                "gateway_queue_depth", "requests waiting at window close"
            ).set(len(self._queue))
            signals = WindowSignals.from_registry(
                self.obs.registry,
                self._obs_marks,
                window_index=self._window_index,
                t_start=t_end - self.control_interval,
                t_end=t_end,
                queue_depth=len(self._queue),
                live_workers=len(view.live),
                pending_workers=len(view.pending),
                dead_workers=len(dead),
                observed_stragglers=len(strag),
                detected_byzantine=len(byz),
            )
            self._window_index += 1
            return signals
        served = [o for o in fresh if o.status == SERVED]
        with_slo = [o for o in fresh if math.isfinite(o.deadline)]
        slo = (
            sum(1 for o in with_slo if o.slo_met) / len(with_slo)
            if with_slo
            else 1.0
        )
        lats = [o.latency for o in served if o.latency is not None]
        p99 = float(np.percentile(lats, 99.0)) if lats else math.nan
        slacks = [
            o.deadline - o.completed
            for o in served
            if math.isfinite(o.deadline) and o.completed is not None
        ]
        signals = WindowSignals(
            window_index=self._window_index,
            t_start=t_end - self.control_interval,
            t_end=t_end,
            completed=len(fresh),
            served=len(served),
            shed=len(fresh) - len(served),
            queue_depth=len(self._queue),
            slo_attainment=slo,
            p99_latency=p99,
            deadline_slack=min(slacks) if slacks else math.nan,
            live_workers=len(view.live),
            pending_workers=len(view.pending),
            dead_workers=len(dead),
            observed_stragglers=len(strag),
            detected_byzantine=len(byz),
        )
        self._window_index += 1
        return signals

    def _build_report(self) -> ServeReport:
        outcomes = tuple(
            self._outcomes[rid] for rid in sorted(self._outcomes)
        )
        stats = self.session.stats
        return ServeReport(
            outcomes=outcomes,
            t_start=0.0,
            t_end=self.now,
            tenant_weights=dict(self.config.tenant_weights),
            rounds_executed=stats.rounds_executed,
            batching_factor=stats.batching_factor,
            pipeline_occupancy=stats.pipeline_occupancy,
        )

    # ------------------------------------------------------------------
    # request tracing (inert when observability is off)
    # ------------------------------------------------------------------
    def _trace_admit(self, req: Request, now: float) -> None:
        """Open the request's trace at admission: a ``request`` root
        plus a ``gateway.queue`` child covering time spent queued.
        Spans carry *absolute* backend-clock times (``_t0 + trace``) so
        they line up with the session/round spans grafted later."""
        akey = (req.tenant, req.family)
        attrs = self._admit_attrs.get(akey)
        if attrs is None:
            attrs = self._admit_attrs[akey] = {
                "tenant": req.tenant,
                "family": req.family,
            }
        pair = self.obs.tracer.begin_request(
            f"req-{req.request_id}",
            "request",
            "gateway.queue",
            self._t0 + now,
            root_attrs=attrs,
        )
        self._req_spans[req.request_id] = list(pair)

    def _trace_dequeue(self, req: Request, now: float) -> None:
        pair = self._req_spans.get(req.request_id)
        if pair is not None and pair[1] is not None:
            self.obs.tracer.end(pair[1], self._t0 + now)
            pair[1] = None

    def _trace_dequeue_batch(self, reqs: list[Request], now: float) -> None:
        """Close every dequeued request's queue span in one event."""
        spans = self._req_spans
        ids = []
        for req in reqs:
            pair = spans.get(req.request_id)
            if pair is not None and pair[1] is not None:
                ids.append(pair[1])
                pair[1] = None
        if ids:
            self.obs.tracer.end_many(ids, self._t0 + now)

    def _trace_finish(self, req: Request, status: str, t_abs: float) -> None:
        pair = self._req_spans.pop(req.request_id, None)
        if pair is None:
            return
        root, queue_span = pair
        if queue_span is not None:  # shed straight out of the queue
            self.obs.tracer.end(queue_span, t_abs)
        self.obs.tracer.end(root, t_abs, status=status)

    # ------------------------------------------------------------------
    def _ingest(self, heap: list[tuple[float, int, Request]]) -> None:
        """Admit every arrival at or before the current clock."""
        while heap and heap[0][0] <= (now := self.now):
            _, _, req = heapq.heappop(heap)
            if self.obs is not None:
                self._trace_admit(req, now)
            self._queue.offer(req, now)
        self._note_shed(heap)

    def _fill(self, heap: list[tuple[float, int, Request]]) -> None:
        """Move fair-dequeued requests into the batcher (matmul
        dispatches alone); a family hitting the batch cap dispatches
        immediately (window pressure)."""
        while True:
            req = self._queue.pop(self.now)
            self._note_shed(heap)
            if req is None:
                return
            family = self._session_family(req)
            if family is None:
                self._dispatch_single(req, heap)
                continue
            self._batcher.add(family, req, self.now)
            if self._batcher.due_now(family, self.now):
                batch = self._batcher.pop_family(family)
                if batch is not None:
                    self._dispatch(batch, heap)

    def _dispatch(
        self, batch: PendingBatch, heap: list[tuple[float, int, Request]]
    ) -> None:
        """One coalesced round for the batch (expired stragglers shed)."""
        now = self.now
        live: list[Request] = []
        for req in batch.requests:
            if req.expired(now):
                self._finish_shed(req, SHED_EXPIRED, heap)
            else:
                live.append(req)
        if not live:
            return
        if self.obs is not None:
            self._trace_dequeue_batch(live, now)
        handles = [self.session.submit(r) for r in live]
        self.session.flush(batch.family)
        self._inflight.extend((r, h, now) for r, h in zip(live, handles))
        self._harvest(heap)

    def _dispatch_single(
        self, req: Request, heap: list[tuple[float, int, Request]]
    ) -> None:
        now = self.now
        if req.expired(now):
            self._finish_shed(req, SHED_EXPIRED, heap)
            return
        if self.obs is not None:
            self._trace_dequeue(req, now)
        handle = self.session.submit(req)
        self._inflight.append((req, handle, now))
        self._harvest(heap)

    def _harvest(self, heap: list[tuple[float, int, Request]]) -> None:
        """Record completions for every resolved handle; feed the
        closed-loop source."""
        still: list[tuple[Request, JobHandle, float]] = []
        for req, handle, t_disp in self._inflight:
            if not handle.done():
                still.append((req, handle, t_disp))
                continue
            outcome = handle.outcome()
            completed = outcome.record.t_end - self._t0  # trace time
            self.results[req.request_id] = outcome.vector
            slo = completed <= req.deadline if math.isfinite(req.deadline) else None
            done = RequestOutcome(
                request_id=req.request_id,
                tenant=req.tenant,
                family=req.family,
                arrival=req.arrival,
                deadline=req.deadline,
                status=SERVED,
                dispatched=t_disp,
                completed=completed,
                latency=completed - req.arrival,
                slo_met=slo,
                audit_seq=handle._audit_seq,
            )
            self._outcomes[req.request_id] = done
            self._fresh_outcomes.append(done)
            if self.obs is not None:
                self._trace_finish(req, SERVED, outcome.record.t_end)
                self._record_outcome(done)
            follow_up = self.source.on_complete(req, completed)
            if follow_up is not None:
                heapq.heappush(
                    heap, (follow_up.arrival, follow_up.request_id, follow_up)
                )
        self._inflight = still

    # ------------------------------------------------------------------
    def _note_shed(self, heap: list[tuple[float, int, Request]]) -> None:
        for req, verdict in self._queue.take_shed():
            self._finish_shed(req, verdict, heap)

    def _finish_shed(
        self, req: Request, status: str, heap: list[tuple[float, int, Request]]
    ) -> None:
        done = RequestOutcome(
            request_id=req.request_id,
            tenant=req.tenant,
            family=req.family,
            arrival=req.arrival,
            deadline=req.deadline,
            status=status,
            slo_met=False if math.isfinite(req.deadline) else None,
        )
        self._outcomes[req.request_id] = done
        self._fresh_outcomes.append(done)
        if self.obs is not None:
            self._trace_finish(req, status, self._t0 + self.now)
            self._record_outcome(done)
        # a shed is a terminal outcome too: a closed-loop client whose
        # request was dropped still issues its next one
        follow_up = self.source.on_complete(req, self.now)
        if follow_up is not None:
            heapq.heappush(
                heap, (follow_up.arrival, follow_up.request_id, follow_up)
            )
