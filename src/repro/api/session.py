"""The high-level session: config in, verified decoded results out.

``Session`` is the sanctioned front door to the coded-computing stack.
It owns the whole vertical — field, scheme, backend, master, worker
fleet — built from one :class:`~repro.api.config.SessionConfig`
through the name tables, and exposes a job-submission surface:

    cfg = SessionConfig(scheme=SchemeParams(n=6, k=3, s=1, m=1))
    with Session.create(cfg) as sess:
        sess.load(x)                      # encode + ship shares + keys
        z = sess.submit_matvec(w).result()   # exact X @ w

Round batching
--------------
Submissions return *futures* (:class:`JobHandle`), not results. Jobs
against the same encoded family accumulate in a per-family queue and
are **coalesced into a single broadcast round** when the queue is
flushed (first ``result()`` call, an explicit :meth:`Session.flush`,
``end_iteration``, or the ``batch_window`` filling up). B concurrent
jobs then cost one operand broadcast, one straggler exposure, one
verification sweep and one decode instead of B — the service's
heavy-traffic path. :attr:`Session.stats` makes the coalescing
observable (``jobs_per_round``, ``batching_factor``) and aggregates
the per-round verify/decode/adaptation telemetry from the masters'
round records (``SessionStats.records``, the run's one log).

Round pipelining
----------------
Orthogonally to batching, the session keeps up to
``SessionConfig.max_inflight_rounds`` *rounds* in flight through the
:class:`~repro.api.scheduler.RoundScheduler`: :meth:`flush` plans and
dispatches without waiting for decode, so independent rounds
(different families, successive serving requests) overlap — workers
compute round *i+1* while the master verifies/decodes round *i*.
The default window is 2, so a fleet computes one family's round
while the master verifies the other's; rounds that depend on an
earlier result still run at depth 1. ``max_inflight_rounds = 1`` is
the serial scheduler; results are byte-identical across window sizes
either way.
``JobHandle.result()`` waits only for its own round (and the rounds
dispatched before it, which the master core must finalize first);
``end_iteration`` drains the window before adapting, so a dynamic
re-code never mixes shares from two scheme configurations in one
round.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from itertools import islice
from typing import Any, Callable, Iterator

import numpy as np

from repro.api.config import SessionConfig
from repro.api.registry import resolve_backend, resolve_master
from repro.api.scheduler import InflightRound, RoundScheduler, SessionClosedError
from repro.core.results import AdaptationOutcome, RoundOutcome, RoundRecord
from repro.obs import MetricsRegistry, Observability
from repro.obs.audit import AuditLog
from repro.runtime.backend import Backend, MembershipEvent

__all__ = ["JobHandle", "JobRequest", "Session", "SessionClosedError", "SessionStats"]

#: request families the submission surface accepts
JOB_FAMILIES = ("matvec",)


@dataclass(frozen=True, eq=False)
class JobRequest:
    """One typed unit of work for :meth:`Session.submit`.

    The canonical submission type: the convenience wrapper
    ``submit_matvec`` constructs one of these and hands it to
    ``submit``. Any object exposing the same attributes — notably
    :class:`repro.serve.workload.Request` — is accepted by ``submit``
    directly.

    Attributes
    ----------
    family:
        ``"matvec"``, the one family; it labels the job's trace.
    operand:
        The job's input vector.
    transpose:
        Serve ``X.T @ operand`` instead of ``X @ operand``.
    """

    family: str
    operand: np.ndarray
    transpose: bool = False

    def __post_init__(self) -> None:
        if self.family not in JOB_FAMILIES:
            raise ValueError(
                f"unknown request family {self.family!r}; "
                f"expected {'|'.join(JOB_FAMILIES)}"
            )


class JobHandle:
    """Future-like handle for one submitted job.

    ``result()`` forces the session to flush the job's batch (if still
    pending) and returns the decoded array; ``record`` then exposes the
    round's timing/accounting (shared by every job the round served).
    """

    #: set by the session when observability is on:
    #: (trace_id, session span, root span if the session opened it)
    _trace: tuple[str, Any, Any] | None = None

    #: set at finalize when auditing is on: the sequence number of the
    #: audit-chain commitment backing this job's round
    _audit_seq: int | None = None

    def __init__(self, session: "Session", kind: str, family: str) -> None:
        #: only a pending handle needs its session (to flush and drain
        #: up to its round); dropped on resolution, so results a caller
        #: keeps do not keep a closed session's dataset and shares alive
        self._session: "Session | None" = session
        self.kind = kind
        self.family = family
        self._outcome: RoundOutcome | None = None
        self._error: BaseException | None = None

    def done(self) -> bool:
        return self._outcome is not None or self._error is not None

    def _resolve(self, outcome: RoundOutcome) -> None:
        self._outcome = outcome
        self._session = None

    def _fail(self, exc: BaseException) -> None:
        self._error = exc
        self._session = None

    def outcome(self) -> RoundOutcome:
        """The full :class:`~repro.core.results.RoundOutcome` (flushes
        the pending batch and finalizes in-flight rounds up to this
        job's own on first call)."""
        if self._session is not None:  # still pending
            self._session._resolve_handle(self)
        if self._error is not None:
            raise self._error
        assert self._outcome is not None
        return self._outcome

    def result(self) -> np.ndarray:
        """The decoded vector."""
        return self.outcome().vector

    @property
    def record(self) -> RoundRecord:
        """Timing/accounting of the round that served this job."""
        return self.outcome().record

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "done" if self.done() else "pending"
        return f"JobHandle({self.kind}:{self.family}, {state})"


@dataclass
class SessionStats:
    """Aggregated service telemetry, updated live by the session."""

    jobs_submitted: int = 0
    jobs_served: int = 0
    rounds_executed: int = 0
    #: number of jobs each executed round served (len == rounds_executed)
    jobs_per_round: list[int] = dc_field(default_factory=list)
    #: one record per executed round, in execution order
    records: list[RoundRecord] = dc_field(default_factory=list)
    #: one outcome per end_iteration() call
    adaptations: list[AdaptationOutcome] = dc_field(default_factory=list)
    #: in-flight depth observed at each dispatch (1 = nothing else was
    #: in flight; >= 2 = this round overlapped earlier ones)
    dispatch_depths: list[int] = dc_field(default_factory=list)
    #: fleet membership transitions (dead/dropped/rejoined/joined) in
    #: observation order, drained from the backend at iteration
    #: boundaries and on close — heartbeat-declared deaths show up
    #: here explicitly, not just as never-arrived stragglers
    membership_events: list[MembershipEvent] = dc_field(default_factory=list)
    #: the backend's live wire-level tallies (socket backends with
    #: observability on; ``None`` otherwise — keeps :meth:`summary`
    #: byte-identical to an untraced build when the knob is off)
    wire: Any = None

    @property
    def batched_jobs(self) -> int:
        """Jobs that shared their round with at least one other job."""
        return sum(b for b in self.jobs_per_round if b > 1)

    @property
    def batching_factor(self) -> float:
        """Mean jobs per executed round (1.0 = no coalescing)."""
        if not self.rounds_executed:
            return 0.0
        return self.jobs_served / self.rounds_executed

    @property
    def verify_time(self) -> float:
        return sum(r.verify_time for r in self.records)

    @property
    def decode_time(self) -> float:
        return sum(r.decode_time for r in self.records)

    @property
    def reencode_time(self) -> float:
        return sum(a.reencode_time for a in self.adaptations)

    @property
    def rejected_workers(self) -> tuple[int, ...]:
        """Workers that ever failed verification, sorted."""
        return tuple(sorted({w for r in self.records for w in r.rejected_workers}))

    # ------------------------------------------------------------------
    # membership telemetry
    # ------------------------------------------------------------------
    @property
    def dead_workers(self) -> tuple[int, ...]:
        """Workers ever declared dead (socket/heartbeat), sorted."""
        return self._membership_ids("dead")

    @property
    def rejoined_workers(self) -> tuple[int, ...]:
        """Previously lost worker ids that re-registered, sorted."""
        return self._membership_ids("rejoined")

    @property
    def joined_workers(self) -> tuple[int, ...]:
        """Brand-new worker ids admitted after startup, sorted."""
        return self._membership_ids("joined")

    @property
    def membership_changes(self) -> int:
        """Total membership transitions observed."""
        return len(self.membership_events)

    def _membership_ids(self, kind: str) -> tuple[int, ...]:
        return tuple(
            sorted({e.worker_id for e in self.membership_events if e.kind == kind})
        )

    # ------------------------------------------------------------------
    # round-time telemetry (feeds the serving layer's deadline batcher)
    # ------------------------------------------------------------------
    def recent_round_time(self, window: int = 8, family: str | None = None) -> float:
        """Mean duration of the last ``window`` rounds (0.0 if none) —
        the live signal the serving layer blends with the cost-model
        prior when estimating how long the next round will take.
        ``family`` restricts to rounds of one encoded family (matched
        against the records' ``round_name``), so a ``bwd``-heavy
        stretch does not skew a ``fwd`` estimate."""
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        if family is None:
            durations = [r.duration for r in self.records[-window:]]
        else:
            # newest first, stopping at ``window`` matches: the cost is
            # the window plus the other families' rounds since, not the
            # whole log (the gateway asks per batching decision)
            matching = (
                r.duration for r in reversed(self.records) if r.round_name == family
            )
            durations = list(islice(matching, window))
            durations.reverse()  # summed oldest first, as the log reads
        if not durations:
            return 0.0
        return float(sum(durations)) / len(durations)

    # ------------------------------------------------------------------
    # pipeline telemetry
    # ------------------------------------------------------------------
    @property
    def max_inflight_depth(self) -> int:
        """Deepest in-flight window ever observed at a dispatch."""
        return max(self.dispatch_depths, default=0)

    @property
    def pipeline_occupancy(self) -> float:
        """Mean in-flight depth at dispatch (1.0 = strictly serial)."""
        if not self.dispatch_depths:
            return 0.0
        return float(sum(self.dispatch_depths)) / len(self.dispatch_depths)

    @property
    def rounds_overlapped(self) -> int:
        """Rounds dispatched while at least one other was in flight."""
        return sum(1 for d in self.dispatch_depths if d >= 2)

    def summary(self) -> str:
        text = (
            f"{self.jobs_served}/{self.jobs_submitted} jobs served in "
            f"{self.rounds_executed} rounds "
            f"(batching x{self.batching_factor:.2f}, "
            f"pipeline depth {self.pipeline_occupancy:.2f}); "
            f"verify {self.verify_time:.4f}s, decode {self.decode_time:.4f}s, "
            f"re-encode {self.reencode_time:.4f}s"
        )
        if self.membership_events:
            text += (
                f"; membership: {len(self.dead_workers)} died, "
                f"{len(self.rejoined_workers)} rejoined, "
                f"{len(self.joined_workers)} joined"
            )
        if self.wire is not None:
            w = self.wire
            text += (
                f"; wire: {w.frames_out} frames/{w.bytes_out}B out, "
                f"{w.frames_in} frames/{w.bytes_in}B in, "
                f"{w.crc_rejects} crc rejects"
            )
        return text


def _round_collector(stats: SessionStats) -> Callable[[MetricsRegistry], None]:
    """A registry collector over one session's round log: each read
    folds the rounds finalized since the last into the five session
    series, a view of ``stats.records`` and ``stats.jobs_per_round``."""
    folded = 0

    def fold(registry: MetricsRegistry) -> None:
        nonlocal folded
        rounds = registry.counter(
            "session_rounds_total", "rounds finalized, by family"
        )
        jobs = registry.counter(
            "session_jobs_served_total", "jobs resolved by finalized rounds"
        )
        durations = registry.histogram(
            "session_round_duration_seconds", "finalized round duration"
        )
        verify = registry.histogram(
            "session_verify_seconds", "per-round master verification time"
        )
        decode = registry.histogram(
            "session_decode_seconds", "per-round master decode time"
        )
        records = stats.records
        # length first: `_note_round` appends the job count before the
        # record, so every record counted here has its job count
        n = len(records)
        jobs_per_round = stats.jobs_per_round
        for i in range(folded, n):
            record = records[i]
            rounds.inc(family=record.round_name)
            jobs.inc(float(jobs_per_round[i]))
            durations.observe(record.duration, family=record.round_name)
            verify.observe(record.verify_time)
            decode.observe(record.decode_time)
        folded = n

    return fold


class Session:
    """A live coded-computing service over one dataset.

    Construct with :meth:`create` (config-driven, owns the backend) or
    :meth:`from_master` (wraps an already-wired master — how the
    trainers keep accepting bare masters). Use as a context manager to
    release backend resources deterministically.
    """

    def __init__(
        self,
        master: Any,
        *,
        config: SessionConfig | None = None,
        owns_backend: bool = False,
    ) -> None:
        self.master = master
        self.backend: Backend = master.backend
        self.field = master.field
        self.config = config
        self.batch_window = (
            config.batch_window
            if config
            else SessionConfig.__dataclass_fields__["batch_window"].default
        )
        self.max_inflight_rounds = (
            config.max_inflight_rounds
            if config
            else SessionConfig.__dataclass_fields__["max_inflight_rounds"].default
        )
        self._owns_backend = owns_backend
        self._pending: dict[str, list[tuple[JobHandle, np.ndarray]]] = {}
        self._stats = SessionStats()
        self.obs: Observability | None = (
            Observability() if config is not None and config.observability else None
        )
        if self.obs is not None:
            # the backend consults this to trace dispatches (and, on the
            # socket backends, to ask worker daemons for their sub-spans)
            self.backend.obs = self.obs
            reg = self.obs.registry
            reg.register_collector(_round_collector(self._stats))
            #: (kind, family) -> shared (root_attrs, child_attrs) for
            #: submit spans (the tracer copies on drain)
            self._trace_attrs: dict[tuple[str, str], tuple[dict, dict]] = {}
            wire = getattr(self.backend, "wire", None)
            if wire is not None:
                self._stats.wire = wire
                backend_name = config.backend if config else "unknown"
                reg.register_collector(
                    lambda r, w=wire, b=backend_name: w.collect_into(r, b)
                )
        self.audit: AuditLog | None = (
            AuditLog() if config is not None and config.audit else None
        )
        if self.audit is not None:
            # arm the master and ask the socket backends to request
            # worker countersignatures on every round frame
            self.master.audit = self.audit
            self.backend.attest = True
            if self.obs is not None:
                # the live /audit telemetry endpoints read through obs
                self.obs.audit = self.audit
        self._scheduler = RoundScheduler(
            self.master,
            self.max_inflight_rounds,
            on_dispatched=self._stats.dispatch_depths.append,
            on_finalized=self._note_finalized,
        )
        self._x: np.ndarray | None = None
        self._closed = False

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def create(cls, config: SessionConfig) -> "Session":
        """Build field → workers → backend → master from one config,
        resolving the backend and master by name."""
        field = config.build_field()
        workers = config.build_workers()
        backend = resolve_backend(config.backend)(
            config, field, workers, config.build_rng()
        )
        try:
            master = resolve_master(config.master)(
                config, backend, config.build_rng(offset=1)
            )
        except BaseException:
            backend.close()
            raise
        return cls(master, config=config, owns_backend=True)

    @classmethod
    def from_master(cls, master: Any) -> "Session":
        """Wrap an existing master/backend pair (borrowed — closing the
        session does not close the backend)."""
        return cls(master, owns_backend=False)

    # ------------------------------------------------------------------
    # data
    # ------------------------------------------------------------------
    def load(self, x: np.ndarray) -> float:
        """Encode ``x`` and ship shares/keys; returns the backend-clock
        seconds spent on distribution."""
        self._check_open()
        self._x = self.field.asarray(x)
        return self.master.setup(self._x)

    # ------------------------------------------------------------------
    # submission
    # ------------------------------------------------------------------
    def submit(self, request: Any) -> JobHandle:
        """The canonical typed entry point: submit one
        :class:`JobRequest` (or compatible object), get one
        :class:`JobHandle` — the single future type of the API.

        ``request`` is duck-typed (so :class:`repro.serve.workload.
        Request` — or any compatible object — can be submitted without
        this module importing the serving layer): it must expose
        ``family`` (``"matvec"``) and ``operand``, plus optionally
        ``transpose``.

        Jobs coalesce per encoded family (``fwd``/``bwd``) into one
        broadcast round at flush time.
        """
        self._check_open()
        family = request.family
        if family not in JOB_FAMILIES:
            raise ValueError(
                f"unknown request family {family!r}; expected {'|'.join(JOB_FAMILIES)}"
            )
        fam = "bwd" if bool(getattr(request, "transpose", False)) else "fwd"
        operand = self.field.asarray(request.operand)
        handle = JobHandle(self, "matvec", fam)
        self._stats.jobs_submitted += 1
        if self.obs is not None:
            # before the append: a window-filling enqueue flushes (and
            # may finalize) immediately, and the round graft needs the
            # handle's trace context to exist by then
            self._trace_submit(handle, request)
        self._pending.setdefault(fam, []).append((handle, operand))
        if len(self._pending[fam]) >= self.batch_window:
            self.flush(fam)
        return handle

    def submit_matvec(self, operand: np.ndarray, *, transpose: bool = False) -> JobHandle:
        """Queue one coded matrix–vector job: ``X @ operand`` (or
        ``X.T @ operand`` with ``transpose=True``). Thin wrapper over
        :meth:`submit`."""
        return self.submit(
            JobRequest(family="matvec", operand=operand, transpose=transpose)
        )

    def _trace_submit(self, handle: JobHandle, request: Any) -> None:
        """Open (or join) the request's trace: gateway-admitted
        requests carry a ``request_id`` and join their ``req-<id>``
        trace; bare submissions get a fresh ``job-<n>`` root."""
        assert self.obs is not None
        rid = getattr(request, "request_id", None)
        trace_id = (
            f"req-{rid}" if rid is not None else f"job-{self._stats.jobs_submitted}"
        )
        akey = (handle.kind, handle.family)
        attrs = self._trace_attrs.get(akey)
        if attrs is None:
            attrs = self._trace_attrs[akey] = (
                {"family": handle.family},
                {"kind": handle.kind, "family": handle.family},
            )
        owned_root, span = self.obs.tracer.begin_request(
            trace_id,
            "request",
            "session",
            self.backend.now,
            child_attrs=attrs[1],
            root_attrs=attrs[0],
        )
        handle._trace = (trace_id, span, owned_root)

    # ------------------------------------------------------------------
    # batching + pipelining
    # ------------------------------------------------------------------
    def flush(self, family: str | None = None) -> None:
        """Dispatch pending jobs now — one coalesced round per family.

        ``family=None`` flushes every queue (in first-submission order).
        With the default window of 2 (or wider) the rounds are left
        *in flight* — flush does not wait for workers or decode, and
        the handles resolve when the pipeline finalizes their round
        (``result()``, ``end_iteration``, window pressure, or
        ``close``). With ``max_inflight_rounds = 1`` each dispatched
        round is also finalized before the next (serial semantics).
        """
        if self._pending:
            self._check_open()
        families = [family] if family is not None else list(self._pending)
        for fam in families:
            jobs = self._pending.pop(fam, [])
            if not jobs:
                continue
            handles = [h for h, _ in jobs]
            operands = [op for _, op in jobs]
            self._scheduler.submit(fam, handles, operands)

    def drain(self) -> None:
        """Finalize every in-flight round (does not dispatch pending
        queues — call :meth:`flush` first for a full barrier)."""
        self._scheduler.drain()

    def rounds_in_flight(self) -> int:
        """Rounds dispatched but not yet finalized."""
        return self._scheduler.in_flight

    def _resolve_handle(self, handle: JobHandle) -> None:
        """Bring ``handle`` to resolution: dispatch its family's queue
        if it is still pending, then finalize in-flight rounds in FIFO
        order up to (and including) its own. Rounds dispatched *after*
        the handle's are left in flight."""
        if self._closed:
            # a clean close resolves every handle; reaching here means
            # the job never ran and never will
            raise SessionClosedError(
                f"session is closed; job {handle.kind}:{handle.family} "
                "was never executed"
            )
        if any(h is handle for h, _ in self._pending.get(handle.family, ())):
            self.flush(handle.family)
        self._scheduler.drain_until(handle.done)
        if not handle.done():  # pragma: no cover - internal invariant
            raise RuntimeError("job handle lost by the scheduler")

    def _note_finalized(
        self, rec: InflightRound, outcomes: list[RoundOutcome]
    ) -> None:
        self._note_round(rec.jobs, outcomes[0].record)
        if self.audit is not None and len(self.audit) > 0:
            # the commitment was appended inside complete_round, which
            # ran synchronously just before this callback — the chain
            # head is this round's record
            seq = self.audit.records[-1].seq
            for h in rec.jobs:
                h._audit_seq = seq
        if self.obs is not None:
            self._trace_round(rec, outcomes[0].record)

    def _trace_round(self, rec: InflightRound, record: RoundRecord) -> None:
        """Record the round's span tree once (in its own ``round-<n>``
        trace, worker-daemon sub-spans anchored inside it) and close
        every rider's spans with a link to it in one batched event."""
        assert self.obs is not None
        tracer = self.obs.tracer
        round_tid = self.obs.next_round_trace_id()
        worker_spans = getattr(rec.handle, "worker_spans", None)
        tracer.record_round(
            round_tid, record, dict(worker_spans) if worker_spans else None
        )
        contexts = [c for c in (h._trace for h in rec.jobs) if c is not None]
        if contexts:
            tracer.link_rounds(
                contexts,
                record.t_start,
                record.t_end,
                round_tid,
                record.round_name,
            )

    def _note_round(self, handles: list[JobHandle], record: RoundRecord) -> None:
        self._stats.rounds_executed += 1
        self._stats.jobs_per_round.append(len(handles))
        self._stats.jobs_served += len(handles)
        self._stats.records.append(record)

    # ------------------------------------------------------------------
    # iteration boundary / telemetry
    # ------------------------------------------------------------------
    def end_iteration(self) -> AdaptationOutcome:
        """Flush all queues and **drain the pipeline**, then run the
        master's adaptation step (dynamic re-coding for AVCC;
        bookkeeping otherwise). Draining first is what keeps a re-code
        sound under pipelining: every in-flight round finalizes against
        the shares/keys it was planned with, and no round ever mixes
        two scheme configurations.

        The drained quiesce point is also where the session reconciles
        the coding roster with *fleet* membership: pending joiners are
        admitted into the backend, heartbeat-declared deaths are
        evicted, and the master adopts the new roster — growing ``N``
        when capacity arrived, not just shrinking ``K`` — with the
        extra share-shipping time folded into the outcome's
        ``reencode_time``. Only the socket backend produces membership
        changes; elsewhere this is inert.
        """
        self._check_open()
        self.flush()
        self._scheduler.drain()
        out = self._reconcile_membership(self.master.end_iteration())
        self._ingest_membership_events()
        self._stats.adaptations.append(out)
        return out

    def _reconcile_membership(self, out: AdaptationOutcome) -> AdaptationOutcome:
        """Admit pending joins, evict heartbeat-declared deaths, and
        have the master adopt the resulting roster. Pipeline is
        already drained (callers guarantee it), so admission cannot
        land mid-round."""
        if not hasattr(self.master, "adopt_membership"):
            return out
        joined = self.backend.admit_workers()
        view = self.backend.membership()
        active = set(self.master.active)
        departed = tuple(sorted((set(view.dead) & active) - set(joined)))
        if not joined and not departed:
            return out
        extra = self.master.adopt_membership(joined=joined, departed=departed)
        from dataclasses import replace

        return replace(
            out,
            reencode_time=out.reencode_time + extra,
            scheme=self.master.scheme_now,
            joined_workers=tuple(joined),
            departed_workers=departed,
        )

    def release_workers(self, worker_ids: Any) -> AdaptationOutcome:
        """Scale *down* deliberately: drain the pipeline, evict the
        given live workers from the coding roster (re-deriving K for
        the smaller fleet), and disconnect them from the backend.
        Reversible — a released worker that later re-dials is admitted
        back at the next quiesce. Returns the adaptation outcome
        (also appended to :attr:`stats`)."""
        self._check_open()
        ids = tuple(sorted({int(w) for w in worker_ids}))
        if not ids:
            raise ValueError("release_workers needs at least one worker id")
        if not hasattr(self.master, "adopt_membership"):
            raise RuntimeError(
                f"this session's master ({type(self.master).__name__}) does "
                "not support membership changes"
            )
        self.flush()
        self._scheduler.drain()
        stale = [w for w in ids if w not in set(self.master.active)]
        if stale:
            raise ValueError(f"cannot release workers not in the roster: {stale}")
        extra = self.master.adopt_membership(departed=ids)
        self.backend.drop_workers(ids)
        self._ingest_membership_events()
        out = AdaptationOutcome(
            reencode_time=extra,
            scheme=self.master.scheme_now,
            departed_workers=ids,
        )
        self._stats.adaptations.append(out)
        return out

    def _ingest_membership_events(self) -> None:
        """Drain the backend's membership-transition log into stats."""
        self._stats.membership_events.extend(self.backend.take_membership_events())

    @property
    def stats(self) -> SessionStats:
        return self._stats

    @property
    def now(self) -> float:
        """The backend clock (virtual on the simulator, wall otherwise)."""
        return self.backend.now

    @property
    def scheme_now(self) -> tuple[int, int]:
        """The ``(N_t, K_t)`` currently in effect."""
        return self.master.scheme_now

    def pending_jobs(self) -> int:
        return sum(len(v) for v in self._pending.values())

    def estimate_round_time(self, family: str = "fwd", width: int = 1) -> float:
        """Expected backend-clock duration of one ``family`` round
        serving ``width`` coalesced jobs.

        The estimate blends two signals:

        * an a-priori :class:`~repro.runtime.costmodel.CostModel`
          prior — broadcast transfer, nominal worker compute over one
          share block, result upload, and master-side verify/decode
          arithmetic (stragglers are *not* in the prior; callers that
          care add their own safety margin);
        * the live mean of recently executed round durations from
          :attr:`stats` (which *does* include straggler waiting and
          contention), preferring rounds of the *same family* and
          falling back to the all-family mean only while this family
          has never run (cold start).

        With both available the estimate is their average; with only
        one, that one; with neither (no data loaded, no rounds run),
        0.0. Families: ``"fwd"``/``"matvec"`` and ``"bwd"`` — anything
        else falls back to the observed signal alone.
        """
        if width < 1:
            raise ValueError(f"width must be >= 1, got {width}")
        key = "fwd" if family == "matvec" else family
        observed = self._stats.recent_round_time(family=key)
        if observed == 0.0:
            observed = self._stats.recent_round_time()
        prior = self._prior_round_time(family, width)
        if prior > 0.0 and observed > 0.0:
            return 0.5 * (prior + observed)
        return prior if prior > 0.0 else observed

    def _prior_round_time(self, family: str, width: int) -> float:
        """Cost-model prior for :meth:`estimate_round_time` (0.0 when
        no data is loaded or the family has no closed-form shape)."""
        if self._x is None:
            return 0.0
        m, d = self._x.shape
        k = max(1, self.master.scheme_now[1])
        if family in ("fwd", "matvec"):
            out_len, op_len = m, d
        elif family == "bwd":
            out_len, op_len = d, m
        else:
            return 0.0
        block = -(-out_len // k)  # ceil: padded block rows per worker
        cm = self.backend.cost_model
        from repro.core.base import MatvecMasterBase

        worker_macs = block * op_len * width
        result_elems = block * width
        master_macs = (
            k * result_elems  # one probe application per verification
            + MatvecMasterBase.lagrange_decode_macs(k, k, result_elems)
        )
        return (
            cm.transfer_time(op_len * width)  # operand broadcast
            + cm.worker_compute_time(worker_macs)  # nominal worker compute
            + cm.transfer_time(result_elems)  # result upload
            + cm.master_compute_time(master_macs)  # verify + decode
        )

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def close(self, *, flush: bool = True) -> None:
        """Release the backend (if owned) and the dataset; by default
        pending work is flushed and the pipeline drained first so
        outstanding handles resolve. With ``flush=False`` (the
        exception-unwind path) pending jobs and in-flight rounds are
        abandoned and their handles fail with
        :class:`SessionClosedError` instead.

        A closed session keeps no array of the dataset's size: its
        reduced copy, the encoded shares, keys and encoding cache of
        the master it built and, through an owned backend's ``close``,
        the workers' payloads are all let go. What it reports —
        ``scheme_now``, ``stats``, ``audit`` — stays.
        """
        if self._closed:
            return
        try:
            if flush:
                try:
                    if self.pending_jobs():
                        self.flush()
                    self._scheduler.drain()
                except BaseException as exc:
                    # a round failed while winding down: the remaining
                    # in-flight rounds and pending jobs can no longer
                    # run — cancel/fail them so no handle is left
                    # unresolved, then surface the root cause
                    self._abandon(exc)
                    raise
            else:
                self._abandon(SessionClosedError("session closed with pending jobs"))
        finally:
            try:
                self._ingest_membership_events()
            except Exception:  # pragma: no cover - telemetry best-effort
                pass
            self._closed = True
            self._x = None
            if self._owns_backend:
                # the session built this master, so nobody plans rounds
                # on it now (a borrowed one is its caller's and may
                # serve on); masters registered before ``release``
                # existed have nothing the session can let go of
                release = getattr(self.master, "release", None)
                if release is not None:
                    release()
                self.backend.close()

    def _abandon(self, exc: BaseException) -> None:
        """Fail every pending job and in-flight round with ``exc``."""
        for jobs in self._pending.values():
            for handle, _ in jobs:
                if not handle.done():
                    handle._fail(exc)
        self._pending.clear()
        self._scheduler.abandon(exc)

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc: object) -> bool:
        # don't run distributed work while the with-body is unwinding
        # from an exception (and don't mask that exception with a
        # flush-time failure)
        self.close(flush=exc[0] is None)
        return False

    def __iter__(self) -> Iterator[None]:  # pragma: no cover - guard
        raise TypeError("Session is not iterable; use submit_* handles")

    # ------------------------------------------------------------------
    def _check_open(self) -> None:
        if self._closed:
            raise SessionClosedError("session is closed")
