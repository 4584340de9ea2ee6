"""The pluggable execution-backend interface.

Every master in :mod:`repro.core` drives the same protocol — broadcast
an operand, let each participating worker compute over its stored
shares, consume results in arrival order, stop once its recovery
threshold is met — but *where* the worker computation runs is a
deployment decision, not a protocol one. This module pins that seam
down as one small contract so the discrete-event simulator
(:class:`~repro.runtime.cluster.SimCluster`) and the socket backend
(:class:`~repro.runtime.net.client.TcpCluster`) are interchangeable
under any master.

The contract has three parts:

* :class:`RoundJob` — a declarative description of one round (which
  stored payload to use, which operand to broadcast). Every backend
  executes it with :func:`run_job_compute`: the simulator in-process,
  the socket backend's daemons after reading it off the wire.
* :class:`RoundHandle` — the in-flight round. Iterating it yields
  :class:`Arrival` records in arrival order (each carrying its own
  timestamp); calling :meth:`RoundHandle.cancel` tells the backend to
  stop waiting on outstanding workers — this is how masters get early
  stopping once enough verified results have landed. After iteration,
  :meth:`RoundHandle.result` returns the round's full
  :class:`RoundResult` for straggler accounting.

  **Multiple rounds may be in flight at once** (the session's
  pipelined scheduler dispatches round *i+1* before finalizing round
  *i*): each handle yields exactly its own round's arrivals, and
  concurrent rounds contend for the same fleet — the simulator queues
  each worker's compute behind its outstanding rounds (busy-time
  queues), the socket master routes replies off the shared
  per-worker sockets by round id.
  ``cancel()`` is idempotent and safe before or after ``result()``.
* :class:`Backend` — the substrate itself: share distribution
  (:meth:`Backend.distribute`), round dispatch
  (:meth:`Backend.dispatch_round`), worker-pool mutation for dynamic
  re-coding (:meth:`Backend.drop_workers`), and a monotonic clock
  (``now`` / ``advance_to``). On the simulator the clock is virtual
  and master-side verify/decode costs advance it; on real backends the
  clock is the wall and ``advance_to`` only keeps the bookkeeping
  monotonic.
"""

from __future__ import annotations

import math
import threading
import time
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Any, Iterator, Sequence

import numpy as np

from repro.ff.field import PrimeField
from repro.ff.linalg import matmul_reduced, matvec_reduced, resident_share
from repro.runtime.costmodel import CostModel

__all__ = [
    "Arrival",
    "Backend",
    "MembershipEvent",
    "MembershipView",
    "RoundHandle",
    "RoundJob",
    "RoundResult",
    "WallClockBackend",
    "job_macs",
    "run_job_compute",
    "store_share",
]


@dataclass(frozen=True)
class MembershipEvent:
    """One change in the fleet roster, stamped with the backend clock.

    ``kind`` is one of ``"dead"`` (socket error / heartbeat lapse),
    ``"dropped"`` (evicted by the dynamic-coding policy or a voluntary
    scale-down), ``"rejoined"`` (a known id re-admitted after a restart)
    or ``"joined"`` (a brand-new id extended the fleet).
    """

    kind: str
    worker_id: int
    t: float


@dataclass(frozen=True)
class MembershipView:
    """A point-in-time snapshot of the fleet roster.

    ``n`` is the total id space (``0..n-1``); ``live`` the connected
    workers, ``dead``/``dropped`` the involuntary/voluntary leavers and
    ``pending`` the handshaken joiners parked until the next
    between-rounds :meth:`Backend.admit_workers` call.
    """

    n: int
    live: tuple[int, ...]
    dead: tuple[int, ...]
    dropped: tuple[int, ...]
    pending: tuple[int, ...]

    @property
    def live_count(self) -> int:
        return len(self.live)


@dataclass(frozen=True)
class Arrival:
    """One worker result as seen by the master.

    ``t_arrival`` is in backend-clock seconds (virtual for the
    simulator, wall for real backends); ``math.inf`` marks a worker
    that never responded (silent, or cancelled before finishing).
    """

    worker_id: int
    value: Any
    t_arrival: float
    compute_time: float
    comm_time: float
    #: ground truth for traces/tests only — masters must never read it
    truly_byzantine: bool


@dataclass(frozen=True)
class RoundResult:
    """All arrivals of one round, ordered by arrival time."""

    t_start: float
    broadcast_time: float
    arrivals: tuple[Arrival, ...]

    def arrived(self) -> tuple[Arrival, ...]:
        """Only the workers that ever responded."""
        return tuple(a for a in self.arrivals if math.isfinite(a.t_arrival))


@dataclass(frozen=True)
class RoundJob:
    """Declarative description of one broadcast-compute-collect round.

    One operation covers every master in the repo, ``op="matvec"``:
    each worker computes ``payload[payload_key] @ operand`` over the
    field; the operand is broadcast. A 2-D operand ``(d, B)`` is a
    *batch* of ``B`` vectors coalesced into one round (the session
    layer's multi-job broadcast); the worker returns the stacked
    products ``(b, B)``.

    Jobs carry data, not closures, so a worker daemon in another
    address space (or on another host) executes the same job.
    """

    op: str = "matvec"
    payload_key: str = "share"
    operand: np.ndarray | None = None

    #: no job names a second payload key; read by the e2e benchmark's
    #: wire probe (``benchmarks/e2e/probes.py``) until that probe stops
    #: reading it
    rhs_key = None

    def __post_init__(self):
        if self.op != "matvec":
            raise ValueError(f"unknown round op {self.op!r}")
        if self.operand is None:
            raise ValueError("matvec jobs need an operand")
        if np.asarray(self.operand).ndim not in (1, 2):
            raise ValueError(
                "matvec operand must be a vector or a (len, batch) "
                f"matrix, got shape {np.asarray(self.operand).shape}"
            )

    def broadcast_elements(self) -> int:
        """Field elements the master ships to each participant."""
        return int(self.operand.size)

    def batch_width(self) -> int:
        """Number of coalesced jobs this round serves (columns of a
        2-D operand; 1 for the plain vector case)."""
        if self.operand.ndim == 1:
            return 1
        return int(self.operand.shape[1])


def store_share(
    field: PrimeField, payload: dict[str, Any], name: str, share: np.ndarray
) -> None:
    """A remote worker's store: validate a shipped share once, here,
    so :func:`run_job_compute` need not on every round, and keep it in
    the dtype it is multiplied in (:func:`~repro.ff.linalg.resident_share`:
    ``float64`` for a large share, ``int64`` otherwise). What arrives
    over a socket is untrusted: out-of-range entries are
    reduced, and anything that is not field data drops the key — later
    rounds on it fail crash-stop instead of multiplying a stale share.
    """
    try:
        payload[name] = resident_share(field, share)
    except TypeError:
        payload.pop(name, None)


def run_job_compute(
    field: PrimeField, payload: dict[str, Any], job: RoundJob
) -> np.ndarray:
    """Execute a job's honest computation over one worker's payload.

    ``payload`` entries are multiplied as stored: every backend's store
    path validates a share once, when it arrives, and keeps it resident
    in the dtype its products run in (:func:`store_share`, or
    ``distribute`` on the simulator, both through
    :func:`~repro.ff.linalg.resident_share`), so a static share is
    neither re-reduced nor converted on every round. The broadcast
    operand is validated here, per round.
    """
    share = payload[job.payload_key]
    operand = field.ensure_reduced(job.operand)
    product = matmul_reduced if operand.ndim == 2 else matvec_reduced
    return product(field, share, operand)


def job_macs(payload: dict[str, Any], job: RoundJob) -> int:
    """Multiply-accumulate count of a job at one worker (drives the
    simulator's timing; real backends just measure)."""
    return int(np.asarray(payload[job.payload_key]).size) * job.batch_width()


class RoundHandle(ABC):
    """An in-flight round.

    Attributes
    ----------
    t_start:
        Backend-clock time the round was dispatched.
    broadcast_time:
        Seconds charged/measured for the operand broadcast. The first
        arrival cannot precede ``t_start + broadcast_time``.
    """

    t_start: float = 0.0
    broadcast_time: float = 0.0

    @abstractmethod
    def __iter__(self) -> Iterator[Arrival]:
        """Yield finite arrivals in arrival order.

        On real backends this blocks until the next worker finishes;
        iteration ends when every (non-cancelled) participant has
        arrived or the round was cancelled.
        """

    @abstractmethod
    def cancel(self) -> None:
        """Stop waiting on outstanding workers.

        Masters call this the moment their recovery threshold is met;
        results still in flight are discarded and the corresponding
        workers appear in :meth:`result` with ``t_arrival = inf``.
        Idempotent.
        """

    @abstractmethod
    def result(self) -> RoundResult:
        """The round's complete accounting, available once iteration
        has finished (or the round was cancelled)."""


class Backend(ABC):
    """An execution substrate for coded-computing masters.

    Concrete backends expose ``field`` (the computation field),
    ``cost_model`` (timing constants; real backends keep one so
    master-side verify/decode accounting stays comparable across
    substrates) and ``workers`` (the fleet, id-addressable).
    """

    field: PrimeField
    cost_model: CostModel

    #: the session's :class:`~repro.obs.Observability` bundle when
    #: ``SessionConfig.observability`` is on, ``None`` otherwise.
    #: Backends call ``obs.on_dispatch(...)`` per round; the socket
    #: clusters additionally flag traced round frames so worker
    #: daemons ship their sub-spans back.
    obs: Any = None

    #: ``True`` when the session armed auditing
    #: (``SessionConfig.audit``): the socket clusters flag round
    #: frames so worker daemons countersign results with a digest of
    #: their computed share. Inert on the simulator.
    attest: bool = False

    #: whether arrival timestamps are exact (virtual clock) or wall
    #: clock. Masters use the paper's latency-ratio straggler detector
    #: only on exact-timing backends; on wall-clock backends OS
    #: scheduling jitter — especially on oversubscribed machines —
    #: would masquerade as straggling and goad the adaptive policy
    #: into shrinking the code, so they observe stragglers as the
    #: workers whose results the round never used instead.
    timing_is_exact: bool = False

    #: ids passed to :meth:`drop_workers`, which rebinds it per backend
    _dropped: frozenset[int] = frozenset()

    # ------------------------------------------------------------------
    @property
    @abstractmethod
    def n(self) -> int:
        """Fleet size (worker ids are ``0..n-1``)."""

    @property
    @abstractmethod
    def now(self) -> float:
        """Monotonic backend clock in seconds."""

    @abstractmethod
    def advance_to(self, t: float) -> None:
        """Account master-side work up to time ``t``.

        The simulator moves its virtual clock; real backends only
        raise their bookkeeping floor (wall time passes by itself).
        Never moves the clock backward.
        """

    # ------------------------------------------------------------------
    @abstractmethod
    def distribute(
        self, name: str, shares: np.ndarray, participants: Sequence[int] | None = None
    ) -> float:
        """Ship share ``i`` to participant ``i`` under payload key
        ``name``; returns the seconds charged/spent."""

    @abstractmethod
    def dispatch_round(
        self, job: RoundJob, participants: Sequence[int] | None = None
    ) -> RoundHandle:
        """Start one round on ``participants`` (default: every worker not
        dropped).

        Non-blocking, and re-entrant: several dispatched rounds may be
        open at once, each finalized through its own handle (workers
        serve overlapping rounds in dispatch order)."""

    def drop_workers(self, worker_ids: Sequence[int]) -> None:
        """Remove workers from the pool (dynamic re-coding dropped
        them). Backends holding per-worker resources release them too.
        A later ``distribute`` or ``dispatch_round`` whose participants
        name a dropped id raises."""
        self._dropped = self._dropped.union(int(w) for w in worker_ids)

    # ------------------------------------------------------------------
    # elastic membership (no-ops on fixed-fleet backends)
    # ------------------------------------------------------------------
    def membership(self) -> MembershipView:
        """The current fleet roster. Fixed-fleet backends report every
        worker live but the dropped ones; elastic backends (the socket
        clusters) also report dead workers and handshaken joiners
        awaiting admission."""
        dropped = tuple(sorted(self._dropped))
        live = tuple(w for w in range(self.n) if w not in self._dropped)
        return MembershipView(n=self.n, live=live, dead=(), dropped=dropped, pending=())

    def admit_workers(self) -> tuple[int, ...]:
        """Admit every pending joiner into the roster and return the
        admitted ids. Must only be called *between* rounds (the session
        calls it from ``end_iteration`` after draining the pipeline);
        elastic backends raise if rounds are in flight. The default is
        a no-op for backends without elastic membership."""
        return ()

    def take_membership_events(self) -> tuple[MembershipEvent, ...]:
        """Drain and return the membership-change events recorded since
        the last call (empty on fixed-fleet backends)."""
        return ()

    def close(self) -> None:
        """Release backend resources (sockets, worker processes)."""

    # ------------------------------------------------------------------
    def _participants(self, participants: Sequence[int] | None) -> list[int]:
        """The validated participant list; ``None`` means every worker
        that was not dropped."""
        if participants is None:
            return [w for w in range(self.n) if w not in self._dropped]
        out = list(participants)
        if len(set(out)) != len(out):
            raise ValueError("duplicate participant ids")
        for wid in out:
            if not 0 <= wid < self.n:
                raise ValueError(f"worker id {wid} out of range")
        dropped = self._dropped.intersection(out)
        if dropped:
            raise ValueError(f"workers {sorted(dropped)} were dropped from the pool")
        return out

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False


class WallClockBackend(Backend):
    """Shared plumbing for backends that execute for real
    (:class:`~repro.runtime.net.client.TcpCluster` is the one built in).

    Provides the wall clock (``now`` floored by ``advance_to`` so
    master-side accounting never runs backward), the membership-event
    log, and the never-arrived :class:`Arrival` constructor. Subclasses call
    :meth:`_init_wall_clock` from ``__init__``.
    """

    def _init_wall_clock(self) -> None:
        self._t0 = time.perf_counter()
        self._floor = 0.0
        self._membership_events: list[MembershipEvent] = []
        self._membership_lock = threading.Lock()

    @property
    def now(self) -> float:
        return max(self._floor, time.perf_counter() - self._t0)

    def advance_to(self, t: float) -> None:
        self._floor = max(self._floor, t)

    def drop_workers(self, worker_ids: Sequence[int]) -> None:
        for wid in worker_ids:
            if int(wid) not in self._dropped:
                self._note_membership("dropped", int(wid))
        super().drop_workers(worker_ids)

    def _note_membership(self, kind: str, worker_id: int) -> None:
        """Record one roster change (safe from any thread — the socket
        backends call this from their pump/loop threads)."""
        event = MembershipEvent(kind=kind, worker_id=int(worker_id), t=self.now)
        with self._membership_lock:
            self._membership_events.append(event)

    def take_membership_events(self) -> tuple[MembershipEvent, ...]:
        with self._membership_lock:
            events = tuple(self._membership_events)
            self._membership_events.clear()
        return events

    @staticmethod
    def _missing_arrival(worker_id: int, truly_byzantine: bool) -> Arrival:
        """The record of a worker that never transmitted: silent,
        crashed, errored, or cancelled before finishing."""
        return Arrival(
            worker_id=worker_id,
            value=None,
            t_arrival=math.inf,
            compute_time=0.0,
            comm_time=0.0,
            truly_byzantine=truly_byzantine,
        )
