"""Real thread-pool execution backend.

The simulator in :mod:`repro.runtime.cluster` is what the experiments
use (deterministic, calibrated timing). This backend runs the *same*
worker computations on an actual ``ThreadPoolExecutor`` with injected
sleeps for stragglers, so the masters can demonstrate genuine
wall-clock speedups on one machine. NumPy releases the GIL inside its
inner loops, so worker matvecs genuinely overlap.

:class:`ThreadedCluster` implements the
:class:`~repro.runtime.backend.Backend` protocol. Early stopping is
real here: when a master cancels a round (recovery threshold met), a
shared cancellation event wakes any straggler still in its injected
sleep and aborts workers that have not started computing, so the round
ends without paying the tail latency the master did not need.

Concurrent rounds multiplex naturally: each dispatch submits one task
per participant to the shared pool and each handle owns its private
completion queue, so the pipelined scheduler can hold several rounds
in flight — a later round's tasks simply queue behind the earlier
round's on the pool's worker threads.

A worker whose computation raises is recorded as never having arrived
(crash-stop — the same degradation a real node failure produces); the
exception is kept on the handle's ``worker_errors`` and re-raised only
when *no* worker produced a result, which distinguishes a malformed
job from an individual node failure. The simulator, by contrast,
propagates worker exceptions immediately — exact execution is the
debugging surface.

Not used by the benchmark harness for the paper figures: wall-clock
measurements of a many-thread pool are machine-dependent noise, which
is exactly what the discrete-event clock removes.
"""

from __future__ import annotations

import math
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from concurrent.futures import wait as futures_wait
from queue import SimpleQueue
from typing import Iterator, Sequence

import numpy as np

from repro.ff.field import PrimeField
from repro.ff.linalg import resident_share
from repro.runtime.backend import (
    Arrival,
    RoundHandle,
    RoundJob,
    RoundResult,
    WallClockBackend,
    run_job_compute,
)
from repro.runtime.costmodel import CostModel
from repro.runtime.worker import SimWorker

__all__ = ["ThreadedCluster", "ThreadedRoundHandle"]


class ThreadedRoundHandle(RoundHandle):
    """One in-flight thread-pool round.

    Worker tasks push their :class:`Arrival` onto an internal queue as
    they finish; iteration pops in completion order. ``cancel`` sets an
    event that (a) wakes stragglers out of their injected sleep and
    (b) makes not-yet-started workers return without computing, so
    :meth:`result` never waits on tail latency the master gave up on.
    """

    def __init__(self, cluster: "ThreadedCluster", job: RoundJob, participants: list[int]):
        self._cluster = cluster
        self._participants = participants
        self._cancelled = threading.Event()
        self._queue: SimpleQueue[Arrival] = SimpleQueue()
        self._received: dict[int, Arrival] = {}
        #: worker_id -> exception raised by its computation (crash-stop)
        self.worker_errors: dict[int, BaseException] = {}
        self.t_start = cluster.now
        # operands live in shared memory already — the "broadcast" is
        # handing the job object to the pool
        self.broadcast_time = 0.0
        self._futures = [
            cluster._pool.submit(self._run_one, cluster._by_id[wid], job)
            for wid in participants
        ]

    # ------------------------------------------------------------------
    def _run_one(self, w: SimWorker, job: RoundJob) -> None:
        cluster = self._cluster
        factor = getattr(w.profile, "factor", 1.0)
        if factor > 1.0:
            # interruptible straggler sleep: returns True when cancelled
            if self._cancelled.wait((factor - 1.0) * cluster.straggle_scale):
                self._queue.put(self._missing(w))
                return
        if self._cancelled.is_set():
            self._queue.put(self._missing(w))
            return
        try:
            t_c0 = time.perf_counter()
            value = w.execute(
                lambda p, _j=job: run_job_compute(cluster.field, p, _j),
                cluster.field,
                cluster._worker_rngs[w.worker_id],
            )
            ct = time.perf_counter() - t_c0
        except BaseException as exc:  # noqa: BLE001 - worker crash-stop
            self.worker_errors[w.worker_id] = exc
            self._queue.put(self._missing(w))
            return
        if value is None:  # silent failure: never transmits
            self._queue.put(self._missing(w))
            return
        self._queue.put(
            Arrival(
                worker_id=w.worker_id,
                value=value,
                t_arrival=cluster.now,
                compute_time=ct,
                comm_time=0.0,
                truly_byzantine=w.is_byzantine,
            )
        )

    def _missing(self, w: SimWorker) -> Arrival:
        return self._cluster._missing_arrival(w.worker_id, w.is_byzantine)

    # ------------------------------------------------------------------
    def __iter__(self) -> Iterator[Arrival]:
        any_finite = False
        while len(self._received) < len(self._participants):
            if self._cancelled.is_set():
                return
            a = self._queue.get()
            self._received[a.worker_id] = a
            if math.isfinite(a.t_arrival):
                any_finite = True
                yield a
        if not any_finite and self.worker_errors:
            # every worker failed: a malformed job, not node failures
            wid, exc = next(iter(self.worker_errors.items()))
            raise RuntimeError(
                f"all {len(self._participants)} workers failed this round "
                f"(first error, worker {wid}: {exc!r})"
            ) from exc

    def cancel(self) -> None:
        self._cancelled.set()

    def result(self) -> RoundResult:
        # After cancel the sleeps are interrupted, so this join is
        # bounded by one in-flight block computation, not by stragglers.
        futures_wait(self._futures)
        while len(self._received) < len(self._participants):
            a = self._queue.get()
            self._received[a.worker_id] = a
        ordered = sorted(self._received.values(), key=lambda a: a.t_arrival)
        return RoundResult(
            t_start=self.t_start,
            broadcast_time=self.broadcast_time,
            arrivals=tuple(ordered),
        )


class ThreadedCluster(WallClockBackend):
    """Thread-pool analogue of :class:`~repro.runtime.cluster.SimCluster`.

    Straggling is induced by ``time.sleep`` proportional to the
    worker's deterministic latency factor, scaled by
    ``straggle_scale`` seconds per unit of factor-above-one.
    """

    def __init__(
        self,
        field: PrimeField,
        workers: Sequence[SimWorker],
        rng: np.random.Generator | None = None,
        straggle_scale: float = 0.05,
        max_threads: int | None = None,
        cost_model: CostModel | None = None,
    ):
        self.field = field
        self.workers = list(workers)
        self.rng = rng or np.random.default_rng(0)
        self.straggle_scale = straggle_scale
        self.cost_model = cost_model or CostModel()
        self._by_id = {w.worker_id: w for w in self.workers}
        # one generator per worker for its whole lifetime, so
        # per-round-random behaviours (IntermittentAttack) actually
        # vary round to round, as on a worker daemon
        self._worker_rngs = {
            w.worker_id: np.random.default_rng(w.worker_id) for w in self.workers
        }
        self._pool = ThreadPoolExecutor(max_workers=max_threads or len(self.workers))
        self._init_wall_clock()

    def close(self) -> None:
        self._pool.shutdown(wait=True)
        for worker in self.workers:
            worker.payload.clear()  # int64 shares view the master's stacks

    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        return len(self.workers)

    # ------------------------------------------------------------------
    def distribute(self, name: str, shares: np.ndarray, participants=None) -> float:
        """Install share ``i`` on participant ``i``; in-process the
        transfer is a reference store, so the returned cost is the
        (tiny) measured wall time."""
        participants = self._participants(participants)
        self._check_not_dropped(participants)
        if len(participants) > shares.shape[0]:
            raise ValueError("fewer shares than participants")
        t0 = time.perf_counter()
        for slot, wid in enumerate(participants):
            self._by_id[wid].store(**{name: resident_share(self.field, shares[slot])})
        return time.perf_counter() - t0

    def dispatch_round(
        self, job: RoundJob, participants: Sequence[int] | None = None
    ) -> ThreadedRoundHandle:
        participants = self._participants(participants)
        self._check_not_dropped(participants)
        if self.obs is not None:
            self.obs.on_dispatch("threaded", job, len(participants))
        return ThreadedRoundHandle(self, job, participants)
