"""The discrete-event execution backend (master-side round executor).

One *round* = broadcast an operand, let every participating worker
compute over its stored shares, collect results in arrival order. The
masters in :mod:`repro.core` consume the ordered arrival stream and add
their own verification/decoding costs on top.

Timing of worker ``i`` for a round starting at ``t0``::

    t_arrival_i = t0 + transfer(broadcast)            # master -> worker
                 + profile_i(macs_i * sec_per_mac)    # local compute
                 + transfer(result_i)                 # worker -> master

Silent workers never arrive (``t = inf``). Results of Byzantine
workers are corrupted *before* transmission — the master sees only the
transmitted bytes, exactly like the real system.

:class:`SimCluster` implements the :class:`~repro.runtime.backend.Backend`
protocol, so any master runs on it interchangeably with the real
socket backend. A round is resolved in full when it
is dispatched — cancellation is free, and the full arrival schedule
(including workers the master never waited for) stays observable,
which is what the straggler detector uses.

**How a round's products are computed.** ``distribute`` validates a
share name's ``(n, rows, cols)`` stack once and keeps it as one stack;
each worker stores a row view of it. At the stack's first round it
takes its resident dtype — the rule of
:func:`~repro.ff.linalg.resident_share`, applied to the stack as the
one matrix of its rows — and the workers' views move with it. A round
then validates its operand once and multiplies every participant's
rows in one :func:`~repro.ff.linalg.matmul_reduced` /
:func:`~repro.ff.linalg.matvec_reduced` call, before any randomness is
drawn; a worker's honest result is its rows of that one output
(disjoint views, so no two workers share memory). A worker whose
payload entry is no longer its view of the stack (re-stored through
:meth:`SimWorker.store`) runs
:func:`~repro.runtime.backend.run_job_compute` over its own payload,
as before. No product draws randomness: in participant order each
worker applies its behaviour and samples its latency from the
cluster's one generator, the same draws in the same order whichever
path computed its product, so arrivals, records and decoded bytes do
not depend on the path.

Concurrent rounds (the pipelined scheduler) contend through
**per-worker busy-time queues**: while a dispatched round is neither
cancelled nor finalized, each of its workers is busy until its compute
for that round completes, and a later round's compute at that worker
starts only afterwards. Retiring a round (cancel or ``result()``)
abandons its unconsumed tail work, releasing the workers — on the
strictly serial path every round is retired before the next dispatch,
so the timing is identical to the pre-pipelining simulator.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Iterator, Sequence

import numpy as np

from repro.ff.field import PrimeField
from repro.ff.linalg import matmul_reduced, matvec_reduced, resident_share
from repro.runtime.backend import (
    Arrival,
    Backend,
    RoundHandle,
    RoundJob,
    RoundResult,
    job_macs,
    run_job_compute,
)
from repro.runtime.costmodel import CostModel
from repro.runtime.events import EventQueue
from repro.runtime.worker import SimWorker

__all__ = ["Arrival", "RoundResult", "SimCluster", "SimRoundHandle"]


def _rows(stack: np.ndarray) -> np.ndarray:
    """An ``(n, b, k)`` stack as the ``(n*b, k)`` matrix of its rows."""
    n, b, k = stack.shape
    return stack.reshape(n * b, k)


class SimRoundHandle(RoundHandle):
    """A completed simulated round wrapped in the in-flight interface.

    The simulator resolves all arrivals at dispatch time, so iteration
    never blocks and :meth:`cancel` is pure bookkeeping — the master
    simply stops consuming. :meth:`result` intentionally keeps the
    *full* schedule (what every worker would have delivered), which the
    masters' straggler accounting relies on.

    While the handle is neither cancelled nor finalized it counts as
    *outstanding*: rounds dispatched in the meantime contend with its
    workers' compute schedules (see
    :meth:`SimCluster.dispatch_round`). Both :meth:`cancel` and
    :meth:`result` retire the round — cancelled work is abandoned, so
    later dispatches see the workers free again. Both are idempotent
    and safe in any order.
    """

    def __init__(self, rr: RoundResult, cluster: "SimCluster | None" = None, key: int = -1):
        self._rr = rr
        self._cluster = cluster
        self._key = key
        self.t_start = rr.t_start
        self.broadcast_time = rr.broadcast_time

    def _retire(self) -> None:
        if self._cluster is not None:
            self._cluster._retire_round(self._key)

    def __iter__(self) -> Iterator[Arrival]:
        return iter(self._rr.arrived())

    def cancel(self) -> None:
        self._retire()

    def result(self) -> RoundResult:
        self._retire()
        return self._rr


class SimCluster(Backend):
    """A master plus ``n`` simulated workers sharing one virtual clock.

    Timestamps are exact (virtual clock), so masters may apply the
    latency-ratio straggler detector to them.

    Parameters
    ----------
    field:
        Computation field.
    workers:
        The worker fleet (ids must be ``0..n-1``).
    cost_model:
        Timing constants.
    rng:
        Single generator for all stochastic elements (latency samples,
        attack randomness) — runs are reproducible given the seed.
    """

    timing_is_exact = True

    def __init__(
        self,
        field: PrimeField,
        workers: Sequence[SimWorker],
        cost_model: CostModel | None = None,
        rng: np.random.Generator | None = None,
    ):
        ids = [w.worker_id for w in workers]
        if sorted(ids) != list(range(len(workers))):
            raise ValueError("worker ids must be exactly 0..n-1")
        self.field = field
        self.workers = list(sorted(workers, key=lambda w: w.worker_id))
        self.cost_model = cost_model or CostModel()
        self.rng = rng or np.random.default_rng(0)
        self._now = 0.0
        #: outstanding rounds' per-worker compute-finish times
        #: (round key -> {worker_id: t_compute_done}); new dispatches
        #: queue each worker behind these — concurrent rounds contend
        self._inflight: dict[int, dict[int, float]] = {}
        self._round_seq = 0
        #: share name -> (stack, the row view stored at each slot, the
        #: worker each slot went to)
        self._stacks: dict[str, tuple[np.ndarray, list[np.ndarray], list[int]]] = {}
        #: stacks validated but not yet in their resident dtype
        self._unsettled: set[str] = set()

    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        return len(self.workers)

    def worker(self, worker_id: int) -> SimWorker:
        return self.workers[worker_id]

    @property
    def now(self) -> float:
        return self._now

    def advance_to(self, t: float) -> None:
        """Move the virtual clock forward (never backward)."""
        if t < self._now - 1e-12:
            raise ValueError(f"clock cannot run backward: {t} < {self._now}")
        self._now = max(self._now, t)

    def elapse(self, dt: float) -> None:
        if dt < 0:
            raise ValueError("dt must be non-negative")
        self._now += dt

    def close(self) -> None:
        """Let go of the stacks and the workers' payloads. A stack is
        kept alive by the cluster, until the same name is distributed
        again or ``close``, and by every worker still holding a row
        view of it: one kept worker keeps the whole stack — the
        master's own array until the stack's first round, and after it
        too if the stack stays ``int64``; else the ``float64`` copy. A
        stacked round's results are views of that round's one output,
        not of the stack: one kept result keeps that output."""
        self._stacks.clear()
        self._unsettled.clear()
        for worker in self.workers:
            worker.payload.clear()

    # ------------------------------------------------------------------
    def distribute(self, name: str, shares: np.ndarray, participants=None) -> float:
        """Ship share ``i`` to worker ``i`` (sequentially from the
        master's NIC, as in the testbed) and charge the transfer time.

        Returns the time spent; also advances the clock.

        A 3-D ``shares`` is validated here, as one array, and kept as
        one stack whose row views the workers store; it takes its
        resident dtype at its first round (:meth:`_settle`), so set-up
        pays no conversion. Any other ``shares`` is stored share by
        share, each resident on its own.
        """
        participants = self._participants(participants)
        if len(participants) > shares.shape[0]:
            raise ValueError("fewer shares than participants")
        stack = shares[: len(participants)]
        if stack.ndim == 3:
            stack = self.field.ensure_reduced(_rows(stack)).reshape(stack.shape)
            views = list(stack)
            self._stacks[name] = (stack, views, participants)
            self._unsettled.add(name)
        else:
            self._stacks.pop(name, None)
            self._unsettled.discard(name)
            views = [resident_share(self.field, share) for share in stack]
        total = 0.0
        for share, wid in zip(views, participants):
            self.workers[wid].store(**{name: share})
            total += self.cost_model.transfer_time(int(share.size))
        self._now += total
        return total

    # ------------------------------------------------------------------
    def dispatch_round(
        self, job: RoundJob, participants: Sequence[int] | None = None
    ) -> SimRoundHandle:
        """Backend-protocol entry point: resolve the whole round on the
        virtual clock and hand back its (pre-computed) arrival stream.

        Rounds may overlap: until an earlier handle is cancelled or
        finalized (``result()``), its workers are *busy* — a worker
        serves rounds in dispatch order, so this round's compute at
        worker ``i`` starts only once ``i`` finished every outstanding
        earlier round (the per-worker busy-time queue). On the strictly
        serial path every handle is finalized before the next dispatch,
        so no contention arises and timing is identical to the
        pre-pipelining simulator.
        """
        participants = self._participants(participants)
        if self.obs is not None:
            self.obs.on_dispatch("sim", job, len(participants))
        if job.payload_key in self._unsettled:
            self._settle(job.payload_key)
        busy = self._worker_busy_until()
        stacked = self._stacked_products(job, participants)

        def compute(payload: dict[str, Any]) -> np.ndarray:
            # each stacked product is handed out once: a share view held
            # by two workers must not give them one array
            value = stacked.pop(id(payload.get(job.payload_key)), None)
            return run_job_compute(self.field, payload, job) if value is None else value

        rr = self.run_round(
            compute=compute,
            macs=lambda p, _j=job: job_macs(p, _j),
            broadcast_elements=job.broadcast_elements(),
            participants=participants,
            worker_busy_until=busy,
        )
        self._round_seq += 1
        key = self._round_seq
        self._inflight[key] = {
            a.worker_id: a.t_arrival - a.comm_time
            for a in rr.arrivals
            if math.isfinite(a.t_arrival)
        }
        return SimRoundHandle(rr, cluster=self, key=key)

    def _settle(self, name: str) -> None:
        """Give stack ``name`` its resident dtype: the residency rule of
        :func:`~repro.ff.linalg.resident_share`, applied to the stack as
        the one matrix a stacked round multiplies. A ``float64`` stack
        is a new array; each worker still holding its ``int64`` view is
        given the new one, so the old stack — the master's array — is
        no longer held here."""
        self._unsettled.discard(name)
        stack, views, holders = self._stacks[name]
        settled = resident_share(self.field, _rows(stack))
        if settled.dtype == stack.dtype:
            return
        settled = settled.reshape(stack.shape)
        resident = list(settled)
        for old, new, wid in zip(views, resident, holders):
            if self.workers[wid].payload.get(name) is old:
                self.workers[wid].store(**{name: new})
        self._stacks[name] = (settled, resident, holders)

    def _stacked_products(
        self, job: RoundJob, participants: Sequence[int]
    ) -> dict[int, np.ndarray]:
        """Honest results of the participants whose share is
        still their row view of the job's stack, keyed by ``id`` of that
        view: one operand validation and one product over the stack's
        slots from the first such participant to the last."""
        held = self._stacks.get(job.payload_key)
        if held is None:
            return {}
        stack, views, _holders = held
        slot_of = {id(view): slot for slot, view in enumerate(views)}
        slots = sorted({
            slot_of[key]
            for wid in participants
            if (key := id(self.workers[wid].payload.get(job.payload_key))) in slot_of
        })
        if not slots:
            return {}
        lo, hi = slots[0], slots[-1] + 1
        operand = self.field.ensure_reduced(job.operand)
        product = matmul_reduced if operand.ndim == 2 else matvec_reduced
        out = product(self.field, _rows(stack[lo:hi]), operand)
        out = out.reshape((hi - lo, stack.shape[1]) + operand.shape[1:])
        return {id(views[slot]): out[slot - lo] for slot in slots}

    def _worker_busy_until(self) -> dict[int, float]:
        """Per-worker earliest free time implied by outstanding rounds."""
        busy: dict[int, float] = {}
        for finishes in self._inflight.values():
            for wid, t in finishes.items():
                if t > busy.get(wid, 0.0):
                    busy[wid] = t
        return busy

    def _retire_round(self, key: int) -> None:
        """A round was cancelled or finalized: its unconsumed tail work
        is abandoned (as a real cancellation aborts workers), so the
        workers stop contending for later dispatches. Idempotent."""
        self._inflight.pop(key, None)

    def outstanding_rounds(self) -> int:
        """Dispatched rounds not yet cancelled/finalized (telemetry)."""
        return len(self._inflight)

    def run_round(
        self,
        compute: Callable[[dict[str, Any]], np.ndarray],
        macs: Callable[[dict[str, Any]], int],
        broadcast_elements: int,
        participants: Sequence[int] | None = None,
        worker_busy_until: dict[int, float] | None = None,
    ) -> RoundResult:
        """Execute one broadcast-compute-collect round.

        Parameters
        ----------
        compute:
            Maps a worker's payload to its (honest) result array.
        macs:
            Multiply-accumulate count of that computation, for timing.
        broadcast_elements:
            Elements broadcast from master to every worker (the operand
            vector) — master pays one transfer per participant.
        participants:
            Worker ids taking part (default: every worker not dropped).
        worker_busy_until:
            Optional per-worker earliest start times (absolute clock
            seconds) from rounds still occupying them; a worker starts
            computing at the later of the broadcast end and its busy
            horizon. Default: everyone starts at broadcast end.

        The round's arrivals are returned sorted by arrival time; the
        clock is *not* advanced past the broadcast — masters advance it
        to whenever they stop waiting (they may not need the last
        stragglers).
        """
        participants = self._participants(participants)
        busy = worker_busy_until or {}
        t0 = self._now
        bcast = self.cost_model.transfer_time(int(broadcast_elements))
        t_ready = t0 + bcast  # master broadcasts; all workers start then

        queue = EventQueue()
        for wid in participants:
            w = self.workers[wid]
            value = w.execute(compute, self.field, self.rng)
            base = self.cost_model.worker_compute_time(int(macs(w.payload)))
            ct = w.sample_time(base, self.rng)
            t_begin = max(t_ready, busy.get(wid, 0.0))
            if value is None:
                queue.push(math.inf, (wid, None, ct, 0.0))
                continue
            up = self.cost_model.transfer_time(int(np.asarray(value).size))
            queue.push(t_begin + ct + up, (wid, value, ct, up))

        arrivals = []
        for t, (wid, value, ct, up) in queue.drain():
            arrivals.append(
                Arrival(
                    worker_id=wid,
                    value=value,
                    t_arrival=t,
                    compute_time=ct,
                    comm_time=up,
                    truly_byzantine=self.workers[wid].is_byzantine,
                )
            )
        self._now = t_ready
        return RoundResult(t_start=t0, broadcast_time=bcast, arrivals=tuple(arrivals))
