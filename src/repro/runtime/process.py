"""Shared-memory multiprocessing execution backend.

The third :class:`~repro.runtime.backend.Backend`: every worker is a
real OS process, so worker computations escape the GIL entirely — this
is the backend that shows genuine multi-core scaling for the coded
matvec/matmul workloads.

Data movement mirrors the paper's testbed:

* **Shares** are shipped once per (re-)encoding over each worker's
  pipe and live in the worker process's private memory — exactly the
  "storage" phase of the protocol.
* **Operands** are broadcast once per round through POSIX shared
  memory (:class:`multiprocessing.shared_memory.SharedMemory`): the
  master writes the vector once and every worker maps the same pages,
  so broadcast cost does not scale with the fleet size.
* **Results** return over the per-worker pipe; the master consumes
  them in true arrival order via :func:`multiprocessing.connection.wait`.
  Each worker serves its pipe FIFO, so several rounds can be in
  flight at once: replies are received centrally and routed by round
  id to the owning handle (:meth:`ProcessCluster._pump`) — the
  pipelined scheduler's multi-round dispatch never loses a message to
  the wrong handle.

Early stopping: workers cannot be interrupted mid-computation from
outside, so ``cancel`` makes the *master* stop waiting — outstanding
workers report into their pipe whenever they finish and those stale
results are dropped (and their shared-memory segments reclaimed) the
next time the pipes are pumped. A cancelled round therefore never
blocks on a straggler's sleep.

Fault containment: a worker whose computation raises reports the
error and is recorded as never having arrived; a worker whose
*process* dies (OOM, kill) is detected by the broken pipe, marked
dead, and treated as permanently silent from then on — later rounds
degrade instead of crashing the master. If every worker in a round
fails, the round raises, since that means the job, not the fleet, is
broken.

Worker processes apply the same latency/Byzantine model as the other
backends: the deterministic straggler factor becomes a real
``time.sleep`` and the behaviour corrupts the honest result before it
is "transmitted" (pickled into the pipe).
"""

from __future__ import annotations

import math
import multiprocessing
import time
from multiprocessing.connection import Connection, wait as connection_wait
from multiprocessing.shared_memory import SharedMemory
from typing import Iterator, Sequence

import numpy as np

from repro.ff.field import PrimeField
from repro.runtime.backend import (
    Arrival,
    RoundHandle,
    RoundJob,
    RoundResult,
    WallClockBackend,
    run_job_compute,
    store_share,
)
from repro.runtime.costmodel import CostModel
from repro.runtime.worker import SimWorker

__all__ = ["ProcessCluster", "ProcessRoundHandle"]


def _worker_main(
    conn: Connection,
    worker_id: int,
    q_modulus: int,
    behavior,
    factor: float,
    straggle_scale: float,
) -> None:
    """Child-process main loop: store shares, serve rounds, stop."""
    field = PrimeField(q_modulus)
    rng = np.random.default_rng(worker_id)
    payload: dict[str, np.ndarray] = {}
    while True:
        try:
            msg = conn.recv()
        except (EOFError, OSError):
            break
        kind = msg[0]
        if kind == "store":
            _, name, arr = msg
            store_share(field, payload, name, arr)
        elif kind == "round":
            _, rid, op, payload_key, rhs_key, shm_name, shape, dtype_str = msg
            value, err, t_c0 = None, None, time.perf_counter()
            try:
                operand = None
                if shm_name is not None:
                    shm = SharedMemory(name=shm_name)
                    try:
                        operand = np.ndarray(
                            shape, dtype=np.dtype(dtype_str), buffer=shm.buf
                        ).copy()
                    finally:
                        shm.close()
                job = RoundJob(
                    op=op, payload_key=payload_key, operand=operand, rhs_key=rhs_key
                )
                if factor > 1.0:
                    time.sleep((factor - 1.0) * straggle_scale)
                t_c0 = time.perf_counter()
                honest = run_job_compute(field, payload, job)
                value = behavior.corrupt(honest, field, rng)
            except Exception as exc:  # crash-stop: report, stay alive
                value, err = None, repr(exc)
            done = time.perf_counter()
            try:
                # perf_counter is CLOCK_MONOTONIC: system-wide on the
                # POSIX platforms this backend targets, so the child's
                # completion stamp is directly comparable to the
                # master's clock (no pipe/verify latency baked in)
                conn.send(("result", rid, value, done - t_c0, done, err))
            except (BrokenPipeError, OSError):
                break
        elif kind == "stop":
            break
    conn.close()


class ProcessRoundHandle(RoundHandle):
    """One in-flight multi-process round.

    Several rounds may be in flight at once (the pipelined scheduler),
    and every worker pipe carries replies for *all* of them in FIFO
    order — so replies are received centrally by the cluster's pump
    (:meth:`ProcessCluster._pump`) and routed by round id to the right
    handle's inbox. Iterating a handle drains its inbox, pumping the
    pipes whenever the inbox runs dry, and yields results in true
    arrival order. Replies for rounds that are no longer registered
    (cancelled) are dropped after shared-memory bookkeeping.
    """

    def __init__(self, cluster: "ProcessCluster", rid: int, participants: list[int]):
        self._cluster = cluster
        self._rid = rid
        self._participants = participants
        self._received: dict[int, Arrival] = {}
        self._inbox: list[Arrival] = []  # finite arrivals not yet yielded
        #: worker_id -> error reported by its computation (repr string)
        self.worker_errors: dict[int, str] = {}
        self._cancelled = False
        self.t_start = cluster.now
        self.broadcast_time = cluster._last_broadcast_time
        # workers already known dead never got the job: record them now
        self._outstanding = set()
        for wid in participants:
            if wid in cluster._dead:
                self._received[wid] = self._missing(wid)
            else:
                self._outstanding.add(wid)
        cluster._handles[rid] = self

    # ------------------------------------------------------------------
    # delivery callbacks (invoked by the cluster's pump)
    # ------------------------------------------------------------------
    def _deliver(self, wid: int, value, ct: float, done_pc: float, err) -> None:
        """A reply for this round landed; record it and queue finite
        results for iteration."""
        if wid not in self._outstanding:
            return
        self._outstanding.discard(wid)
        if err is not None:
            self.worker_errors[wid] = err
        if value is None:
            self._received[wid] = self._missing(wid)
            return
        a = Arrival(
            worker_id=wid,
            value=value,
            t_arrival=max(
                done_pc - self._cluster._t0,
                self.t_start + self.broadcast_time,
            ),
            compute_time=ct,
            comm_time=0.0,
            truly_byzantine=self._cluster.workers[wid].is_byzantine,
        )
        self._received[wid] = a
        self._inbox.append(a)

    def _worker_died(self, wid: int) -> None:
        if wid in self._outstanding:
            self._outstanding.discard(wid)
            self._received[wid] = self._missing(wid)

    # ------------------------------------------------------------------
    def __iter__(self) -> Iterator[Arrival]:
        cluster = self._cluster
        any_finite = False
        while not self._cancelled:
            if self._inbox:
                any_finite = True
                yield self._inbox.pop(0)
                continue
            if not self._outstanding:
                break
            cluster._pump(self._outstanding)
        if (
            not self._cancelled
            and not any_finite
            and not self._inbox
            and len(self.worker_errors) == len(self._participants)
        ):
            # every worker failed: a malformed job, not node failures.
            # Deregister first — this raise may propagate out of a
            # blocking caller that never reaches cancel()/result(),
            # and a zombie registration would leak in the cluster.
            self._cluster._handles.pop(self._rid, None)
            wid, err = next(iter(self.worker_errors.items()))
            raise RuntimeError(
                f"all {len(self._participants)} workers failed this round "
                f"(first error, worker {wid}: {err})"
            )

    def _missing(self, wid: int) -> Arrival:
        return self._cluster._missing_arrival(
            wid, self._cluster.workers[wid].is_byzantine
        )

    def cancel(self) -> None:
        """Stop waiting; late replies are dropped (after shared-memory
        bookkeeping) whenever the cluster next pumps the pipes.
        Idempotent, and safe after :meth:`result`."""
        self._cancelled = True
        self._cluster._handles.pop(self._rid, None)

    def result(self) -> RoundResult:
        for wid in self._outstanding:
            self._received.setdefault(wid, self._missing(wid))
        self._cluster._handles.pop(self._rid, None)
        ordered = sorted(self._received.values(), key=lambda a: a.t_arrival)
        return RoundResult(
            t_start=self.t_start,
            broadcast_time=self.broadcast_time,
            arrivals=tuple(ordered),
        )


class ProcessCluster(WallClockBackend):
    """Process-pool backend with shared-memory operand broadcast.

    Parameters mirror :class:`~repro.runtime.threaded.ThreadedCluster`;
    worker behaviours and straggler factors are shipped to the child
    processes at spawn time, so the same fleet description runs on
    every backend.
    """

    def __init__(
        self,
        field: PrimeField,
        workers: Sequence[SimWorker],
        rng: np.random.Generator | None = None,
        straggle_scale: float = 0.05,
        cost_model: CostModel | None = None,
    ):
        ids = [w.worker_id for w in workers]
        if sorted(ids) != list(range(len(workers))):
            raise ValueError("worker ids must be exactly 0..n-1")
        self.field = field
        self.workers = list(sorted(workers, key=lambda w: w.worker_id))
        self.rng = rng or np.random.default_rng(0)
        self.straggle_scale = straggle_scale
        self.cost_model = cost_model or CostModel()
        self._init_wall_clock()
        self._rid = 0
        self._last_broadcast_time = 0.0
        #: rid -> [SharedMemory, set of workers that have not replied]
        self._pending_shm: dict[int, list] = {}
        #: workers whose process crashed — permanently silent
        self._dead: set[int] = set()
        #: rid -> live (registered) round handle; replies are routed
        #: here so concurrent in-flight rounds never steal each other's
        #: messages off the shared per-worker pipes
        self._handles: dict[int, ProcessRoundHandle] = {}

        try:
            ctx = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - non-POSIX fallback
            ctx = multiprocessing.get_context()
        # Start the shared-memory resource tracker *before* forking, so
        # all children inherit it; otherwise every child lazily spawns
        # its own tracker on first attach and warns at shutdown about
        # segments the master already unlinked.
        try:
            from multiprocessing import resource_tracker

            resource_tracker.ensure_running()
        except Exception:  # pragma: no cover - tracker is best-effort
            pass
        self._conns: dict[int, Connection] = {}
        self._procs: dict[int, multiprocessing.Process] = {}
        for w in self.workers:
            parent_conn, child_conn = ctx.Pipe()
            proc = ctx.Process(
                target=_worker_main,
                args=(
                    child_conn,
                    w.worker_id,
                    field.q,
                    w.behavior,
                    float(getattr(w.profile, "factor", 1.0)),
                    straggle_scale,
                ),
                daemon=True,
            )
            proc.start()
            child_conn.close()
            self._conns[w.worker_id] = parent_conn
            self._procs[w.worker_id] = proc

    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        return len(self.workers)

    # ------------------------------------------------------------------
    def _note_reply(self, rid: int, wid: int) -> None:
        """A worker answered round ``rid``; free its shared-memory
        segment once every participant has replied."""
        entry = self._pending_shm.get(rid)
        if entry is None:
            return
        shm, waiting = entry
        waiting.discard(wid)
        if not waiting:
            shm.close()
            shm.unlink()
            del self._pending_shm[rid]

    def _mark_dead(self, wid: int) -> None:
        """A worker process crashed: reclaim its resources and treat
        it as permanently silent (rounds keep running without it)."""
        if wid in self._dead:
            return
        self._dead.add(wid)
        for entry in self._pending_shm.values():
            entry[1].discard(wid)
        for handle in list(self._handles.values()):
            handle._worker_died(wid)
        self._gc_pending_shm()
        self._reap_worker(wid)

    def _pump(self, want: Sequence[int]) -> None:
        """Receive one batch of worker replies and route each to the
        handle that owns its round id.

        ``want`` names the workers the caller is blocked on; their
        pipes are the wait set. A worker's pipe carries its replies in
        round-dispatch order, so a reply that surfaces here may belong
        to an *earlier* in-flight round — it is delivered to that
        round's handle (or dropped, after shared-memory bookkeeping,
        if its round was cancelled/finalized).
        """
        conns = {self._conns[wid]: wid for wid in want if wid not in self._dead}
        if not conns:
            return
        for conn in connection_wait(list(conns)):
            wid = conns[conn]
            try:
                msg = conn.recv()
            except (EOFError, OSError):  # worker process died
                self._mark_dead(wid)
                continue
            _, rid, value, ct, done_pc, err = msg
            self._note_reply(rid, wid)
            target = self._handles.get(rid)
            if target is not None:
                target._deliver(wid, value, ct, done_pc, err)

    # ------------------------------------------------------------------
    def distribute(self, name: str, shares: np.ndarray, participants=None) -> float:
        participants = self._participants(participants)
        self._check_not_dropped(participants)
        if len(participants) > shares.shape[0]:
            raise ValueError("fewer shares than participants")
        t0 = time.perf_counter()
        for slot, wid in enumerate(participants):
            if wid in self._dead:
                continue  # permanently silent; shares would be lost
            try:
                self._conns[wid].send(("store", name, np.asarray(shares[slot])))
            except (BrokenPipeError, OSError):
                self._mark_dead(wid)
        return time.perf_counter() - t0

    def dispatch_round(
        self, job: RoundJob, participants: Sequence[int] | None = None
    ) -> ProcessRoundHandle:
        participants = self._participants(participants)
        self._check_not_dropped(participants)
        if self.obs is not None:
            self.obs.on_dispatch("process", job, len(participants))
        self._rid += 1
        rid = self._rid
        live = [wid for wid in participants if wid not in self._dead]

        t_b0 = time.perf_counter()
        shm_name, shape, dtype_str = None, None, None
        if job.operand is not None and live:
            operand = np.ascontiguousarray(job.operand)
            shm = SharedMemory(create=True, size=max(1, operand.nbytes))
            np.ndarray(operand.shape, dtype=operand.dtype, buffer=shm.buf)[...] = operand
            shm_name, shape, dtype_str = shm.name, operand.shape, operand.dtype.str
            self._pending_shm[rid] = [shm, set(live)]
        for wid in live:
            try:
                self._conns[wid].send(
                    ("round", rid, job.op, job.payload_key, job.rhs_key,
                     shm_name, shape, dtype_str)
                )
            except (BrokenPipeError, OSError):
                self._mark_dead(wid)
        self._last_broadcast_time = time.perf_counter() - t_b0
        return ProcessRoundHandle(self, rid, participants)

    # ------------------------------------------------------------------
    def drop_workers(self, worker_ids: Sequence[int]) -> None:
        """Terminate the dropped workers' processes and reclaim their
        pipes — the dynamic-coding path releases real resources here."""
        fresh = [int(w) for w in worker_ids if int(w) not in self._dropped]
        super().drop_workers(fresh)
        for wid in fresh:
            for entry in self._pending_shm.values():
                entry[1].discard(wid)
            if wid not in self._dead:
                self._stop_worker(wid)
        self._gc_pending_shm()

    def _gc_pending_shm(self) -> None:
        for rid in [r for r, (_, waiting) in self._pending_shm.items() if not waiting]:
            shm, _ = self._pending_shm.pop(rid)
            shm.close()
            shm.unlink()

    def _stop_worker(self, wid: int) -> None:
        conn = self._conns.get(wid)
        if conn is not None:
            try:
                conn.send(("stop",))
            except (BrokenPipeError, OSError):
                pass
        self._reap_worker(wid)

    def _reap_worker(self, wid: int, timeout: float = 0.2) -> None:
        proc = self._procs.get(wid)
        if proc is not None:
            proc.join(timeout)
            if proc.is_alive():  # stuck in a straggler sleep: kill it
                proc.terminate()
                proc.join(timeout)
        conn = self._conns.get(wid)
        if conn is not None:
            conn.close()

    def close(self) -> None:
        for wid in list(self._procs):
            if wid not in self._dropped and wid not in self._dead:
                self._stop_worker(wid)
        for shm, _ in self._pending_shm.values():
            shm.close()
            try:
                shm.unlink()
            except FileNotFoundError:  # pragma: no cover
                pass
        self._pending_shm.clear()
