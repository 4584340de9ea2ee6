"""The asyncio TCP backend: one event loop driving the whole fleet.

:class:`AsyncTcpCluster` is the event-loop twin of
:class:`~repro.runtime.net.client.TcpCluster`: same wire protocol,
same worker daemons, same fleet description — but where the sync
cluster multiplexes worker sockets with a selector pumped from the
master's calling thread, this cluster runs **one asyncio event loop in
one dedicated thread** and parks a lightweight reader coroutine on
every connection. All socket I/O, liveness probing and round/deadline
bookkeeping happen on that loop; the total thread count is O(1) in the
worker count, which is what lets a single master drive 64+ workers
without a thread explosion.

Demultiplexing and the sync facade
----------------------------------
Every worker's reader coroutine feeds one demultiplexer: ``result``
frames are routed *by round id* to the loop-side state of the owning
round, which forwards each terminal per-worker event (a value, or a
never-arrived marker) into a thread-safe queue. The public
:class:`AsyncTcpRoundHandle` is a plain synchronous
:class:`~repro.runtime.backend.RoundHandle` that drains that queue —
so masters, sessions, the scheduler and the whole test matrix run
unchanged on top of the loop. The few sync entry points that must
touch sockets (``dispatch_round``, ``distribute``, ``drop_workers``,
``close``) hop onto the loop with ``run_coroutine_threadsafe`` and
wait at the boundary.

Liveness and deadlines
----------------------
Heartbeats are an always-on loop task (the sync cluster only probes
while a collect is pumping); a probe unanswered past
``heartbeat_timeout`` marks the worker dead, exactly like a socket
error/EOF, and every in-flight round observes a straggler that never
arrives. Per-round collect deadlines are ``loop.call_later`` timers:
expiry records the still-outstanding workers as never-arrived for that
round only. Both knobs come from one
:class:`~repro.runtime.net.tunables.NetTunables` surface shared with
the sync backend.

Fork safety: the loopback fleet is spawned *before* the loop thread
starts (workers retry-dial), so fork-mode children never inherit a
thread's locks.

Elastic membership mirrors the sync cluster: the asyncio server keeps
accepting after initial registration, version-checks each late
``hello`` (:func:`~repro.runtime.net.wire.check_hello`), and parks the
handshaken connection as a pending join — no reader task yet, so a
parked daemon cannot inject frames. ``admit_workers()`` (refused while
rounds are in flight) moves pending joins into the roster on the loop
thread; ``drop_workers`` is reversible the same way, and
``membership()`` / ``take_membership_events()`` report the state.
"""

from __future__ import annotations

import asyncio
import queue
import socket
import threading
import time
from typing import Iterator, Sequence

import numpy as np

from repro.ff.field import PrimeField
from repro.runtime.backend import (
    Arrival,
    MembershipView,
    RoundHandle,
    RoundJob,
    RoundResult,
    WallClockBackend,
)
from repro.runtime.costmodel import CostModel
from repro.runtime.net.fleet import LocalFleet, spawn_local_workers
from repro.runtime.net.tunables import NetTunables
from repro.runtime.net.wire import (
    WireCounters,
    WireError,
    behavior_to_dict,
    check_hello,
    encode_frame,
    encode_store,
    read_frame_async,
)
from repro.runtime.worker import SimWorker

__all__ = ["AsyncTcpCluster", "AsyncTcpRoundHandle"]

_DEFAULTS = NetTunables()

#: socket/stream failures that mean "this worker is gone"
_CONN_ERRORS = (
    WireError,
    OSError,
    ConnectionError,
    asyncio.IncompleteReadError,
    asyncio.TimeoutError,
)


class _LoopRound:
    """Loop-side state of one in-flight round: the outstanding set and
    the thread-safe event queue feeding the sync handle."""

    __slots__ = ("rid", "outstanding", "events", "timer")

    def __init__(self, rid: int, events: "queue.SimpleQueue") -> None:
        self.rid = rid
        self.outstanding: set[int] = set()
        self.events = events
        self.timer: asyncio.TimerHandle | None = None


class AsyncTcpRoundHandle(RoundHandle):
    """One in-flight round, consumed synchronously.

    The event loop pushes one terminal event per participant — a
    delivered value or a never-arrived marker — into this handle's
    queue; iterating drains it and yields finite arrivals in true
    arrival order, with the same semantics (cancellation, all-failed
    error, missing accounting) as the sync ``TcpRoundHandle``.
    """

    def __init__(
        self, cluster: "AsyncTcpCluster", rid: int, participants: list[int]
    ):
        self._cluster = cluster
        self._rid = rid
        self._participants = participants
        #: (wid, value|None, compute_time, err|None, spans|None,
        #: digest|None) events from the loop
        self._events: queue.SimpleQueue = queue.SimpleQueue()
        self._received: dict[int, Arrival] = {}
        self._inbox: list[Arrival] = []
        #: worker_id -> error reported by its computation (repr string)
        self.worker_errors: dict[int, str] = {}
        #: worker_id -> daemon-side sub-spans (traced rounds only)
        self.worker_spans: dict[int, list] = {}
        #: worker_id -> daemon-countersigned result digest from
        #: attested result frames (audit armed)
        self.worker_digests: dict[int, str] = {}
        self._outstanding: set[int] = set(participants)
        self._cancelled = False
        self.t_start = cluster.now
        self.broadcast_time = 0.0

    # ------------------------------------------------------------------
    def _pump(self, block: bool) -> bool:
        """Consume one event from the loop; returns False when none was
        available (non-blocking) or the wait timed out."""
        try:
            if block:
                ev = self._events.get(timeout=0.25)
            else:
                ev = self._events.get_nowait()
        except queue.Empty:
            if block and self._cluster._closed:
                # the loop is gone: nothing will deliver the rest
                for wid in list(self._outstanding):
                    self._outstanding.discard(wid)
                    self._received[wid] = self._missing(wid)
            return False
        wid, value, compute_time, err, spans, digest = ev
        if wid not in self._outstanding:
            return True
        self._outstanding.discard(wid)
        if err is not None:
            self.worker_errors[wid] = err
        if spans:
            self.worker_spans[wid] = spans
        if digest is not None:
            self.worker_digests[wid] = digest
        if value is None:
            self._received[wid] = self._missing(wid)
            return True
        a = Arrival(
            worker_id=wid,
            value=value,
            t_arrival=max(self._cluster.now, self.t_start + self.broadcast_time),
            compute_time=compute_time,
            comm_time=0.0,
            truly_byzantine=self._cluster.workers[wid].is_byzantine,
        )
        self._received[wid] = a
        self._inbox.append(a)
        return True

    # ------------------------------------------------------------------
    def __iter__(self) -> Iterator[Arrival]:
        any_finite = False
        while not self._cancelled:
            if self._inbox:
                any_finite = True
                yield self._inbox.pop(0)
                continue
            if not self._outstanding:
                break
            self._pump(block=True)
        if (
            not self._cancelled
            and not any_finite
            and not self._inbox
            and len(self.worker_errors) == len(self._participants)
        ):
            # every worker failed: a malformed job, not node failures
            self._cluster._drop_round(self._rid)
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
        """Stop waiting; workers are told to skip the round if it is
        still queued on their side. Idempotent, safe after ``result``."""
        if self._cancelled:
            return
        self._cancelled = True
        self._cluster._cancel_round(self._rid)

    def result(self) -> RoundResult:
        while self._outstanding and self._pump(block=False):
            pass
        for wid in self._outstanding:
            self._received.setdefault(wid, self._missing(wid))
        self._cluster._drop_round(self._rid)
        ordered = sorted(self._received.values(), key=lambda a: a.t_arrival)
        return RoundResult(
            t_start=self.t_start,
            broadcast_time=self.broadcast_time,
            arrivals=tuple(ordered),
        )


class AsyncTcpCluster(WallClockBackend):
    """Socket-fleet backend on one event loop (master side).

    Constructor parameters mirror :class:`TcpCluster` — same fleet
    description, same listen/spawn knobs, same
    :class:`~repro.runtime.net.tunables.NetTunables` liveness/deadline
    surface (``heartbeat_interval``, ``heartbeat_timeout``,
    ``io_timeout``, ``round_timeout``) — so the two are
    drop-in-interchangeable through the ``"tcp"`` / ``"async_tcp"``
    registry names and must decode byte-identically.
    """

    def __init__(
        self,
        field: PrimeField,
        workers: Sequence[SimWorker],
        rng: np.random.Generator | None = None,
        straggle_scale: float = 0.05,
        cost_model: CostModel | None = None,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        connect_timeout: float = 30.0,
        heartbeat_interval: float = _DEFAULTS.heartbeat_interval,
        heartbeat_timeout: float = _DEFAULTS.heartbeat_timeout,
        io_timeout: float | None = _DEFAULTS.io_timeout,
        round_timeout: float | None = _DEFAULTS.round_timeout,
        spawn_workers: bool = True,
        spawn_mode: str = "fork",
    ):
        ids = [w.worker_id for w in workers]
        if sorted(ids) != list(range(len(workers))):
            raise ValueError("worker ids must be exactly 0..n-1")
        tunables = NetTunables(
            heartbeat_interval=heartbeat_interval,
            heartbeat_timeout=heartbeat_timeout,
            io_timeout=io_timeout,
            round_timeout=round_timeout,
        )
        self.field = field
        self.workers = list(sorted(workers, key=lambda w: w.worker_id))
        self.rng = rng or np.random.default_rng(0)
        self.straggle_scale = straggle_scale
        self.cost_model = cost_model or CostModel()
        self.host = host
        self.connect_timeout = connect_timeout
        self.heartbeat_interval = tunables.heartbeat_interval
        self.heartbeat_timeout = tunables.heartbeat_timeout
        self.io_timeout = tunables.effective_io_timeout
        self.round_timeout = tunables.round_timeout
        self._init_wall_clock()

        self._rid = 0
        self._closed = False
        self._fleet: LocalFleet | None = None
        # ---- loop-side state (touched only on the event loop) ----
        self._writers: dict[int, asyncio.StreamWriter] = {}
        self._reader_tasks: dict[int, asyncio.Task] = {}
        self._rounds: dict[int, _LoopRound] = {}
        self._dead: set[int] = set()
        self._hb_seq = 0
        #: wid -> loop-clock time of the oldest unanswered heartbeat
        self._hb_pending: dict[int, float | None] = {}
        #: wid -> (seq, monotonic send time) of the last heartbeat,
        #: matched against acks for the per-worker RTT gauge
        self._hb_sent: dict[int, tuple[int, float]] = {}
        self.wire = WireCounters()
        #: wid -> handshaken (reader, writer) parked until admit_workers()
        self._pending_joins: dict[
            int, tuple[asyncio.StreamReader, asyncio.StreamWriter]
        ] = {}
        self._hb_task: asyncio.Task | None = None
        self._server: asyncio.AbstractServer | None = None
        self._registered = asyncio.Event()  # bound to the loop at start

        self._listener = socket.create_server((host, port), backlog=len(self.workers))
        self.port = self._listener.getsockname()[1]
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        try:
            if spawn_workers:
                # fork the fleet BEFORE the loop thread exists: a child
                # forked while another thread holds an allocator/libc
                # lock would inherit it locked forever
                self._fleet = spawn_local_workers(
                    "127.0.0.1" if host in ("0.0.0.0", "") else host,
                    self.port,
                    [w.worker_id for w in self.workers],
                    mode=spawn_mode,
                    connect_timeout=connect_timeout,
                )
            self._loop = asyncio.new_event_loop()
            self._thread = threading.Thread(
                target=self._loop.run_forever, name="async-tcp-loop", daemon=True
            )
            self._thread.start()
            self._call(self._start(), timeout=connect_timeout + 15.0)
        except BaseException:
            self.close()
            raise

    # ------------------------------------------------------------------
    # the sync/async boundary
    # ------------------------------------------------------------------
    def _call(self, coro, timeout: float | None = None):
        """Run a coroutine on the loop thread and wait for its result."""
        assert self._loop is not None
        return asyncio.run_coroutine_threadsafe(coro, self._loop).result(timeout)

    def _post(self, coro) -> None:
        """Fire-and-forget a coroutine onto the loop (cancel paths)."""
        if self._loop is not None and not self._closed:
            try:
                asyncio.run_coroutine_threadsafe(coro, self._loop)
            except RuntimeError:  # pragma: no cover - loop shut down
                coro.close()

    # ------------------------------------------------------------------
    # registration (loop side)
    # ------------------------------------------------------------------
    async def _start(self) -> None:
        self._registered = asyncio.Event()
        self._server = await asyncio.start_server(
            self._on_connection, sock=self._listener
        )
        if not self._expected() <= set(self._writers):
            try:
                await asyncio.wait_for(
                    self._registered.wait(), self.connect_timeout
                )
            except asyncio.TimeoutError:
                missing = sorted(self._expected() - set(self._writers))
                raise RuntimeError(
                    f"timed out waiting for workers {missing} to register on "
                    f"{self.host}:{self.port} (connect_timeout="
                    f"{self.connect_timeout}s)"
                ) from None
        self._hb_task = asyncio.get_running_loop().create_task(
            self._heartbeat_loop()
        )

    def _expected(self) -> set[int]:
        return {w.worker_id for w in self.workers}

    def _worker_config(self, wid: int) -> dict:
        """The ``config`` frame for a worker id — the declared fleet
        spec when the id is known, honest full-speed defaults for a
        brand-new joiner beyond the current roster."""
        w = self.workers[wid] if wid < len(self.workers) else SimWorker(wid)
        return {
            "q": self.field.q,
            "straggle_scale": self.straggle_scale,
            "factor": float(getattr(w.profile, "factor", 1.0)),
            "behavior": behavior_to_dict(w.behavior),
            "seed": wid,
        }

    async def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            kind, fields, _ = await asyncio.wait_for(
                read_frame_async(reader, self.wire), self.io_timeout
            )
            if kind != "hello":
                raise WireError(f"expected hello, got {kind!r}")
            wid = check_hello(fields)
            late = self._registered.is_set()
            if not late and (wid not in self._expected() or wid in self._writers):
                raise WireError(f"unexpected or duplicate worker id {wid}")
            config = b"".join(encode_frame("config", self._worker_config(wid)))
            writer.write(config)
            await asyncio.wait_for(writer.drain(), self.io_timeout)
            self.wire.note_out(len(config))
        except (*_CONN_ERRORS, KeyError, ValueError):
            writer.close()
            return
        if late:
            # park as a pending join — no reader task until admitted,
            # so a parked daemon cannot inject frames into the pump
            stale = self._pending_joins.pop(wid, None)
            if stale is not None:  # superseded by this fresher dial
                try:
                    stale[1].close()
                except Exception:  # pragma: no cover - close best-effort
                    pass
            self._pending_joins[wid] = (reader, writer)
            return
        sock = writer.get_extra_info("socket")
        if sock is not None:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._writers[wid] = writer
        self._hb_pending[wid] = None
        self._reader_tasks[wid] = asyncio.get_running_loop().create_task(
            self._reader_loop(wid, reader)
        )
        if self._expected() <= set(self._writers):
            self._registered.set()

    # ------------------------------------------------------------------
    # the demultiplexer (loop side)
    # ------------------------------------------------------------------
    async def _reader_loop(self, wid: int, reader: asyncio.StreamReader) -> None:
        """One worker's receive coroutine: acks liveness, routes result
        frames to their round by id."""
        try:
            while True:
                kind, fields, arrays = await read_frame_async(reader, self.wire)
                self._hb_pending[wid] = None
                if kind == "result":
                    rid = int(fields["rid"])
                    rnd = self._rounds.get(rid)
                    if rnd is not None and wid in rnd.outstanding:
                        rnd.outstanding.discard(wid)
                        value = arrays[0] if fields.get("ok") and arrays else None
                        rnd.events.put(
                            (
                                wid,
                                value,
                                float(fields.get("compute_time", 0.0)),
                                fields.get("err"),
                                fields.get("spans"),
                                fields.get("digest"),
                            )
                        )
                        if not rnd.outstanding:
                            self._finish_round(rid)
                elif kind == "heartbeat_ack":
                    sent = self._hb_sent.get(wid)
                    if sent is not None and fields.get("seq") == sent[0]:
                        self.wire.hb_rtt[wid] = max(
                            0.0, time.monotonic() - sent[1]
                        )
        except _CONN_ERRORS:
            self._mark_dead(wid)

    def _finish_round(self, rid: int) -> None:
        rnd = self._rounds.pop(rid, None)
        if rnd is not None and rnd.timer is not None:
            rnd.timer.cancel()

    def _expire_round(self, rid: int) -> None:
        """Collect deadline passed: record every straggler still
        outstanding as never-arrived (the workers stay in the pool)."""
        rnd = self._rounds.pop(rid, None)
        if rnd is None:
            return
        for wid in list(rnd.outstanding):
            rnd.events.put((wid, None, 0.0, None, None, None))
        rnd.outstanding.clear()

    def _mark_dead(self, wid: int) -> None:
        """A worker's socket failed or its heartbeats lapsed: record it
        permanently silent; in-flight rounds observe a straggler that
        never arrives, not a hang."""
        if wid in self._dead:
            return
        self._dead.add(wid)
        self._hb_pending[wid] = None
        if wid not in self._dropped:
            self._note_membership("dead", wid)
        task = self._reader_tasks.pop(wid, None)
        if task is not None and task is not asyncio.current_task():
            task.cancel()
        self._close_writer(wid)
        for rid in list(self._rounds):
            rnd = self._rounds[rid]
            if wid in rnd.outstanding:
                rnd.outstanding.discard(wid)
                rnd.events.put((wid, None, 0.0, None, None, None))
                if not rnd.outstanding:
                    self._finish_round(rid)

    def _close_writer(self, wid: int) -> None:
        writer = self._writers.pop(wid, None)
        if writer is None:
            return
        try:
            writer.close()
        except Exception:  # pragma: no cover - close is best-effort
            pass

    # ------------------------------------------------------------------
    # liveness (loop side)
    # ------------------------------------------------------------------
    async def _heartbeat_loop(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            await asyncio.sleep(self.heartbeat_interval)
            now = loop.time()
            self._hb_seq += 1
            frame = b"".join(encode_frame("heartbeat", {"seq": self._hb_seq}))
            for wid in list(self._writers):
                if wid in self._dead:
                    continue
                writer = self._writers[wid]
                try:
                    writer.write(frame)
                    await asyncio.wait_for(writer.drain(), self.io_timeout)
                except _CONN_ERRORS:
                    self._mark_dead(wid)
                    continue
                self.wire.note_out(len(frame))
                self._hb_sent[wid] = (self._hb_seq, time.monotonic())
                if self._hb_pending.get(wid) is None:
                    self._hb_pending[wid] = now
            for wid, since in list(self._hb_pending.items()):
                if (
                    wid not in self._dead
                    and since is not None
                    and loop.time() - since > self.heartbeat_timeout
                ):
                    self._mark_dead(wid)

    # ------------------------------------------------------------------
    # elastic membership (sync facade over loop-side state)
    # ------------------------------------------------------------------
    def admit_workers(self) -> tuple[int, ...]:
        """Admit every admissible pending join into the roster.

        Must be called between rounds (raises ``RuntimeError`` while
        any round is in flight). Semantics match
        :meth:`TcpCluster.admit_workers`: live duplicates are
        discarded, a next-dense id joins as a new honest worker,
        gapped ids wait."""
        return tuple(self._call(self._admit_on_loop()))

    async def _admit_on_loop(self) -> list[int]:
        if self._rounds:
            raise RuntimeError(
                "cannot admit workers mid-round: drain in-flight rounds first"
            )
        admitted: list[int] = []
        for wid in sorted(self._pending_joins):
            reader, writer = self._pending_joins[wid]
            if wid in self._writers:
                del self._pending_joins[wid]
                try:
                    writer.close()
                except Exception:  # pragma: no cover - close best-effort
                    pass
                continue
            if wid > len(self.workers):
                continue
            del self._pending_joins[wid]
            fresh = wid == len(self.workers)
            if fresh:
                self.workers.append(SimWorker(wid))
            self._dead.discard(wid)
            self._dropped.discard(wid)
            sock = writer.get_extra_info("socket")
            if sock is not None:
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self._writers[wid] = writer
            self._hb_pending[wid] = None
            self._reader_tasks[wid] = asyncio.get_running_loop().create_task(
                self._reader_loop(wid, reader)
            )
            self._note_membership("joined" if fresh else "rejoined", wid)
            admitted.append(wid)
        return admitted

    def membership(self) -> MembershipView:
        """Current roster split, snapshotted on the loop thread."""
        return self._call(self._membership_on_loop())

    async def _membership_on_loop(self) -> MembershipView:
        return MembershipView(
            n=len(self.workers),
            live=tuple(sorted(self._writers)),
            dead=tuple(sorted(self._dead - self._dropped)),
            dropped=tuple(sorted(self._dropped)),
            pending=tuple(sorted(self._pending_joins)),
        )

    def restart_worker(self, worker_id: int) -> None:
        """Replace a (self-spawned) worker's process with a fresh
        daemon; it re-dials and is admitted at the next quiesce."""
        if self._fleet is None:
            raise RuntimeError(
                "no self-spawned fleet: restart externally launched daemons "
                "from wherever they were started"
            )
        self._fleet.restart_worker(worker_id)

    def spawn_worker(self, worker_id: int | None = None) -> int:
        """Launch one additional (self-spawned) daemon; defaults to the
        next dense id. Returns the id it will register under."""
        if self._fleet is None:
            raise RuntimeError(
                "no self-spawned fleet: launch externally managed daemons "
                "from wherever the fleet is run"
            )
        wid = len(self.workers) if worker_id is None else int(worker_id)
        self._fleet.spawn_worker(wid)
        return wid

    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        return len(self.workers)

    def worker_pids(self) -> dict[int, int]:
        """PIDs of self-spawned workers (empty for external fleets)."""
        return self._fleet.pids() if self._fleet is not None else {}

    # ------------------------------------------------------------------
    # Backend protocol (sync facade)
    # ------------------------------------------------------------------
    def distribute(self, name: str, shares: np.ndarray, participants=None) -> float:
        participants = self._participants(participants)
        self._check_not_dropped(participants)
        if len(participants) > shares.shape[0]:
            raise ValueError("fewer shares than participants")
        t0 = time.perf_counter()
        items = [
            (wid, encode_store(name, shares[slot], self.field.q))
            for slot, wid in enumerate(participants)
        ]
        self._call(self._send_stores(items))
        return time.perf_counter() - t0

    async def _send_stores(self, items) -> None:
        for wid, parts in items:
            writer = self._writers.get(wid)
            if writer is None or wid in self._dead:
                continue  # permanently silent; shares would be lost
            try:
                for part in parts:
                    writer.write(part)
                await asyncio.wait_for(writer.drain(), self.io_timeout)
                self.wire.note_out(sum(memoryview(part).nbytes for part in parts))
            except _CONN_ERRORS:
                self._mark_dead(wid)

    def dispatch_round(
        self, job: RoundJob, participants: Sequence[int] | None = None
    ) -> AsyncTcpRoundHandle:
        participants = self._participants(participants)
        self._check_not_dropped(participants)
        self._rid += 1
        rid = self._rid
        t_b0 = time.perf_counter()
        fields = {
            "rid": rid,
            "op": job.op,
            "payload_key": job.payload_key,
            "rhs_key": job.rhs_key,
        }
        if self.obs is not None:
            # traced rounds ask the daemons for their sub-spans;
            # untraced round frames stay byte-identical
            fields["trace"] = True
            self.obs.on_dispatch("async_tcp", job, len(participants))
        if self.attest:
            # audited rounds ask the daemons to countersign results
            fields["attest"] = True
        arrays = (job.operand,) if job.operand is not None else ()
        parts = encode_frame("round", fields, arrays)  # serialize once
        handle = AsyncTcpRoundHandle(self, rid, participants)
        self._call(self._dispatch_on_loop(rid, parts, participants, handle._events))
        handle.broadcast_time = time.perf_counter() - t_b0
        return handle

    async def _dispatch_on_loop(
        self,
        rid: int,
        parts: list,
        participants: list[int],
        events: "queue.SimpleQueue",
    ) -> None:
        rnd = _LoopRound(rid, events)
        payload = [bytes(p) if isinstance(p, memoryview) else p for p in parts]
        for wid in participants:
            if wid in self._dead or wid not in self._writers:
                events.put((wid, None, 0.0, None, None, None))
            else:
                rnd.outstanding.add(wid)
        self._rounds[rid] = rnd
        nbytes = sum(len(p) for p in payload)
        for wid in list(rnd.outstanding):
            writer = self._writers.get(wid)
            if writer is None:
                continue
            try:
                for part in payload:
                    writer.write(part)
                await asyncio.wait_for(writer.drain(), self.io_timeout)
                self.wire.note_out(nbytes)
            except _CONN_ERRORS:
                self._mark_dead(wid)
        if not rnd.outstanding:
            self._finish_round(rid)
            return
        if self.round_timeout is not None:
            rnd.timer = asyncio.get_running_loop().call_later(
                self.round_timeout, self._expire_round, rid
            )

    # ------------------------------------------------------------------
    # cancellation / cleanup hooks (called from handles, sync side)
    # ------------------------------------------------------------------
    def _cancel_round(self, rid: int) -> None:
        self._post(self._cancel_on_loop(rid))

    async def _cancel_on_loop(self, rid: int) -> None:
        rnd = self._rounds.pop(rid, None)
        if rnd is None:
            return
        if rnd.timer is not None:
            rnd.timer.cancel()
        frame = b"".join(encode_frame("cancel", {"rid": rid}))
        for wid in list(rnd.outstanding):
            writer = self._writers.get(wid)
            if writer is None or wid in self._dead:
                continue
            try:
                writer.write(frame)
                await asyncio.wait_for(writer.drain(), self.io_timeout)
                self.wire.note_out(len(frame))
            except _CONN_ERRORS:
                self._mark_dead(wid)

    def _drop_round(self, rid: int) -> None:
        if self._loop is not None and not self._closed:
            self._loop.call_soon_threadsafe(self._finish_round, rid)

    # ------------------------------------------------------------------
    def drop_workers(self, worker_ids: Sequence[int]) -> None:
        """Disconnect dropped workers for real: ship ``shutdown`` and
        close the socket — the dynamic-coding path releases live
        connections, and a re-connect is a fresh registration."""
        fresh = [int(w) for w in worker_ids if int(w) not in self._dropped]
        super().drop_workers(fresh)
        if fresh:
            self._call(self._drop_on_loop(fresh))
            self._reap_fleet_procs(fresh)

    async def _drop_on_loop(self, worker_ids: list[int]) -> None:
        frame = b"".join(encode_frame("shutdown", {}))
        for wid in worker_ids:
            writer = self._writers.get(wid)
            if writer is not None and wid not in self._dead:
                try:
                    writer.write(frame)
                    await asyncio.wait_for(writer.drain(), self.io_timeout)
                except _CONN_ERRORS:
                    pass
            task = self._reader_tasks.pop(wid, None)
            if task is not None:
                task.cancel()
            self._close_writer(wid)
            for rid in list(self._rounds):
                rnd = self._rounds[rid]
                if wid in rnd.outstanding:
                    rnd.outstanding.discard(wid)
                    rnd.events.put((wid, None, 0.0, None, None, None))
                    if not rnd.outstanding:
                        self._finish_round(rid)

    def _reap_fleet_procs(self, worker_ids: Sequence[int]) -> None:
        if self._fleet is None:
            return
        for wid in worker_ids:
            proc = self._fleet.procs.get(wid)
            if proc is None:
                continue
            try:
                if self._fleet.mode == "fork":
                    proc.join(0.5)
                    if proc.is_alive():
                        proc.terminate()
                else:
                    proc.wait(0.5)
            except Exception:  # pragma: no cover - reaping best-effort
                pass

    # ------------------------------------------------------------------
    def close(self) -> None:
        if self._closed:
            return
        if self._loop is not None and self._thread is not None:
            try:
                self._call(self._shutdown_on_loop(), timeout=10.0)
            except Exception:  # pragma: no cover - wind-down best-effort
                pass
            self._closed = True
            self._loop.call_soon_threadsafe(self._loop.stop)
            self._thread.join(10.0)
            if not self._loop.is_running():
                self._loop.close()
        else:
            self._closed = True
            try:
                self._listener.close()
            except OSError:  # pragma: no cover - close is best-effort
                pass
        if self._fleet is not None:
            self._fleet.terminate()

    async def _shutdown_on_loop(self) -> None:
        """Resolve every in-flight round, shut the fleet down cleanly,
        stop accepting — run on the loop right before it is stopped."""
        if self._hb_task is not None:
            self._hb_task.cancel()
        for rid in list(self._rounds):
            rnd = self._rounds.pop(rid)
            if rnd.timer is not None:
                rnd.timer.cancel()
            for wid in list(rnd.outstanding):
                rnd.events.put((wid, None, 0.0, None, None, None))
            rnd.outstanding.clear()
        frame = b"".join(encode_frame("shutdown", {}))
        for wid in list(self._writers):
            if wid not in self._dead and wid not in self._dropped:
                writer = self._writers[wid]
                try:
                    writer.write(frame)
                    await asyncio.wait_for(writer.drain(), 1.0)
                except _CONN_ERRORS:  # pragma: no cover - peer already gone
                    pass
        for task in list(self._reader_tasks.values()):
            task.cancel()
        self._reader_tasks.clear()
        for wid in list(self._writers):
            self._close_writer(wid)
        for _, writer in self._pending_joins.values():
            try:
                writer.close()
            except Exception:  # pragma: no cover - close is best-effort
                pass
        self._pending_joins.clear()
        if self._server is not None:
            self._server.close()
