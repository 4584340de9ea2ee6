"""The TCP socket execution backend: a master over remote workers.

:class:`TcpCluster` is the third :class:`~repro.runtime.backend.Backend`
and the only one whose workers live outside the master's address
space: each worker is a daemon process
(:mod:`repro.runtime.net.worker_server`) reached over a real socket
with real serialization (:mod:`repro.runtime.net.wire`). This is the
deployment model of the paper's testbed — a master node coordinating a
fleet of worker hosts — and the gateway/session stack runs over it
unchanged.

Wiring
------
The master listens; workers dial in and register with ``hello``. With
``spawn_workers=True`` (the default, and what the ``"tcp"`` backend
name uses) the cluster launches a loopback fleet itself via
:mod:`repro.runtime.net.fleet`; with ``spawn_workers=False`` it waits
``connect_timeout`` seconds for externally started daemons (other
hosts, containers) to connect to ``host:port``.

Round transport
---------------
Rounds are declarative :class:`~repro.runtime.backend.RoundJob` data,
so they cross the address-space boundary as plain frames: every
dispatch broadcasts one pre-encoded ``round`` frame (the operand is
serialized once, not once per worker). Each worker socket carries the
replies of *every* in-flight round in dispatch order, so results
stream back tagged with their round id and a central pump
demultiplexes them to the owning :class:`TcpRoundHandle` — several
rounds stay in flight at once and no handle can steal another round's
replies. ``cancel`` is idempotent,
safe after ``result()``, and additionally ships ``cancel`` frames so
workers skip rounds still sitting in their queues.

The master owns no thread: the pump is one ``selectors`` wait over
every worker socket plus the listener, run by whichever thread is
iterating a round handle whose inbox is empty.

Fault tolerance
---------------
A worker is *dead* when its socket errors/EOFs (killed process,
closed laptop) or when it leaves a heartbeat unanswered for
``heartbeat_timeout`` seconds (wedged host, dropped network). Dead
workers are marked permanently silent: every in-flight round records
them as never-arrived — the same observation a straggler produces —
so the master's waiting policy and the adaptive re-coding absorb the
failure instead of hanging. Heartbeats ride the same pump that
collects results, and a worker host acknowledges them between the
products it computes and while it holds a straggling round, so a
straggler is never mistaken for a dead one — but a single product
longer than ``heartbeat_timeout`` is (see the README's "Distributed
deployment"). ``round_timeout`` bounds each round's collect phase:
workers that produced nothing by then are recorded as never-arrived
for that round (but stay in the pool).

Worker-pool mutation (dynamic re-coding) disconnects dropped workers
for real: ``drop_workers`` ships ``shutdown`` and closes the socket.

Elastic membership
------------------
The listener stays open for the cluster's whole life: a daemon dialing
in *after* the initial registration — a restarted process rejoining,
or a brand-new worker scaling the fleet up — completes the same
``hello``/``config`` handshake (version-checked by
:func:`~repro.runtime.net.wire.check_hello`) and is parked as a
*pending join*. Pending joins are admitted into the roster only by an
explicit :meth:`TcpCluster.admit_workers` call, which refuses to run
while rounds are in flight — membership changes happen at the same
between-rounds quiesce points as dynamic re-coding, never mid-round.
``drop_workers`` is therefore reversible: a dropped id that re-dials
is re-admitted like any rejoin. :meth:`TcpCluster.membership` reports
the live/dead/dropped/pending split and
:meth:`~repro.runtime.backend.Backend.take_membership_events` the
transition history.
"""

from __future__ import annotations

import selectors
import socket
import time
from typing import Callable, Iterator, Sequence

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
from repro.runtime.net.wire import (
    Frame,
    WireCounters,
    WireError,
    behavior_to_dict,
    check_hello,
    encode_frame,
    encode_store,
    read_frame,
    send_frame,
    send_parts,
)
from repro.runtime.worker import SimWorker

__all__ = ["TcpCluster", "TcpRoundHandle"]


class TcpRoundHandle(RoundHandle):
    """One in-flight socket round.

    Replies are received centrally (:meth:`TcpCluster._pump`) and
    routed here by round id; iterating drains the inbox, pumping
    whenever it runs dry, and yields results in true arrival order.
    """

    def __init__(
        self,
        cluster: "TcpCluster",
        rid: int,
        participants: list[int],
        deadline: float | None,
    ):
        self._cluster = cluster
        self._rid = rid
        self._participants = participants
        self._deadline = deadline  # monotonic-clock collect deadline
        self._received: dict[int, Arrival] = {}
        self._inbox: list[Arrival] = []
        #: worker_id -> error reported by its computation (repr string)
        self.worker_errors: dict[int, str] = {}
        #: worker_id -> daemon-side sub-spans ([[name, t0, t1], ...],
        #: times relative to frame receipt) from traced result frames
        self.worker_spans: dict[int, list] = {}
        #: worker_id -> daemon-countersigned result digest from
        #: attested result frames (audit armed); the master's audit
        #: commitment cross-checks these against its own digests
        self.worker_digests: dict[int, str] = {}
        self._cancelled = False
        self.t_start = cluster.now
        self.broadcast_time = cluster._last_broadcast_time
        self._outstanding: set[int] = set()
        for wid in participants:
            if wid in cluster._dead:
                self._received[wid] = self._missing(wid)
            else:
                self._outstanding.add(wid)
        cluster._handles[rid] = self

    # ------------------------------------------------------------------
    # delivery callbacks (invoked by the cluster's pump)
    # ------------------------------------------------------------------
    def _deliver(
        self, wid: int, value, compute_time: float, err, spans=None, digest=None
    ) -> None:
        if wid not in self._outstanding:
            return
        self._outstanding.discard(wid)
        if err is not None:
            self.worker_errors[wid] = err
        if spans:
            self.worker_spans[wid] = spans
        if digest is not None:
            self.worker_digests[wid] = digest
        if value is None:
            self._received[wid] = self._missing(wid)
            return
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

    def _worker_died(self, wid: int) -> None:
        if wid in self._outstanding:
            self._outstanding.discard(wid)
            self._received[wid] = self._missing(wid)

    def _expire(self) -> None:
        """Collect deadline passed: record every straggler still
        outstanding as never-arrived (the workers stay in the pool)."""
        for wid in list(self._outstanding):
            self._worker_died(wid)

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
            cluster._pump()
        if (
            not self._cancelled
            and not any_finite
            and not self._inbox
            and len(self.worker_errors) == len(self._participants)
        ):
            # every worker failed: a malformed job, not node failures
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
        """Stop waiting; workers are told to skip the round if it is
        still queued on their side. Idempotent, safe after ``result``."""
        if self._cancelled:
            return
        self._cancelled = True
        self._cluster._handles.pop(self._rid, None)
        self._cluster._send_cancel(self._rid, self._outstanding)

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


class TcpCluster(WallClockBackend):
    """Socket-fleet backend (master side).

    Parameters
    ----------
    field, workers, rng, straggle_scale, cost_model:
        As on the other backends; the worker descriptions (straggler
        factor, behaviour) are shipped to the daemons in their
        ``config`` frame, so one fleet description runs everywhere.
    host, port:
        Listen address. ``port=0`` (default) binds an ephemeral port,
        exposed as :attr:`port` — the loopback-fleet path needs no
        coordination. Remote fleets use a fixed port.
    connect_timeout:
        Seconds to wait for all ``n`` workers to register.
    heartbeat_interval / heartbeat_timeout:
        Liveness probing cadence, and how long an unanswered probe
        marks a worker dead. Probes ride the result pump, so they are
        active exactly while rounds are being collected.
    io_timeout:
        Per-socket I/O deadline in seconds: how long one send/receive
        on a single worker's socket may stall before that worker is
        marked dead. ``None`` (default) inherits ``heartbeat_timeout``.
    round_timeout:
        Per-round collect deadline in seconds (``None`` disables):
        workers silent past it are recorded as never-arrived for that
        round only.
    spawn_workers:
        Fork a loopback fleet (see :mod:`repro.runtime.net.fleet`) or
        wait for external daemons.
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
        heartbeat_interval: float = 0.25,
        heartbeat_timeout: float = 10.0,
        io_timeout: float | None = None,
        round_timeout: float | None = 120.0,
        spawn_workers: bool = True,
    ):
        ids = [w.worker_id for w in workers]
        if sorted(ids) != list(range(len(workers))):
            raise ValueError("worker ids must be exactly 0..n-1")
        if heartbeat_interval <= 0:
            raise ValueError(f"heartbeat_interval must be > 0, got {heartbeat_interval}")
        if heartbeat_timeout <= heartbeat_interval:
            # or every worker would flap dead between probes
            raise ValueError(
                f"heartbeat_timeout ({heartbeat_timeout}) must exceed "
                f"heartbeat_interval ({heartbeat_interval})"
            )
        if io_timeout is not None and io_timeout <= 0:
            raise ValueError(f"io_timeout must be > 0 or None, got {io_timeout}")
        if round_timeout is not None and round_timeout <= 0:
            raise ValueError(f"round_timeout must be > 0 or None, got {round_timeout}")
        self.field = field
        self.workers = list(sorted(workers, key=lambda w: w.worker_id))
        self.rng = rng or np.random.default_rng(0)
        self.straggle_scale = straggle_scale
        self.cost_model = cost_model or CostModel()
        self.host = host
        self.connect_timeout = connect_timeout
        self.heartbeat_interval = heartbeat_interval
        self.heartbeat_timeout = heartbeat_timeout
        # a peer wedged mid-frame looks exactly like one that stopped
        # acking probes
        self.io_timeout = io_timeout if io_timeout is not None else heartbeat_timeout
        self.round_timeout = round_timeout
        self._init_wall_clock()

        self._rid = 0
        self._last_broadcast_time = 0.0
        self._dead: set[int] = set()
        self._handles: dict[int, TcpRoundHandle] = {}
        self._conns: dict[int, socket.socket] = {}
        self._sel = selectors.DefaultSelector()
        self.wire = WireCounters()
        self._hb_seq = 0
        self._last_hb = 0.0
        #: wid -> monotonic time of the oldest unanswered heartbeat
        self._hb_pending: dict[int, float | None] = {}
        #: wid -> (seq, monotonic send time) of the latest heartbeat,
        #: matched against acks for the per-worker RTT gauge
        self._hb_sent: dict[int, tuple[int, float]] = {}
        #: wid -> handshaken socket parked until the next admit_workers()
        self._pending_joins: dict[int, socket.socket] = {}
        self._fleet: LocalFleet | None = None
        self._closed = False

        self._listener = socket.create_server((host, port), backlog=len(self.workers))
        self.port = self._listener.getsockname()[1]
        try:
            if spawn_workers:
                self._fleet = spawn_local_workers(
                    "127.0.0.1" if host in ("0.0.0.0", "") else host,
                    self.port,
                    [w.worker_id for w in self.workers],
                    connect_timeout=connect_timeout,
                )
            self._accept_fleet()
            # the listener stays open for late joiners: non-blocking
            # accepts ride the result pump via the selector
            self._listener.setblocking(False)
            self._sel.register(self._listener, selectors.EVENT_READ, data=None)
        except BaseException:
            self.close()
            raise

    # ------------------------------------------------------------------
    # registration
    # ------------------------------------------------------------------
    def _accept_fleet(self) -> None:
        deadline = time.monotonic() + self.connect_timeout
        expected = {w.worker_id for w in self.workers}
        while self._conns.keys() != expected:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                missing = sorted(expected - self._conns.keys())
                raise RuntimeError(
                    f"timed out waiting for workers {missing} to register on "
                    f"{self.host}:{self.port} (connect_timeout="
                    f"{self.connect_timeout}s)"
                )
            self._listener.settimeout(remaining)
            try:
                conn, _ = self._listener.accept()
            except socket.timeout:
                continue
            wid = self._handshake(
                conn, max(0.1, remaining), lambda w: w in expected and w not in self._conns
            )
            if wid is not None:
                self._enroll(wid, conn)

    def _handshake(
        self, conn: socket.socket, timeout: float, admissible: Callable[[int], bool]
    ) -> int | None:
        """Read a dialer's ``hello`` and answer its ``config``; returns
        its worker id, or ``None`` (the connection closed) if the hello
        is malformed or its id not ``admissible``."""
        conn.settimeout(timeout)
        try:
            kind, fields, _ = read_frame(conn, self.wire)
            if kind != "hello":
                raise WireError(f"expected hello, got {kind!r}")
            wid = check_hello(fields)
            if not admissible(wid):
                raise WireError(f"unexpected or duplicate worker id {wid}")
            send_frame(conn, "config", self._worker_config(wid), counters=self.wire)
        except (WireError, OSError, ConnectionError, KeyError, ValueError):
            conn.close()
            return None
        return wid

    def _enroll(self, wid: int, conn: socket.socket) -> None:
        # the per-socket I/O deadline (io_timeout, defaulting to
        # heartbeat_timeout): a peer stalled mid-frame (SIGSTOP,
        # silent partition) or a send into a full buffer raises
        # socket.timeout and is marked dead — the master must never
        # block unboundedly on one worker's socket
        conn.settimeout(self.io_timeout)
        conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._conns[wid] = conn
        self._sel.register(conn, selectors.EVENT_READ, data=wid)
        self._hb_pending[wid] = None

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

    # ------------------------------------------------------------------
    # elastic membership: late joins, admission, fleet respawn
    # ------------------------------------------------------------------
    def _accept_pending(self) -> None:
        """Drain the listener backlog, handshaking each dialer into the
        pending-join pool (never into the live roster)."""
        if self._closed:
            return
        while True:
            try:
                conn, _ = self._listener.accept()
            except (BlockingIOError, socket.timeout, OSError):
                return
            self._handshake_joiner(conn)

    def _handshake_joiner(self, conn: socket.socket) -> None:
        # bounded handshake: a stalled dialer must not wedge the pump
        wid = self._handshake(conn, min(self.io_timeout or 2.0, 2.0), lambda w: True)
        if wid is None:
            return
        stale = self._pending_joins.pop(wid, None)
        if stale is not None:  # superseded by this fresher dial
            try:
                stale.close()
            except OSError:  # pragma: no cover - close is best-effort
                pass
        self._pending_joins[wid] = conn

    def admit_workers(self) -> tuple[int, ...]:
        """Admit every admissible pending join into the roster.

        Must be called between rounds (raises ``RuntimeError`` while
        any round is in flight): admitted workers immediately count as
        live and would otherwise surface mid-round. A pending id that
        is still live is a duplicate dial and is discarded; an id past
        the end of the roster joins as a *new* honest worker (ids stay
        dense 0..n-1, so gapped ids wait for the gap to fill).
        """
        if self._handles:
            raise RuntimeError(
                "cannot admit workers mid-round: drain in-flight rounds first"
            )
        self._accept_pending()
        admitted: list[int] = []
        for wid in sorted(self._pending_joins):
            conn = self._pending_joins[wid]
            if wid in self._conns:
                del self._pending_joins[wid]
                try:
                    conn.close()
                except OSError:  # pragma: no cover - close is best-effort
                    pass
                continue
            if wid > len(self.workers):
                continue
            del self._pending_joins[wid]
            fresh = wid == len(self.workers)
            if fresh:
                self.workers.append(SimWorker(wid))
            self._dead.discard(wid)
            self._dropped = self._dropped - {wid}
            self._enroll(wid, conn)
            self._note_membership("joined" if fresh else "rejoined", wid)
            admitted.append(wid)
        return tuple(admitted)

    def membership(self) -> MembershipView:
        """Current roster split (sweeps the listener backlog first, so
        a freshly dialed daemon shows up as pending right away)."""
        self._accept_pending()
        return MembershipView(
            n=len(self.workers),
            live=tuple(sorted(self._conns)),
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
        """worker_id -> pid of the host process serving it, for
        self-spawned fleets (empty for external ones). The pids are per
        host: co-hosted workers share one, so a signal sent to it
        reaches every worker of that host."""
        return self._fleet.pids() if self._fleet is not None else {}

    # ------------------------------------------------------------------
    # the pump: results, heartbeats, liveness, round deadlines
    # ------------------------------------------------------------------
    def _pump(self) -> None:
        """One wait-collect-bookkeep cycle. Guaranteed to return within
        ~``heartbeat_interval`` seconds, having delivered any ready
        replies and updated liveness/deadline state."""
        now_m = time.monotonic()
        if now_m - self._last_hb >= self.heartbeat_interval:
            self._send_heartbeats(now_m)
        for key, _ in self._sel.select(self._pump_timeout(now_m)):
            if key.data is None:  # the listener: a late joiner dialing in
                self._accept_pending()
                continue
            wid = key.data
            if wid in self._dead:
                continue
            try:
                kind, fields, arrays = read_frame(key.fileobj, self.wire)
            except (WireError, OSError, ConnectionError):
                self._mark_dead(wid)
                continue
            self._hb_pending[wid] = None
            if kind == "result":
                # the record is typed: a forged one failed read_frame
                # like a bad CRC, and its worker is one erasure already
                value = arrays[0] if fields["ok"] and arrays else None
                target = self._handles.get(fields["rid"])
                if target is not None:
                    target._deliver(
                        wid, value, fields["compute_time"],
                        fields["err"], fields.get("spans"),
                        fields.get("digest"),
                    )
            elif kind == "heartbeat_ack":
                # liveness needed no more than the _hb_pending reset
                # above; the ack of the *latest* probe additionally
                # updates the per-worker RTT gauge
                sent = self._hb_sent.get(wid)
                if sent is not None and fields.get("seq") == sent[0]:
                    self.wire.hb_rtt[wid] = max(0.0, time.monotonic() - sent[1])
        now_m = time.monotonic()
        for wid, since in list(self._hb_pending.items()):
            if (
                wid not in self._dead
                and since is not None
                and now_m - since > self.heartbeat_timeout
            ):
                self._mark_dead(wid)
        for handle in list(self._handles.values()):
            if handle._deadline is not None and now_m > handle._deadline:
                handle._expire()

    def _pump_timeout(self, now_m: float) -> float:
        wake = now_m + self.heartbeat_interval
        wake = min(wake, self._last_hb + self.heartbeat_interval)
        for wid, since in self._hb_pending.items():
            if wid not in self._dead and since is not None:
                wake = min(wake, since + self.heartbeat_timeout)
        for handle in self._handles.values():
            if handle._deadline is not None and handle._outstanding:
                wake = min(wake, handle._deadline)
        return max(0.0, min(wake - now_m, self.heartbeat_interval))

    def _send_heartbeats(self, now_m: float) -> None:
        self._hb_seq += 1
        self._last_hb = now_m
        probe = encode_frame("heartbeat", {"seq": self._hb_seq})
        for wid in list(self._conns):
            if wid in self._dead or not self._send(wid, probe):
                continue
            self._hb_sent[wid] = (self._hb_seq, now_m)
            if self._hb_pending.get(wid) is None:
                self._hb_pending[wid] = now_m

    def _mark_dead(self, wid: int) -> None:
        """A worker's socket failed or its heartbeats lapsed: record it
        permanently silent; in-flight rounds observe a straggler that
        never arrives, not a hang."""
        if wid in self._dead:
            return
        self._dead.add(wid)
        self._hb_pending[wid] = None
        self._close_conn(wid)
        if wid not in self._dropped:
            self._note_membership("dead", wid)
        for handle in list(self._handles.values()):
            handle._worker_died(wid)

    def _close_conn(self, wid: int) -> None:
        conn = self._conns.pop(wid, None)
        if conn is None:
            return
        try:
            self._sel.unregister(conn)
        except (KeyError, ValueError):  # pragma: no cover - already gone
            pass
        try:
            conn.close()
        except OSError:  # pragma: no cover - close is best-effort
            pass

    def _send(self, wid: int, frame: Frame) -> bool:
        """Send one frame to a live worker; a failed send marks it dead."""
        try:
            send_parts(self._conns[wid], frame, counters=self.wire)
        except OSError:
            self._mark_dead(wid)
            return False
        return True

    def _send_cancel(self, rid: int, outstanding: set[int]) -> None:
        frame = encode_frame("cancel", {"rid": rid})
        for wid in list(outstanding):
            if wid in self._conns and wid not in self._dead:
                self._send(wid, frame)

    # ------------------------------------------------------------------
    # Backend protocol
    # ------------------------------------------------------------------
    def distribute(self, name: str, shares: np.ndarray, participants=None) -> float:
        participants = self._participants(participants)
        if len(participants) > shares.shape[0]:
            raise ValueError("fewer shares than participants")
        t0 = time.perf_counter()
        for slot, wid in enumerate(participants):
            if wid not in self._dead:  # else permanently silent; shares would be lost
                self._send(wid, encode_store(name, shares[slot], self.field.q))
        return time.perf_counter() - t0

    def dispatch_round(
        self, job: RoundJob, participants: Sequence[int] | None = None
    ) -> TcpRoundHandle:
        participants = self._participants(participants)
        self._rid += 1
        rid = self._rid
        live = [wid for wid in participants if wid not in self._dead]

        t_b0 = time.perf_counter()
        fields = {"rid": rid, "op": job.op, "payload_key": job.payload_key}
        if self.obs is not None:
            # traced rounds ask the daemons for their own sub-spans;
            # untraced frames are byte-identical to pre-obs builds
            fields["trace"] = True
            self.obs.on_dispatch("tcp", job, len(participants))
        if self.attest:
            # audited rounds ask the daemons to countersign results
            fields["attest"] = True
        parts = encode_frame("round", fields, (job.operand,))  # serialize once
        for wid in live:
            self._send(wid, parts)
        self._last_broadcast_time = time.perf_counter() - t_b0
        deadline = (
            time.monotonic() + self.round_timeout
            if self.round_timeout is not None
            else None
        )
        return TcpRoundHandle(self, rid, participants, deadline)

    # ------------------------------------------------------------------
    def drop_workers(self, worker_ids: Sequence[int]) -> None:
        """Disconnect dropped workers for real: ship ``shutdown`` and
        close the socket — the dynamic-coding path releases live
        connections, and a re-connect is a fresh registration."""
        fresh = [int(w) for w in worker_ids if int(w) not in self._dropped]
        super().drop_workers(fresh)
        for wid in fresh:
            if wid not in self._dead:
                self._shutdown_worker(wid)
            for handle in list(self._handles.values()):
                handle._worker_died(wid)

    def _shutdown_worker(self, wid: int) -> None:
        conn = self._conns.get(wid)
        if conn is not None:
            try:
                send_frame(conn, "shutdown", {})
            except (OSError, ConnectionError):
                pass
        self._close_conn(wid)
        if self._fleet is not None:
            # reaps the host only once no co-hosted sibling is left on it
            self._fleet.release(wid)

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        for wid in list(self._conns):
            if wid not in self._dead and wid not in self._dropped:
                self._shutdown_worker(wid)
        for wid in list(self._conns):
            self._close_conn(wid)
        for conn in self._pending_joins.values():
            try:
                conn.close()
            except OSError:  # pragma: no cover - close is best-effort
                pass
        self._pending_joins.clear()
        self._sel.close()
        try:
            self._listener.close()
        except OSError:  # pragma: no cover - close is best-effort
            pass
        if self._fleet is not None:
            self._fleet.terminate()
