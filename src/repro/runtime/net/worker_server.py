"""The remote worker daemon of the TCP backend.

One :class:`WorkerServer` is one worker node: it dials the master's
listening socket, registers with a ``hello`` frame, receives its
``config`` (field modulus, straggler factor, behaviour, straggle
scale — the same fleet description the in-process backends apply
directly), then serves the store/round protocol until it is shut down
or the connection drops.

The daemon runs **one asyncio event loop** (it serves either the sync
``TcpCluster`` or the ``AsyncTcpCluster`` — the wire protocol is
identical) with two long-lived tasks splitting the work so it never
deadlocks and never goes dark:

* the **receive task** drains the socket continuously — heartbeats are
  acknowledged inline (so a worker grinding through a long compute, or
  sleeping out an injected straggle, still proves liveness), cancels
  are noted, and store/round messages are queued for the compute task.
  Draining eagerly also means the master's share distribution can
  never block on a worker that is busy computing.
* the **compute task** executes rounds FIFO through the same
  :func:`~repro.runtime.backend.run_job_compute` every other backend
  uses — the numpy work hops to the loop's executor so the receive
  task keeps answering probes mid-compute — applies the configured
  straggler sleep (``asyncio.sleep``, cancellable mid-straggle) and
  Byzantine behaviour, and transmits each ``result`` frame as one
  buffer in one write (a silent behaviour reports ``ok=False`` so the
  master records a never-arrived worker instead of waiting out a
  heartbeat timeout; a computation error is reported crash-stop,
  exactly like the process backend). Every job takes the hop, however
  small: computing sub-millisecond jobs on the loop instead was built
  and measured, and made a loopback fleet's throughput swing by whole
  sessions (README "Distributed deployment" has the numbers).

Fault injection for tests can come from either end: the master's
``config`` carries the session's :class:`~repro.api.config.WorkerSpec`
description, and the daemon's own CLI flags
(``python -m repro.runtime.net.worker --behavior reverse ...``)
override it — that is how a multi-host test injects a fault at the
worker side without the master's cooperation.
"""

from __future__ import annotations

import asyncio
import os
import socket
import time
from typing import Any

import numpy as np

from repro.ff.field import DEFAULT_PRIME, PrimeField
from repro.runtime.backend import RoundJob, run_job_compute, store_share
from repro.runtime.byzantine import Behavior
from repro.runtime.net.wire import (
    PROTOCOL_VERSION,
    WireError,
    behavior_from_dict,
    encode_frame,
    read_frame_async,
)

__all__ = ["WorkerServer"]


class WorkerServer:
    """One worker node serving the wire protocol.

    Parameters left as ``None`` are taken from the master's ``config``
    frame; explicitly passed values (the daemon CLI's injection flags)
    take precedence over it.
    """

    def __init__(
        self,
        host: str,
        port: int,
        worker_id: int,
        *,
        straggler_factor: float | None = None,
        behavior: Behavior | None = None,
        straggle_scale: float | None = None,
        q: int | None = None,
        connect_timeout: float = 30.0,
    ):
        if worker_id < 0:
            raise ValueError(f"worker_id must be >= 0, got {worker_id}")
        self.host = host
        self.port = port
        self.worker_id = worker_id
        self._cli_factor = straggler_factor
        self._cli_behavior = behavior
        self._cli_scale = straggle_scale
        self._cli_q = q
        self.connect_timeout = connect_timeout

        self.factor = 1.0
        self.behavior: Behavior | None = None
        self.straggle_scale = 0.05
        self.field = PrimeField(q or DEFAULT_PRIME)
        self.payload: dict[str, np.ndarray] = {}
        self._rng = np.random.default_rng(worker_id)
        self._writer: asyncio.StreamWriter | None = None
        self._send_lock: asyncio.Lock | None = None
        self._inbox: asyncio.Queue | None = None
        #: rids cancelled but not yet seen by the compute task. Bounded:
        #: cancels at or below the served watermark are dropped on
        #: arrival (the round already finished here), and _serve_round
        #: prunes everything up to its own rid — a long-lived daemon
        #: never accumulates stale cancellations. Receive and compute
        #: tasks share one loop, so no lock guards the set.
        self._cancelled: set[int] = set()
        self._served_rid = 0
        self._stopping = False

    # ------------------------------------------------------------------
    # connection lifecycle
    # ------------------------------------------------------------------
    def _dial_once(self) -> socket.socket:
        # IP-literal hosts skip getaddrinfo: fork-mode fleets may fork
        # while another thread of the parent sits inside a resolver
        # call holding a libc-internal lock, and a child that calls
        # getaddrinfo then deadlocks on the orphaned lock
        try:
            socket.inet_pton(socket.AF_INET, self.host)
        except OSError:
            return socket.create_connection(
                (self.host, self.port), timeout=self.connect_timeout
            )
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        try:
            sock.settimeout(self.connect_timeout)
            sock.connect((self.host, self.port))
        except OSError:
            sock.close()
            raise
        return sock

    def _connect(self) -> socket.socket:
        """Dial the master, retrying until ``connect_timeout`` — the
        fleet launcher may start workers before the master listens.
        Dialing is plain blocking sockets *before* the loop starts, so
        no getaddrinfo ever runs on (or threads off) the event loop."""
        deadline = time.monotonic() + self.connect_timeout
        delay = 0.01
        while True:
            try:
                sock = self._dial_once()
                sock.settimeout(None)
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                return sock
            except OSError:
                if time.monotonic() >= deadline:
                    raise
                time.sleep(delay)
                delay = min(0.2, delay * 2)

    def _apply_config(self, fields: dict) -> None:
        q = self._cli_q if self._cli_q is not None else int(fields.get("q", self.field.q))
        self.field = PrimeField(q)
        self.straggle_scale = float(
            self._cli_scale
            if self._cli_scale is not None
            else fields.get("straggle_scale", self.straggle_scale)
        )
        self.factor = float(
            self._cli_factor
            if self._cli_factor is not None
            else fields.get("factor", 1.0)
        )
        if self._cli_behavior is not None:
            self.behavior = self._cli_behavior
        else:
            self.behavior = behavior_from_dict(fields.get("behavior", {}))
        self._rng = np.random.default_rng(int(fields.get("seed", self.worker_id)))

    def run(self) -> None:
        """Register with the master and serve until shutdown/EOF."""
        sock = self._connect()
        try:
            asyncio.run(self._serve(sock))
        finally:
            try:
                sock.close()
            except OSError:  # pragma: no cover - close is best-effort
                pass

    async def _serve(self, sock: socket.socket) -> None:
        reader, writer = await asyncio.open_connection(sock=sock)
        self._writer = writer
        self._send_lock = asyncio.Lock()
        self._inbox = asyncio.Queue()
        recv_task: asyncio.Task | None = None
        try:
            await self._send(
                "hello",
                {
                    "worker_id": self.worker_id,
                    "protocol": PROTOCOL_VERSION,
                    "pid": os.getpid(),
                },
            )
            kind, fields, _ = await read_frame_async(reader)
            if kind != "config":
                raise WireError(f"expected a config frame after hello, got {kind!r}")
            self._apply_config(fields)
            recv_task = asyncio.get_running_loop().create_task(
                self._receive_loop(reader)
            )
            await self._compute_loop()
        finally:
            self._stopping = True
            if recv_task is not None:
                recv_task.cancel()
                await asyncio.gather(recv_task, return_exceptions=True)
            writer.close()

    # ------------------------------------------------------------------
    # receive task: keep the socket drained, answer liveness probes
    # ------------------------------------------------------------------
    async def _receive_loop(self, reader: asyncio.StreamReader) -> None:
        assert self._inbox is not None
        try:
            while not self._stopping:
                kind, fields, arrays = await read_frame_async(reader)
                if kind == "heartbeat":
                    await self._send("heartbeat_ack", {"seq": fields.get("seq", 0)})
                elif kind == "cancel":
                    rid = int(fields["rid"])
                    if rid > self._served_rid:  # else: already done
                        self._cancelled.add(rid)
                elif kind == "shutdown":
                    await self._inbox.put(None)
                    return
                else:
                    if kind == "round":
                        # receipt timestamp: anchors the daemon's own
                        # sub-spans when the round is traced
                        fields["_t_recv"] = time.perf_counter()
                    await self._inbox.put((kind, fields, arrays))
        except (WireError, OSError, ConnectionError, asyncio.IncompleteReadError):
            # master went away (or spoke garbage): drain and exit
            await self._inbox.put(None)

    async def _send(self, kind: str, fields: dict, arrays: tuple = ()) -> bool:
        assert self._writer is not None and self._send_lock is not None
        assert self._inbox is not None
        try:
            # one buffer, one write: under TCP_NODELAY a frame written
            # in pieces leaves as several segments
            frame = b"".join(encode_frame(kind, fields, arrays))
            async with self._send_lock:
                self._writer.write(frame)
                await self._writer.drain()
            return True
        except (OSError, ConnectionError):
            self._stopping = True
            self._inbox.put_nowait(None)
            return False

    # ------------------------------------------------------------------
    # compute task
    # ------------------------------------------------------------------
    async def _compute_loop(self) -> None:
        assert self._inbox is not None
        while True:
            item = await self._inbox.get()
            if item is None:
                return
            kind, fields, arrays = item
            if kind == "store":
                share = arrays[0]
                if share.dtype.kind in "iu":
                    # copy out of the frame buffer — shares live for
                    # the worker's whole lifetime, frames do not — and
                    # widen by the same copy: reduced shares travel as
                    # <u4. Anything else store_share reduces into an
                    # array of its own or refuses
                    share = share.astype(np.int64)
                store_share(self.field, self.payload, str(fields["name"]), share)
            elif kind == "round":
                await self._serve_round(fields, arrays)
            # anything else is ignored: forward compatibility

    def _is_cancelled(self, rid: int) -> bool:
        return rid in self._cancelled

    async def _serve_round(self, fields: dict, arrays: list[np.ndarray]) -> None:
        rid = int(fields["rid"])
        try:
            await self._serve_round_inner(rid, fields, arrays)
        finally:
            # rounds are served in dispatch order, so anything at or
            # below this rid can no longer be usefully cancelled
            self._served_rid = max(self._served_rid, rid)
            self._cancelled = {r for r in self._cancelled if r > rid}

    async def _serve_round_inner(
        self, rid: int, fields: dict, arrays: list[np.ndarray]
    ) -> None:
        if self._is_cancelled(rid):
            return
        traced = bool(fields.get("trace"))
        t_recv = fields.get("_t_recv")
        t_dq = time.perf_counter()
        if self.factor > 1.0:
            await asyncio.sleep((self.factor - 1.0) * self.straggle_scale)
        if self._is_cancelled(rid):  # cancelled while straggling
            return
        value: np.ndarray | None = None
        err: str | None = None
        t0 = time.perf_counter()
        try:
            job = RoundJob(
                op=str(fields["op"]),
                payload_key=str(fields["payload_key"]),
                operand=arrays[0] if arrays else None,
                rhs_key=fields.get("rhs_key"),
            )
            # numpy work leaves the loop so heartbeat acks flow
            # mid-compute; one job at a time preserves FIFO order
            honest = await asyncio.get_running_loop().run_in_executor(
                None, run_job_compute, self.field, self.payload, job
            )
            assert self.behavior is not None
            value = self.behavior.corrupt(honest, self.field, self._rng)
        except Exception as exc:  # crash-stop: report, stay alive
            value, err = None, repr(exc)
        compute_time = time.perf_counter() - t0
        meta: dict[str, Any] = {
            "rid": rid,
            "worker_id": self.worker_id,
            "compute_time": compute_time,
            "ok": value is not None,
            "err": err,
        }
        if fields.get("attest") and value is not None:
            # countersign the *shipped* value (post-corruption): the
            # attestation proves what this daemon sent, not that the
            # share is honest — verification establishes honesty
            from repro.obs.audit import digest_array

            meta["digest"] = digest_array(value)
        if traced:
            # sub-spans as offsets from frame receipt; the master
            # anchors them so the last span ends at result arrival,
            # which folds encode + uplink into "worker.send"
            base = t_recv if isinstance(t_recv, (int, float)) else t_dq
            c0 = max(t0 - base, t_dq - base)
            c1 = c0 + compute_time
            spans = [["worker.recv", 0.0, max(0.0, t_dq - base)]]
            if self.factor > 1.0:
                spans.append(["worker.straggle", t_dq - base, t0 - base])
            spans.append(["worker.compute", c0, c1])
            spans.append(
                ["worker.send", c1, max(c1, time.perf_counter() - base)]
            )
            meta["spans"] = [[n, round(a, 9), round(b, 9)] for n, a, b in spans]
        await self._send("result", meta, (value,) if value is not None else ())
