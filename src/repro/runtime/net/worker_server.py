"""The remote worker daemon of the TCP backend.

One :class:`WorkerServer` is one worker node: it dials the master's
listening socket, registers with a ``hello`` frame, receives its
``config`` (field modulus, straggler factor, behaviour, straggle
scale — the same fleet description the simulator applies directly), then serves the store/round protocol until it is shut down
or the connection drops.

The daemon is **two plain threads over one blocking socket**, splitting
the work so it never deadlocks and never goes dark:

* the **receive thread** drains the socket continuously — heartbeats
  are acknowledged from it (so a worker grinding through a long
  compute, or waiting out an injected straggle, still proves
  liveness), cancels are noted, and store/round frames are queued for
  the compute thread. Draining eagerly also means the master's share
  distribution can never block on a worker that is busy computing. A
  ``shutdown`` frame, EOF or a malformed frame ends the thread and the
  daemon with it: what is still queued is skipped, not served. So does
  a send that makes no progress for ``connect_timeout`` — a master that
  stopped reading.
* the **compute thread** — the one that called :meth:`WorkerServer.run`
  — executes rounds FIFO through the same
  :func:`~repro.runtime.backend.run_job_compute` every other backend
  uses, waits out the configured straggle on a condition that a
  cancel or a stop ends at once, applies the Byzantine behaviour, and
  transmits each ``result`` frame as one buffer in one ``sendall`` (a
  silent behaviour reports ``ok=False`` so the master records a
  never-arrived worker instead of waiting out a heartbeat timeout; a
  computation error is reported crash-stop, exactly like the thread
  pool's).

The second thread exists for liveness and nothing else: numpy holds
the compute thread for as long as a job takes and acks must flow
meanwhile, so every job, however small, is computed off the receive
thread — one rule, no size threshold. The same split used to run on
an event loop with an executor hop per job: ~300 µs of daemon CPU a
round around a 5 µs matvec, ~150 µs here, and ~90–140 µs since the
frames carry binary records instead of JSON headers (README
"Distributed deployment" has the measurements).

Fault injection for tests can come from either end: the master's
``config`` carries the session's :class:`~repro.api.config.WorkerSpec`
description, and the daemon's own CLI flags
(``python -m repro.runtime.net.worker --behavior reverse ...``)
override it — that is how a multi-host test injects a fault at the
worker side without the master's cooperation.
"""

from __future__ import annotations

import heapq
import os
import queue
import socket
import struct
import threading
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
    read_frame,
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
        self._sock: socket.socket | None = None
        #: acks leave from the receive thread, results from the other
        self._send_lock = threading.Lock()
        #: store / round frames in arrival order; ``None`` ends the loop
        self._inbox: queue.SimpleQueue = queue.SimpleQueue()
        #: guards the four fields below (both threads touch them) and
        #: is what a straggle wait sleeps on
        self._wake = threading.Condition()
        #: rids cancelled but not yet served, and the same rids as a
        #: min-heap. A cancel at or below the served watermark is
        #: dropped on arrival, and each round pops what is at or below
        #: its own rid — work for the cancels it retires, not for every
        #: one outstanding
        self._cancelled: set[int] = set()
        self._cancel_heap: list[int] = []
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
        The socket comes back blocking, and stays so, but a send that
        makes no progress for ``connect_timeout`` fails (``SO_SNDTIMEO``:
        a master that stopped reading cannot hold the daemon forever,
        and the receive thread's blocking ``recv`` is untouched)."""
        deadline = time.monotonic() + self.connect_timeout
        delay = 0.01
        sec, frac = divmod(self.connect_timeout, 1.0)
        send_deadline = struct.pack("ll", int(sec), int(frac * 1e6))
        while True:
            try:
                sock = self._dial_once()
                sock.settimeout(None)
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                sock.setsockopt(socket.SOL_SOCKET, socket.SO_SNDTIMEO, send_deadline)
                return sock
            except OSError:
                if time.monotonic() >= deadline:
                    raise
                time.sleep(delay)
                delay = min(0.2, delay * 2)

    def _apply_config(self, fields: dict) -> None:
        def pick(cli: Any, key: str) -> Any:
            return fields[key] if cli is None else cli

        self.field = PrimeField(pick(self._cli_q, "q"))
        self.straggle_scale = float(pick(self._cli_scale, "straggle_scale"))
        self.factor = float(pick(self._cli_factor, "factor"))
        if self._cli_behavior is not None:
            self.behavior = self._cli_behavior
        else:
            self.behavior = behavior_from_dict(fields["behavior"])
        self._rng = np.random.default_rng(fields["seed"])

    def run(self) -> None:
        """Register with the master and serve, on this thread, until shutdown/EOF."""
        sock = self._sock = self._connect()
        receiver: threading.Thread | None = None
        try:
            hello = {"worker_id": self.worker_id, "protocol": PROTOCOL_VERSION, "pid": os.getpid()}
            self._send("hello", hello)
            kind, fields, _ = read_frame(sock)
            if kind != "config":
                raise WireError(f"expected a config frame after hello, got {kind!r}")
            self._apply_config(fields)
            receiver = threading.Thread(
                target=self._receive_loop, args=(sock,), daemon=True,
                name=f"avcc-worker-{self.worker_id}-recv",
            )
            receiver.start()
            self._compute_loop()
        finally:
            self._stop()
            try:
                # the receive thread may sit in recv(): shutting the
                # socket down wakes it, which close() alone does not
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            if receiver is not None:
                receiver.join()
            sock.close()

    def _stop(self) -> None:
        """From here on whatever is still queued is skipped: end a
        straggle wait, wake the compute thread's ``get``."""
        with self._wake:
            self._stopping = True
            self._wake.notify_all()
        self._inbox.put(None)

    def _send(self, kind: str, fields: dict, arrays: tuple = ()) -> None:
        assert self._sock is not None
        # one buffer, one sendall: under TCP_NODELAY a frame written
        # in pieces leaves as several segments
        frame = b"".join(encode_frame(kind, fields, arrays))
        try:
            with self._send_lock:
                self._sock.sendall(frame)
        except OSError:
            self._stop()

    # ------------------------------------------------------------------
    # receive thread: keep the socket drained, answer liveness probes
    # ------------------------------------------------------------------
    def _receive_loop(self, sock: socket.socket) -> None:
        try:
            while True:
                kind, fields, arrays = read_frame(sock)
                if kind == "heartbeat":
                    self._send("heartbeat_ack", {"seq": fields["seq"]})
                elif kind == "cancel":
                    rid = fields["rid"]
                    with self._wake:
                        # else: already done, or already noted
                        if rid > self._served_rid and rid not in self._cancelled:
                            heapq.heappush(self._cancel_heap, rid)
                            self._cancelled.add(rid)
                            self._wake.notify_all()
                elif kind == "shutdown":
                    return
                elif kind == "round":
                    # receipt timestamp: anchors the daemon's own
                    # sub-spans when the round is traced
                    fields["_t_recv"] = time.perf_counter()
                    self._inbox.put((kind, fields, arrays))
                elif kind == "store":
                    if len(arrays) != 1:
                        raise WireError(f"store frame with {len(arrays)} arrays, not one share")
                    self._inbox.put((kind, fields, arrays))
                # anything else is ignored: forward compatibility
        except (WireError, OSError):
            pass  # master went away (or spoke garbage)
        finally:
            self._stop()

    # ------------------------------------------------------------------
    # compute thread: the one that called run()
    # ------------------------------------------------------------------
    def _compute_loop(self) -> None:
        while True:
            item = self._inbox.get()
            if item is None:
                return
            kind, fields, arrays = item
            if kind == "store":
                share = arrays[0]
                if share.dtype.kind == "i":
                    # copy out of the frame buffer: shares live for the
                    # worker's whole lifetime, frames do not. Reduced
                    # shares travel as <u4, which store_share widens
                    # straight to the resident dtype (that widening is
                    # the copy); anything else it reduces into an array
                    # of its own or refuses
                    share = share.astype(np.int64)
                store_share(self.field, self.payload, fields["name"], share)
            else:
                self._serve_round(fields["rid"], fields, arrays)

    def _serve_round(self, rid: int, fields: dict, arrays: list[np.ndarray]) -> None:
        def skip() -> bool:  # cancelled, or the daemon is stopping
            return self._stopping or rid in self._cancelled

        t_dq = time.perf_counter()
        with self._wake:
            if self.factor > 1.0:
                # the injected slowdown; a cancel or a stop ends it at once
                self._wake.wait_for(skip, (self.factor - 1.0) * self.straggle_scale)
            serve = not skip()
        if serve:
            self._answer(rid, fields, arrays, t_dq)
        # rounds are served in dispatch order, so anything at or below
        # this rid can no longer be usefully cancelled
        with self._wake:
            self._served_rid = max(self._served_rid, rid)
            heap = self._cancel_heap
            while heap and heap[0] <= rid:
                self._cancelled.remove(heapq.heappop(heap))

    def _answer(self, rid: int, fields: dict, arrays: list[np.ndarray], t_dq: float) -> None:
        value: np.ndarray | None = None
        err: str | None = None
        t0 = time.perf_counter()
        try:
            job = RoundJob(
                op=fields["op"],
                payload_key=fields["payload_key"],
                operand=arrays[0] if arrays else None,
                rhs_key=fields["rhs_key"],
            )
            honest = run_job_compute(self.field, self.payload, job)
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
        if fields.get("trace"):
            # sub-spans as offsets from frame receipt; the master
            # anchors them so the last span ends at result arrival,
            # which folds encode + uplink into "worker.send"
            base = fields["_t_recv"]
            c0 = max(t0 - base, t_dq - base)
            c1 = c0 + compute_time
            spans = [["worker.recv", 0.0, max(0.0, t_dq - base)]]
            if self.factor > 1.0:
                spans.append(["worker.straggle", t_dq - base, t0 - base])
            spans.append(["worker.compute", c0, c1])
            spans.append(["worker.send", c1, max(c1, time.perf_counter() - base)])
            meta["spans"] = spans
        self._send("result", meta, (value,) if value is not None else ())
