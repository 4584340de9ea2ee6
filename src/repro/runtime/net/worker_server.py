"""The worker host of the TCP backend.

One :class:`WorkerServer` is one process serving one or more logical
workers (:mod:`repro.runtime.net.fleet` says how many). Each logical
worker dials the master on a socket of its own, registers with
``hello``, receives its own ``config`` (field modulus, straggler
factor, behaviour, straggle scale, RNG seed) and keeps its own shares,
so the master sees independent workers; a killed host is all of its
workers at once.

The host is **one thread running one** ``selectors`` **loop**:

* a socket is read as bytes arrive: a heartbeat is acknowledged at
  once, a cancel drops its round if it is still queued or held, and
  store/round frames join their worker's queue in arrival order. A
  ``shutdown``, EOF, a malformed frame or a send stalled for
  ``connect_timeout`` ends that worker alone, skipping what it queued;
  the host exits with its last worker;
* between reads the loop serves one job at a time, taking the workers
  in turn: :func:`~repro.runtime.backend.run_job_compute`, then the
  Byzantine behaviour, then one ``result`` frame in one ``sendall`` (a
  silent worker reports ``ok=False``; a computation error crash-stop);
* an injected straggle *holds* its worker's head round until a
  deadline that bounds the loop's ``select`` timeout, so siblings are
  served meanwhile and a cancel ends the hold at once.

So heartbeats are acknowledged between products, never during one: a
single product longer than the master's ``heartbeat_timeout`` marks
its worker dead, and on a host of W it delays the siblings' acks too.

The daemon's own CLI flags (``python -m repro.runtime.net.worker
--behavior reverse ...``) override the master's ``config``: that is
how a test injects a fault at the worker side.
"""

from __future__ import annotations

import os
import selectors
import socket
import struct
import time
from collections import deque
from contextlib import suppress
from typing import Any

import numpy as np

from repro.ff.field import DEFAULT_PRIME, PrimeField
from repro.runtime.backend import RoundJob, run_job_compute, store_share
from repro.runtime.byzantine import Behavior
from repro.runtime.net.wire import (
    PROTOCOL_VERSION,
    FrameReader,
    WireError,
    behavior_from_dict,
    encode_frame,
    read_frame,
)

__all__ = ["WorkerServer"]


class _Worker:
    """One logical worker of a host: its socket, its ``config``, its
    resident shares, its RNG and its queue of jobs."""

    def __init__(self, wid: int, sock: socket.socket):
        self.wid = wid
        self.sock: socket.socket | None = sock
        self.reader = FrameReader()
        self.factor = 1.0
        self.behavior: Behavior | None = None
        self.straggle_scale = 0.05
        self.field = PrimeField(DEFAULT_PRIME)
        self.payload: dict[str, np.ndarray] = {}
        self.rng = np.random.default_rng(wid)
        #: store / round frames in arrival order
        self.todo: deque[tuple[str, dict, list[np.ndarray]]] = deque()
        #: rids of the queued rounds no cancel has dropped
        self.queued: set[int] = set()
        #: when the round at the head of ``todo`` reached it, and when
        #: its injected straggle ends (``None``: no round held)
        self.t_head = 0.0
        self.held_until: float | None = None

    def ready(self, now: float) -> bool:
        """Whether the head job may be taken now (a cancelled round
        may always: it is dropped)."""
        if not self.todo:
            return False
        kind, fields, _ = self.todo[0]
        if kind == "store" or fields["rid"] not in self.queued:
            return True
        if self.held_until is None:
            self.t_head = now
            self.held_until = now + max(0.0, self.factor - 1.0) * self.straggle_scale
        return now >= self.held_until


class WorkerServer:
    """A host serving ``worker_ids`` (one or more logical workers).

    Parameters left as ``None`` are taken from the master's ``config``
    frame; explicitly passed values (the daemon CLI's injection flags)
    take precedence over it, for every worker of the host.
    """

    def __init__(
        self,
        host: str,
        port: int,
        *worker_ids: int,
        straggler_factor: float | None = None,
        behavior: Behavior | None = None,
        straggle_scale: float | None = None,
        q: int | None = None,
        connect_timeout: float = 30.0,
    ):
        if not worker_ids or min(worker_ids) < 0:
            raise ValueError(f"a host serves one or more worker ids >= 0, got {worker_ids}")
        self.host = host
        self.port = port
        self.worker_ids = tuple(int(w) for w in worker_ids)
        self._cli_factor = straggler_factor
        self._cli_behavior = behavior
        self._cli_scale = straggle_scale
        self._cli_q = q
        self.connect_timeout = connect_timeout
        #: the logical workers still serving, in id order
        self.workers: list[_Worker] = []
        self._sel = selectors.DefaultSelector()
        self._turn = 0

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
        The socket comes back blocking (reads never wait: the loop reads
        only what ``select`` reports), but a send that makes no progress
        for ``connect_timeout`` fails (``SO_SNDTIMEO``): a master that
        stopped reading cannot hold the host forever."""
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

    def _register(self, wid: int) -> _Worker:
        """Dial and handshake one logical worker: ``hello``, then its ``config``."""
        sock = self._connect()
        w = _Worker(wid, sock)
        self.workers.append(w)
        hello = {"worker_id": wid, "protocol": PROTOCOL_VERSION, "pid": os.getpid()}
        sock.sendall(b"".join(encode_frame("hello", hello)))
        kind, fields, _ = read_frame(sock)
        if kind != "config":
            raise WireError(f"expected a config frame after hello, got {kind!r}")

        def pick(cli: Any, key: str) -> Any:
            return fields[key] if cli is None else cli

        w.field = PrimeField(pick(self._cli_q, "q"))
        w.straggle_scale = float(pick(self._cli_scale, "straggle_scale"))
        w.factor = float(pick(self._cli_factor, "factor"))
        w.behavior = self._cli_behavior
        if w.behavior is None:
            w.behavior = behavior_from_dict(fields["behavior"])
        w.rng = np.random.default_rng(fields["seed"])
        return w

    def run(self) -> None:
        """Register every logical worker with the master and serve them,
        on this thread, until each has been shut down or lost."""
        try:
            for wid in self.worker_ids:
                w = self._register(wid)
                self._sel.register(w.sock, selectors.EVENT_READ, w)
            self._loop()
        finally:
            for w in list(self.workers):
                self._end(w)
            self._sel.close()

    def _end(self, w: _Worker) -> None:
        """End one logical worker: what it has queued is skipped."""
        if w.sock is None:
            return
        with suppress(KeyError):  # unregistered if its handshake failed
            self._sel.unregister(w.sock)
        w.sock.close()
        w.sock = None
        w.todo.clear()
        self.workers.remove(w)

    def _send(self, w: _Worker, kind: str, fields: dict, arrays: tuple = ()) -> None:
        # one buffer, one sendall: under TCP_NODELAY a frame written
        # in pieces leaves as several segments
        frame = b"".join(encode_frame(kind, fields, arrays))
        try:
            w.sock.sendall(frame)  # type: ignore[union-attr]
        except OSError:
            self._end(w)

    # ------------------------------------------------------------------
    # the loop: read what arrived, serve one job, repeat
    # ------------------------------------------------------------------
    def _loop(self) -> None:
        timeout: float | None = None
        while self.workers:
            for key, _ in self._sel.select(timeout):
                self._read(key.data)
            now = time.perf_counter()
            w, wake = self._next_ready(now)
            if w is not None:
                self._serve(w)
                timeout = 0.0
            else:
                timeout = None if wake is None else max(0.0, wake - now)

    def _read(self, w: _Worker) -> None:
        try:
            for kind, fields, arrays in w.reader.frames(w.sock):
                if kind == "heartbeat":
                    self._send(w, "heartbeat_ack", {"seq": fields["seq"]})
                elif kind == "cancel":
                    w.queued.discard(fields["rid"])
                elif kind == "shutdown":
                    self._end(w)
                elif kind == "round":
                    # receipt timestamp: anchors the daemon's own
                    # sub-spans when the round is traced
                    fields["_t_recv"] = time.perf_counter()
                    w.queued.add(fields["rid"])
                    w.todo.append((kind, fields, arrays))
                elif kind == "store":
                    if len(arrays) != 1:
                        raise WireError(f"store frame with {len(arrays)} arrays, not one share")
                    w.todo.append((kind, fields, arrays))
                # anything else is ignored: forward compatibility
                if w.sock is None:
                    return
        except (WireError, OSError):
            self._end(w)  # the master went away (or spoke garbage)

    def _next_ready(self, now: float) -> tuple[_Worker | None, float | None]:
        """The next logical worker in turn whose head job may be taken,
        or else the earliest time a held round may be."""
        workers = self.workers
        wake = None
        for i in range(len(workers)):
            w = workers[(self._turn + i) % len(workers)]
            if w.ready(now):
                self._turn = (self._turn + i + 1) % len(workers)
                return w, None
            if w.held_until is not None:
                wake = w.held_until if wake is None else min(wake, w.held_until)
        return None, wake

    def _serve(self, w: _Worker) -> None:
        kind, fields, arrays = w.todo.popleft()
        w.held_until = None
        if kind == "store":
            share = arrays[0]
            if share.dtype.kind == "i":
                # copy out of the frame buffer, which a share outlives
                # (a <u4 share is widened, and so copied, by store_share)
                share = share.astype(np.int64)
            store_share(w.field, w.payload, fields["name"], share)
        elif fields["rid"] in w.queued:  # else cancelled: dropped
            w.queued.discard(fields["rid"])
            self._answer(w, fields, arrays)

    def _answer(self, w: _Worker, fields: dict, arrays: list[np.ndarray]) -> None:
        value: np.ndarray | None = None
        err: str | None = None
        t0 = time.perf_counter()
        try:
            job = RoundJob(
                op=fields["op"],
                payload_key=fields["payload_key"],
                operand=arrays[0] if arrays else None,
            )
            honest = run_job_compute(w.field, w.payload, job)
            assert w.behavior is not None
            value = w.behavior.corrupt(honest, w.field, w.rng)
        except Exception as exc:  # crash-stop: report, stay alive
            value, err = None, repr(exc)
        compute_time = time.perf_counter() - t0
        meta: dict[str, Any] = {
            "rid": fields["rid"],
            "worker_id": w.wid,
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
            t_head = max(w.t_head, base)
            c0 = t0 - base
            c1 = c0 + compute_time
            spans = [["worker.recv", 0.0, t_head - base]]
            if w.factor > 1.0:
                spans.append(["worker.straggle", t_head - base, c0])
            spans.append(["worker.compute", c0, c1])
            spans.append(["worker.send", c1, max(c1, time.perf_counter() - base)])
            meta["spans"] = spans
        self._send(w, "result", meta, (value,) if value is not None else ())
