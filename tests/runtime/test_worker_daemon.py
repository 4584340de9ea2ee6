"""The worker daemon: two threads over one blocking socket — every job
on the thread that called ``run()``, the receive thread free for
probes and cancels meanwhile, one ``sendall`` per frame.

``TestDaemonProtocol`` talks to one in-process daemon over a raw
socket, frame by frame — the only way to pin *which frame follows
which* (an ack between two results, a round that never answers).
``TestTwoThreads`` pins what the two threads share and that both end
with the connection; ``TestHostileFrames`` feeds the receive path what
no master of this build would send. ``TestThroughTheMaster`` checks
what a ``TcpCluster`` master can observe of a forked fleet.
"""

import heapq
import json
import socket
import sys
import threading
import time
import zlib
from types import SimpleNamespace

import numpy as np
import pytest
from test_backends import _fleet

from repro.ff import PrimeField, ff_matvec
from repro.obs.audit import digest_array
from repro.runtime import RoundJob, TcpCluster
from repro.runtime.net import (
    PROTOCOL_VERSION,
    WorkerServer,
    encode_frame,
    read_frame,
    send_frame,
)
from repro.runtime.net import wire, worker_server

F = PrimeField()


class DaemonUnderTest:
    """One in-process daemon and the master's end of its socket."""

    def __init__(self, factor=1.0, straggle_scale=0.05, connect_timeout=30.0):
        listener = socket.create_server(("127.0.0.1", 0))
        port = listener.getsockname()[1]
        self.server = WorkerServer("127.0.0.1", port, 0, connect_timeout=connect_timeout)
        self._others = set(threading.enumerate())
        self.thread = threading.Thread(target=self.server.run, daemon=True)
        self.thread.start()
        listener.settimeout(10.0)
        self.sock, _ = listener.accept()
        listener.close()
        self.sock.settimeout(10.0)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        kind, fields, _ = read_frame(self.sock)
        assert kind == "hello" and fields["protocol"] == PROTOCOL_VERSION
        self.send(
            "config",
            {"q": F.q, "factor": factor, "straggle_scale": straggle_scale,
             "behavior": {"kind": "honest"}, "seed": 0},
        )
        self.rid = 0

    def send(self, kind, fields, arrays=()):
        send_frame(self.sock, kind, fields, arrays)

    def store(self, name, share):
        self.send("store", {"name": name}, (share,))

    def round_frame(self, key, operand=None, op="matvec", **extra):
        """One encoded ``round`` frame (bytes) under the next rid."""
        self.rid += 1
        fields = {"rid": self.rid, "op": op, "payload_key": key, "rhs_key": None}
        fields.update(extra)
        arrays = (operand,) if operand is not None else ()
        return b"".join(encode_frame("round", fields, arrays))

    def round(self, key, operand=None, **extra):
        self.sock.sendall(self.round_frame(key, operand, **extra))
        return self.rid

    def read(self):
        kind, fields, arrays = read_frame(self.sock)
        return kind, fields, (arrays[0] if arrays else None)

    def result(self):
        kind, fields, value = self.read()
        assert kind == "result", (kind, fields)
        return fields, value

    def assert_idle(self, seq):
        """Nothing is queued behind what was read: a probe is answered
        by its own ack, not by some result still in the pipe."""
        self.send("heartbeat", {"seq": seq})
        kind, fields, _ = self.read()
        assert (kind, fields["seq"]) == ("heartbeat_ack", seq)

    def threads(self):
        """The live threads that exist because of this daemon."""
        return [t for t in threading.enumerate() if t not in self._others]

    def assert_gone(self, deadline=5.0):
        """Both daemon threads end within ``deadline`` seconds."""
        end = time.monotonic() + deadline
        for t in self.threads():
            t.join(max(0.0, end - time.monotonic()))
        assert self.threads() == []

    def read_to_eof(self):
        """Every byte the daemon still sends before it hangs up."""
        got = bytearray()
        try:
            while chunk := self.sock.recv(65536):
                got += chunk
        except ConnectionResetError:
            pass  # it closed with our bytes unread: a reset is its EOF
        return bytes(got)

    def close(self):
        try:
            self.send("shutdown", {})
        except OSError:
            pass
        self.thread.join(10.0)
        self.sock.close()
        assert not self.thread.is_alive()


@pytest.fixture
def daemon():
    d = DaemonUnderTest()
    yield d
    d.close()


@pytest.fixture
def spawn():
    """Daemons for tests that end the connection their own way."""
    made = []

    def make(**kwargs):
        made.append(DaemonUnderTest(**kwargs))
        return made[-1]

    yield make
    for d in made:
        d.sock.close()
        d.thread.join(10.0)


@pytest.fixture
def compute_threads(monkeypatch):
    """Thread ident of every ``run_job_compute`` call the daemon makes."""
    seen = []
    real = worker_server.run_job_compute

    def recording(field, payload, job):
        seen.append(threading.get_ident())
        return real(field, payload, job)

    monkeypatch.setattr(worker_server, "run_job_compute", recording)
    return seen


@pytest.fixture
def send_threads(monkeypatch):
    """``(kind, thread ident)`` of every frame the daemon sends."""
    seen = []
    real = WorkerServer._send

    def recording(self, kind, fields, arrays=()):
        seen.append((kind, threading.get_ident()))
        return real(self, kind, fields, arrays)

    monkeypatch.setattr(WorkerServer, "_send", recording)
    return seen


class CountingSocket:
    """The daemon's socket, with every buffer handed to the kernel noted."""

    def __init__(self, sock, writes):
        self._sock, self._writes = sock, writes

    def __getattr__(self, name):
        return getattr(self._sock, name)

    def sendall(self, data):
        self._writes.append(bytes(data))
        return self._sock.sendall(data)

    def send(self, data, *args):
        self._writes.append(bytes(data))
        return self._sock.send(data, *args)

    def sendmsg(self, buffers, *args):
        self._writes.extend(bytes(b) for b in buffers)
        return self._sock.sendmsg(buffers, *args)


class TestDaemonProtocol:
    def test_heartbeat_acked_while_a_job_computes(self, daemon, monkeypatch, rng):
        """Even the smallest job leaves the receive thread: a probe sent
        while it computes is answered before its result."""
        started, release = threading.Event(), threading.Event()
        real = worker_server.run_job_compute

        def slow(field, payload, job):
            started.set()
            assert release.wait(10.0)
            return real(field, payload, job)

        monkeypatch.setattr(worker_server, "run_job_compute", slow)
        share = F.random((3, 5), rng)
        v = F.random(5, rng)
        daemon.store("s", share)
        rid = daemon.round("s", v)
        assert started.wait(10.0)
        daemon.assert_idle(seq=41)  # answered mid-compute
        release.set()
        fields, value = daemon.result()
        assert fields["rid"] == rid
        np.testing.assert_array_equal(value, ff_matvec(F, share, v))

    def test_results_in_dispatch_order_across_small_and_large_jobs(
        self, daemon, compute_threads, send_threads, rng
    ):
        small = F.random((4, 1024), rng)
        big = F.random((1025, 1024), rng)
        daemon.store("small", small)
        daemon.store("big", big)
        keys = ["big", "small", "small", "big", "small", "big", "big", "small"]
        operands = [F.random(1024, rng) for _ in keys]
        burst = b"".join(daemon.round_frame(k, v) for k, v in zip(keys, operands))
        daemon.sock.sendall(burst)
        shares = {"small": small, "big": big}
        for rid, (key, v) in enumerate(zip(keys, operands), start=1):
            fields, value = daemon.result()
            assert fields["rid"] == rid
            np.testing.assert_array_equal(value, ff_matvec(F, shares[key], v))
        daemon.assert_idle(seq=1)
        # every job on the thread that called run(); probes are
        # acknowledged by the other one
        assert compute_threads == [daemon.thread.ident] * len(keys)
        assert [t for kind, t in send_threads if kind == "result"] == compute_threads
        (acker,) = (t for kind, t in send_threads if kind == "heartbeat_ack")
        assert acker != daemon.thread.ident

    def test_queued_jobs_do_not_starve_the_receive_task(self, daemon, rng):
        """A burst of queued jobs must not starve the socket: a
        heartbeat sent once the burst is under way is acknowledged
        long before its end, and a cancel for its last round lands in
        time to skip it."""
        n_rounds = 200
        share = F.random((2**17, 8), rng)  # ~1 ms a job behind a 64-byte operand
        v = F.random(8, rng)
        daemon.store("s", share)
        burst = b"".join(daemon.round_frame("s", v) for _ in range(n_rounds))
        daemon.sock.sendall(burst)  # a few KB: queued whole while round 1 computes
        fields, _ = daemon.result()
        assert fields["rid"] == 1
        daemon.send("heartbeat", {"seq": 7})
        daemon.send("cancel", {"rid": n_rounds})
        before_ack = 0
        while True:
            kind, fields, _ = daemon.read()
            if kind == "heartbeat_ack":
                break
            before_ack += 1
        assert before_ack < n_rounds // 2
        last = 1 + before_ack
        while last < n_rounds - 1:
            fields, _ = daemon.result()
            assert fields["rid"] == last + 1
            last += 1
        daemon.assert_idle(seq=8)  # round n_rounds was skipped, not served

    def test_cancel_for_the_third_round_queued_behind_a_straggle_skips_it(self, rng):
        daemon = DaemonUnderTest(factor=3.0, straggle_scale=0.05)  # 0.1 s a round
        try:
            share = F.random((3, 5), rng)
            v = F.random(5, rng)
            daemon.store("s", share)
            r1, r2, r3 = (daemon.round("s", v) for _ in range(3))
            daemon.send("cancel", {"rid": r3})
            r4 = daemon.round("s", v)
            served = [daemon.result()[0]["rid"] for _ in range(3)]
            assert served == [r1, r2, r4]
            daemon.assert_idle(seq=1)
        finally:
            daemon.close()

    def test_job_that_raises_is_reported_and_the_next_round_served(self, daemon, rng):
        share = F.random((3, 5), rng)
        v = F.random(5, rng)
        daemon.store("s", share)
        daemon.round("never-stored", v)
        fields, value = daemon.result()
        assert fields["ok"] is False and value is None
        assert fields["err"] == repr(KeyError("never-stored"))
        daemon.round("s", F.random(6, rng))  # wrong operand length
        fields, value = daemon.result()
        assert fields["ok"] is False and value is None and "ValueError" in fields["err"]
        daemon.round("s", v)
        fields, value = daemon.result()
        assert fields["ok"] is True and fields["err"] is None
        np.testing.assert_array_equal(value, ff_matvec(F, share, v))

    def test_traced_attested_round_reports_spans_and_digest(self, daemon, rng):
        share = F.random((3, 1024), rng)
        daemon.store("s", share)
        daemon.round("s", F.random(1024, rng), trace=True, attest=True)
        fields, value = daemon.result()
        assert [s[0] for s in fields["spans"]] == [
            "worker.recv", "worker.compute", "worker.send"
        ]
        assert all(a <= b for _, a, b in fields["spans"])
        assert fields["digest"] == digest_array(value)

    @pytest.mark.parametrize(
        "frame",
        ["u4", "int64", "int64_out_of_range", "int32_negative", "float64"],
    )
    def test_store_leaves_a_reduced_int64_share_or_none(self, daemon, frame, rng):
        """What a master of this build ships (``<u4`` for reduced
        residues), what one of the parent build ships (``int64``) and
        what neither should all meet the same store: integers are
        widened and reduced, anything else drops the key."""
        share = F.random((5, 12), rng)
        sent = {
            "u4": share.astype("<u4"),
            "int64": share,
            "int64_out_of_range": share + F.q * 2**20 * rng.choice([-1, 1], size=share.shape),
            "int32_negative": (share % 1000 - 1000).astype(np.int32),
            "float64": share.astype(np.float64),
        }[frame]
        want = sent.astype(np.int64) % F.q if frame != "float64" else None
        daemon.store("s", F.random((5, 12), rng))  # a stale share under the key
        daemon.store("s", sent)
        v = F.random(12, rng)
        daemon.round("s", v)  # the compute task is FIFO: the stores are done
        fields, value = daemon.result()
        stored = daemon.server.payload.get("s")
        if want is None:
            assert stored is None
            assert fields["ok"] is False and "KeyError" in fields["err"]
            return
        assert stored.dtype == np.int64 and stored.flags.owndata
        assert stored.tobytes() == want.tobytes()
        np.testing.assert_array_equal(value, ff_matvec(F, want, v))

    def test_every_frame_is_one_write(self, monkeypatch, rng):
        writes = []
        real_connect = WorkerServer._connect
        monkeypatch.setattr(
            WorkerServer, "_connect", lambda self: CountingSocket(real_connect(self), writes)
        )
        daemon = DaemonUnderTest()
        try:
            share = F.random((6, 40), rng)
            daemon.store("s", share)
            daemon.round("s", F.random(40, rng))
            daemon.result()
            daemon.round("s", F.random((40, 3), rng))
            daemon.result()
            daemon.assert_idle(seq=3)
        finally:
            daemon.close()
        assert len(writes) == 4  # hello, two results, one ack
        for buf in writes:
            magic, _, _, _, length = wire._PREAMBLE.unpack_from(buf)
            assert magic == wire.MAGIC
            assert len(buf) == wire._PREAMBLE.size + length  # the whole frame


def _hold_jobs(monkeypatch):
    """Every job blocks until ``release`` is set; ``started`` says one has begun."""
    started, release = threading.Event(), threading.Event()
    real = worker_server.run_job_compute

    def held(field, payload, job):
        started.set()
        assert release.wait(10.0)
        return real(field, payload, job)

    monkeypatch.setattr(worker_server, "run_job_compute", held)
    return started, release


@pytest.fixture
def thread_errors(monkeypatch):
    """Exceptions that escaped any thread while the test ran."""
    escaped = []
    monkeypatch.setattr(threading, "excepthook", lambda args: escaped.append(args.exc_value))
    return escaped


class TestTwoThreads:
    def test_serving_daemon_owns_two_threads_and_shutdown_ends_both(self, daemon, rng):
        daemon.store("s", F.random((3, 5), rng))
        daemon.round("s", F.random(5, rng))
        daemon.result()
        names = sorted(t.name for t in daemon.threads())
        assert names == sorted([daemon.thread.name, "avcc-worker-0-recv"])
        daemon.send("shutdown", {})
        daemon.assert_gone()
        assert daemon.read_to_eof() == b""

    def test_master_eof_mid_compute_ends_both_threads(self, spawn, monkeypatch, rng):
        started, release = _hold_jobs(monkeypatch)
        daemon = spawn()
        daemon.store("s", F.random((3, 5), rng))
        daemon.round("s", F.random(5, rng))
        daemon.round("s", F.random(5, rng))  # queued behind the held job
        assert started.wait(10.0)
        daemon.sock.close()
        deadline = time.monotonic() + 5.0
        while len(daemon.threads()) > 1 and time.monotonic() < deadline:
            time.sleep(0.005)
        assert daemon.threads() == [daemon.thread]  # numpy still holds this one
        started.clear()
        release.set()
        daemon.assert_gone()
        assert not started.is_set()  # the queued round was skipped, not computed

    def test_master_eof_mid_straggle_wakes_the_wait(self, spawn, rng):
        daemon = spawn(factor=3.0, straggle_scale=30.0)  # a minute a round
        daemon.store("s", F.random((3, 5), rng))
        daemon.round("s", F.random(5, rng))
        daemon.assert_idle(seq=1)  # the round is queued or already straggling
        time.sleep(0.05)
        daemon.sock.close()
        daemon.assert_gone(deadline=5.0)

    def test_shutdown_mid_straggle_wakes_the_wait(self, spawn, rng):
        daemon = spawn(factor=3.0, straggle_scale=30.0)
        daemon.store("s", F.random((3, 5), rng))
        daemon.round("s", F.random(5, rng))
        daemon.assert_idle(seq=1)
        time.sleep(0.05)
        daemon.send("shutdown", {})
        daemon.assert_gone(deadline=5.0)
        assert daemon.read_to_eof() == b""  # the straggling round is not answered

    def test_cancels_from_a_second_sender_race_a_few_hundred_queued_rounds(
        self, daemon, monkeypatch, thread_errors, rng
    ):
        """The cancel book (set, heap and served watermark) and the stop
        flag are touched by both daemon threads. A second sender stays
        ``lead`` rounds ahead of the results with one cancel per round —
        every third rid a target, the rest stale, for a round far in
        the future, or for a round about to be served — over a
        backlog of far cancels. Noting a cancel for a round about to be
        served is held open for 2 ms between heap and set, long enough
        for that round to finish and prune: only the lock keeps the prune
        from popping a rid the set does not hold yet. Rounds nobody
        cancelled are all answered, in dispatch order; a cancel whose
        probe was acknowledged ahead of an earlier round's result
        reached the set before its round was dequeued, so that round is
        never answered; nothing is left in the book."""
        n_rounds, lead, backlog, far = 301, 30, 20000, 10**6
        real = worker_server.run_job_compute
        hot = set()  # rids cancelled as they were about to be served

        def slow(field, payload, job):
            time.sleep(0.0005)  # keeps the queue a few hundred deep
            return real(field, payload, job)

        def held_push(heap, rid):
            heapq.heappush(heap, rid)
            if rid in hot:
                time.sleep(0.002)

        monkeypatch.setattr(worker_server, "run_job_compute", slow)
        monkeypatch.setattr(
            worker_server, "heapq", SimpleNamespace(heappush=held_push, heappop=heapq.heappop)
        )
        daemon.store("s", F.random((3, 5), rng))
        v = F.random(5, rng)
        frames = [daemon.round_frame("s", v) for _ in range(n_rounds)]
        targets = set(range(3, n_rounds + 1, 3))
        sending = threading.Lock()
        progress = threading.Condition()
        answered = [0]

        def cancel_sender():
            with sending:
                daemon.sock.sendall(
                    b"".join(
                        b"".join(encode_frame("cancel", {"rid": far + j})) for j in range(backlog)
                    )
                )
            for i in range(1, n_rounds + 1):
                with progress:
                    assert progress.wait_for(lambda: answered[0] >= i - lead, 30.0)
                with sending:
                    if i in targets:
                        daemon.send("cancel", {"rid": i})
                        daemon.send("heartbeat", {"seq": i})
                    elif i % 3 == 1:  # grows the set
                        daemon.send("cancel", {"rid": far + backlog + i})
                    elif i % 6 == 5:  # a round the daemon reaches within the hold
                        hot.add(answered[0] + 3)
                        daemon.send("cancel", {"rid": answered[0] + 3})
                    else:  # stale, dropped on arrival
                        daemon.send("cancel", {"rid": max(0, i - lead - 1)})

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            canceller = threading.Thread(target=cancel_sender, daemon=True)
            canceller.start()
            for frame in frames:
                with sending:
                    daemon.sock.sendall(frame)
            stream = []  # ("result", rid) / ("heartbeat_ack", seq), as they arrived
            acks = 0
            while acks < len(targets) or ("result", n_rounds) not in stream:
                kind, fields, _ = daemon.read()
                stream.append((kind, fields["rid" if kind == "result" else "seq"]))
                acks += kind == "heartbeat_ack"
                if kind == "result":
                    with progress:
                        answered[0] = fields["rid"]
                        progress.notify()
            canceller.join(30.0)
            assert not canceller.is_alive()
            daemon.rid = 2 * far  # past the backlog, and past round n_rounds' book-keeping
            daemon.round("s", v)
            assert daemon.result()[0]["rid"] == 2 * far + 1
            daemon.round("s", v)  # served once the one before it has pruned
            assert daemon.result()[0]["rid"] == 2 * far + 2
            daemon.assert_idle(seq=0)
        finally:
            sys.setswitchinterval(interval)
        assert daemon.server._cancelled == set() and daemon.server._cancel_heap == []
        served = [x for kind, x in stream if kind == "result"]
        assert served == sorted(set(served))
        assert set(range(1, n_rounds + 1)) - targets - hot <= set(served)
        in_time = set()
        for at, (kind, x) in enumerate(stream):
            if kind == "heartbeat_ack" and any(
                k == "result" and rid < x for k, rid in stream[at + 1:]
            ):
                in_time.add(x)
        assert len(in_time) > len(targets) // 2  # the race was actually run
        assert not in_time & set(served)
        assert thread_errors == []

    def test_master_that_stops_reading_cannot_hold_a_send_forever(
        self, spawn, compute_threads, rng
    ):
        """The send deadline is ``connect_timeout``: once the master's
        receive window and the daemon's send buffer are full, the
        blocked ``sendall`` fails and the daemon stops as on EOF."""
        daemon = spawn(connect_timeout=0.5)
        daemon.sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
        daemon.store("s", F.random((250_000, 1), rng))  # results of 1 MB
        v = F.random(1, rng)
        daemon.sock.sendall(b"".join(daemon.round_frame("s", v) for _ in range(40)))
        daemon.assert_gone(deadline=10.0)
        assert len(compute_threads) < 40  # it gave up mid-stream, the rest was skipped

    def test_round_prunes_the_cancels_it_retires_not_the_backlog(self, daemon, monkeypatch, rng):
        """Pruning work counted in heap pops: 20 000 far-future cancels
        cost a round nothing until a round reaches them."""
        pops = []

        def counting_pop(heap):
            pops.append(heap[0])
            return heapq.heappop(heap)

        monkeypatch.setattr(
            worker_server, "heapq", SimpleNamespace(heappush=heapq.heappush, heappop=counting_pop)
        )
        far, backlog = 10**6, 20_000
        daemon.sock.sendall(
            b"".join(b"".join(encode_frame("cancel", {"rid": far + j})) for j in range(backlog))
        )
        daemon.send("cancel", {"rid": 3})
        daemon.assert_idle(seq=1)  # every cancel is noted
        daemon.store("s", F.random((3, 5), rng))
        v = F.random(5, rng)
        for _ in range(50):
            daemon.round("s", v)
        served = [daemon.result()[0]["rid"] for _ in range(49)]
        assert served == [r for r in range(1, 51) if r != 3]
        assert pops == [3]
        assert len(daemon.server._cancelled) == len(daemon.server._cancel_heap) == backlog
        daemon.rid = far + backlog  # one round past the backlog retires all of it
        daemon.round("s", v)
        daemon.round("s", v)  # served once the one before it has pruned
        assert [daemon.result()[0]["rid"] for _ in range(2)] == [far + backlog + 1, far + backlog + 2]
        assert pops == [3, *range(far, far + backlog)]
        assert daemon.server._cancelled == set() and daemon.server._cancel_heap == []


def raw_frame(kind_code, header, buffers=(), *, version=PROTOCOL_VERSION, crc=None, length=None):
    """A frame assembled by hand, so every field of it can lie.
    ``header`` is the JSON object, or the bytes to put in its place."""
    head = header
    if not isinstance(header, bytes):
        head = json.dumps(header, separators=(",", ":")).encode()
    payload = wire._HEADER_LEN.pack(len(head)) + head + b"".join(buffers)
    preamble = wire._PREAMBLE.pack(
        wire.MAGIC,
        version,
        kind_code,
        zlib.crc32(payload) if crc is None else crc,
        len(payload) if length is None else length,
    )
    return preamble + payload


def _round_header(rid=2, **lies):
    desc = {"dtype": "<i8", "shape": [5], "nbytes": 40, **lies}
    return {"rid": rid, "op": "matvec", "payload_key": "s", "rhs_key": None, "_arrays": [desc]}


_OPERAND = np.arange(5, dtype="<i8").tobytes()
_ROUND = wire.MSG_CODES["round"]
#: round 2 on share "s", well formed: each hostile frame breaks one thing in it
_GOOD = raw_frame(_ROUND, _round_header(), [_OPERAND])
HOSTILE = {
    "truncated_then_closed": _GOOD[:-17],
    "flipped_payload_byte": _GOOD[:-1] + bytes([_GOOD[-1] ^ 0xFF]),
    "wrong_version": raw_frame(_ROUND, _round_header(), [_OPERAND], version=PROTOCOL_VERSION + 1),
    "bad_magic": b"GE" + _GOOD[2:],
    "length_above_max_payload": raw_frame(
        _ROUND, _round_header(), [_OPERAND], length=wire.MAX_PAYLOAD + 1
    ),
    "unknown_kind_code": raw_frame(99, {"_arrays": []}),
    "nbytes_overruns_payload": raw_frame(_ROUND, _round_header(nbytes=80), [_OPERAND]),
    "nbytes_short_of_payload": raw_frame(_ROUND, _round_header(nbytes=32, shape=[4]), [_OPERAND]),
    "shape_disagrees_with_nbytes": raw_frame(_ROUND, _round_header(shape=[7]), [_OPERAND]),
    "dtype_is_not_one": raw_frame(_ROUND, _round_header(dtype="no-such"), [_OPERAND]),
    "header_is_not_json": raw_frame(_ROUND, b"{]"),
    "round_without_a_rid": raw_frame(_ROUND, _round_header(rid=None), [_OPERAND]),
    "cancel_without_a_rid": raw_frame(wire.MSG_CODES["cancel"], {"_arrays": []}),
    "store_without_a_share": raw_frame(wire.MSG_CODES["store"], {"name": "s", "_arrays": []}),
}


class TestHostileFrames:
    """What no master of this build sends, against a live daemon: it
    drains and exits, owes nothing further, leaves no thread behind."""

    @pytest.mark.parametrize("attack", sorted(HOSTILE))
    def test_daemon_exits_and_sends_nothing_it_did_not_owe(
        self, attack, spawn, thread_errors, rng
    ):
        daemon = spawn()
        share = F.random((3, 5), rng)
        daemon.store("s", share)
        daemon.round("s", np.arange(5))
        fields, value = daemon.result()  # what it owed, it sent
        np.testing.assert_array_equal(value, ff_matvec(F, share, np.arange(5)))
        try:
            daemon.sock.sendall(HOSTILE[attack])
            daemon.sock.shutdown(socket.SHUT_WR)  # the truncated frame's "then close"
        except OSError:
            pass  # it has hung up already
        assert daemon.read_to_eof() == b""
        daemon.assert_gone()
        assert thread_errors == []

    def test_the_same_bytes_unbroken_are_served(self, daemon, rng):
        """The hostile frames above differ from this one in one field each."""
        share = F.random((3, 5), rng)
        daemon.store("s", share)
        daemon.round("s", np.arange(5))
        daemon.result()
        daemon.sock.sendall(_GOOD)
        fields, value = daemon.result()
        assert fields["rid"] == 2 and fields["ok"] is True
        np.testing.assert_array_equal(value, ff_matvec(F, share, np.arange(5)))

    def test_store_with_a_lying_dtype_meets_validation_and_the_next_round_is_served(
        self, daemon, rng
    ):
        """int64 bytes labelled float64 decode — the sizes agree — into
        something that is not field data: the key is dropped, the round
        on it fails crash-stop, and the daemon serves on."""
        share = F.random((3, 5), rng)
        daemon.store("s", share)
        lying = {"name": "s", "_arrays": [{"dtype": "<f8", "shape": [3, 5], "nbytes": 120}]}
        daemon.sock.sendall(raw_frame(wire.MSG_CODES["store"], lying, [share.tobytes()]))
        v = F.random(5, rng)
        daemon.round("s", v)
        fields, value = daemon.result()
        assert fields["ok"] is False and "KeyError" in fields["err"] and value is None
        assert "s" not in daemon.server.payload
        daemon.store("s", share)
        daemon.round("s", v)
        fields, value = daemon.result()
        assert fields["ok"] is True
        np.testing.assert_array_equal(value, ff_matvec(F, share, v))


class TestFrameBytes:
    """Today's frames in, today's frames out — byte for byte where the
    frame holds no clock reading, field for field where it does."""

    def _raw(self, daemon):
        pre = bytes(wire._recv_exact(daemon.sock, wire._PREAMBLE.size))
        length = wire._PREAMBLE.unpack(pre)[4]
        return pre, bytes(wire._recv_exact(daemon.sock, length))

    def test_ack_and_result_frames_are_the_frames_of_protocol_2(self, daemon, rng):
        daemon.send("heartbeat", {"seq": 41})
        assert b"".join(self._raw(daemon)).hex() == (
            "4156020833b861dd0000001b00000017"  # AV, version 2, kind 8, crc, length 27
            "7b22736571223a34312c225f617272617973223a5b5d7d"  # {"seq":41,"_arrays":[]}
        )
        share = F.random((3, 5), rng)
        v = F.random(5, rng)
        daemon.store("s", share)
        daemon.round("s", v, attest=True)
        pre, payload = self._raw(daemon)
        magic, version, code, crc, length = wire._PREAMBLE.unpack(pre)
        assert (magic, version, code) == (b"AV", 2, wire.MSG_CODES["result"])
        assert crc == zlib.crc32(payload)
        (header_len,) = wire._HEADER_LEN.unpack_from(payload)
        header = json.loads(payload[4:4 + header_len])
        want = ff_matvec(F, share, v)
        assert list(header) == [
            "rid", "worker_id", "compute_time", "ok", "err", "digest", "_arrays"
        ]
        assert header["_arrays"] == [{"dtype": "<i8", "shape": [3], "nbytes": 24}]
        compute_time = header.pop("compute_time")
        assert isinstance(compute_time, float) and 0.0 <= compute_time < 10.0
        assert header == {
            "rid": 1, "worker_id": 0, "ok": True, "err": None,
            "digest": digest_array(want), "_arrays": header["_arrays"],
        }
        assert payload[4 + header_len:] == want.astype("<i8").tobytes()


class TestThroughTheMaster:
    def test_long_job_keeps_its_worker_alive_past_the_heartbeat_timeout(
        self, monkeypatch, rng
    ):
        """A job that computes for longer than ``heartbeat_timeout`` is
        not a dead worker: the receive thread keeps the acks flowing.
        (Forked daemons inherit the patch.)"""
        real = worker_server.run_job_compute

        def slow(field, payload, job):
            time.sleep(1.0)
            return real(field, payload, job)

        monkeypatch.setattr(worker_server, "run_job_compute", slow)
        shares = F.random((3, 2, 4), rng)
        v = F.random(4, rng)
        with TcpCluster(
            F, _fleet(3, {}, {}), heartbeat_interval=0.05, heartbeat_timeout=0.4
        ) as backend:
            backend.distribute("share", shares)
            handle = backend.dispatch_round(RoundJob(payload_key="share", operand=v))
            got = {a.worker_id: a.value for a in handle}
            assert backend.membership().dead == ()
        assert sorted(got) == [0, 1, 2]
        for wid, value in got.items():
            np.testing.assert_array_equal(value, ff_matvec(F, shares[wid], v))

    def test_install_ships_reduced_shares_narrow_and_stores_what_was_sent(self, rng):
        """Reduced residues travel at 4 bytes an element, anything else
        as it is; the wire counters see the narrow install and every
        daemon stores the same share either way."""
        shares = F.random((3, 64, 256), rng)
        out_of_range = shares + F.q * 2**20
        v = F.random(256, rng)

        def install(backend, name, stack):
            before = backend.wire.bytes_out
            backend.distribute(name, stack)
            return backend.wire.bytes_out - before

        def answers(backend, name):
            handle = backend.dispatch_round(RoundJob(payload_key=name, operand=v))
            return {a.worker_id: a.value for a in handle}

        with TcpCluster(F, _fleet(3, {}, {})) as backend:
            narrow = install(backend, "in", shares)
            wide = install(backend, "out", out_of_range)
            install(backend, "float", shares.astype(np.float64))
            got_in, got_out = answers(backend, "in"), answers(backend, "out")
            with pytest.raises(RuntimeError, match="KeyError"):
                handle = backend.dispatch_round(RoundJob(payload_key="float", operand=v))
                list(handle)
                handle.result()
        headers = 3 * 128  # preamble + JSON descriptor per frame, generously
        assert shares.nbytes // 2 < narrow <= shares.nbytes // 2 + headers
        assert shares.nbytes < wide <= shares.nbytes + headers
        for wid in range(3):
            want = ff_matvec(F, shares[wid], v)
            np.testing.assert_array_equal(got_in[wid], want)
            np.testing.assert_array_equal(got_out[wid], want)

    def test_interleaved_small_and_large_rounds_answer_in_dispatch_order(self, rng):
        """Collect the *last* round first: once it has answered from
        every worker, every earlier round must have too — a socket is
        FIFO, so that holds exactly when each daemon answers in
        dispatch order."""
        small = F.random((3, 2, 1024), rng)
        big = F.random((3, 1025, 1024), rng)
        keys = ["big", "small", "big", "small", "small", "big"]
        operands = [F.random(1024, rng) for _ in keys]
        with TcpCluster(F, _fleet(3, {}, {})) as backend:
            backend.distribute("small", small)
            backend.distribute("big", big)
            handles = [
                backend.dispatch_round(RoundJob(payload_key=k, operand=v))
                for k, v in zip(keys, operands)
            ]
            assert sorted(a.worker_id for a in handles[-1]) == [0, 1, 2]
            rounds = [h.result().arrived() for h in handles]  # no further waiting
        shares = {"small": small, "big": big}
        for key, v, arrived in zip(keys, operands, rounds):
            assert sorted(a.worker_id for a in arrived) == [0, 1, 2]
            for a in arrived:
                np.testing.assert_array_equal(
                    a.value, ff_matvec(F, shares[key][a.worker_id], v)
                )

    def test_cancelled_third_round_behind_a_straggler_is_skipped(self, rng):
        sleep = 0.4
        shares = F.random((3, 2, 4), rng)
        v = F.random(4, rng)
        with TcpCluster(
            F, _fleet(3, {2: 5.0}, {}), straggle_scale=sleep / 4.0
        ) as backend:
            backend.distribute("share", shares)
            job = RoundJob(payload_key="share", operand=v)
            h1, h2, h3 = (backend.dispatch_round(job) for _ in range(3))
            h3.cancel()  # the straggler still sleeps out round 1
            assert sorted(a.worker_id for a in h1) == [0, 1, 2]
            assert sorted(a.worker_id for a in h2) == [0, 1, 2]
            h3.result()
            t0 = time.perf_counter()
            h4 = backend.dispatch_round(job)
            assert sorted(a.worker_id for a in h4) == [0, 1, 2]
            # one sleep for round 4; a served round 3 would make it two
            assert time.perf_counter() - t0 < 1.75 * sleep

    def test_worker_whose_job_raises_is_crash_stop_for_that_round_only(self, rng):
        shares = F.random((3, 2, 4), rng)
        v = F.random(4, rng)
        with TcpCluster(F, _fleet(3, {}, {})) as backend:
            backend.distribute("share", shares)
            backend.distribute("partial", shares, participants=[0, 1])
            bad = backend.dispatch_round(RoundJob(payload_key="partial", operand=v))
            assert sorted(a.worker_id for a in bad) == [0, 1]
            lost = [a for a in bad.result().arrivals if a.worker_id == 2]
            assert len(lost) == 1 and not np.isfinite(lost[0].t_arrival)
            good = backend.dispatch_round(RoundJob(payload_key="share", operand=v))
            got = {a.worker_id: a.value for a in good}
            assert backend.membership().dead == ()
        assert sorted(got) == [0, 1, 2]
        for wid, value in got.items():
            np.testing.assert_array_equal(value, ff_matvec(F, shares[wid], v))
