"""The worker host: one ``selectors`` loop on the thread that called
``run()``, serving one or more logical workers — every job and every
frame on that thread, heartbeats acknowledged between products, an
injected straggle held without blocking a sibling, one ``sendall`` per
frame.

``TestDaemonProtocol`` talks to one in-process host over raw sockets,
frame by frame — the only way to pin *which frame follows which* (an
ack between two results, a round that never answers). ``TestOneThread``
pins that the loop is the only thread and that it ends with its last
connection; ``TestCoHosting`` that logical workers of one host share
nothing but the thread; ``TestHostileFrames`` feeds the read path what
no master of this build would send. ``TestThroughTheMaster`` checks
what a ``TcpCluster`` master can observe of a forked fleet.
"""

import socket
import struct
import threading
import time
import zlib

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


class MasterEnd:
    """The master's end of one logical worker's socket."""

    def __init__(self, sock):
        self.sock = sock
        self.rid = 0

    def send(self, kind, fields, arrays=()):
        send_frame(self.sock, kind, fields, arrays)

    def store(self, name, share):
        self.send("store", {"name": name}, (share,))

    def round_frame(self, key, operand=None, op="matvec", **extra):
        """One encoded ``round`` frame (bytes) under the next rid."""
        self.rid += 1
        fields = {"rid": self.rid, "op": op, "payload_key": key}
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

    def served(self, share, v):
        """A round on ``share`` is answered, and answered right."""
        self.store("s", share)
        self.round("s", v)
        fields, value = self.result()
        assert fields["ok"] is True
        np.testing.assert_array_equal(value, ff_matvec(F, share, v))

    def read_to_eof(self):
        """Every byte the daemon still sends before it hangs up."""
        got = bytearray()
        try:
            while chunk := self.sock.recv(65536):
                got += chunk
        except ConnectionResetError:
            pass  # it closed with our bytes unread: a reset is its EOF
        return bytes(got)


class DaemonUnderTest(MasterEnd):
    """One in-process host serving ``ids``, and the master's end of
    each logical worker's socket (``ends``). As a :class:`MasterEnd`
    it is the end of its first worker."""

    def __init__(self, factor=1.0, straggle_scale=0.05, connect_timeout=30.0, ids=(0,),
                 factors=None):
        listener = socket.create_server(("127.0.0.1", 0))
        port = listener.getsockname()[1]
        self.server = WorkerServer("127.0.0.1", port, *ids, connect_timeout=connect_timeout)
        self._others = set(threading.enumerate())
        self.thread = threading.Thread(target=self.server.run, daemon=True)
        self.thread.start()
        listener.settimeout(10.0)
        self.ends = {}
        for _ in ids:  # the host registers its workers one at a time
            sock, _ = listener.accept()
            sock.settimeout(10.0)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            kind, fields, _ = read_frame(sock)
            assert kind == "hello" and fields["protocol"] == PROTOCOL_VERSION
            wid = fields["worker_id"]
            end = self if wid == ids[0] else MasterEnd(sock)
            MasterEnd.__init__(end, sock)
            end.send(
                "config",
                {"q": F.q, "factor": (factors or {}).get(wid, factor),
                 "straggle_scale": straggle_scale, "behavior": {"kind": "honest"},
                 "seed": 100 + wid},
            )
            self.ends[wid] = end
        listener.close()
        assert list(self.ends) == list(ids)

    def worker(self, wid=None):
        """The host's live logical worker ``wid`` (its first by default)."""
        wid = next(iter(self.ends)) if wid is None else wid
        (w,) = [w for w in self.server.workers if w.wid == wid]
        return w

    def threads(self):
        """The live threads that exist because of this daemon."""
        return [t for t in threading.enumerate() if t not in self._others]

    def assert_gone(self, deadline=5.0):
        """The host's thread ends within ``deadline`` seconds."""
        end = time.monotonic() + deadline
        for t in self.threads():
            t.join(max(0.0, end - time.monotonic()))
        assert self.threads() == []

    def close(self):
        for end in self.ends.values():
            try:
                end.send("shutdown", {})
            except OSError:
                pass
        self.thread.join(10.0)
        for end in self.ends.values():
            end.sock.close()
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
        for end in d.ends.values():
            end.sock.close()
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
    """``(kind, thread ident)`` of every frame the daemon sends once
    registered."""
    seen = []
    real = WorkerServer._send

    def recording(self, w, kind, fields, arrays=()):
        seen.append((kind, threading.get_ident()))
        return real(self, w, kind, fields, arrays)

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


class TestDaemonProtocol:
    def test_heartbeat_is_acked_between_products(self, daemon, monkeypatch, rng):
        """A probe sent while a job computes is answered as soon as that
        job is done: after its result, before the next queued job's."""
        started, release = _hold_jobs(monkeypatch)
        share = F.random((3, 5), rng)
        v = F.random(5, rng)
        daemon.store("s", share)
        r1, r2 = daemon.round("s", v), daemon.round("s", v)
        assert started.wait(10.0)
        daemon.send("heartbeat", {"seq": 41})
        release.set()
        assert daemon.result()[0]["rid"] == r1
        kind, fields, _ = daemon.read()
        assert (kind, fields["seq"]) == ("heartbeat_ack", 41)
        fields, value = daemon.result()
        assert fields["rid"] == r2
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
        # every job and every frame on the thread that called run()
        assert compute_threads == [daemon.thread.ident] * len(keys)
        assert [kind for kind, _ in send_threads] == ["result"] * len(keys) + ["heartbeat_ack"]
        assert {t for _, t in send_threads} == {daemon.thread.ident}

    def test_queued_jobs_do_not_starve_the_socket(self, daemon, rng):
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

    def test_traced_straggle_is_a_span_of_its_own(self, rng):
        daemon = DaemonUnderTest(factor=2.0, straggle_scale=0.05)
        try:
            daemon.store("s", F.random((3, 5), rng))
            daemon.round("s", F.random(5, rng), trace=True)
            spans = daemon.result()[0]["spans"]
        finally:
            daemon.close()
        assert [s[0] for s in spans] == [
            "worker.recv", "worker.straggle", "worker.compute", "worker.send"
        ]
        assert all(a <= b for _, a, b in spans)
        assert all(prev[2] <= nxt[1] for prev, nxt in zip(spans, spans[1:]))
        assert spans[1][2] - spans[1][1] >= 0.05

    @pytest.mark.parametrize("shape", [(5, 12), (200, 2000)])
    @pytest.mark.parametrize(
        "frame",
        ["u4", "int64", "int64_out_of_range", "int32_negative", "float64"],
    )
    def test_store_leaves_a_reduced_resident_share_or_none(self, daemon, frame, shape, rng):
        """What a master ships (``<u4`` for reduced residues), an
        ``int64`` share and what no master should all meet the same
        store: integers are widened and reduced, anything else drops
        the key. A share of at least ``2**18`` entries is kept
        ``float64`` (one exact dgemm per round), a smaller one
        ``int64``; either is an array of the daemon's own."""
        share = F.random(shape, rng)
        sent = {
            "u4": share.astype("<u4"),
            "int64": share,
            "int64_out_of_range": share + F.q * 2**20 * rng.choice([-1, 1], size=share.shape),
            "int32_negative": (share % 1000 - 1000).astype(np.int32),
            "float64": share.astype(np.float64),
        }[frame]
        want = sent.astype(np.int64) % F.q if frame != "float64" else None
        daemon.store("s", F.random(shape, rng))  # a stale share under the key
        daemon.store("s", sent)
        v = F.random(shape[1], rng)
        daemon.round("s", v)  # a worker's jobs are FIFO: the stores are done
        fields, value = daemon.result()
        stored = daemon.worker().payload.get("s")
        if want is None:
            assert stored is None
            assert fields["ok"] is False and "KeyError" in fields["err"]
            return
        resident = np.float64 if share.size >= 2**18 else np.int64
        assert stored.dtype == resident and stored.flags.owndata
        assert stored.astype(np.int64).tobytes() == want.tobytes()
        assert value.tobytes() == ff_matvec(F, want, v).tobytes()

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


class TestOneThread:
    def test_serving_host_owns_one_thread_and_shutdown_ends_it(self, daemon, rng):
        daemon.store("s", F.random((3, 5), rng))
        daemon.round("s", F.random(5, rng))
        daemon.result()
        assert daemon.threads() == [daemon.thread]
        daemon.send("shutdown", {})
        daemon.assert_gone()
        assert daemon.read_to_eof() == b""

    def test_master_eof_mid_compute_skips_what_was_queued(self, spawn, monkeypatch, rng):
        started, release = _hold_jobs(monkeypatch)
        daemon = spawn()
        daemon.store("s", F.random((3, 5), rng))
        daemon.round("s", F.random(5, rng))
        daemon.round("s", F.random(5, rng))  # queued behind the held job
        assert started.wait(10.0)
        daemon.sock.close()
        time.sleep(0.05)
        assert daemon.thread.is_alive()  # numpy still holds it
        started.clear()
        release.set()
        daemon.assert_gone()
        assert not started.is_set()  # the queued round was skipped, not computed

    def test_master_eof_mid_straggle_ends_the_hold(self, spawn, rng):
        daemon = spawn(factor=3.0, straggle_scale=30.0)  # a minute a round
        daemon.store("s", F.random((3, 5), rng))
        daemon.round("s", F.random(5, rng))
        daemon.assert_idle(seq=1)  # the round is held
        daemon.sock.close()
        daemon.assert_gone(deadline=5.0)

    def test_shutdown_mid_straggle_ends_the_hold(self, spawn, rng):
        daemon = spawn(factor=3.0, straggle_scale=30.0)
        daemon.store("s", F.random((3, 5), rng))
        daemon.round("s", F.random(5, rng))
        daemon.assert_idle(seq=1)
        daemon.send("shutdown", {})
        daemon.assert_gone(deadline=5.0)
        assert daemon.read_to_eof() == b""  # the straggling round is not answered

    def test_cancels_drop_queued_rounds_and_leave_nothing_behind(
        self, daemon, monkeypatch, rng
    ):
        """Every third of 300 rounds queued behind a held job is
        cancelled, among cancels for the round being computed and for
        rounds never sent: exactly the others are answered, in dispatch
        order, and the worker keeps no cancel state."""
        started, release = _hold_jobs(monkeypatch)
        n_rounds, far = 300, 10**6
        daemon.store("s", F.random((3, 5), rng))
        v = F.random(5, rng)
        daemon.round("s", v)
        assert started.wait(10.0)
        targets = set(range(4, n_rounds + 2, 3))
        cancels = [0, 1, *sorted(targets), *range(far, far + 500)]
        burst = b"".join(daemon.round_frame("s", v) for _ in range(n_rounds)) + b"".join(
            b"".join(encode_frame("cancel", {"rid": rid})) for rid in cancels
        )
        assert len(burst) < 48_000  # all of it waits in the socket while round 1 computes
        daemon.sock.sendall(burst)
        release.set()
        served = [daemon.result()[0]["rid"] for _ in range(n_rounds + 1 - len(targets))]
        assert served == [r for r in range(1, n_rounds + 2) if r not in targets]
        daemon.assert_idle(seq=2)
        w = daemon.worker()
        # the host thread drops a cancelled round left at the head on
        # the loop turn after the read that acked the probe
        deadline = time.monotonic() + 5.0
        while w.todo and time.monotonic() < deadline:
            time.sleep(0.01)
        assert w.queued == set() and not w.todo and w.held_until is None

    def test_master_that_stops_reading_cannot_hold_a_send_forever(
        self, spawn, compute_threads, rng
    ):
        """The send deadline is ``connect_timeout``: once the master's
        receive window and the daemon's send buffer are full, the
        blocked ``sendall`` fails and the worker ends as on EOF."""
        daemon = spawn(connect_timeout=0.5)
        daemon.sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
        daemon.store("s", F.random((250_000, 1), rng))  # results of 1 MB
        v = F.random(1, rng)
        daemon.sock.sendall(b"".join(daemon.round_frame("s", v) for _ in range(40)))
        daemon.assert_gone(deadline=10.0)
        assert len(compute_threads) < 40  # it gave up mid-stream, the rest was skipped


class TestCoHosting:
    """Three logical workers on one host thread."""

    def test_each_worker_keeps_its_own_shares_config_and_rng(self, rng):
        host = DaemonUnderTest(ids=(4, 5, 6))
        try:
            shares = {wid: F.random((3, 5), rng) for wid in host.ends}
            v = F.random(5, rng)
            for wid, end in host.ends.items():
                end.store("s", shares[wid])
            for wid, end in host.ends.items():
                end.round("s", v)
            for wid, end in host.ends.items():
                fields, value = end.result()
                assert fields["worker_id"] == wid
                np.testing.assert_array_equal(value, ff_matvec(F, shares[wid], v))
            assert [w.wid for w in host.server.workers] == [4, 5, 6]
            assert len({id(w.payload) for w in host.server.workers}) == 3
            # each seeded by its own config
            assert [w.rng.bit_generator.state for w in host.server.workers] == [
                np.random.default_rng(100 + wid).bit_generator.state for wid in (4, 5, 6)
            ]
        finally:
            host.close()

    def test_a_held_straggle_blocks_no_sibling_and_its_probes_are_acked(self, rng):
        """Worker 1 holds its round for a minute; its siblings serve
        round after round meanwhile, its own probes are acknowledged,
        and a cancel ends the hold at once."""
        host = DaemonUnderTest(ids=(0, 1, 2), factors={1: 3.0}, straggle_scale=30.0)
        try:
            share = F.random((3, 5), rng)
            v = F.random(5, rng)
            slow = host.ends[1]
            slow.store("s", share)
            held = slow.round("s", v)
            t0 = time.monotonic()
            for _ in range(3):
                host.ends[0].served(share, v)
                host.ends[2].served(share, v)
                slow.assert_idle(seq=9)
            assert time.monotonic() - t0 < 10.0
            assert host.worker(1).held_until is not None
            slow.send("cancel", {"rid": held})
            slow.assert_idle(seq=10)  # not the held round's result
            assert host.worker(1).held_until is None
        finally:
            host.close()

    def test_shutdown_of_one_worker_leaves_its_siblings_serving(self, rng):
        host = DaemonUnderTest(ids=(0, 1, 2))
        try:
            host.ends[1].send("shutdown", {})
            assert host.ends[1].read_to_eof() == b""
            share = F.random((3, 5), rng)
            v = F.random(5, rng)
            host.ends[0].served(share, v)
            host.ends[2].served(share, v)
            assert [w.wid for w in host.server.workers] == [0, 2]
        finally:
            host.close()
        host.assert_gone()  # the host exits with its last worker


def raw_frame(kind_code, body, buffers=(), *, version=PROTOCOL_VERSION, crc=None, length=None):
    """A frame assembled by hand, so every field of it can lie.
    ``body`` is the record and the array table, as bytes."""
    payload = body + b"".join(buffers)
    preamble = wire._PREAMBLE.pack(
        wire.MAGIC,
        version,
        kind_code,
        zlib.crc32(payload) if crc is None else crc,
        len(payload) if length is None else length,
    )
    return preamble + payload


def wire_str(text, length=None):
    """A record string: u32 byte count, UTF-8 bytes."""
    data = text.encode()
    return struct.pack(">I", len(data) if length is None else length) + data


def array_table(*entries, count=None):
    """An array table of ``(dtype code, dims)`` entries (1 is ``<i8``,
    4 ``<f8``) or ``(dtype code, dims, ndim)`` with a lying ndim."""
    out = struct.pack(">H", len(entries) if count is None else count)
    for code, dims, *ndim in entries:
        out += struct.pack(f">BB{len(dims)}Q", code, ndim[0] if ndim else len(dims), *dims)
    return out


def _round_body(rid=2, flags=0, op=0, key_len=None, entry=(1, (5,)), count=None):
    """Round ``rid`` on share "s" with one 5-entry ``<i8`` operand."""
    record = struct.pack(">BQB", flags, rid, op) + wire_str("s", key_len)
    return record + array_table(entry, count=count)


_OPERAND = np.arange(5, dtype="<i8").tobytes()
_ROUND = wire.MSG_CODES["round"]
#: round 2 on share "s", well formed: each hostile frame breaks one thing in it
_GOOD = raw_frame(_ROUND, _round_body(), [_OPERAND])
HOSTILE = {
    "truncated_then_closed": _GOOD[:-17],
    "flipped_payload_byte": _GOOD[:-1] + bytes([_GOOD[-1] ^ 0xFF]),
    "wrong_version": raw_frame(_ROUND, _round_body(), [_OPERAND], version=PROTOCOL_VERSION + 1),
    "protocol_2_peer": raw_frame(_ROUND, _round_body(), [_OPERAND], version=2),
    "bad_magic": b"GE" + _GOOD[2:],
    "length_above_max_payload": raw_frame(
        _ROUND, _round_body(), [_OPERAND], length=wire.MAX_PAYLOAD + 1
    ),
    "unknown_kind_code": raw_frame(99, array_table()),
    "dims_overrun_payload": raw_frame(_ROUND, _round_body(entry=(1, (10,))), [_OPERAND]),
    "dims_short_of_payload": raw_frame(_ROUND, _round_body(entry=(1, (4,))), [_OPERAND]),
    # the table takes the operand's first 8 bytes for a second dim
    "ndim_disagrees_with_dims": raw_frame(_ROUND, _round_body(entry=(1, (5,), 2)), [_OPERAND]),
    "unknown_dtype_code": raw_frame(_ROUND, _round_body(entry=(200, (5,))), [_OPERAND]),
    "record_truncated": raw_frame(_ROUND, _round_body()[:12]),  # inside the key's length
    "round_without_a_rid": raw_frame(_ROUND, _round_body()[:1]),
    "cancel_without_a_rid": raw_frame(wire.MSG_CODES["cancel"], b""),
    "store_without_a_share": raw_frame(wire.MSG_CODES["store"], wire_str("s") + array_table()),
    "array_count_past_the_table": raw_frame(_ROUND, _round_body(count=2)),
    "dims_product_overflows": raw_frame(
        _ROUND, _round_body(entry=(1, (2**31, 2**31, 2**31))), [_OPERAND]
    ),
    "zero_size_with_a_dim_past_numpy": raw_frame(
        _ROUND, _round_body(entry=(1, (0, 2**64 - 1))), [_OPERAND]
    ),
    "unknown_flag_bits": raw_frame(_ROUND, _round_body(flags=0x80), [_OPERAND]),
    "record_length_past_payload": raw_frame(_ROUND, _round_body(key_len=1000), [_OPERAND]),
    "unknown_op_code": raw_frame(_ROUND, _round_body(op=9), [_OPERAND]),
    # the retired matmul round: op code 1, and flag bit 1 with the
    # second payload key it announced
    "retired_matmul_op_code": raw_frame(_ROUND, _round_body(op=1), [_OPERAND]),
    "retired_rhs_key_flag": raw_frame(
        _ROUND,
        struct.pack(">BQB", 1, 2, 0) + wire_str("s") + wire_str("t") + array_table((1, (5,))),
        [_OPERAND],
    ),
}




def attack_end(end, data):
    """Send ``data`` down one master end, then close its write side
    (the truncated frame's "then close")."""
    try:
        end.sock.sendall(data)
        end.sock.shutdown(socket.SHUT_WR)
    except OSError:
        pass  # it has hung up already


class TestHostileFrames:
    """What no master of this build sends, against a live daemon: the
    logical worker it reaches drains and ends, owes nothing further and
    leaves no thread behind; a co-hosted sibling serves on."""

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
        attack_end(daemon, HOSTILE[attack])
        assert daemon.read_to_eof() == b""
        daemon.assert_gone()
        assert thread_errors == []

    @pytest.mark.parametrize("attack", sorted(HOSTILE))
    def test_a_hostile_frame_ends_only_the_worker_it_reaches(self, attack, thread_errors, rng):
        host = DaemonUnderTest(ids=(0, 1, 2))
        try:
            attack_end(host.ends[1], HOSTILE[attack])
            assert host.ends[1].read_to_eof() == b""
            share = F.random((3, 5), rng)
            v = F.random(5, rng)
            for _ in range(2):
                host.ends[0].served(share, v)
                host.ends[2].served(share, v)
            assert [w.wid for w in host.server.workers] == [0, 2]
        finally:
            host.close()
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
        lying = wire_str("s") + array_table((4, (3, 5)))  # <f8
        daemon.sock.sendall(raw_frame(wire.MSG_CODES["store"], lying, [share.tobytes()]))
        v = F.random(5, rng)
        daemon.round("s", v)
        fields, value = daemon.result()
        assert fields["ok"] is False and "KeyError" in fields["err"] and value is None
        assert "s" not in daemon.worker().payload
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

    def test_ack_and_result_frames_are_the_frames_of_protocol_3(self, daemon, rng):
        daemon.send("heartbeat", {"seq": 41})
        assert b"".join(self._raw(daemon)).hex() == (
            "41560308d41615190000000a"  # AV, version 3, kind 8, crc, length 10
            "0000000000000029" "0000"  # seq 41, no arrays
        )
        share = F.random((3, 5), rng)
        v = F.random(5, rng)
        daemon.store("s", share)
        daemon.round("s", v, attest=True)
        pre, payload = self._raw(daemon)
        magic, version, code, crc, length = wire._PREAMBLE.unpack(pre)
        assert (magic, version, code) == (b"AV", 3, wire.MSG_CODES["result"])
        assert crc == zlib.crc32(payload) and length == len(payload)
        want = ff_matvec(F, share, v)
        # flags ok|digest, rid 1, worker 0; then the compute time
        assert payload[:13].hex() == "05" "0000000000000001" "00000000"
        (compute_time,) = struct.unpack(">d", payload[13:21])
        assert 0.0 <= compute_time < 10.0
        assert payload[21:].hex() == (
            digest_array(want)
            + "0001" "0101" "0000000000000003"  # one <i8 array of shape (3,)
            + want.astype("<i8").tobytes().hex()
        )


class TestThroughTheMaster:
    def test_held_straggle_keeps_its_worker_alive_past_the_heartbeat_timeout(self, rng):
        """A round held for longer than ``heartbeat_timeout`` is not a
        dead worker: its host acknowledges the probes meanwhile."""
        shares = F.random((3, 2, 4), rng)
        v = F.random(4, rng)
        with TcpCluster(
            F, _fleet(3, {1: 2.0}, {}), straggle_scale=1.0,
            heartbeat_interval=0.05, heartbeat_timeout=0.4,
        ) as backend:
            backend.distribute("share", shares)
            handle = backend.dispatch_round(RoundJob(payload_key="share", operand=v))
            got = {a.worker_id: a.value for a in handle}
            assert backend.membership().dead == ()
        assert sorted(got) == [0, 1, 2]
        for wid, value in got.items():
            np.testing.assert_array_equal(value, ff_matvec(F, shares[wid], v))

    @pytest.mark.usefixtures("host_per_worker")
    def test_product_longer_than_the_heartbeat_timeout_marks_its_worker_dead(
        self, monkeypatch, rng
    ):
        """A host acknowledges probes between products, never during
        one: a single product longer than ``heartbeat_timeout`` reads as
        a dead worker, never-arrived in its round while the others
        answer. (Forked hosts inherit the patch.)"""
        shares = F.random((3, 2, 4), rng)
        v = F.random(4, rng)
        real = worker_server.run_job_compute

        def slow_on_worker_1(field, payload, job):
            if np.array_equal(payload[job.payload_key], shares[1]):
                time.sleep(1.0)
            return real(field, payload, job)

        monkeypatch.setattr(worker_server, "run_job_compute", slow_on_worker_1)
        with TcpCluster(
            F, _fleet(3, {}, {}), heartbeat_interval=0.05, heartbeat_timeout=0.4
        ) as backend:
            backend.distribute("share", shares)
            handle = backend.dispatch_round(RoundJob(payload_key="share", operand=v))
            got = {a.worker_id: a.value for a in handle}
            assert backend.membership().dead == (1,)
            never = [a for a in handle.result().arrivals if a.worker_id == 1]
            assert len(never) == 1 and not np.isfinite(never[0].t_arrival)
        assert sorted(got) == [0, 2]
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
        headers = 3 * 64  # preamble, record and array table per frame, generously
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
