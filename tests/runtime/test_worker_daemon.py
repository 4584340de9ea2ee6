"""The worker daemon's compute path: every job through the executor,
the loop free for probes and cancels meanwhile, one write per frame.

``TestDaemonProtocol`` talks to one in-process daemon over a raw
socket, frame by frame — the only way to pin *which frame follows
which* (an ack between two results, a round that never answers). The
daemon serves both socket masters, so ``TestThroughBothMasters``
repeats what a master can observe on ``tcp`` and ``async_tcp`` fleets.
"""

import asyncio
import socket
import threading
import time

import numpy as np
import pytest
from test_backends import _fleet

from repro.ff import PrimeField, ff_matvec
from repro.obs.audit import digest_array
from repro.runtime import AsyncTcpCluster, RoundJob, TcpCluster
from repro.runtime.net import (
    PROTOCOL_VERSION,
    WorkerServer,
    encode_frame,
    read_frame,
    send_frame,
)
from repro.runtime.net import wire, worker_server

F = PrimeField()
CLUSTERS = {"tcp": TcpCluster, "async_tcp": AsyncTcpCluster}


class DaemonUnderTest:
    """One in-process daemon and the master's end of its socket."""

    def __init__(self, factor=1.0, straggle_scale=0.05):
        listener = socket.create_server(("127.0.0.1", 0))
        port = listener.getsockname()[1]
        self.server = WorkerServer("127.0.0.1", port, 0)
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
def compute_threads(monkeypatch):
    """Thread ident of every ``run_job_compute`` call the daemon makes."""
    seen = []
    real = worker_server.run_job_compute

    def recording(field, payload, job):
        seen.append(threading.get_ident())
        return real(field, payload, job)

    monkeypatch.setattr(worker_server, "run_job_compute", recording)
    return seen


class TestDaemonProtocol:
    def test_heartbeat_acked_while_a_job_computes(self, daemon, monkeypatch, rng):
        """Even the smallest job leaves the loop: a probe sent while it
        computes is answered before its result."""
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
        self, daemon, compute_threads, rng
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
        assert len(compute_threads) == len(keys)
        assert daemon.thread.ident not in compute_threads

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
        real_write = asyncio.StreamWriter.write

        def counting_write(self, data):
            writes.append(bytes(data))
            return real_write(self, data)

        monkeypatch.setattr(asyncio.StreamWriter, "write", counting_write)
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


@pytest.mark.parametrize("kind", sorted(CLUSTERS))
class TestThroughBothMasters:
    def test_long_job_keeps_its_worker_alive_past_the_heartbeat_timeout(
        self, kind, monkeypatch, rng
    ):
        """A job that computes for longer than ``heartbeat_timeout`` is
        not a dead worker: the executor hop keeps the acks flowing.
        (Forked daemons inherit the patch.)"""
        real = worker_server.run_job_compute

        def slow(field, payload, job):
            time.sleep(1.0)
            return real(field, payload, job)

        monkeypatch.setattr(worker_server, "run_job_compute", slow)
        shares = F.random((3, 2, 4), rng)
        v = F.random(4, rng)
        with CLUSTERS[kind](
            F, _fleet(3, {}, {}), heartbeat_interval=0.05, heartbeat_timeout=0.4
        ) as backend:
            backend.distribute("share", shares)
            handle = backend.dispatch_round(RoundJob(payload_key="share", operand=v))
            got = {a.worker_id: a.value for a in handle}
            assert backend.membership().dead == ()
        assert sorted(got) == [0, 1, 2]
        for wid, value in got.items():
            np.testing.assert_array_equal(value, ff_matvec(F, shares[wid], v))

    def test_install_ships_reduced_shares_narrow_and_stores_what_was_sent(self, kind, rng):
        """Reduced residues travel at 4 bytes an element, anything else
        as it is; both masters count the same bytes for the same
        install and every daemon stores the same share either way."""
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

        with CLUSTERS[kind](F, _fleet(3, {}, {})) as backend:
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

    def test_interleaved_small_and_large_rounds_answer_in_dispatch_order(self, kind, rng):
        """Collect the *last* round first: once it has answered from
        every worker, every earlier round must have too — a socket is
        FIFO, so that holds exactly when each daemon answers in
        dispatch order."""
        small = F.random((3, 2, 1024), rng)
        big = F.random((3, 1025, 1024), rng)
        keys = ["big", "small", "big", "small", "small", "big"]
        operands = [F.random(1024, rng) for _ in keys]
        with CLUSTERS[kind](F, _fleet(3, {}, {})) as backend:
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

    def test_cancelled_third_round_behind_a_straggler_is_skipped(self, kind, rng):
        sleep = 0.4
        shares = F.random((3, 2, 4), rng)
        v = F.random(4, rng)
        with CLUSTERS[kind](
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

    def test_worker_whose_job_raises_is_crash_stop_for_that_round_only(self, kind, rng):
        shares = F.random((3, 2, 4), rng)
        v = F.random(4, rng)
        with CLUSTERS[kind](F, _fleet(3, {}, {})) as backend:
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
