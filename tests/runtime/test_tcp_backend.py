"""TCP backend specifics: the wire protocol's rejection of malformed
frames, fault tolerance of the round transport (killed workers,
heartbeat-dead peers, cancel mid-collect and idempotence), shutdown
with a round in flight, a thread census that does not grow with the
fleet, the external-daemon registration path (the real ``python -m``
CLI), and byte-identical decode parity vs the simulator for every
master family.

The generic Backend-contract, parity and early-stopping coverage for
``tcp`` lives in ``test_backends.py``/``test_concurrent_rounds.py``
(the tcp backend is in their ``BACKENDS`` matrix); this file covers
what only a socket fleet can exhibit.
"""

import math
import os
import signal
import socket
import struct
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest
from test_backends import _fleet, _make_backend
from test_worker_daemon import array_table, raw_frame, wire_str

import repro
from repro.api import Session, SessionConfig
from repro.coding import SchemeParams
from repro.core import AVCCMaster
from repro.core.results import InsufficientResultsError
from repro.ff import PrimeField, ff_matvec
from repro.ff.linalg import ff_matmul
from repro.runtime import RoundJob, TcpCluster
from repro.runtime.net import (
    PROTOCOL_VERSION,
    WireError,
    decode_payload,
    encode_frame,
    free_port,
    read_frame,
    send_frame,
    spawn_local_workers,
)
from repro.runtime.net import wire
from repro.runtime.net.wire import MSG_CODES

F = PrimeField()


# ----------------------------------------------------------------------
# liveness/deadline knobs
# ----------------------------------------------------------------------
class TestTunables:
    @pytest.mark.parametrize(
        "kwargs, match",
        [
            ({"heartbeat_interval": 0.0}, "heartbeat_interval must be > 0"),
            ({"heartbeat_interval": 1.0, "heartbeat_timeout": 0.5}, "must exceed"),
            ({"io_timeout": -1.0}, "io_timeout must be > 0 or None"),
            ({"round_timeout": 0.0}, "round_timeout must be > 0 or None"),
        ],
    )
    def test_rejected_before_any_socket_or_fork(self, kwargs, match, monkeypatch):
        from repro.runtime.net import client

        def refuse(*args, **kw):
            raise AssertionError("validation must precede sockets and forks")

        monkeypatch.setattr(client.socket, "create_server", refuse)
        monkeypatch.setattr(client, "spawn_local_workers", refuse)
        with pytest.raises(ValueError, match=match):
            TcpCluster(F, _fleet(3, {}, {}), **kwargs)


# ----------------------------------------------------------------------
# wire protocol
# ----------------------------------------------------------------------
class TestWireProtocol:
    def _pipe(self):
        return socket.socketpair()

    def test_frame_round_trips_fields_and_arrays(self, rng):
        a = F.random((5, 7), rng)
        b = F.random(3, rng)
        left, right = self._pipe()
        with left, right:
            send_frame(left, "store", {"name": "share"}, (a, b))
            kind, fields, arrays = read_frame(right)
        assert kind == "store"
        assert fields == {"name": "share"}
        np.testing.assert_array_equal(arrays[0], a)
        np.testing.assert_array_equal(arrays[1], b)
        assert arrays[0].dtype == a.dtype

    def test_a_field_the_record_has_no_slot_for_is_refused(self):
        with pytest.raises(WireError, match=r"no field \['n'\]"):
            encode_frame("store", {"name": "share", "n": 2})
        with pytest.raises(WireError, match="do not fit"):
            encode_frame("cancel", {"rid": -1})
        with pytest.raises(WireError, match="no wire code"):
            encode_frame("store", {"name": "s"}, (np.zeros(3, dtype=np.int16),))

    def test_truncated_frame_rejected_with_description(self, rng):
        frame = b"".join(bytes(p) for p in encode_frame("store", {"name": "s"}, (F.random(4, rng),)))
        left, right = self._pipe()
        with right:
            with left:
                left.sendall(frame[: len(frame) - 5])  # cut mid-payload
            with pytest.raises(WireError, match="closed mid-frame"):
                read_frame(right)

    def test_corrupted_payload_fails_checksum(self, rng):
        frame = bytearray(
            b"".join(bytes(p) for p in encode_frame("store", {"name": "s"}, (F.random(4, rng),)))
        )
        frame[-1] ^= 0xFF  # flip a bit in the last array byte
        left, right = self._pipe()
        with left, right:
            left.sendall(bytes(frame))
            with pytest.raises(WireError, match="checksum"):
                read_frame(right)

    def test_non_protocol_peer_rejected(self):
        left, right = self._pipe()
        with left, right:
            left.sendall(b"GET / HTTP/1.1\r\nHost: x\r\n\r\n" + b"\x00" * 32)
            with pytest.raises(WireError, match="magic"):
                read_frame(right)

    def test_wrong_version_rejected(self):
        frame = bytearray(b"".join(bytes(p) for p in encode_frame("heartbeat", {"seq": 1})))
        frame[2] = PROTOCOL_VERSION + 1
        left, right = self._pipe()
        with left, right:
            left.sendall(bytes(frame))
            with pytest.raises(WireError, match="version mismatch"):
                read_frame(right)

    def test_wrong_version_names_protocol_2_and_3(self):
        """A protocol-2 peer (here: its heartbeat_ack of seq 41, JSON
        header and all) is refused on its preamble, naming both."""
        frame = bytes.fromhex(
            "4156020833b861dd0000001b00000017"
            "7b22736571223a34312c225f617272617973223a5b5d7d"
        )
        left, right = self._pipe()
        with left, right:
            left.sendall(frame)
            with pytest.raises(WireError, match="peer speaks 2, this build speaks 3"):
                read_frame(right)

    def test_malformed_header_and_descriptor_rejected(self):
        store = MSG_CODES["store"]
        # a record that ends before its string does
        with pytest.raises(WireError, match="ends inside its record"):
            decode_payload(store, memoryview(b"\x00\x00"))
        # a string length past the payload
        with pytest.raises(WireError, match="runs past the payload"):
            decode_payload(store, memoryview(wire_str("s", 99) + array_table()))
        # declared array overruns the actual payload (no array bytes at all)
        payload = wire_str("s") + array_table((1, (64,)))
        with pytest.raises(WireError, match="overruns"):
            decode_payload(store, memoryview(payload))
        # an array count past the table
        with pytest.raises(WireError, match="ends after 1"):
            decode_payload(store, memoryview(wire_str("s") + array_table((1, (0,)), count=5)))
        # a dims product past any integer type: a WireError, not an
        # OverflowError or MemoryError
        payload = wire_str("s") + array_table((1, (2**64 - 1, 2**64 - 1, 2**64 - 1)))
        with pytest.raises(WireError, match="overruns"):
            decode_payload(store, memoryview(payload))
        with pytest.raises(WireError, match="does not decode"):
            decode_payload(store, memoryview(wire_str("s") + array_table((1, (0, 2**64 - 1)))))
        # unknown codes and flag bits
        with pytest.raises(WireError, match="unknown dtype code 9"):
            decode_payload(store, memoryview(wire_str("s") + array_table((9, (0,)))))
        result = struct.pack(">BQid", 0x10, 1, 0, 0.0) + array_table()
        with pytest.raises(WireError, match="unknown flag bits 0x10"):
            decode_payload(MSG_CODES["result"], memoryview(result))

    def test_the_matvec_round_frame_keeps_its_protocol_3_bytes(self):
        """Op code 0 is matvec; its round frame is byte for byte what
        protocol 3 has always sent, with or without an ``rhs_key`` of
        None in the fields."""
        fields = {"rid": 7, "op": "matvec", "payload_key": "x", "attest": True}
        operand = (np.arange(3, dtype="<i8"),)
        matvec = encode_frame("round", fields, operand)
        assert b"".join(matvec).hex() == (
            "4156030418a566a000000033040000000000000007000000000178000101010000"
            "000000000003000000000000000001000000000000000200000000000000"
        )
        with_none = encode_frame("round", {**fields, "rhs_key": None}, operand)
        assert b"".join(with_none) == b"".join(matvec)

    @pytest.mark.parametrize("code, op", [(1, "matmul"), (2, "gramian")])
    def test_a_retired_op_code_is_refused(self, code, op):
        """Codes 1 and 2 named ops no build runs any more: a round
        record carrying either is refused on decode, and the op's name
        does not encode."""
        record = struct.pack(">BQB", 0, 1, code) + wire_str("s") + array_table()
        with pytest.raises(WireError, match=f"unknown round op code {code}"):
            decode_payload(MSG_CODES["round"], memoryview(record))
        with pytest.raises(WireError, match="do not fit"):
            encode_frame("round", {"rid": 1, "op": op, "payload_key": "s"})

    def test_the_retired_rhs_key_flag_is_refused(self):
        """Flag bit 1 announced the matmul round's second payload key: a
        round record setting it is refused on decode, and a key other
        than None does not encode."""
        record = struct.pack(">BQB", 1, 8, 0) + wire_str("a") + wire_str("b") + array_table()
        with pytest.raises(WireError, match="unknown flag bits 0x01"):
            decode_payload(MSG_CODES["round"], memoryview(record))
        with pytest.raises(WireError, match="do not fit"):
            encode_frame("round", {"rid": 8, "op": "matvec", "payload_key": "a", "rhs_key": "b"})

    def test_descriptor_sign_and_inference_cannot_be_sent(self):
        """Protocol 2 trusted a descriptor's ``nbytes`` sign and a -1 in
        its ``shape``; dims are unsigned now and byte lengths derived,
        so every array is a view of its own consecutive slice of the
        payload, and the slices end at the payload's end."""
        arrays = (np.zeros(0, "<i8"), F.random((2, 3), np.random.default_rng(0)))
        frame = b"".join(encode_frame("store", {"name": "s"}, arrays))
        payload = np.frombuffer(frame, np.uint8)[wire._PREAMBLE.size:]
        base = payload.__array_interface__["data"][0]
        _, _, got = decode_payload(MSG_CODES["store"], memoryview(payload))
        end = len(payload) - sum(a.nbytes for a in got)
        for arr, want in zip(got, arrays):
            assert arr.__array_interface__["data"][0] - base == end
            assert arr.shape == want.shape
            end += arr.nbytes
        assert end == len(payload)
        # -1, the dim protocol 2 inferred, reads as 2**64 - 1 unsigned
        payload = wire_str("s") + array_table((1, (2**64 - 1, 2))) + bytes(32)
        with pytest.raises(WireError, match="overruns"):
            decode_payload(MSG_CODES["store"], memoryview(payload))


# ----------------------------------------------------------------------
# fault-tolerant round transport
# ----------------------------------------------------------------------
class TestFaultTolerance:
    @pytest.mark.usefixtures("host_per_worker")
    def test_worker_killed_mid_round_survivors_complete(self, rng):
        """SIGKILL one worker while its round is in flight: the EOF
        marks it dead, the round completes from the survivors, and
        later rounds keep running without it."""
        shares = F.random((4, 3, 5), rng)
        v = F.random(5, rng)
        # the victim straggles, so it is mid-sleep when the kill lands
        with _make_backend("tcp", 4, {2: 40.0}, {}, straggle_scale=0.05) as backend:
            backend.distribute("share", shares)
            handle = backend.dispatch_round(RoundJob(payload_key="share", operand=v))
            os.kill(backend.worker_pids()[2], signal.SIGKILL)
            arrivals = list(handle)
            rr = handle.result()
            assert sorted(a.worker_id for a in arrivals) == [0, 1, 3]
            dead = [a for a in rr.arrivals if a.worker_id == 2]
            assert len(dead) == 1 and not np.isfinite(dead[0].t_arrival)
            # the fleet degrades, it does not crash: next round works too
            handle2 = backend.dispatch_round(RoundJob(payload_key="share", operand=v))
            assert sorted(a.worker_id for a in handle2) == [0, 1, 3]
            # re-shipping shares (the re-code path) skips the dead worker
            backend.distribute("share", shares)
            handle3 = backend.dispatch_round(RoundJob(payload_key="share", operand=v))
            assert sorted(a.worker_id for a in handle3) == [0, 1, 3]

    @pytest.mark.usefixtures("host_per_worker")
    def test_crash_within_tolerance_still_decodes_exactly(self, rng):
        """Master-level: killing one worker mid-round stays inside the
        (n=6, k=3) code's slack, so the decoded result is still exact."""
        x = F.random((12, 8), rng)
        w = F.random(8, rng)
        cfg = SessionConfig(
            scheme=SchemeParams(n=6, k=3, s=1, m=1),
            backend="tcp",
            seed=3,
            backend_options={"straggle_scale": 0.01},
        )
        with Session.create(cfg) as sess:
            sess.load(x)
            os.kill(sess.backend.worker_pids()[5], signal.SIGKILL)
            for _ in range(2):
                got = sess.submit_matvec(w).result()
                np.testing.assert_array_equal(got, ff_matvec(F, x, w))

    def test_crashes_beyond_tolerance_raise_clear_error(self, rng):
        """Kill so many workers that fewer than K can ever respond: the
        master must raise a descriptive error, not hang."""
        x = F.random((12, 8), rng)
        w = F.random(8, rng)
        cfg = SessionConfig(
            scheme=SchemeParams(n=4, k=3, s=1, m=0),
            backend="tcp",
            seed=3,
            backend_options={"straggle_scale": 0.01},
        )
        with Session.create(cfg) as sess:
            sess.load(x)
            pids = sess.backend.worker_pids()
            for wid in (0, 2):
                os.kill(pids[wid], signal.SIGKILL)
            time.sleep(0.05)  # let the EOFs land before dispatch
            with pytest.raises(InsufficientResultsError):
                sess.submit_matvec(w).result()

    def test_unresponsive_worker_surfaces_as_straggler_not_hang(self, rng):
        """A peer that registers but then goes silent (wedged host)
        must be detected by heartbeat timeout and recorded as a
        never-arrived straggler — the round completes without it."""
        port = free_port()
        stop = threading.Event()

        def zombie():
            deadline = time.monotonic() + 20.0
            while True:  # retry until the master listens
                try:
                    sock = socket.create_connection(("127.0.0.1", port), timeout=10)
                    break
                except OSError:
                    if time.monotonic() >= deadline:
                        raise
                    time.sleep(0.02)
            with sock:
                send_frame(sock, "hello", {"worker_id": 2, "protocol": PROTOCOL_VERSION})
                read_frame(sock)  # config
                stop.wait(30.0)  # never answer anything again

        # spawn (fork) the real workers before starting any thread
        fleet = spawn_local_workers("127.0.0.1", port, [0, 1])
        thread = threading.Thread(target=zombie, daemon=True)
        thread.start()
        try:
            with TcpCluster(
                F,
                _fleet(3, {}, {}),
                port=port,
                spawn_workers=False,
                heartbeat_interval=0.05,
                heartbeat_timeout=0.4,
            ) as backend:
                # io_timeout=None inherits the dead-worker threshold
                assert backend.io_timeout == 0.4
                shares = F.random((3, 2, 4), rng)
                v = F.random(4, rng)
                backend.distribute("share", shares)
                t0 = time.perf_counter()
                handle = backend.dispatch_round(RoundJob(payload_key="share", operand=v))
                arrivals = list(handle)
                wall = time.perf_counter() - t0
                rr = handle.result()
            assert sorted(a.worker_id for a in arrivals) == [0, 1]
            zombie_arrival = [a for a in rr.arrivals if a.worker_id == 2]
            assert len(zombie_arrival) == 1
            assert not np.isfinite(zombie_arrival[0].t_arrival)
            assert wall < 10.0, "heartbeat detection should beat any long timeout"
        finally:
            stop.set()
            fleet.terminate()

    def test_round_collect_timeout_expires_stragglers(self, rng):
        """A per-round collect deadline records still-outstanding
        workers as never-arrived without killing them, and their late
        replies never bleed into later rounds."""
        shares = F.random((3, 2, 4), rng)
        v1 = F.random(4, rng)
        v2 = F.random(4, rng)
        # worker 1 sleeps ~1 s per round; rounds give up after 0.25 s
        with TcpCluster(
            F, _fleet(3, {1: 21.0}, {}), straggle_scale=0.05, round_timeout=0.25
        ) as backend:
            backend.distribute("share", shares)
            handle = backend.dispatch_round(RoundJob(payload_key="share", operand=v1))
            arrivals = list(handle)
            assert sorted(a.worker_id for a in arrivals) == [0, 2]
            # expired-for-this-round is not dead: the worker stays in
            # the pool and its (late) round-1 reply is dropped by rid,
            # never delivered into round 2
            assert 1 not in backend._dead
            handle2 = backend.dispatch_round(RoundJob(payload_key="share", operand=v2))
            got2 = {a.worker_id: a.value for a in handle2}
            assert sorted(got2) == [0, 2]
            for wid, value in got2.items():
                np.testing.assert_array_equal(value, ff_matvec(F, shares[wid], v2))
            # after the sleeps drain, the straggler is still serving:
            # an un-deadlined round collects all three
            time.sleep(2.2)
            backend.round_timeout = None
            handle3 = backend.dispatch_round(RoundJob(payload_key="share", operand=v1))
            got3 = {a.worker_id: a.value for a in handle3}
            assert sorted(got3) == [0, 1, 2]
            for wid, value in got3.items():
                np.testing.assert_array_equal(value, ff_matvec(F, shares[wid], v1))

    def test_cancel_idempotent_and_safe_after_result(self, rng):
        shares = F.random((3, 2, 4), rng)
        v = F.random(4, rng)
        with _make_backend("tcp", 3, {}, {}) as backend:
            backend.distribute("share", shares)
            handle = backend.dispatch_round(RoundJob(payload_key="share", operand=v))
            list(handle)
            rr = handle.result()
            handle.cancel()
            handle.cancel()
            assert handle.result().arrivals == rr.arrivals

    def test_cancel_mid_collect_skips_straggler_sleep(self, rng):
        """Cancelling after enough arrivals must neither wait for the
        straggler's injected sleep nor leak its late reply into the
        next round."""
        sleep = 1.5
        factor = 16.0
        shares = F.random((4, 2, 4), rng)
        v1 = F.random(4, rng)
        v2 = F.random(4, rng)
        with TcpCluster(
            F, _fleet(4, {3: factor}, {}), straggle_scale=sleep / (factor - 1.0)
        ) as backend:
            backend.distribute("share", shares)
            t0 = time.perf_counter()
            handle = backend.dispatch_round(RoundJob(payload_key="share", operand=v1))
            seen = []
            for a in handle:
                seen.append(a.worker_id)
                if len(seen) == 3:
                    handle.cancel()
                    break
            rr = handle.result()
            wall = time.perf_counter() - t0
            assert sorted(seen) == [0, 1, 2]
            assert wall < sleep * 0.8, "collect waited on a cancelled straggler"
            late = [a for a in rr.arrivals if a.worker_id == 3]
            assert len(late) == 1 and math.isinf(late[0].t_arrival)
            # cancel is idempotent and safe after result()
            handle.cancel()
            assert handle.result().arrivals == rr.arrivals
            # the cancelled round's rid never bleeds into the next one
            time.sleep(sleep + 0.3)  # let the straggler drain its sleep
            handle2 = backend.dispatch_round(RoundJob(payload_key="share", operand=v2))
            got2 = {a.worker_id: a.value for a in handle2}
            assert sorted(got2) == [0, 1, 2, 3]
            for wid, value in got2.items():
                np.testing.assert_array_equal(value, ff_matvec(F, shares[wid], v2))


def _forged_result(kind, rid):
    """A checksummed ``result`` frame whose record a worker forged."""
    record = struct.pack(">BQid", 1, rid, 3, 1e-3)  # ok, rid, worker 3
    value = array_table((1, (4,))) + np.zeros(4, dtype="<i8").tobytes()
    body = {
        "record_cut_before_the_rid": record[:1],
        "unknown_flag_bits": bytes([0x41]) + record[1:] + value,
        "err_length_past_payload": bytes([0x03]) + record[1:] + wire_str("x", 999) + value,
        "array_count_past_the_table": record + array_table(count=1),
        "dims_product_overflows": record + array_table((1, (2**63, 2**63))) + value[-32:],
    }[kind]
    return raw_frame(MSG_CODES["result"], body)


class TestForgedResultHeader:
    """A worker writes its result frame's record too: a record the
    pump cannot read makes its sender one erasure, as a bad CRC does,
    and the round decodes exactly from the others."""

    @pytest.mark.parametrize(
        "kind",
        [
            "record_cut_before_the_rid",
            "unknown_flag_bits",
            "err_length_past_payload",
            "array_count_past_the_table",
            "dims_product_overflows",
        ],
    )
    def test_forged_header_is_one_erasure(self, kind, rng):
        port = free_port()

        def forger():
            deadline = time.monotonic() + 20.0
            while True:  # retry until the master listens
                try:
                    sock = socket.create_connection(("127.0.0.1", port), timeout=10)
                    break
                except OSError:
                    if time.monotonic() >= deadline:
                        raise
                    time.sleep(0.02)
            with sock:
                send_frame(sock, "hello", {"worker_id": 3, "protocol": PROTOCOL_VERSION})
                read_frame(sock)  # config
                while True:
                    try:
                        frame, fields, _ = read_frame(sock)
                    except (WireError, OSError):
                        return  # the master hung up on the forger
                    if frame == "heartbeat":
                        send_frame(sock, "heartbeat_ack", {"seq": fields["seq"]})
                    elif frame == "round":
                        sock.sendall(_forged_result(kind, fields["rid"]))

        x = F.random((8, 5), rng)
        w = F.random(5, rng)
        # spawn (fork) the honest workers before starting any thread;
        # they straggle, so the forged frame is the first one read
        fleet = spawn_local_workers("127.0.0.1", port, [0, 1, 2])
        thread = threading.Thread(target=forger, daemon=True)
        thread.start()
        try:
            with TcpCluster(
                F, _fleet(4, {0: 5.0, 1: 5.0, 2: 5.0}, {}), port=port,
                spawn_workers=False, straggle_scale=0.05,
            ) as backend:
                master = AVCCMaster(
                    backend, SchemeParams(n=4, k=2, s=1, m=1),
                    rng=np.random.default_rng(1),
                )
                master.setup(x)
                out = master.forward_round(w)
                np.testing.assert_array_equal(out.vector, ff_matvec(F, x, w))
                assert 3 not in out.record.used_workers
                assert backend.membership().dead == (3,)
                # the forger's socket left the selector with it
                registered = {key.fileobj for key in backend._sel.get_map().values()}
                assert registered == {backend._listener, *backend._conns.values()}
                assert sorted(backend._conns) == [0, 1, 2]
            thread.join(10.0)
            assert not thread.is_alive()
        finally:
            fleet.terminate()


class TestShutdown:
    def test_close_with_rounds_in_flight(self, rng):
        """close() while a round is still collecting must resolve the
        round (outstanding workers become never-arrived) and return
        promptly — no hang, no leaked thread."""
        sleep = 3.0
        factor = 31.0
        shares = F.random((3, 2, 4), rng)
        v = F.random(4, rng)
        threads_before = threading.active_count()
        backend = TcpCluster(
            F, _fleet(3, {2: factor}, {}), straggle_scale=sleep / (factor - 1.0)
        )
        try:
            backend.distribute("share", shares)
            handle = backend.dispatch_round(RoundJob(payload_key="share", operand=v))
            # collect the two fast workers, leave the straggler in flight
            seen = []
            for a in handle:
                seen.append(a.worker_id)
                if len(seen) == 2:
                    break
            assert sorted(seen) == [0, 1]
        finally:
            t0 = time.perf_counter()
            backend.close()
            wall = time.perf_counter() - t0
        assert wall < sleep * 0.8, "close() waited out an in-flight straggler"
        rr = handle.result()
        assert {a.worker_id for a in rr.arrivals} == {0, 1, 2}
        late = [a for a in rr.arrivals if a.worker_id == 2]
        assert math.isinf(late[0].t_arrival)
        assert threading.active_count() == threads_before
        backend.close()  # idempotent


class TestFanoutScaling:
    """The master's thread census does not grow with the fleet."""

    @staticmethod
    def _run_fleet(n, rng):
        shares = F.random((n, 2, 4), rng)
        v = F.random(4, rng)
        with TcpCluster(F, _fleet(n, {}, {}), straggle_scale=0.0) as backend:
            during = threading.active_count()
            backend.distribute("share", shares)
            handle = backend.dispatch_round(RoundJob(payload_key="share", operand=v))
            got = {a.worker_id: a.value for a in handle}
            handle.result()
        assert sorted(got) == list(range(n))
        for wid, value in got.items():
            np.testing.assert_array_equal(value, ff_matvec(F, shares[wid], v))
        return during

    @pytest.mark.slow
    def test_64_workers_same_thread_census_as_8(self, rng):
        threads_small = self._run_fleet(8, rng)
        threads_large = self._run_fleet(64, rng)
        # 8x the fleet, identical thread census
        assert threads_large == threads_small


# ----------------------------------------------------------------------
# external daemons (the real CLI) and parity
# ----------------------------------------------------------------------
class TestExternalFleet:
    def test_subprocess_daemons_via_module_entrypoint(self, rng):
        """Spawn real ``python -m repro.runtime.net.worker`` daemons at
        a pre-chosen port, then attach a non-spawning cluster — the
        exact flow of a multi-host deployment."""
        port = free_port()
        src_dir = str(Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = src_dir + os.pathsep + env.get("PYTHONPATH", "")
        daemons = [
            subprocess.Popen(
                [
                    sys.executable, "-m", "repro.runtime.net.worker",
                    "--host", "127.0.0.1", "--port", str(port),
                    "--worker-id", str(wid), "--connect-timeout", "60",
                ],
                env=env,
            )
            for wid in range(3)
        ]
        try:
            with TcpCluster(
                F, _fleet(3, {}, {}), port=port, spawn_workers=False,
                connect_timeout=60.0,
            ) as backend:
                shares = F.random((3, 2, 4), rng)
                v = F.random(4, rng)
                backend.distribute("share", shares)
                handle = backend.dispatch_round(RoundJob(payload_key="share", operand=v))
                got = {a.worker_id: a.value for a in handle}
        finally:
            for proc in daemons:
                proc.terminate()
            for proc in daemons:
                proc.wait(10)
        assert sorted(got) == [0, 1, 2]
        for wid, value in got.items():
            np.testing.assert_array_equal(value, ff_matvec(F, shares[wid], v))


class TestFamilyParityVsSim:
    """Byte-identical decode vs the simulator for both encoded families
    and a coalesced ``(d, B)`` batch through the Session front door."""

    SCHEME = SchemeParams(n=8, k=3, s=1, m=1)

    def _serve_all(self, backend, x, w, e, ws):
        cfg = SessionConfig(
            scheme=self.SCHEME,
            backend=backend,
            seed=5,
            backend_options={} if backend == "sim" else {"straggle_scale": 0.01},
        )
        with Session.create(cfg) as sess:
            sess.load(x)
            fwd = sess.submit_matvec(w).result()
            bwd = sess.submit_matvec(e, transpose=True).result()
            handles = [sess.submit_matvec(col) for col in ws.T]
            batched = np.stack([h.result() for h in handles], axis=1)
            assert sess.stats.jobs_per_round[-1] == ws.shape[1]
        return fwd, bwd, batched

    def test_all_families_byte_identical(self, rng):
        x = F.random((12, 8), rng)
        w = F.random(8, rng)
        e = F.random(12, rng)
        ws = F.random((8, 3), rng)
        sim = self._serve_all("sim", x, w, e, ws)
        tcp = self._serve_all("tcp", x, w, e, ws)
        for name, a, b in zip(("fwd", "bwd", "batched"), sim, tcp):
            assert a.tobytes() == b.tobytes(), name
        np.testing.assert_array_equal(tcp[0], ff_matvec(F, x, w))
        np.testing.assert_array_equal(tcp[1], ff_matvec(F, x.T.copy(), e))
        np.testing.assert_array_equal(tcp[2], ff_matmul(F, x, ws))
