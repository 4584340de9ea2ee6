"""Wire-level counters on the tcp backend: bytes/frames in and
out, CRC rejects and per-worker heartbeat RTT, surfaced through
``SessionStats.summary()`` and the metrics registry."""

import numpy as np
import pytest

from repro.api import Session, SessionConfig
from repro.coding import SchemeParams
from repro.runtime.net.wire import WireCounters


def _run(backend):
    cfg = SessionConfig(
        scheme=SchemeParams(n=6, k=3, s=1, m=1),
        backend=backend,
        seed=3,
        observability=True,
        backend_options={"straggle_scale": 0.002},
    )
    with Session.create(cfg) as sess:
        rng = np.random.default_rng(0)
        x = sess.field.random((12, 8), rng)
        sess.load(x)
        sess.submit_matvec(sess.field.random(8, rng)).result()
        summary = sess.stats.summary()
        wire = sess.backend.wire
        prom = sess.obs.registry.render_prometheus()
        return summary, wire, prom


class TestWireCounters:
    def test_counts_flow_and_surface_in_summary(self):
        summary, wire, prom = _run("tcp")
        # hello+config+store+round out, hello+results back — all >0
        assert wire.frames_out > 0 and wire.bytes_out > 0
        assert wire.frames_in > 0 and wire.bytes_in > 0
        assert wire.crc_rejects == 0
        assert "wire:" in summary
        assert f"{wire.frames_out} frames/{wire.bytes_out}B out" in summary
        assert f"{wire.crc_rejects} crc rejects" in summary
        # mirrored into the registry by the pull-time collector
        assert 'wire_bytes_total{backend="tcp",direction="out"}' in prom
        assert 'wire_frames_total{backend="tcp",direction="in"}' in prom

    def test_crc_reject_counter(self):
        import io
        import struct

        from repro.runtime.net.wire import (
            MSG_CODES,
            WireError,
            encode_frame,
            read_frame,
        )

        parts = encode_frame("hello", {"worker_id": 1})
        raw = bytearray(b"".join(bytes(p) for p in parts))
        raw[-1] ^= 0xFF  # flip a payload byte: CRC must catch it

        class FakeSock:
            def __init__(self, data):
                self._buf = io.BytesIO(data)

            def recv_into(self, view):
                return self._buf.readinto(view)

        counters = WireCounters()
        with pytest.raises(WireError):
            read_frame(FakeSock(bytes(raw)), counters)
        assert counters.crc_rejects == 1

    def test_summary_without_wire_backend_is_unchanged(self):
        cfg = SessionConfig(
            scheme=SchemeParams(n=6, k=3, s=1, m=1),
            backend="sim",
            seed=3,
            observability=True,
        )
        with Session.create(cfg) as sess:
            rng = np.random.default_rng(0)
            x = sess.field.random((12, 8), rng)
            sess.load(x)
            sess.submit_matvec(sess.field.random(8, rng)).result()
            assert "wire:" not in sess.stats.summary()
