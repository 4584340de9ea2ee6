"""Hypothesis fuzz of the wire codec (:mod:`repro.runtime.net.wire`).

Every kind round-trips generated fields and arrays (every table dtype,
ndim 0–3, empty dims included). Valid frames then take one byte
flipped, inserted or deleted, or a truncation, once with the CRC left
stale (the preamble checks answer) and once with CRC and length
recomputed (the record and table parser answers). Either way the
result is a decoded frame or a :class:`WireError`, never any other
exception, and a decoded frame's arrays tile the payload exactly.

The same mutated frames then reach one logical worker of a live host
of three: that worker may answer what still parses, then ends at the
EOF that follows, and its two siblings serve on.

Tier-1 runs a fixed, derandomized example set in a few seconds.
``--hypothesis-profile=wire-fuzz`` (registered in ``tests/conftest.py``)
runs 20 times the examples under a random seed.
"""

import io
import zlib

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from test_worker_daemon import F, DaemonUnderTest, attack_end

from repro.runtime.byzantine import (
    ConstantAttack,
    Honest,
    IntermittentAttack,
    RandomAttack,
    ReversedValueAttack,
    SilentFailure,
)
from repro.runtime.net import wire
from repro.runtime.net.wire import WireError, behavior_to_dict, encode_frame, read_frame

EXAMPLES = 150
#: a live host per example: far fewer of them
HOST_EXAMPLES = 15
if settings.get_current_profile_name() == "wire-fuzz":
    fuzz = settings(deadline=None)
    fuzz_host = settings(max_examples=20 * HOST_EXAMPLES, deadline=None)
else:
    fuzz = settings(max_examples=EXAMPLES, derandomize=True, deadline=None)
    fuzz_host = settings(max_examples=HOST_EXAMPLES, derandomize=True, deadline=None)

u64 = st.integers(0, 2**64 - 1)
i32 = st.integers(-(2**31), 2**31 - 1)
i64 = st.integers(-(2**63), 2**63 - 1)
text = st.text(max_size=12)
reals = st.floats(allow_nan=False)

arrays = st.lists(
    hnp.arrays(
        st.sampled_from(list(wire._DTYPES.values())),
        hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=4),
    ),
    max_size=3,
)

_attacks = st.one_of(
    st.builds(ReversedValueAttack, c=st.integers(1, 2**62)),
    st.builds(ConstantAttack, value=i64),
    st.builds(RandomAttack),
)
behaviors = st.one_of(
    st.builds(Honest),
    st.builds(SilentFailure),
    _attacks,
    st.builds(IntermittentAttack, _attacks, probability=st.floats(0.0, 0.999)),
).map(behavior_to_dict)


def _flags(**optional):
    """Fields that are present only when set, each drawn on or off."""
    return st.fixed_dictionaries({}, optional=optional)


_spans = st.lists(st.tuples(text, reals, reals).map(list), max_size=4)
FIELDS = {
    "hello": st.fixed_dictionaries(
        {"worker_id": i32, "protocol": st.integers(0, 2**16 - 1), "pid": st.integers(0, 2**32 - 1)}
    ),
    "config": st.fixed_dictionaries({
        "q": i64, "straggle_scale": reals, "factor": reals, "behavior": behaviors, "seed": i64,
    }),
    "store": st.fixed_dictionaries({"name": text}),
    "round": st.tuples(
        st.fixed_dictionaries({
            "rid": u64,
            "op": st.just("matvec"),
            "payload_key": text,
        }),
        _flags(trace=st.just(True), attest=st.just(True)),
    ).map(lambda parts: {**parts[0], **parts[1]}),
    "result": st.tuples(
        st.fixed_dictionaries({
            "rid": u64,
            "worker_id": i32,
            "compute_time": reals,
            "ok": st.booleans(),
            "err": st.none() | text,
        }),
        _flags(digest=st.binary(min_size=16, max_size=16).map(bytes.hex), spans=_spans),
    ).map(lambda parts: {**parts[0], **parts[1]}),
    "cancel": st.fixed_dictionaries({"rid": u64}),
    "heartbeat": st.fixed_dictionaries({"seq": u64}),
    "heartbeat_ack": st.fixed_dictionaries({"seq": u64}),
    "shutdown": st.just({}),
}
frames = st.sampled_from(sorted(FIELDS)).flatmap(
    lambda kind: st.tuples(st.just(kind), FIELDS[kind], arrays)
)


class _Bytes:
    """Just enough of a socket for ``read_frame``."""

    def __init__(self, data):
        self._buf = io.BytesIO(data)

    def recv_into(self, view):
        return self._buf.readinto(view)


def _read(data):
    """``read_frame`` over ``data``; a decoded frame's payload is
    decoded once more where its address is known, to check that each
    array is a view of its own consecutive slice of the payload, the
    last one ending at the payload's end."""
    got = read_frame(_Bytes(data))
    code, length = data[3], wire._PREAMBLE.unpack_from(data)[4]
    buf = np.frombuffer(bytearray(data[wire._PREAMBLE.size:][:length]), np.uint8)
    base = buf.__array_interface__["data"][0]
    _, _, views = wire.decode_payload(code, memoryview(buf))
    end = length
    for arr in reversed(views):
        end -= arr.nbytes
        if arr.nbytes:
            assert arr.__array_interface__["data"][0] - base == end
    assert end >= 0
    return got


class TestRoundTrip:
    @fuzz
    @given(frames)
    def test_every_kind_decodes_to_what_was_encoded(self, frame):
        kind, fields, sent = frame
        encoded = encode_frame(kind, fields, sent)
        data = b"".join(encoded)
        assert encoded.nbytes == len(data)
        got_kind, got_fields, got = _read(data)
        assert (got_kind, got_fields) == (kind, fields)
        assert len(got) == len(sent)
        for arr, want in zip(got, sent):
            assert (arr.dtype, arr.shape) == (want.dtype, want.shape)
            assert arr.tobytes() == want.tobytes()


def _mutate(data, op, at, byte):
    at %= len(data) + (op == "insert")
    if op == "flip":
        return data[:at] + bytes([data[at] ^ byte]) + data[at + 1:]
    if op == "insert":
        return data[:at] + bytes([byte]) + data[at:]
    if op == "delete":
        return data[:at] + data[at + 1:]
    return data[:at]  # truncate


mutations = st.tuples(
    st.sampled_from(["flip", "insert", "delete", "truncate"]),
    st.integers(0, 2**16),
    st.integers(1, 255),
)


def _decoded_or_wire_error(data):
    try:
        _read(data)
    except WireError:
        pass


def _stale_crc(frame, mutation):
    data = _mutate(b"".join(encode_frame(*frame)), *mutation)
    if len(data) >= wire._PREAMBLE.size:
        length = wire._PREAMBLE.unpack_from(data)[4]
        if length > len(data):
            # any length past the data reads as "closed mid-frame";
            # one just past it spares allocating up to MAX_PAYLOAD
            data = data[:8] + (len(data) + 1).to_bytes(4, "big") + data[12:]
    return data


def _recomputed_crc(frame, mutation):
    data = b"".join(encode_frame(*frame))
    magic, version, code, _, _ = wire._PREAMBLE.unpack_from(data)
    payload = _mutate(data[wire._PREAMBLE.size:], *mutation)
    return wire._PREAMBLE.pack(magic, version, code, zlib.crc32(payload), len(payload)) + payload


class TestMutations:
    @fuzz
    @given(frames, mutations)
    def test_stale_crc_frame_is_a_frame_or_a_wire_error(self, frame, mutation):
        _decoded_or_wire_error(_stale_crc(frame, mutation))

    @fuzz
    @given(frames, mutations)
    def test_recomputed_crc_reaches_the_parser(self, frame, mutation):
        _decoded_or_wire_error(_recomputed_crc(frame, mutation))


class TestCoHostedWorker:
    @fuzz_host
    @given(frames, mutations, st.sampled_from([_stale_crc, _recomputed_crc]))
    def test_siblings_serve_on_whatever_one_worker_is_sent(self, frame, mutation, mutate):
        host = DaemonUnderTest(ids=(0, 1, 2))
        try:
            attack_end(host.ends[1], mutate(frame, mutation))
            for kind, _, _ in read_frames(host.ends[1].read_to_eof()):
                assert kind in ("result", "heartbeat_ack")
            rng = np.random.default_rng(0)
            share, v = F.random((3, 5), rng), F.random(5, rng)
            host.ends[0].served(share, v)
            host.ends[2].served(share, v)
            assert [w.wid for w in host.server.workers] == [0, 2]
        finally:
            host.close()


def read_frames(data):
    """The frames a worker sent before it hung up, in order."""
    stream = _Bytes(data)
    out = []
    while stream._buf.tell() < len(data):
        out.append(read_frame(stream))
    return out
