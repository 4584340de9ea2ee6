"""The length-prefixed binary wire protocol of the TCP backend.

Every master↔worker exchange travels as one *frame*; every integer on
the wire is big-endian::

    preamble (12 bytes):
        magic   2s   b"AV"
        version u8   PROTOCOL_VERSION
        kind    u8   message kind code (see MSG_CODES)
        crc32   u32  CRC-32 of the payload
        length  u32  payload length in bytes
    payload:
        record  the kind's fixed record (table below)
        table   u16 array count, then per array: dtype u8 (1 <i8,
                2 <u4, 3 <i4, 4 <f8 — a closed table), ndim u8, and
                ndim u64 dims
        arrays  the raw array bytes, concatenated in table order

A ``str`` is a u32 byte count and that many bytes of UTF-8. A field in
brackets is present only when its flag bit is set, and a flag that
stands for a field alone (``trace``, ``attest``) appears in the
decoded dict only when set. The record tables, kind by kind:

=================  ====================================================
``hello``          worker → master: i32 worker_id, u16 protocol,
                   u32 pid (an absent protocol or pid is sent as 0)
``config``         master → worker: i64 q, f64 straggle_scale,
                   f64 factor, i64 seed, and the fault-injection
                   behaviour as u8 kind code, i64 value and
                   f64 probability — the fleet description the
                   simulator applies in-process, shipped over the wire
``store``          master → worker: str name, + one share array. A
                   share of reduced residues travels as ``<u4`` (every
                   entry is below ``q < 2**31``; :func:`encode_store`),
                   anything else in the dtype it has; the daemon
                   validates what it stores and widens integers to
                   the resident dtype (``float64`` for a share of at
                   least ``2**18`` entries, ``int64`` below)
``round``          master → worker: u8 flags (2 trace, 4 attest),
                   u64 rid, u8 op code (0 matvec), str payload_key,
                   + the broadcast operand. ``attest`` asks the daemon
                   to countersign, ``trace`` for its own sub-spans.
                   Op codes 1 and 2 and flag bit 1 named retired
                   operations and are refused
``result``         worker → master: u8 flags (1 ok, 2 err, 4 digest,
                   8 spans), u64 rid, i32 worker_id, f64 compute_time,
                   [str err], [16 bytes digest], [u16 count, then per
                   span str name, f64 t0, f64 t1], + the result array
                   when ``ok``. ``digest`` (an attested round) is the
                   blake2b digest of the shipped result — the worker's
                   countersignature for the round's audit commitment;
                   ``spans`` (a traced round) the daemon's sub-spans
``cancel``         master → worker: u64 rid — skip this round if it is
                   still queued
``heartbeat`` /    u64 seq: liveness probes
``heartbeat_ack``
``shutdown``       master → worker: empty — drain and exit
=================  ====================================================

Array payloads (coded shares, broadcast operands, worker results) are
**not** copied into an intermediate serialization: the sender writes
each array's buffer straight to the socket after the table
(:func:`send_parts` hands the kernel a list of memoryviews), and the
receiver reconstructs arrays as zero-copy views over the received
payload (:func:`decode_payload` via ``np.frombuffer``). An array's byte
length is derived from its dtype and dims, never sent, and the arrays
must tile what follows the table exactly: each decoded array is a view
of its own consecutive slice, the last ending at the payload's end.

Integrity and compatibility are checked on every frame: a wrong magic,
an unknown protocol version, a truncated payload, a CRC mismatch, an
oversized length, a record that ends early or whose lengths run past
the payload, an unknown flag bit, op, behaviour or dtype code, an
array count past the table, or arrays that do not tile the payload
all raise :class:`WireError` with a message naming what was wrong — a
corrupted or non-protocol peer can never be silently misread as data.
"""

from __future__ import annotations

import math
import socket
import struct
import zlib
from typing import Any, Callable, Iterator, Mapping, Sequence

import numpy as np

from repro.runtime.byzantine import (
    Behavior,
    ConstantAttack,
    Honest,
    IntermittentAttack,
    RandomAttack,
    ReversedValueAttack,
    SilentFailure,
)

__all__ = [
    "Frame",
    "FrameReader",
    "MSG_CODES",
    "PROTOCOL_VERSION",
    "WireCounters",
    "WireError",
    "behavior_from_dict",
    "behavior_to_dict",
    "check_hello",
    "decode_payload",
    "encode_frame",
    "encode_store",
    "read_frame",
    "send_frame",
    "send_parts",
]


class WireCounters:
    """Wire-level tallies for one socket cluster.

    Plain attributes bumped inline by the frame read/send paths (a few
    integer adds per frame — cheap enough to keep unconditionally), so
    the counts are truthful whether or not observability is on; the
    session only *surfaces* them (``summary()``, the metrics registry)
    when it is.
    """

    __slots__ = ("bytes_in", "bytes_out", "frames_in", "frames_out",
                 "crc_rejects", "hb_rtt")

    def __init__(self) -> None:
        self.bytes_in = 0
        self.bytes_out = 0
        self.frames_in = 0
        self.frames_out = 0
        self.crc_rejects = 0
        #: worker id -> latest heartbeat round-trip time (seconds)
        self.hb_rtt: dict[int, float] = {}

    def note_in(self, nbytes: int) -> None:
        self.frames_in += 1
        self.bytes_in += nbytes

    def note_out(self, nbytes: int) -> None:
        self.frames_out += 1
        self.bytes_out += nbytes

    def collect_into(self, registry: Any, backend: str) -> None:
        """Mirror the tallies into a metrics registry (exporter pull)."""
        g = registry.gauge("wire_bytes_total", "bytes on the wire, by direction")
        g.set(self.bytes_in, backend=backend, direction="in")
        g.set(self.bytes_out, backend=backend, direction="out")
        f = registry.gauge("wire_frames_total", "frames on the wire, by direction")
        f.set(self.frames_in, backend=backend, direction="in")
        f.set(self.frames_out, backend=backend, direction="out")
        registry.gauge(
            "wire_crc_rejects_total", "frames dropped on checksum mismatch"
        ).set(self.crc_rejects, backend=backend)
        rtt = registry.gauge(
            "wire_heartbeat_rtt_seconds", "latest heartbeat round-trip, per worker"
        )
        for wid, value in list(self.hb_rtt.items()):
            rtt.set(value, backend=backend, worker=wid)

MAGIC = b"AV"
#: bumped 1 → 2 when the result frame gained the attestation ``digest``
#: field, 2 → 3 when every frame's JSON header became a fixed binary
#: record. The preamble's version byte turns a peer of another version
#: away with an error naming both (``read_frame``), and the hello's
#: ``protocol`` field is checked on top of it (:func:`check_hello`).
PROTOCOL_VERSION = 3
#: preamble: magic, version, kind code, payload crc32, payload length
_PREAMBLE = struct.Struct(">2sBBII")
#: hard upper bound on one frame's payload (a corrupt length field must
#: not make the receiver try to allocate the universe)
MAX_PAYLOAD = 1 << 31


class WireError(RuntimeError):
    """A malformed, truncated or incompatible frame."""


class Frame(list):
    """One encoded frame: its buffers, preamble first, ready for a
    scatter-gather send, and their total length. ``b"".join(frame)``
    is the frame as one bytes object."""

    __slots__ = ("nbytes",)


def check_hello(fields: Mapping[str, Any]) -> int:
    """Validate a ``hello`` frame's negotiated protocol version and
    worker id; returns the id.

    The frame preamble's version byte already guards against a peer
    speaking a different *framing*; the hello's ``protocol`` field is
    the application-level negotiation on top of it — a daemon built
    against a different protocol revision frames its hello correctly
    but must still be turned away, with an error naming both versions,
    instead of being admitted and failing mid-round.
    """
    try:
        wid = int(fields["worker_id"])
    except (KeyError, TypeError, ValueError):
        raise WireError(
            f"hello carries no usable worker_id: {fields.get('worker_id')!r}"
        ) from None
    if wid < 0:
        raise WireError(f"hello worker_id must be >= 0, got {wid}")
    peer = fields.get("protocol")
    if peer != PROTOCOL_VERSION:
        raise WireError(
            f"hello protocol version mismatch: worker {wid} speaks "
            f"{peer!r}, this master speaks {PROTOCOL_VERSION} — "
            "rejecting the registration"
        )
    return wid


# ----------------------------------------------------------------------
# records: one encoder (fields -> bytes) and one decoder
# (payload -> fields, offset past the record) per kind
# ----------------------------------------------------------------------
_STRLEN = struct.Struct(">I")
_CONFIG = struct.Struct(">qddqBqd")
_ROUND = struct.Struct(">BQB")
_RESULT = struct.Struct(">BQid")
_SPAN = struct.Struct(">dd")
_COUNT = struct.Struct(">H")
_ARRAY = struct.Struct(">BB")

_OPS = ("matvec",)
_OP_CODES = {op: code for code, op in enumerate(_OPS)}
#: behaviour kind codes of the config record; reverse and constant
#: carry a value, and they and random a probability
_BEHAVIORS = ("honest", "reverse", "constant", "random", "silent")
_BEHAVIOR_CODES = {kind: code for code, kind in enumerate(_BEHAVIORS)}

_TRACE, _ATTEST = 2, 4
_OK, _ERR, _DIGEST, _SPANS = 1, 2, 4, 8
_DIGEST_LEN = 16


def _str(value: str) -> bytes:
    data = value.encode()
    return _STRLEN.pack(len(data)) + data


def _take_str(buf: memoryview, off: int) -> tuple[str, int]:
    (n,) = _STRLEN.unpack_from(buf, off)
    start = off + _STRLEN.size
    end = start + n
    if end > len(buf):
        raise WireError(
            f"string of {n} bytes at offset {start} runs past the payload "
            f"of {len(buf)} bytes"
        )
    try:
        return str(buf[start:end], "utf-8"), end
    except UnicodeDecodeError as exc:
        raise WireError(f"string at offset {start} is not UTF-8: {exc}") from None


def _check_flags(kind: str, flags: int, known: int) -> None:
    if flags & ~known:
        raise WireError(f"{kind} record sets unknown flag bits {flags & ~known:#04x}")


def _fixed(fmt: str, *keys: str, **defaults: Any) -> tuple[frozenset, Callable, Callable]:
    """The keys, encoder and decoder of a record of fixed-width fields
    only; a key in ``defaults`` may be absent from the fields."""
    record = struct.Struct(fmt)

    def enc(f: Mapping[str, Any]) -> bytes:
        return record.pack(*[f[k] if k in f else defaults[k] for k in keys])

    def dec(buf: memoryview) -> tuple[dict, int]:
        return dict(zip(keys, record.unpack_from(buf))), record.size

    return frozenset(keys), enc, dec


def _enc_config(f: Mapping[str, Any]) -> bytes:
    # the canonical description: absent values take the defaults the
    # daemon would apply, so the record has a value for every slot
    desc = behavior_to_dict(behavior_from_dict(f["behavior"]))
    return _CONFIG.pack(
        f["q"], f["straggle_scale"], f["factor"], f["seed"],
        _BEHAVIOR_CODES[desc["kind"]], desc.get("value", 0), desc.get("probability", 1.0),
    )


def _dec_config(buf: memoryview) -> tuple[dict, int]:
    q, scale, factor, seed, code, value, probability = _CONFIG.unpack_from(buf)
    if code >= len(_BEHAVIORS):
        raise WireError(f"unknown behaviour code {code} in config")
    desc: dict[str, Any] = {"kind": _BEHAVIORS[code]}
    if desc["kind"] in ("reverse", "constant"):
        desc["value"] = value
    if desc["kind"] in ("reverse", "constant", "random"):
        desc["probability"] = probability
    fields = {
        "q": q, "straggle_scale": scale, "factor": factor, "behavior": desc, "seed": seed,
    }
    return fields, _CONFIG.size


def _enc_store(f: Mapping[str, Any]) -> bytes:
    return _str(f["name"])


def _dec_store(buf: memoryview) -> tuple[dict, int]:
    name, off = _take_str(buf, 0)
    return {"name": name}, off


def _enc_round(f: Mapping[str, Any]) -> bytes:
    # an ``rhs_key`` of None is accepted and sends nothing: the e2e
    # benchmark's wire probe (``benchmarks/e2e/probes.py``) still
    # encodes one until that probe stops reading ``RoundJob.rhs_key``
    if f.get("rhs_key") is not None:
        raise ValueError("no round names a second payload key")
    flags = 0
    if f.get("trace"):
        flags |= _TRACE
    if f.get("attest"):
        flags |= _ATTEST
    return _ROUND.pack(flags, f["rid"], _OP_CODES[f["op"]]) + _str(f["payload_key"])


def _dec_round(buf: memoryview) -> tuple[dict, int]:
    flags, rid, op = _ROUND.unpack_from(buf)
    _check_flags("round", flags, _TRACE | _ATTEST)
    if op >= len(_OPS):
        raise WireError(f"unknown round op code {op}")
    payload_key, off = _take_str(buf, _ROUND.size)
    fields = {"rid": rid, "op": _OPS[op], "payload_key": payload_key}
    if flags & _TRACE:
        fields["trace"] = True
    if flags & _ATTEST:
        fields["attest"] = True
    return fields, off


def _enc_result(f: Mapping[str, Any]) -> bytes:
    flags = _OK if f["ok"] else 0
    tail = b""
    err, digest, spans = f.get("err"), f.get("digest"), f.get("spans")
    if err is not None:
        flags |= _ERR
        tail += _str(err)
    if digest is not None:
        flags |= _DIGEST
        raw = bytes.fromhex(digest)
        if len(raw) != _DIGEST_LEN:
            raise ValueError(f"digest must be {_DIGEST_LEN} bytes, got {len(raw)}")
        tail += raw
    if spans is not None:
        flags |= _SPANS
        tail += _COUNT.pack(len(spans)) + b"".join(
            _str(name) + _SPAN.pack(t0, t1) for name, t0, t1 in spans
        )
    return _RESULT.pack(flags, f["rid"], f["worker_id"], f["compute_time"]) + tail


def _dec_result(buf: memoryview) -> tuple[dict, int]:
    flags, rid, wid, compute_time = _RESULT.unpack_from(buf)
    _check_flags("result", flags, _OK | _ERR | _DIGEST | _SPANS)
    off = _RESULT.size
    err = None
    if flags & _ERR:
        err, off = _take_str(buf, off)
    fields = {
        "rid": rid, "worker_id": wid, "compute_time": compute_time,
        "ok": bool(flags & _OK), "err": err,
    }
    if flags & _DIGEST:
        end = off + _DIGEST_LEN
        if end > len(buf):
            raise WireError(f"digest at offset {off} runs past the payload of {len(buf)} bytes")
        fields["digest"] = buf[off:end].hex()
        off = end
    if flags & _SPANS:
        (count,) = _COUNT.unpack_from(buf, off)
        off += _COUNT.size
        spans = []
        for _ in range(count):
            name, off = _take_str(buf, off)
            t0, t1 = _SPAN.unpack_from(buf, off)
            off += _SPAN.size
            spans.append([name, t0, t1])
        fields["spans"] = spans
    return fields, off


#: kind -> (code, the keys its record carries, encoder, decoder)
_KINDS: dict[str, tuple[int, frozenset, Callable, Callable]] = {
    "hello": (1, *_fixed(">iHI", "worker_id", "protocol", "pid", protocol=0, pid=0)),
    "config": (
        2, frozenset(("q", "straggle_scale", "factor", "behavior", "seed")),
        _enc_config, _dec_config,
    ),
    "store": (3, frozenset(("name",)), _enc_store, _dec_store),
    # ``rhs_key`` (None only, see ``_enc_round``) is read by the e2e
    # benchmark's wire probe until that probe stops reading it
    "round": (
        4, frozenset(("rid", "op", "payload_key", "rhs_key", "trace", "attest")),
        _enc_round, _dec_round,
    ),
    "result": (
        5, frozenset(("rid", "worker_id", "compute_time", "ok", "err", "digest", "spans")),
        _enc_result, _dec_result,
    ),
    "cancel": (6, *_fixed(">Q", "rid")),
    "heartbeat": (7, *_fixed(">Q", "seq")),
    "heartbeat_ack": (8, *_fixed(">Q", "seq")),
    "shutdown": (9, *_fixed(">")),
}
MSG_CODES = {kind: spec[0] for kind, spec in _KINDS.items()}
_BY_CODE = {spec[0]: (kind, spec[3]) for kind, spec in _KINDS.items()}

#: the closed dtype table: what this build sends (``<i8`` operands and
#: results, ``<u4`` reduced shares, any integer share as it is) and
#: ``<f8``, which a store must be able to carry to meet validation
_DTYPES = {1: np.dtype("<i8"), 2: np.dtype("<u4"), 3: np.dtype("<i4"), 4: np.dtype("<f8")}
_DTYPE_CODES = {dtype: code for code, dtype in _DTYPES.items()}
#: numpy 1's limit on ndim (numpy 2 allows 64)
_MAX_NDIM = 32
#: per ndim: the dims of a table entry, and a whole entry
_DIMS = [struct.Struct(f">{n}Q") for n in range(_MAX_NDIM + 1)]
_ENTRIES = [struct.Struct(f">BB{n}Q") for n in range(_MAX_NDIM + 1)]


# ----------------------------------------------------------------------
# encoding
# ----------------------------------------------------------------------
def encode_frame(
    kind: str, fields: Mapping[str, Any], arrays: Sequence[np.ndarray] = ()
) -> Frame:
    """Encode one frame as a :class:`Frame` (preamble, record and table
    first, then each array's raw bytes). A field the kind's record
    does not carry, or a value that does not fit its slot, is a
    :class:`WireError`, never dropped or truncated."""
    try:
        code, keys, encode, _ = _KINDS[kind]
    except KeyError:
        raise WireError(f"unknown message kind {kind!r}") from None
    if not fields.keys() <= keys:
        raise WireError(f"a {kind} record has no field {sorted(fields.keys() - keys)}")
    try:
        record = encode(fields)
    except (KeyError, TypeError, ValueError, AttributeError, struct.error) as exc:
        raise WireError(f"{kind} fields do not fit its record: {exc!r}") from None
    head_parts = [record, _COUNT.pack(len(arrays))]
    bufs = []
    for arr in arrays:
        arr = np.asarray(arr, order="C")  # ascontiguousarray would make a 0-d array 1-d
        dtype_code = _DTYPE_CODES.get(arr.dtype)
        if dtype_code is None:
            raise WireError(f"dtype {arr.dtype.str} has no wire code")
        if arr.ndim > _MAX_NDIM:
            raise WireError(f"array of {arr.ndim} dims exceeds {_MAX_NDIM}")
        head_parts.append(_ENTRIES[arr.ndim].pack(dtype_code, arr.ndim, *arr.shape))
        if arr.nbytes:  # an empty array has no bytes, and no view to cast
            bufs.append(arr.data.cast("B"))
    head = b"".join(head_parts)
    length = len(head) + sum(b.nbytes for b in bufs)
    if length > MAX_PAYLOAD:
        raise WireError(f"frame payload of {length} bytes exceeds MAX_PAYLOAD")
    crc = zlib.crc32(head)
    for buf in bufs:
        crc = zlib.crc32(buf, crc)
    frame = Frame((_PREAMBLE.pack(MAGIC, PROTOCOL_VERSION, code, crc, length) + head, *bufs))
    frame.nbytes = _PREAMBLE.size + length
    return frame


def encode_store(name: str, share: np.ndarray, q: int) -> Frame:
    """The ``store`` frame of one worker's share.

    An ``int64`` share whose entries all lie in ``[0, q)`` is narrowed
    to ``<u4`` — half the bytes to checksum, send and receive, and the
    dtype travels in the array table, so the frame layout is the
    one every daemon already reads. Anything else (out of range, float,
    another dtype) is framed as it is and meets the daemon's
    store-time validation unchanged.
    """
    share = np.asarray(share)
    if share.dtype == np.int64 and share.size and share.min() >= 0 and share.max() < q:
        share = share.astype("<u4")
    return encode_frame("store", {"name": name}, (share,))


def send_frame(
    sock: socket.socket,
    kind: str,
    fields: Mapping[str, Any],
    arrays: Sequence[np.ndarray] = (),
    counters: WireCounters | None = None,
) -> None:
    """Write one frame to ``sock`` (scatter-gather; arrays are never
    copied into an intermediate buffer)."""
    send_parts(sock, encode_frame(kind, fields, arrays), counters=counters)


def send_parts(
    sock: socket.socket, frame: Frame, counters: WireCounters | None = None
) -> None:
    """Write one pre-encoded frame (broadcasts encode once, send to
    many). Each side sends on a socket from one thread only."""
    # without sendmsg, every part goes by sendall
    sent = sock.sendmsg(frame) if hasattr(sock, "sendmsg") else 0
    if sent != frame.nbytes:
        # short gather-write: resume at the offset, still zero-copy —
        # skip fully-sent parts and sendall the remaining views
        for part in frame:
            view = part if isinstance(part, memoryview) else memoryview(part)
            n = view.nbytes
            if sent >= n:
                sent -= n
                continue
            sock.sendall(view[sent:] if sent else view)
            sent = 0
    if counters is not None:
        counters.note_out(frame.nbytes)


# ----------------------------------------------------------------------
# decoding
# ----------------------------------------------------------------------
def _recv_exact(sock: socket.socket, n: int) -> memoryview:
    buf = bytearray(n)
    view = memoryview(buf)
    got = 0
    while got < n:
        r = sock.recv_into(view[got:])
        if r == 0:
            raise WireError(
                f"connection closed mid-frame ({got} of {n} bytes received)"
            )
        got += r
    return view


def _take_arrays(buf: memoryview, off: int) -> list[np.ndarray]:
    """The array table at ``off`` and the arrays it describes, which
    must fill the payload from the table's end to the payload's end."""
    size = len(buf)
    (count,) = _COUNT.unpack_from(buf, off)
    off += _COUNT.size
    specs = []
    for i in range(count):
        if off + _ARRAY.size > size:
            raise WireError(f"array table of {count} entries ends after {i}")
        dtype_code, ndim = _ARRAY.unpack_from(buf, off)
        off += _ARRAY.size
        dtype = _DTYPES.get(dtype_code)
        if dtype is None:
            raise WireError(f"unknown dtype code {dtype_code} in array table entry {i}")
        if ndim > _MAX_NDIM:
            raise WireError(f"array table entry {i} has {ndim} dims, more than {_MAX_NDIM}")
        dims = _DIMS[ndim]
        if off + dims.size > size:
            raise WireError(f"array table of {count} entries ends inside entry {i}")
        shape = dims.unpack_from(buf, off)
        off += dims.size
        specs.append((dtype, shape))
    arrays = []
    for dtype, shape in specs:
        n = math.prod(shape)
        nbytes = n * dtype.itemsize
        if nbytes > size - off:
            raise WireError(
                f"array of shape {shape} ({nbytes} bytes) overruns the payload "
                f"by {nbytes - (size - off)} bytes"
            )
        try:
            arrays.append(np.frombuffer(buf, dtype, n, off).reshape(shape))
        except (ValueError, OverflowError) as exc:
            # a zero-size array whose other dims numpy cannot index
            raise WireError(f"array of shape {shape} does not decode: {exc}") from None
        off += nbytes
    if off != size:
        raise WireError(f"{size - off} trailing bytes after the declared arrays")
    return arrays


def decode_payload(code: int, payload: memoryview) -> tuple[str, dict, list[np.ndarray]]:
    """Decode one validated payload into ``(kind, fields, arrays)``.

    Arrays are zero-copy views over ``payload``; callers that keep an
    array beyond the frame's lifetime own the backing buffer through
    the array itself (numpy holds the reference).
    """
    try:
        kind, decode = _BY_CODE[code]
    except KeyError:
        raise WireError(f"unknown message code {code}") from None
    try:
        fields, off = decode(payload)
        arrays = _take_arrays(payload, off)
    except struct.error as exc:
        raise WireError(
            f"{kind} frame of {len(payload)} bytes ends inside its record "
            f"or array table: {exc}"
        ) from None
    return kind, fields, arrays


def _check_preamble(pre: memoryview) -> tuple[int, int, int]:
    """The kind code, payload CRC and payload length of a preamble."""
    magic, version, code, crc, length = _PREAMBLE.unpack(pre)
    if magic != MAGIC:
        raise WireError(f"bad magic {bytes(magic)!r} (not an AVCC protocol peer?)")
    if version != PROTOCOL_VERSION:
        raise WireError(
            f"protocol version mismatch: peer speaks {version}, "
            f"this build speaks {PROTOCOL_VERSION}"
        )
    if length > MAX_PAYLOAD:
        raise WireError(f"declared payload of {length} bytes exceeds MAX_PAYLOAD")
    return code, crc, length


def _check_payload(
    code: int, crc: int, payload: memoryview, counters: WireCounters | None = None
) -> tuple[str, dict, list[np.ndarray]]:
    if counters is not None:
        counters.note_in(_PREAMBLE.size + len(payload))
    if zlib.crc32(payload) != crc:
        if counters is not None:
            counters.crc_rejects += 1
        raise WireError("payload checksum mismatch (corrupted frame)")
    return decode_payload(code, payload)


def read_frame(
    sock: socket.socket, counters: WireCounters | None = None
) -> tuple[str, dict, list[np.ndarray]]:
    """Read exactly one frame; raises :class:`WireError` on anything
    that is not a well-formed, checksummed protocol frame."""
    code, crc, length = _check_preamble(_recv_exact(sock, _PREAMBLE.size))
    return _check_payload(code, crc, _recv_exact(sock, length), counters)


class FrameReader:
    """:func:`read_frame` for a loop that must not block on one socket:
    :meth:`frames` yields each whole frame the socket holds, without
    waiting, and keeps a frame cut short for the next call. Payloads
    land in buffers of their own, so arrays stay zero-copy."""

    def __init__(self) -> None:
        self._pre = self._view = memoryview(bytearray(_PREAMBLE.size))
        self._got, self._head = 0, None

    def frames(self, sock: socket.socket) -> Iterator[tuple[str, dict, list[np.ndarray]]]:
        """Raises :class:`WireError` at EOF or at a malformed frame,
        after yielding every whole frame before it."""
        while True:
            try:
                got = sock.recv_into(self._view[self._got:], 0, socket.MSG_DONTWAIT)
            except (BlockingIOError, InterruptedError):
                return
            if got == 0:
                raise WireError(f"connection closed ({self._got} bytes into a part)")
            self._got += got
            if self._got < len(self._view):
                continue
            if self._head is None:
                self._head = _check_preamble(self._pre)
                self._view, self._got = memoryview(bytearray(self._head[2])), 0
                if self._head[2]:
                    continue
            (code, crc, _), payload = self._head, self._view
            self._head, self._view, self._got = None, self._pre, 0
            yield _check_payload(code, crc, payload)


# ----------------------------------------------------------------------
# behaviour descriptions (the CONFIG message's fault-injection half)
# ----------------------------------------------------------------------
def behavior_to_dict(behavior: Behavior) -> dict[str, Any]:
    """Describe a built-in behaviour as plain data, so the master can
    ship the same fleet description the simulator applies
    directly. Custom behaviours cannot travel (they are code, and the
    wire carries data): raise with a pointer to the daemon's own
    injection flags."""
    probability = 1.0
    if isinstance(behavior, IntermittentAttack):
        probability = behavior.probability
        behavior = behavior.inner
    if isinstance(behavior, Honest):
        return {"kind": "honest"}
    if isinstance(behavior, ReversedValueAttack):
        return {"kind": "reverse", "value": behavior.c, "probability": probability}
    if isinstance(behavior, ConstantAttack):
        return {"kind": "constant", "value": behavior.value, "probability": probability}
    if isinstance(behavior, RandomAttack):
        return {"kind": "random", "probability": probability}
    if isinstance(behavior, SilentFailure):
        return {"kind": "silent"}
    raise ValueError(
        f"behaviour {type(behavior).__name__} is not wire-serializable; the tcp "
        "backend ships only the built-in behaviours — start the worker daemon "
        "with its own --behavior flag for custom injection"
    )


def behavior_from_dict(desc: Mapping[str, Any]) -> Behavior:
    """Inverse of :func:`behavior_to_dict` (worker side)."""
    kind = desc.get("kind", "honest")
    probability = float(desc.get("probability", 1.0))
    if kind == "honest":
        return Honest()
    if kind == "silent":
        return SilentFailure()
    if kind == "reverse":
        inner: Behavior = ReversedValueAttack(c=int(desc.get("value", 1)))
    elif kind == "constant":
        inner = ConstantAttack(value=int(desc.get("value", 1000)))
    elif kind == "random":
        inner = RandomAttack()
    else:
        raise WireError(f"unknown behaviour kind {kind!r} in config")
    if probability < 1.0:
        return IntermittentAttack(inner, probability=probability)
    return inner
