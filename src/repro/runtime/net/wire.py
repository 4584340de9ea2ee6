"""The length-prefixed binary wire protocol of the TCP backend.

Every master↔worker exchange travels as one *frame*::

    preamble (12 bytes, big-endian):
        magic   2s   b"AV"
        version B    PROTOCOL_VERSION
        kind    B    message kind code (see MSG_CODES)
        crc32   I    CRC-32 of the payload
        length  I    payload length in bytes
    payload:
        header_len  u32
        header      header_len bytes of UTF-8 JSON (the message fields,
                    plus "_arrays": [[dtype, shape, nbytes], ...])
        buffers     the raw array bytes, concatenated in header order

Array payloads (coded shares, broadcast operands, worker results) are
**not** copied into an intermediate serialization: the sender writes
each array's buffer straight to the socket after the JSON header
(:func:`send_frame` hands the kernel a list of memoryviews), and the
receiver reconstructs arrays as zero-copy views over the received
payload (:func:`decode_payload` via ``np.frombuffer``) using the
dtype/shape descriptors from the header.

Integrity and compatibility are checked on every frame: a wrong magic,
an unknown protocol version, a truncated payload, a CRC mismatch, an
oversized length or a malformed header all raise :class:`WireError`
with a message naming what was wrong — a corrupted or non-protocol
peer can never be silently misread as data.

Message kinds
-------------
``hello``          worker → master: ``{worker_id, protocol, pid}``
``config``         master → worker: ``{q, straggle_scale, factor,
                   behavior, seed}`` — the fleet description the other
                   backends apply in-process, shipped over the wire
``store``          master → worker: ``{name}`` + one share array. A
                   share of reduced residues travels as ``<u4`` (every
                   entry is below ``q < 2**31``; :func:`encode_store`),
                   anything else in the dtype it has; the daemon widens
                   integers to ``int64`` and validates what it stores
``round``          master → worker: ``{rid, op, payload_key, rhs_key}``
                   (+ the broadcast operand, when the op has one);
                   carries ``attest: true`` when the session armed
                   auditing, asking the daemon to countersign
``result``         worker → master: ``{rid, worker_id, compute_time,
                   ok, err}`` (+ the result array when ``ok``); on an
                   attested round the daemon adds ``digest``, the
                   blake2b digest of the shipped result — the worker's
                   countersignature for the round's audit commitment
``cancel``         master → worker: ``{rid}`` — skip this round if it
                   is still queued
``heartbeat`` / ``heartbeat_ack``: ``{seq}`` liveness probes
``shutdown``       master → worker: drain and exit
"""

from __future__ import annotations

import json
import socket
import struct
import zlib
from typing import Any, Mapping, Sequence

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
#: field: the hello-level negotiation (:func:`check_hello`) turns away
#: daemons from either side of the bump with an error naming both
#: versions, instead of admitting a fleet that cannot countersign.
PROTOCOL_VERSION = 2
#: preamble: magic, version, kind code, payload crc32, payload length
_PREAMBLE = struct.Struct(">2sBBII")
_HEADER_LEN = struct.Struct(">I")
#: hard upper bound on one frame's payload (a corrupt length field must
#: not make the receiver try to allocate the universe)
MAX_PAYLOAD = 1 << 31

MSG_CODES = {
    "hello": 1,
    "config": 2,
    "store": 3,
    "round": 4,
    "result": 5,
    "cancel": 6,
    "heartbeat": 7,
    "heartbeat_ack": 8,
    "shutdown": 9,
}
_CODE_NAMES = {code: name for name, code in MSG_CODES.items()}


class WireError(RuntimeError):
    """A malformed, truncated or incompatible frame."""


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
# encoding
# ----------------------------------------------------------------------
def _array_parts(arrays: Sequence[np.ndarray]) -> tuple[list[dict], list[memoryview]]:
    descs, bufs = [], []
    for arr in arrays:
        arr = np.ascontiguousarray(arr)
        descs.append(
            {"dtype": arr.dtype.str, "shape": list(arr.shape), "nbytes": arr.nbytes}
        )
        bufs.append(arr.data.cast("B"))
    return descs, bufs


def encode_frame(
    kind: str, fields: Mapping[str, Any], arrays: Sequence[np.ndarray] = ()
) -> list[bytes | memoryview]:
    """Encode one frame as a list of buffers (preamble+header first,
    then each array's raw bytes — ready for a scatter-gather send).
    ``b"".join(...)`` the result to get the frame as one bytes object.
    """
    try:
        code = MSG_CODES[kind]
    except KeyError:
        raise WireError(f"unknown message kind {kind!r}") from None
    descs, bufs = _array_parts(arrays)
    header = dict(fields)
    header["_arrays"] = descs
    header_bytes = json.dumps(header, separators=(",", ":")).encode()
    head = _HEADER_LEN.pack(len(header_bytes)) + header_bytes
    length = len(head) + sum(b.nbytes for b in bufs)
    if length > MAX_PAYLOAD:
        raise WireError(f"frame payload of {length} bytes exceeds MAX_PAYLOAD")
    crc = zlib.crc32(head)
    for buf in bufs:
        crc = zlib.crc32(buf, crc)
    preamble = _PREAMBLE.pack(MAGIC, PROTOCOL_VERSION, code, crc, length)
    return [preamble + head, *bufs]


def encode_store(name: str, share: np.ndarray, q: int) -> list[bytes | memoryview]:
    """The ``store`` frame of one worker's share.

    An ``int64`` share whose entries all lie in ``[0, q)`` is narrowed
    to ``<u4`` — half the bytes to checksum, send and receive, and the
    dtype travels in the array descriptor, so the frame layout is the
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
    lock: Any = None,
    counters: WireCounters | None = None,
) -> None:
    """Write one frame to ``sock`` (scatter-gather; arrays are never
    copied into an intermediate buffer). ``lock`` serializes writers
    when more than one thread sends on the same socket."""
    send_parts(sock, encode_frame(kind, fields, arrays), lock=lock, counters=counters)


def send_parts(
    sock: socket.socket,
    parts: list[bytes | memoryview],
    lock: Any = None,
    counters: WireCounters | None = None,
) -> None:
    """Write one pre-encoded frame (broadcasts encode once, send to
    many). ``lock`` serializes concurrent writers on one socket."""
    if lock is not None:
        with lock:
            _send_parts(sock, parts)
    else:
        _send_parts(sock, parts)
    if counters is not None:
        counters.note_out(
            sum(p.nbytes if isinstance(p, memoryview) else len(p) for p in parts)
        )


def _send_parts(sock: socket.socket, parts: list[bytes | memoryview]) -> None:
    if hasattr(sock, "sendmsg"):
        total = sum(
            p.nbytes if isinstance(p, memoryview) else len(p) for p in parts
        )
        sent = sock.sendmsg(parts)
        if sent == total:
            return
        # short gather-write: resume at the offset, still zero-copy —
        # skip fully-sent parts and sendall the remaining views
        for part in parts:
            view = part if isinstance(part, memoryview) else memoryview(part)
            n = view.nbytes
            if sent >= n:
                sent -= n
                continue
            sock.sendall(view[sent:] if sent else view)
            sent = 0
        return
    for part in parts:  # pragma: no cover - no-sendmsg fallback
        sock.sendall(part)


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


def decode_payload(code: int, payload: memoryview) -> tuple[str, dict, list[np.ndarray]]:
    """Decode one validated payload into ``(kind, fields, arrays)``.

    Arrays are zero-copy views over ``payload``; callers that keep an
    array beyond the frame's lifetime own the backing buffer through
    the array itself (numpy holds the reference).
    """
    kind = _CODE_NAMES.get(code)
    if kind is None:
        raise WireError(f"unknown message code {code}")
    if len(payload) < _HEADER_LEN.size:
        raise WireError(f"frame payload of {len(payload)} bytes is too short")
    (header_len,) = _HEADER_LEN.unpack_from(payload)
    end = _HEADER_LEN.size + header_len
    if end > len(payload):
        raise WireError(
            f"header length {header_len} exceeds payload of {len(payload)} bytes"
        )
    try:
        header = json.loads(bytes(payload[_HEADER_LEN.size:end]).decode())
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise WireError(f"malformed frame header: {exc}") from None
    if not isinstance(header, dict) or "_arrays" not in header:
        raise WireError("frame header is not an object with an '_arrays' entry")
    descs = header.pop("_arrays")
    arrays = []
    offset = end
    for desc in descs:
        try:
            dtype = np.dtype(desc["dtype"])
            shape = tuple(int(s) for s in desc["shape"])
            nbytes = int(desc["nbytes"])
        except (KeyError, TypeError, ValueError) as exc:
            raise WireError(f"malformed array descriptor {desc!r}: {exc}") from None
        if offset + nbytes > len(payload):
            raise WireError(
                f"array of {nbytes} bytes overruns payload of {len(payload)} bytes"
            )
        try:
            arrays.append(
                np.frombuffer(payload[offset:offset + nbytes], dtype=dtype).reshape(shape)
            )
        except ValueError as exc:
            raise WireError(f"array descriptor {desc!r} does not decode: {exc}") from None
        offset += nbytes
    if offset != len(payload):
        raise WireError(
            f"{len(payload) - offset} trailing bytes after the declared arrays"
        )
    return kind, header, arrays


def read_frame(
    sock: socket.socket, counters: WireCounters | None = None
) -> tuple[str, dict, list[np.ndarray]]:
    """Read exactly one frame; raises :class:`WireError` on anything
    that is not a well-formed, checksummed protocol frame."""
    pre = _recv_exact(sock, _PREAMBLE.size)
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
    payload = _recv_exact(sock, length)
    if counters is not None:
        counters.note_in(_PREAMBLE.size + length)
    if zlib.crc32(payload) != crc:
        if counters is not None:
            counters.crc_rejects += 1
        raise WireError("payload checksum mismatch (corrupted frame)")
    return decode_payload(code, payload)


# ----------------------------------------------------------------------
# behaviour descriptions (the CONFIG message's fault-injection half)
# ----------------------------------------------------------------------
def behavior_to_dict(behavior: Behavior) -> dict[str, Any]:
    """Describe a built-in behaviour as plain JSON-able data, so the
    master can ship the same fleet description the in-process backends
    apply directly. Custom behaviours cannot travel (they are code,
    and the wire carries data): raise with a pointer to the daemon's
    own injection flags."""
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
