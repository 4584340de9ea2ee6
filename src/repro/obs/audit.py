"""Tamper-evident serving provenance: the hash-chained round audit log.

Every round the masters run is *verified* (Freivalds checks) before
its decode is trusted — this module makes that evidence durable. With ``SessionConfig.audit=True`` the session arms
every master with one shared :class:`AuditLog`, and each finalized
round appends one :class:`RoundCommitment`:

* the round's family and the scheme config ``(N_t, K_t, S, M)`` in
  effect,
* blake2b digests of the broadcast operand and the decoded output,
* the participating worker set with a per-worker digest of every
  result the master received — on the socket backends the worker
  daemons *countersign* by shipping a digest of their computed share
  in the result frame, and workers whose self-reported digest matches
  the master-side digest of the received bytes are listed as
  ``attested``,
* the verify verdicts: accepted workers, rejected workers, and the
  round's batch-verification outcome,
* the previous record's hash.

Records chain through :func:`record_hash` (canonical-JSON blake2b over
the record body, which includes ``prev``), so any mutation, reordering
or deletion anywhere in the chain breaks every later link.
:func:`verify_chain` walks a chain — in-memory or re-loaded from the
JSONL sink — and raises :class:`ChainError` naming the first offending
sequence number.

Threat model (see the README "Audit & provenance" section): the chain
is tamper-*evident*, not tamper-*proof* — the master writes it, so a
malicious master can fabricate a consistent chain. What it proves to a
tenant or auditor who trusts the master (or holds the chain head from
an independent channel, e.g. the live ``/audit`` endpoint or a
recorded trace): which workers computed a result, that Byzantine
rejections actually happened, and that no record was altered after the
fact.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import IO, Any, Iterable, Mapping, Sequence

import numpy as np

__all__ = [
    "AuditLog",
    "ChainError",
    "GENESIS",
    "RoundCommitment",
    "digest_array",
    "diff_chains",
    "load_jsonl",
    "record_hash",
    "verify_chain",
]

#: the ``prev`` value of the first record in a chain
GENESIS = "0" * 64

#: field order of the canonical record body (hashed representation)
_BODY_FIELDS = (
    "seq",
    "family",
    "scheme",
    "operand_digest",
    "output_digest",
    "workers",
    "worker_digests",
    "attested",
    "accepted",
    "rejected",
    "verify_ok",
    "t_end",
    "prev",
)


#: canonical-JSON encoder for record bodies — sorted keys, no
#: whitespace — cached because building one per json.dumps call is
#: measurable on the audited hot path (once per round)
_CANON = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode

#: (dtype.str, shape) -> encoded digest tag; shapes repeat every round
_TAG_CACHE: dict[tuple[str, tuple[int, ...]], bytes] = {}


def digest_array(value: Any) -> str:
    """Blake2b hex digest of one array's dtype, shape and bytes — the
    unit of commitment for operands, decoded outputs and per-worker
    results. Both ends of the wire compute the identical digest for
    the identical array, which is what makes worker countersignatures
    comparable to master-side recomputation.

    This sits on the audited hot path (every result of every round),
    so wide integer arrays are hashed in a 4-byte canonical form:
    every committed array holds field elements, and exact int64
    products bound the field below ``2**31``, so the downcast is
    lossless for anything the serving stack commits. The dtype/shape
    tag still binds the digest to the original type and geometry."""
    arr = np.ascontiguousarray(value)
    data = arr
    if arr.dtype.kind in "iu" and arr.dtype.itemsize > 4:
        data = arr.astype("<i4")
    h = hashlib.blake2b(data.data, digest_size=16)
    key = (arr.dtype.str, arr.shape)
    tag = _TAG_CACHE.get(key)
    if tag is None:
        if len(_TAG_CACHE) > 1024:
            _TAG_CACHE.clear()
        tag = _TAG_CACHE[key] = f"{key[0]}{key[1]}".encode()
    h.update(tag)
    return h.hexdigest()


def record_hash(body: Mapping[str, Any]) -> str:
    """The chain hash of one record body (everything except ``hash``
    itself), over canonical JSON — sorted keys, no whitespace — so a
    dumped-and-reloaded record hashes identically."""
    payload = {k: body[k] for k in _BODY_FIELDS}
    return hashlib.blake2b(_CANON(payload).encode(), digest_size=32).hexdigest()


class ChainError(ValueError):
    """A chain failed verification. ``seq`` names the first offending
    record (its position in the chain, 0-based); ``reason`` says what
    broke there."""

    def __init__(self, seq: int, reason: str) -> None:
        super().__init__(f"audit chain broken at record {seq}: {reason}")
        self.seq = seq
        self.reason = reason


@dataclass(frozen=True)
class RoundCommitment:
    """One round's committed evidence (immutable, JSON-able).

    ``worker_digests`` pairs every worker whose result the master
    received with the digest of that result — including workers later
    *rejected* by verification, so the evidence of a Byzantine share
    survives. ``attested`` lists the subset whose daemon-countersigned
    digest matched the master-side digest (empty on the simulator,
    which ships no frames to countersign).
    """

    seq: int
    family: str
    scheme: tuple[int, int, int, int]  # (N_t, K_t, S, M)
    operand_digest: str
    output_digest: str
    workers: tuple[int, ...]
    worker_digests: tuple[tuple[int, str], ...]
    attested: tuple[int, ...]
    accepted: tuple[int, ...]
    rejected: tuple[int, ...]
    verify_ok: bool
    t_end: float
    prev: str
    hash: str = ""

    def body(self) -> dict[str, Any]:
        """The hashed representation (everything except ``hash``)."""
        return {
            "seq": self.seq,
            "family": self.family,
            "scheme": list(self.scheme),
            "operand_digest": self.operand_digest,
            "output_digest": self.output_digest,
            "workers": list(self.workers),
            "worker_digests": [[w, d] for w, d in self.worker_digests],
            "attested": list(self.attested),
            "accepted": list(self.accepted),
            "rejected": list(self.rejected),
            "verify_ok": self.verify_ok,
            "t_end": self.t_end,
            "prev": self.prev,
        }

    def to_dict(self) -> dict[str, Any]:
        out = self.body()
        out["hash"] = self.hash
        return out

    @classmethod
    def from_dict(cls, row: Mapping[str, Any]) -> "RoundCommitment":
        return cls(
            seq=int(row["seq"]),
            family=str(row["family"]),
            scheme=tuple(int(v) for v in row["scheme"]),  # type: ignore[arg-type]
            operand_digest=str(row["operand_digest"]),
            output_digest=str(row["output_digest"]),
            workers=tuple(int(w) for w in row["workers"]),
            worker_digests=tuple(
                (int(w), str(d)) for w, d in row["worker_digests"]
            ),
            attested=tuple(int(w) for w in row["attested"]),
            accepted=tuple(int(w) for w in row["accepted"]),
            rejected=tuple(int(w) for w in row["rejected"]),
            verify_ok=bool(row["verify_ok"]),
            t_end=float(row["t_end"]),
            prev=str(row["prev"]),
            hash=str(row.get("hash", "")),
        )


class AuditLog:
    """Append-only, hash-chained log of :class:`RoundCommitment`s.

    One log per session; every armed master appends through
    :meth:`commit`, which assigns the next sequence number, links
    ``prev`` to the current head and stamps the record hash. The log
    is deliberately master-side-only state: nothing here touches the
    hot path unless the session armed auditing.
    """

    def __init__(self) -> None:
        self.records: list[RoundCommitment] = []
        self._head = GENESIS

    def __len__(self) -> int:
        return len(self.records)

    @property
    def head(self) -> str:
        """The hash of the latest record (``GENESIS`` when empty) —
        the one value an auditor needs from an independent channel to
        also detect truncation of the chain's tail."""
        return self._head

    # ------------------------------------------------------------------
    def commit(
        self,
        *,
        family: str,
        scheme: tuple[int, int, int, int],
        operand_digest: str,
        output_digest: str,
        workers: Sequence[int],
        worker_digests: Sequence[tuple[int, str]],
        attested: Sequence[int],
        accepted: Sequence[int],
        rejected: Sequence[int],
        verify_ok: bool,
        t_end: float,
    ) -> RoundCommitment:
        """Append one round's commitment and return it."""
        # one pass: normalize to JSON-able types, hash the body dict
        # directly, then freeze the record with its hash — commit runs
        # on the audited hot path, once per round, so it never builds
        # the body twice or rebuilds the frozen dataclass
        seq = len(self.records)
        scheme_l = [int(v) for v in scheme]
        workers_l = [int(w) for w in workers]
        wd_l = [[int(w), str(d)] for w, d in worker_digests]
        att_l = [int(w) for w in attested]
        acc_l = [int(w) for w in accepted]
        rej_l = [int(w) for w in rejected]
        body = {
            "seq": seq,
            "family": str(family),
            "scheme": scheme_l,
            "operand_digest": operand_digest,
            "output_digest": output_digest,
            "workers": workers_l,
            "worker_digests": wd_l,
            "attested": att_l,
            "accepted": acc_l,
            "rejected": rej_l,
            "verify_ok": bool(verify_ok),
            "t_end": float(t_end),
            "prev": self._head,
        }
        digest = hashlib.blake2b(
            _CANON(body).encode(), digest_size=32
        ).hexdigest()
        rec = RoundCommitment(
            seq=seq,
            family=body["family"],
            scheme=tuple(scheme_l),  # type: ignore[arg-type]
            operand_digest=operand_digest,
            output_digest=output_digest,
            workers=tuple(workers_l),
            worker_digests=tuple((w, d) for w, d in wd_l),
            attested=tuple(att_l),
            accepted=tuple(acc_l),
            rejected=tuple(rej_l),
            verify_ok=body["verify_ok"],
            t_end=body["t_end"],
            prev=body["prev"],
            hash=digest,
        )
        self.records.append(rec)
        self._head = digest
        return rec

    # ------------------------------------------------------------------
    def verify_chain(self) -> int:
        """Verify the in-memory chain; returns its length. Raises
        :class:`ChainError` naming the first bad record."""
        verify_chain(
            (r.to_dict() for r in self.records), expect_head=self._head
        )
        return len(self.records)

    # ------------------------------------------------------------------
    # JSONL sink
    # ------------------------------------------------------------------
    def dump(self, fp: IO[str]) -> int:
        """Write the chain as JSON Lines (one record per line);
        returns the number of records written."""
        for rec in self.records:
            fp.write(json.dumps(rec.to_dict(), sort_keys=True))
            fp.write("\n")
        return len(self.records)

    def dump_path(self, path: str) -> int:
        with open(path, "w", encoding="utf-8") as fp:
            return self.dump(fp)


def load_jsonl(path: str) -> list[dict[str, Any]]:
    """Load a dumped chain. Unparseable lines surface as
    :class:`ChainError` with the line's position — a flipped byte that
    breaks the JSON is tampering too."""
    rows: list[dict[str, Any]] = []
    with open(path, "r", encoding="utf-8") as fp:
        for i, line in enumerate(fp):
            if not line.strip():
                continue
            try:
                rows.append(json.loads(line))
            except json.JSONDecodeError as exc:
                raise ChainError(i, f"unparseable record: {exc}") from exc
    return rows


def verify_chain(
    rows: Iterable[Mapping[str, Any]],
    *,
    expect_head: str | None = None,
    expect_length: int | None = None,
) -> str:
    """Walk a chain of record dicts and verify every link.

    Detects — and names, via :class:`ChainError.seq` — any record
    whose body does not hash to its stored ``hash`` (a tampered
    field), whose ``prev`` does not match the previous record's hash
    (a reordered, deleted or inserted record), or whose ``seq`` is out
    of sequence. ``expect_head``/``expect_length`` (e.g. from the live
    ``/audit`` endpoint or a recorded trace) additionally catch a
    truncated tail, which an internally consistent prefix cannot
    reveal on its own. Returns the verified chain's head hash.
    """
    prev = GENESIS
    count = 0
    for i, row in enumerate(rows):
        try:
            body = {k: row[k] for k in _BODY_FIELDS}
            stored = str(row["hash"])
        except (KeyError, TypeError) as exc:
            raise ChainError(i, f"missing field {exc}") from exc
        if int(row["seq"]) != i:
            raise ChainError(
                i, f"sequence number {row['seq']} at position {i}"
            )
        if str(row["prev"]) != prev:
            raise ChainError(
                i,
                f"prev hash {str(row['prev'])[:16]}... does not match the "
                f"previous record's hash {prev[:16]}...",
            )
        recomputed = record_hash(body)
        if recomputed != stored:
            raise ChainError(
                i,
                f"stored hash {stored[:16]}... does not match the record "
                f"body ({recomputed[:16]}...)",
            )
        prev = stored
        count += 1
    if expect_length is not None and count != expect_length:
        raise ChainError(
            count, f"chain has {count} records, expected {expect_length}"
        )
    if expect_head is not None and prev != expect_head:
        raise ChainError(
            max(count - 1, 0),
            f"chain head {prev[:16]}... does not match the expected head "
            f"{expect_head[:16]}... (truncated or diverged tail)",
        )
    return prev


def diff_chains(
    a: Sequence[Mapping[str, Any]], b: Sequence[Mapping[str, Any]]
) -> list[str]:
    """Human-readable differences between two chains: the first
    diverging record and any length mismatch. Records are compared
    field by field, not by stored hash — a tamperer who edits a body
    but leaves the stale ``hash`` in place still diverges. Empty list
    = identical chains."""
    out: list[str] = []
    for i in range(min(len(a), len(b))):
        keys = [
            k
            for k in (*_BODY_FIELDS, "hash")
            if a[i].get(k) != b[i].get(k)
        ]
        if keys:
            out.append(
                f"record {i}: chains diverge "
                f"(fields differing: {', '.join(keys)})"
            )
            break
    if len(a) != len(b):
        out.append(f"length: {len(a)} vs {len(b)} records")
    return out
