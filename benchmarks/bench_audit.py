"""Audit-chain tamper-evidence gates.

Replays the deadline-batched serving trace (hybrid policy, mixed
Poisson+burst arrivals, sim backend) with ``audit=True`` and gates two
metrics against ``benchmarks/baselines/metrics.json``:

* ``audit_chain_verified`` — 1.0 iff the audited replay's full chain
  (one commitment per executed round) passes ``verify_chain`` after a
  JSONL dump/load round trip, against the live head and length.
* ``audit_tamper_detected`` — 1.0 iff every probed single-byte
  mutation of the dumped chain is caught by ``verify_chain`` naming a
  record at or before the mutated line.

Report *parity* is deliberately not gated here: an audited
``ServeReport`` legitimately adds ``audit_seq`` keys. The byte-parity
guarantees (audit off == pre-audit output, audit on == off modulo
``audit_seq``), and that a round hashes each received result once and
an unaudited one hashes nothing, are
``tests/obs/test_audit.py::TestOffSwitchParity``. What hashing costs
on the wall clock is the repo benchmark's ``serve_small_audited_tcp``
workload and its ``obs.audited_over_plain`` row.
"""

import json

import numpy as np

from _metrics import record_metric
from conftest import serve_trace
from repro.obs.audit import ChainError, load_jsonl, verify_chain

N_REQUESTS = 240
#: single-byte mutations probed by the tamper gate
N_MUTATIONS = 32


def test_audit_chain_verified_and_tamper_detected(cfg, tmp_path):
    """The evidence gates: the audited replay's chain survives a
    dump/load round trip against the live head, and every probed
    single-byte mutation of the dump is detected."""
    report, _, sess = serve_trace(cfg, n_requests=N_REQUESTS, audit=True)
    log = sess.audit
    assert len(report.served) == N_REQUESTS
    assert log is not None and len(log) == report.rounds_executed

    path = tmp_path / "chain.jsonl"
    log.dump_path(str(path))
    try:
        head = verify_chain(
            load_jsonl(str(path)), expect_head=log.head, expect_length=len(log)
        )
        verified = float(head == log.head)
    except ChainError:
        verified = 0.0
    record_metric("audit_chain_verified", verified)
    assert verified == 1.0, "the audited replay's chain failed verification"

    raw = path.read_bytes()
    offsets = np.random.default_rng(20220322).choice(
        len(raw), size=min(N_MUTATIONS, len(raw)), replace=False
    )
    probed = caught = 0
    for off in offsets:
        if raw[off : off + 1] == b"\n":
            continue  # line splits/merges are covered by the others
        probed += 1
        mutated = bytearray(raw)
        mutated[off] ^= 0x01
        bad = tmp_path / "mutated.jsonl"
        bad.write_bytes(bytes(mutated))
        line_no = raw[: int(off)].count(b"\n")
        try:
            verify_chain(
                load_jsonl(str(bad)), expect_head=log.head, expect_length=len(log)
            )
        except ChainError as exc:
            caught += exc.seq <= line_no
        except UnicodeDecodeError:
            caught += 1
    detected = float(probed > 0 and caught == probed)
    record_metric("audit_tamper_detected", detected)
    assert detected == 1.0, (
        f"tamper gate: {caught}/{probed} probed mutations detected"
    )
    assert json.loads(path.read_text().splitlines()[0])["seq"] == 0
