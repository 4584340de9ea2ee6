"""End-to-end provenance on the socket fleet: the ISSUE's acceptance
scenario. An audited tcp run that loses a worker to SIGKILL mid-run
and carries one always-corrupting Byzantine worker must leave a JSONL
chain that ``repro audit verify`` accepts, whose records show both the
Byzantine rejection and the membership change — and any mutated byte
of which is detected with the offending record named.
"""

import json
import os
import signal
import time

import numpy as np
import pytest

from repro.api import Session, SessionConfig
from repro.api.config import WorkerSpec
from repro.coding import SchemeParams
from repro.obs.audit import ChainError, load_jsonl, verify_chain
from repro.obs.cli import audit_main

#: worker 5 always corrupts and worker 4 is the one killed mid-run;
#: both are fast, so both are always among the arrivals a round
#: collects (which slowed worker makes the cut is scheduler luck). The
#: rest are mildly slowed honest workers
FLEET = [WorkerSpec(straggler_factor=2.0)] * 4 + [
    WorkerSpec(),
    WorkerSpec(behavior="reverse"),
]


@pytest.fixture(scope="module")
def audited_run(tmp_path_factory):
    """One audited tcp run: 3 rounds, SIGKILL worker 4, 3 more rounds.
    Yields (chain_path, head, length, killed_wid)."""
    cfg = SessionConfig(
        scheme=SchemeParams(n=6, k=3, s=1, m=1),
        backend="tcp",
        seed=3,
        audit=True,
        workers=FLEET,
        backend_options={"straggle_scale": 0.01},
    )
    killed = 4
    with Session.create(cfg) as sess:
        x = sess.field.random((12, 8), np.random.default_rng(0))
        sess.load(x)
        for i in range(3):
            sess.submit_matvec(
                sess.field.random(8, np.random.default_rng(i))
            ).result()
        os.kill(sess.backend.worker_pids()[killed], signal.SIGKILL)
        time.sleep(0.05)  # let the EOF land before the next dispatch
        for i in range(3, 6):
            sess.submit_matvec(
                sess.field.random(8, np.random.default_rng(i))
            ).result()
        path = tmp_path_factory.mktemp("audit") / "chain.jsonl"
        length = sess.audit.dump_path(str(path))
        head = sess.audit.head
    return path, head, length, killed


class TestAcceptanceScenario:
    def test_chain_passes_repro_audit_verify(self, audited_run, capsys):
        path, head, length, _ = audited_run
        code = audit_main(
            ["verify", str(path), "--head", head, "--length", str(length)]
        )
        assert code == 0
        assert "chain OK" in capsys.readouterr().out

    def test_chain_contains_the_rejection(self, audited_run):
        path, _, _, _ = audited_run
        rows = load_jsonl(str(path))
        rejected = [r for r in rows if 5 in r["rejected"]]
        assert rejected, "Byzantine rejection missing from the chain"
        for row in rejected:
            assert row["verify_ok"] is False
            assert 5 not in row["accepted"]
            # the daemon countersigned the corrupted bytes it shipped
            assert 5 in row["attested"]

    def test_chain_contains_the_membership_change(self, audited_run):
        path, _, _, killed = audited_run
        rows = load_jsonl(str(path))
        alive = [
            r for r in rows if any(w == killed for w, _ in r["worker_digests"])
        ]
        assert alive, "the killed worker never contributed a digest"
        # after the SIGKILL it stops responding: the final records hold
        # no digest (and no attestation) from it
        last = rows[-1]
        assert all(w != killed for w, _ in last["worker_digests"])
        assert killed not in last["attested"]
        assert max(r["seq"] for r in alive) < last["seq"]

    def test_any_mutated_byte_is_detected_and_named(self, audited_run, tmp_path):
        path, head, length, _ = audited_run
        raw = bytearray(path.read_bytes())
        offsets = np.random.default_rng(7).choice(len(raw), size=24, replace=False)
        prefix = bytes(raw)
        for off in offsets:
            if prefix[off : off + 1] == b"\n":
                continue
            mutated = bytearray(prefix)
            mutated[off] ^= 0x01
            bad = tmp_path / "mutated.jsonl"
            bad.write_bytes(bytes(mutated))
            line_no = prefix[: int(off)].count(b"\n")
            with pytest.raises((ChainError, UnicodeDecodeError)) as err:
                verify_chain(
                    load_jsonl(str(bad)),
                    expect_head=head,
                    expect_length=length,
                )
            if isinstance(err.value, ChainError):
                assert err.value.seq <= line_no

    def test_verify_cli_rejects_a_mutated_chain(self, audited_run, tmp_path, capsys):
        path, head, length, _ = audited_run
        rows = path.read_text().splitlines()
        row = json.loads(rows[2])
        row["accepted"] = list(row["accepted"]) + [99]  # forge an acceptance
        rows[2] = json.dumps(row, sort_keys=True)
        bad = tmp_path / "forged.jsonl"
        bad.write_text("\n".join(rows) + "\n")
        code = audit_main(
            ["verify", str(bad), "--head", head, "--length", str(length)]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "chain BROKEN" in err and "record 2" in err
