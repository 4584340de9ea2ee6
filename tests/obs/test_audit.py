"""Verifiable serving provenance: the hash-chained round audit log.

Three layers of guarantees are pinned here:

* **chain integrity** — property tests (hypothesis) that *any*
  single-byte flip, record swap or record drop in a dumped JSONL
  chain is caught by ``verify_chain`` naming the offending record;
* **off-switch parity** — with ``audit=False`` (the default) nothing
  is allocated and ``ServeReport``/round results are byte-identical
  to an unaudited build, across every backend;
* **evidence content** — a Byzantine round's commitment names the
  rejected worker; socket-fleet daemons countersign results and land
  in ``attested``; the ``repro audit`` CLI verifies/renders/diffs.
"""

import dataclasses
import inspect
import json
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import Session, SessionConfig
from repro.api.config import WorkerSpec
from repro.coding import SchemeParams
from repro.core import base as base_module
from repro.experiments.common import make_serving_workload
from repro.ff import PrimeField, ff_matvec
from repro.obs.audit import (
    GENESIS,
    AuditLog,
    ChainError,
    RoundCommitment,
    diff_chains,
    digest_array,
    load_jsonl,
    record_hash,
    verify_chain,
)
from repro.serve import Gateway, GatewayConfig, OpenLoopSource

F = PrimeField()
SHAPE = (48, 24)
BACKENDS = ["sim", "tcp"]


def _commit_n(log: AuditLog, n: int) -> None:
    for i in range(n):
        log.commit(
            family="fwd" if i % 2 == 0 else "bwd",
            scheme=(8, 4, 1, 1),
            operand_digest=f"op{i:02d}",
            output_digest=f"out{i:02d}",
            workers=(0, 1, 2, 3),
            worker_digests=((0, f"d0-{i}"), (1, f"d1-{i}")),
            attested=(0,),
            accepted=(0, 1, 2),
            rejected=(3,) if i == 1 else (),
            verify_ok=i != 1,
            t_end=float(i),
        )


def _session_cfg(backend: str, *, audit: bool, workers=None) -> SessionConfig:
    opts = {} if backend == "sim" else {"straggle_scale": 0.01}
    return SessionConfig(
        scheme=SchemeParams(n=6, k=3, s=1, m=1),
        backend=backend,
        seed=3,
        audit=audit,
        workers=workers or [],
        backend_options=opts,
    )


def _run_rounds(backend: str, *, audit: bool, workers=None, n_rounds: int = 2):
    """A few matvec rounds; returns (results, audit_log)."""
    cfg = _session_cfg(backend, audit=audit, workers=workers)
    with Session.create(cfg) as sess:
        x = sess.field.random((12, 8), np.random.default_rng(0))
        sess.load(x)
        outs = []
        for i in range(n_rounds):
            w = sess.field.random(8, np.random.default_rng(100 + i))
            outs.append(sess.submit_matvec(w).result())
        return outs, sess.audit


# ----------------------------------------------------------------------
# chain mechanics
# ----------------------------------------------------------------------
class TestChainMechanics:
    def test_empty_log_head_is_genesis(self):
        log = AuditLog()
        assert log.head == GENESIS
        assert log.verify_chain() == 0

    def test_commit_links_and_verifies(self):
        log = AuditLog()
        _commit_n(log, 5)
        assert len(log) == 5
        assert log.records[0].prev == GENESIS
        for a, b in zip(log.records, log.records[1:]):
            assert b.prev == a.hash
        assert log.head == log.records[-1].hash
        assert log.verify_chain() == 5

    def test_record_hash_is_canonical_over_body(self):
        log = AuditLog()
        _commit_n(log, 1)
        rec = log.records[0]
        assert record_hash(rec.body()) == rec.hash
        # round-tripping through JSON must not change the hash
        back = RoundCommitment.from_dict(json.loads(json.dumps(rec.to_dict())))
        assert record_hash(back.body()) == rec.hash

    def test_digest_array_commits_dtype_shape_and_bytes(self):
        a = np.arange(12, dtype=np.int64)
        assert digest_array(a) == digest_array(a.copy())
        assert digest_array(a) != digest_array(a.reshape(3, 4))
        assert digest_array(a) != digest_array(a.astype(np.int32))
        b = a.copy()
        b[5] += 1
        assert digest_array(a) != digest_array(b)

    def test_dump_load_verify_round_trip(self, tmp_path):
        log = AuditLog()
        _commit_n(log, 4)
        path = tmp_path / "chain.jsonl"
        assert log.dump_path(str(path)) == 4
        rows = load_jsonl(str(path))
        head = verify_chain(rows, expect_head=log.head, expect_length=4)
        assert head == log.head

    def test_expected_head_catches_truncated_tail(self, tmp_path):
        log = AuditLog()
        _commit_n(log, 4)
        path = tmp_path / "chain.jsonl"
        log.dump_path(str(path))
        rows = load_jsonl(str(path))[:-1]  # drop the tail record
        # the prefix is internally consistent ...
        verify_chain(rows)
        # ... but the independently-held head/length expose the cut
        with pytest.raises(ChainError):
            verify_chain(rows, expect_head=log.head)
        with pytest.raises(ChainError, match="3 records, expected 4"):
            verify_chain(rows, expect_length=4)

    def test_diff_chains_reports_divergence_and_length(self):
        log_a, log_b = AuditLog(), AuditLog()
        _commit_n(log_a, 3)
        _commit_n(log_b, 3)
        a = [r.to_dict() for r in log_a.records]
        b = [r.to_dict() for r in log_b.records]
        assert diff_chains(a, b) == []
        b[1]["family"] = "tampered"  # stale hash left in place
        out = diff_chains(a, b)
        assert out and "record 1" in out[0] and "family" in out[0]
        assert diff_chains(a, a[:-1]) == ["length: 3 vs 2 records"]


# ----------------------------------------------------------------------
# tamper detection properties
# ----------------------------------------------------------------------
def _dumped_rows(n: int = 5) -> list[str]:
    log = AuditLog()
    _commit_n(log, n)
    return [json.dumps(r.to_dict(), sort_keys=True) for r in log.records]


_ROWS = _dumped_rows()
_BLOB = "\n".join(_ROWS)


class TestTamperDetection:
    @settings(max_examples=60, deadline=None)
    @given(pos=st.integers(0, len(_BLOB) - 1), bit=st.integers(0, 6))
    def test_any_single_byte_flip_is_caught(self, tmp_path_factory, pos, bit):
        """Flip one bit anywhere in the dumped JSONL: either the line
        no longer parses, or verification fails — and the offending
        record is named."""
        raw = bytearray(_BLOB.encode())
        raw[pos] ^= 1 << bit
        if raw == _BLOB.encode():  # pragma: no cover - xor always flips
            return
        path = tmp_path_factory.mktemp("flip") / "chain.jsonl"
        path.write_bytes(bytes(raw) + b"\n")
        line_no = _BLOB.encode()[:pos].count(b"\n")
        try:
            rows = load_jsonl(str(path))
            verify_chain(rows, expect_head=json.loads(_ROWS[-1])["hash"],
                         expect_length=len(_ROWS))
        except (ChainError, UnicodeDecodeError) as exc:
            if isinstance(exc, ChainError):
                assert 0 <= exc.seq <= line_no
            return
        pytest.fail(f"flip at byte {pos} (record {line_no}) went undetected")

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_any_record_swap_is_caught(self, tmp_path_factory, data):
        i = data.draw(st.integers(0, len(_ROWS) - 1))
        j = data.draw(st.integers(0, len(_ROWS) - 1).filter(lambda v: v != i))
        rows = list(_ROWS)
        rows[i], rows[j] = rows[j], rows[i]
        path = tmp_path_factory.mktemp("swap") / "chain.jsonl"
        path.write_text("\n".join(rows) + "\n")
        with pytest.raises(ChainError) as err:
            verify_chain(load_jsonl(str(path)))
        assert err.value.seq == min(i, j)

    @settings(max_examples=25, deadline=None)
    @given(drop=st.integers(0, len(_ROWS) - 1))
    def test_any_record_drop_is_caught(self, tmp_path_factory, drop):
        rows = [r for k, r in enumerate(_ROWS) if k != drop]
        path = tmp_path_factory.mktemp("drop") / "chain.jsonl"
        path.write_text("\n".join(rows) + "\n")
        with pytest.raises(ChainError) as err:
            verify_chain(
                load_jsonl(str(path)), expect_length=len(_ROWS),
                expect_head=json.loads(_ROWS[-1])["hash"],
            )
        # an interior drop shifts the next record into the hole (its
        # seq betrays it there); dropping the tail is only visible to
        # the expected head/length — either way the hole is named
        assert err.value.seq == drop


# ----------------------------------------------------------------------
# off-switch parity
# ----------------------------------------------------------------------
class TestOffSwitchParity:
    def test_disabled_session_allocates_nothing(self):
        with Session.create(_session_cfg("sim", audit=False)) as sess:
            assert sess.audit is None
            assert sess.master.audit is None
            assert sess.backend.attest is False

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_round_results_identical_audit_on_vs_off(self, backend):
        outs_off, log_off = _run_rounds(backend, audit=False)
        outs_on, log_on = _run_rounds(backend, audit=True)
        assert log_off is None
        assert log_on is not None and len(log_on) == len(outs_on)
        for a, b in zip(outs_off, outs_on):
            np.testing.assert_array_equal(a, b)
        log_on.verify_chain()

    @pytest.mark.parametrize("audit", [False, True], ids=["off", "on"])
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_each_result_is_hashed_once_and_nothing_when_off(
        self, backend, audit, monkeypatch
    ):
        """An audited round digests each result it received once, plus
        its operand and its output, and commits once; with audit off
        nothing is digested and no log is touched."""
        hashed, log_calls = [], []
        real = base_module.digest_array

        def digest(value):
            hashed.append(value)
            return real(value)

        monkeypatch.setattr(base_module, "digest_array", digest)
        for name, attr in vars(AuditLog).items():
            if inspect.isfunction(attr):

                def counted(*args, _real=attr, _name=name, **kwargs):
                    log_calls.append(_name)
                    return _real(*args, **kwargs)

                monkeypatch.setattr(AuditLog, name, counted)
        outs, log = _run_rounds(backend, audit=audit, n_rounds=3)
        assert len(outs) == 3
        if not audit:
            assert log is None and not hashed and not log_calls
            return
        assert log_calls.count("commit") == len(log) == 3
        assert len(hashed) == sum(len(c.worker_digests) + 2 for c in log.records)
        if backend == "sim":  # every worker's result arrives on the simulator
            assert all(len(c.worker_digests) == 6 for c in log.records)

    def test_serve_report_byte_identical_with_audit_off(self):
        rep_base = self._serve(audit=None)  # field absent entirely
        rep_off = self._serve(audit=False)
        assert json.dumps(rep_off.to_dict(), sort_keys=True) == json.dumps(
            rep_base.to_dict(), sort_keys=True
        )

    def test_audited_report_only_adds_audit_seq(self):
        rep_off = self._serve(audit=False)
        rep_on = self._serve(audit=True)
        rows_on = rep_on.to_dict()
        served = [o for o in rep_on.outcomes if o.status == "served"]
        assert served and all(o.audit_seq is not None for o in served)
        stripped = json.loads(json.dumps(rows_on))
        for row in stripped.get("requests", []):
            row.pop("audit_seq", None)
        assert json.dumps(stripped, sort_keys=True) == json.dumps(
            rep_off.to_dict(), sort_keys=True
        )

    @staticmethod
    def _serve(audit, n_requests=40):
        cfg = SessionConfig(
            scheme=SchemeParams(n=8, k=4, s=1, m=1),
            backend="sim",
            seed=0,
            batch_window=64,
        )
        if audit is not None:
            cfg = dataclasses.replace(cfg, audit=audit)
        with Session.create(cfg) as sess:
            x = sess.field.random(SHAPE, np.random.default_rng(0))
            sess.load(x)
            gen, reqs = make_serving_workload(
                sess.field, SHAPE, n_requests=n_requests
            )
            gateway = Gateway(
                sess,
                OpenLoopSource(reqs),
                GatewayConfig(
                    batch_policy="hybrid", tenant_weights=gen.tenant_weights
                ),
            )
            return gateway.run()


# ----------------------------------------------------------------------
# evidence content
# ----------------------------------------------------------------------
class TestEvidenceContent:
    # honest workers are slowed so the Byzantine worker's share is
    # always among the first verified — the rejection is deterministic
    BYZ_FLEET = [WorkerSpec(straggler_factor=2.0)] * 5 + [
        WorkerSpec(behavior="reverse")
    ]

    def test_byzantine_rejection_lands_in_chain_sim(self):
        """Regression: a round where verification rejects a corrupted
        worker must produce a commitment naming it."""
        outs, log = _run_rounds(
            "sim", audit=True, workers=self.BYZ_FLEET, n_rounds=4
        )
        log.verify_chain()
        rejections = [r for r in log.records if 5 in r.rejected]
        assert rejections, "no commitment recorded the Byzantine rejection"
        for rec in rejections:
            assert rec.verify_ok is False
            assert 5 not in rec.accepted
            # the evidence of the corrupted share survives: its digest
            # was committed even though the share was rejected
            assert any(w == 5 for w, _ in rec.worker_digests)
        assert all(a is not None for a in outs)

    def test_byzantine_rejection_lands_in_chain_tcp(self):
        _, log = _run_rounds(
            "tcp", audit=True, workers=self.BYZ_FLEET, n_rounds=3
        )
        log.verify_chain()
        rejections = [r for r in log.records if 5 in r.rejected]
        assert rejections, "no commitment recorded the Byzantine rejection"
        # the daemon countersigned the exact (corrupted) bytes it
        # shipped, so the rejected worker is attested *and* rejected
        assert any(5 in r.attested for r in rejections)

    def test_socket_daemons_countersign_results(self):
        _, log = _run_rounds("tcp", audit=True, n_rounds=2)
        for rec in log.records:
            assert rec.attested, "no worker attestations on the socket fleet"
            digests = dict(rec.worker_digests)
            assert set(rec.attested) <= set(digests)

    def test_sim_rounds_carry_no_attestations(self):
        _, log = _run_rounds("sim", audit=True)
        assert all(rec.attested == () for rec in log.records)

    def test_commitment_digests_match_recomputation(self):
        cfg = _session_cfg("sim", audit=True)
        with Session.create(cfg) as sess:
            x = sess.field.random((12, 8), np.random.default_rng(0))
            sess.load(x)
            w = sess.field.random(8, np.random.default_rng(1))
            got = sess.submit_matvec(w).result()
            rec = sess.audit.records[0]
            assert rec.output_digest == digest_array(got)
            np.testing.assert_array_equal(got, ff_matvec(sess.field, x, w))

    def test_handles_carry_their_round_seq(self):
        cfg = _session_cfg("sim", audit=True)
        with Session.create(cfg) as sess:
            x = sess.field.random((12, 8), np.random.default_rng(0))
            sess.load(x)
            h1 = sess.submit_matvec(sess.field.random(8, np.random.default_rng(1)))
            h1.result()
            h2 = sess.submit_matvec(sess.field.random(8, np.random.default_rng(2)))
            h2.result()
            assert h1._audit_seq == 0
            assert h2._audit_seq == 1


# ----------------------------------------------------------------------
# record -> replay provenance parity
# ----------------------------------------------------------------------
class TestRecordReplayProvenance:
    def _serve_audited(self, requests=None, weights=None, n_requests=40):
        cfg = SessionConfig(
            scheme=SchemeParams(n=8, k=4, s=1, m=1),
            backend="sim",
            seed=0,
            batch_window=64,
            audit=True,
        )
        with Session.create(cfg) as sess:
            x = sess.field.random(SHAPE, np.random.default_rng(0))
            sess.load(x)
            if requests is None:
                gen, requests = make_serving_workload(
                    sess.field, SHAPE, n_requests=n_requests
                )
                weights = gen.tenant_weights
            gateway = Gateway(
                sess,
                OpenLoopSource(requests),
                GatewayConfig(batch_policy="hybrid", tenant_weights=weights),
            )
            report = gateway.run()
            return report, sess.stats, sess.audit, requests, weights

    def test_replay_rederives_identical_commitments(self):
        """Replaying the same requests must re-derive the same chain:
        same families, operand/output digests and accept sets, ending
        at the same head — bit-drift in a replayed round would surface
        here as a provenance mismatch."""
        _, _, audit, requests, weights = self._serve_audited()
        _, _, replay_audit, _, _ = self._serve_audited(
            requests=requests, weights=weights
        )
        commitments = [
            (r.family, r.operand_digest, r.output_digest, r.accepted)
            for r in audit.records
        ]
        replayed = [
            (r.family, r.operand_digest, r.output_digest, r.accepted)
            for r in replay_audit.records
        ]
        assert replayed == commitments
        replay_audit.verify_chain()
        assert replay_audit.head == audit.head


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def _audit_cli(*args):
    from repro.obs.cli import audit_main

    return audit_main(list(args))


class TestAuditCli:
    @pytest.fixture()
    def chain_path(self, tmp_path):
        log = AuditLog()
        _commit_n(log, 3)
        path = tmp_path / "chain.jsonl"
        log.dump_path(str(path))
        return path, log

    def test_verify_ok(self, chain_path, capsys):
        path, log = chain_path
        assert _audit_cli("verify", str(path)) == 0
        out = capsys.readouterr().out
        assert "chain OK: 3 records" in out and log.head in out

    def test_verify_with_expected_head_and_length(self, chain_path, capsys):
        path, log = chain_path
        code = _audit_cli(
            "verify", str(path), "--head", log.head, "--length", "3"
        )
        assert code == 0

    def test_verify_tampered_names_the_record(self, chain_path, capsys):
        path, _ = chain_path
        lines = path.read_text().splitlines()
        lines[1] = lines[1].replace('"fwd"', '"zzz"').replace('"bwd"', '"zzz"')
        path.write_text("\n".join(lines) + "\n")
        assert _audit_cli("verify", str(path)) == 1
        err = capsys.readouterr().err
        assert "chain BROKEN" in err and "record 1" in err

    def test_show_renders_commitments(self, chain_path, capsys):
        path, _ = chain_path
        assert _audit_cli("show", str(path)) == 0
        out = capsys.readouterr().out
        assert "verify_ok=False" in out and "rejected=[3]" in out
        assert _audit_cli("show", str(path), "--seq", "99") == 1

    def test_diff_detects_divergence(self, chain_path, tmp_path, capsys):
        path, _ = chain_path
        other = tmp_path / "other.jsonl"
        lines = path.read_text().splitlines()
        lines[2] = lines[2].replace('"verify_ok": true', '"verify_ok": false')
        other.write_text("\n".join(lines) + "\n")
        assert _audit_cli("diff", str(path), str(path)) == 0
        assert _audit_cli("diff", str(path), str(other)) == 1
        out = capsys.readouterr().out
        assert "record 2" in out

    def test_missing_file_is_an_error_not_a_traceback(self, capsys):
        assert _audit_cli("verify", "/nonexistent/chain.jsonl") == 1
        assert "error" in capsys.readouterr().err

    def test_module_entrypoint_dispatches_audit(self, chain_path):
        path, _ = chain_path
        proc = subprocess.run(
            [sys.executable, "-m", "repro.experiments", "audit", "verify", str(path)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "chain OK" in proc.stdout


class TestObsFollowDeadEndpoint:
    def test_refused_endpoint_exits_nonzero_with_message(self, capsys):
        """`repro obs --follow` against a dead port: clear diagnosis
        on stderr and exit 1, not a traceback."""
        from repro.obs.cli import main as obs_cli
        from repro.runtime.net import free_port

        port = free_port()  # freed immediately: nothing listens on it
        code = obs_cli(
            ["--endpoint", f"http://127.0.0.1:{port}", "--follow", "2"]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "unreachable" in err and f"127.0.0.1:{port}" in err
