"""Smoke tests: every example script must run to completion.

Examples are the public face of the library — a broken example is a
broken release. The heavyweight training examples are exercised at
reduced scale through the experiment-harness tests instead; here we run
the fast ones end to end as subprocesses.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def _run(name, *args, timeout=240):
    proc = subprocess.run(
        [sys.executable, str(EXAMPLES / name), *args],
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return proc.stdout


class TestExamples:
    def test_quickstart(self):
        out = _run("quickstart.py")
        assert "bit-exact" in out
        assert "REJECTED (Byzantine)" in out
        assert "never waited for" in out

    @pytest.mark.parametrize("backend", ["tcp"])
    def test_quickstart_real_backends(self, backend):
        out = _run("quickstart.py", backend)
        assert f"backend: {backend}" in out
        assert "bit-exact" in out
        # no Byzantine-rejection assert here: on real backends arrival
        # order is a wall-clock race, and the round may legitimately
        # early-stop on K honest results before the forgery is consumed

    @pytest.mark.parametrize("backend", ["threaded", "process"])
    def test_quickstart_refuses_removed_backends(self, backend):
        proc = subprocess.run(
            [sys.executable, str(EXAMPLES / "quickstart.py"), backend],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 2  # argparse usage error
        assert "invalid choice" in proc.stderr
        assert "bit-exact" not in proc.stdout

    def test_linear_regression(self):
        out = _run("linear_regression.py")
        assert "bit-exact" in out
        assert "avcc" in out and "uncoded" in out

    def test_serving_demo(self):
        out = _run("serving_demo.py", "--requests", "80")
        assert "ServeReport per gateway variant" in out
        assert "serial" in out and "pipelined" in out and "batched" in out
        assert "SLO attainment" in out
        assert "fairness (Jain, weighted)" in out
        assert "bit-exact against direct arithmetic" in out

    def test_serving_demo_over_tcp(self):
        """The same gateway demo over a real loopback socket fleet."""
        out = _run("serving_demo.py", "--backend", "tcp", "--requests", "40")
        assert "backend tcp" in out
        assert "ServeReport per gateway variant" in out
        assert "bit-exact against direct arithmetic" in out

    def test_observability_demo(self, tmp_path):
        snap = tmp_path / "obs_snapshot.json"
        out = _run(
            "observability_demo.py", "--requests", "24", "--snapshot", str(snap)
        )
        assert "live telemetry endpoint at http://" in out
        assert "gateway_requests_total" in out
        assert "round.decode" in out
        assert "byte-identical with observability off" in out
        # the snapshot the demo writes must be a loadable repro-obs dump
        doc = json.loads(snap.read_text())
        assert "metrics" in doc and "traces" in doc

    def test_audit_demo(self, tmp_path):
        """Audited Byzantine round -> dump -> verify -> forgery named."""
        chain = tmp_path / "audit_chain.jsonl"
        out = _run("audit_demo.py", "--chain", str(chain))
        assert "rounds committed, chain head" in out
        assert "rejected  [5]" in out
        assert "dump re-verified" in out
        assert "forged acceptance in record 1 detected" in out
        assert "audit chain broken at record 1" in out
        # the dump the demo writes must be a loadable JSONL chain
        rows = [json.loads(line) for line in chain.read_text().splitlines()]
        assert [r["seq"] for r in rows] == list(range(len(rows)))

    def test_private_inference(self):
        out = _run("private_inference.py")
        assert "bit-identical" in out
        assert "indistinguishable" in out

    @pytest.mark.slow
    def test_dynamic_coding(self):
        out = _run("dynamic_coding.py", timeout=600)
        assert "re-encode" in out

    @pytest.mark.slow
    def test_logistic_regression_panel_a(self):
        out = _run("logistic_regression.py", "a", timeout=600)
        assert "speedups" in out
