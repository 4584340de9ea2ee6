"""The live telemetry path end to end: a ``TelemetryServer`` started
beside ``Gateway.run`` on a ``tcp`` fleet answers while the gateway is
serving, and afterwards one served request's trace spans gateway →
session → round → worker-side compute."""

import json
import threading
import urllib.request

import numpy as np
import pytest

from repro.api import Session, SessionConfig
from repro.coding import SchemeParams
from repro.experiments.common import make_serving_workload
from repro.obs.exporter import TelemetryServer
from repro.serve import Gateway, GatewayConfig, OpenLoopSource

POLLED = ("/metrics", "/metrics.json", "/traces")


def _fetch(url):
    with urllib.request.urlopen(url, timeout=5) as resp:
        return resp.status, resp.read()


class TestLiveEndpoint:
    def test_tcp_gateway_served_live_while_running(self):
        cfg = SessionConfig(
            scheme=SchemeParams(n=6, k=3, s=1, m=1),
            backend="tcp",
            seed=0,
            batch_window=64,
            observability=True,
            audit=True,
            backend_options={"straggle_scale": 0.002},
        )
        with Session.create(cfg) as sess:
            x = sess.field.random((48, 24), np.random.default_rng(0))
            sess.load(x)
            gen, reqs = make_serving_workload(sess.field, (48, 24), n_requests=48)
            # small batches: a dozen rounds, so the run outlasts many polls
            gateway = Gateway(
                sess,
                OpenLoopSource(reqs),
                GatewayConfig(
                    batch_policy="hybrid",
                    max_batch=4,
                    tenant_weights=gen.tenant_weights,
                ),
            )
            threads_before = threading.active_count()
            with TelemetryServer(sess.obs) as tel:
                done = threading.Event()
                bad: list = []
                polls_while_running = []

                # an error status raises in the poller, and an exception
                # escaping a thread fails the test
                def poll():
                    while not done.is_set():
                        for path in POLLED:
                            status, _ = _fetch(tel.url + path)
                            if status != 200:
                                bad.append((path, status))
                            if not done.is_set():
                                polls_while_running.append(path)

                poller = threading.Thread(target=poll)
                poller.start()
                try:
                    report = gateway.run()
                finally:
                    done.set()
                    poller.join(timeout=30.0)
                assert not poller.is_alive()
                assert bad == []
                assert polls_while_running, "no poll overlapped the run"

                served = report.served[0]
                status, body = _fetch(f"{tel.url}/trace/req-{served.request_id}")
                assert status == 200
                names = [s["name"] for s in json.loads(body)["spans"]]
                # the full causal chain, one trace, end to end
                for need in (
                    "request",
                    "gateway.queue",
                    "session",
                    "round",
                    "round.collect",
                    "worker.compute",
                ):
                    assert need in names, (need, names)
                status, body = _fetch(f"{tel.url}/metrics.json")
                metrics = json.loads(body)
                assert "gateway_requests_total" in metrics
                assert "wire_bytes_total" in metrics
                assert _fetch(f"{tel.url}/healthz")[0] == 200
                status, body = _fetch(f"{tel.url}/audit")
                assert status == 200 and json.loads(body)["length"] > 0
            assert threading.active_count() == threads_before
        assert len(report.served) == report.total

    def test_endpoint_refuses_a_session_without_observability(self):
        cfg = SessionConfig(
            scheme=SchemeParams(n=6, k=3, s=1, m=1),
            backend="sim",
            seed=0,
        )
        with Session.create(cfg) as sess:
            assert sess.obs is None
            with pytest.raises(RuntimeError, match="observability"):
                TelemetryServer(sess.obs)
