"""Observability off-switch parity and endpoint smoke.

Replays the deadline-batched ``bench_serving`` trace (hybrid policy,
mixed Poisson+burst arrivals, sim backend) and gates two metrics
against ``benchmarks/baselines/metrics.json``:

* ``obs_report_parity`` — 1.0 iff a replay with ``observability=False``
  and one with ``observability=True`` give byte-identical
  ``ServeReport.to_dict()`` JSON *and* ``SessionStats.summary()``
  strings: the off-switch guarantee, on the full serving trace.
* ``obs_endpoint_ok`` — 1.0 iff a live telemetry endpoint running
  beside the traced gateway serves ``/healthz``, a Prometheus ``/metrics``
  page containing the request counter, and ``/trace/<id>`` for a served
  request whose resolved spans reach ``round.decode``.

What tracing costs is not gated here. That the off path makes no obs
call and the on path a pinned number per request is
``tests/obs/test_parity.py::TestOffSwitchParity::test_obs_calls_off_and_per_request``;
the wall-clock price is the repo benchmark's ``serve_small_audited_tcp``
workload against ``serve_small_tcp``, and its ``obs.audited_over_plain``
row.
"""

import dataclasses
import json
import urllib.request

import numpy as np

from _metrics import record_metric
from conftest import HYBRID, serve_trace
from repro.api import Session
from repro.experiments.common import (
    SERVING_SCALE,
    make_serving_workload,
    serving_config,
)
from repro.obs.exporter import TelemetryServer
from repro.serve import Gateway, GatewayConfig, OpenLoopSource

N_REQUESTS = 240


def test_obs_report_parity(cfg):
    """Tracing, registry and per-round span recording on the full
    serving trace leave the report and the stats byte-identical."""
    report_off, _, sess_off = serve_trace(cfg, n_requests=N_REQUESTS)
    report_on, _, sess_on = serve_trace(
        cfg, n_requests=N_REQUESTS, observability=True
    )
    assert len(report_on.served) == N_REQUESTS
    parity = float(
        json.dumps(report_off.to_dict(), sort_keys=True)
        == json.dumps(report_on.to_dict(), sort_keys=True)
        and report_off.summary() == report_on.summary()
        and sess_off.stats.summary() == sess_on.stats.summary()
    )
    record_metric("obs_report_parity", parity)
    assert parity == 1.0, "observability changed the report"


def test_obs_endpoint_smoke(cfg):
    """A live telemetry endpoint on the traced gateway: health, the
    Prometheus page (its request series, folded from the gateway's
    outcomes by the scrape itself, count every request), and a served
    request's full trace."""
    session_cfg = dataclasses.replace(serving_config(cfg), observability=True)

    with Session.create(session_cfg) as sess:
        x = sess.field.random(SERVING_SCALE, np.random.default_rng(0))
        sess.load(x)
        generator, requests = make_serving_workload(
            sess.field, SERVING_SCALE, n_requests=32
        )
        gateway = Gateway(
            sess,
            OpenLoopSource(requests),
            GatewayConfig(
                batch_policy="hybrid",
                policy_options=HYBRID,
                tenant_weights=generator.tenant_weights,
            ),
        )
        with TelemetryServer(sess.obs) as tel:
            report = gateway.run()

            def fetch(path):
                with urllib.request.urlopen(tel.url + path, timeout=5) as resp:
                    return resp.read().decode()

            ok = "ok" in fetch("/healthz")
            scraped = sum(
                float(line.rsplit(" ", 1)[1])
                for line in fetch("/metrics").splitlines()
                if line.startswith("gateway_requests_total{")
            )
            ok &= scraped == report.total > 0
            doc = json.loads(fetch(f"/trace/req-{report.served[0].request_id}"))
            names = {s["name"] for s in doc["spans"]}
            ok &= {"request", "session", "round", "round.decode"} <= names

    ok = float(ok)
    record_metric("obs_endpoint_ok", ok)
    assert ok == 1.0
