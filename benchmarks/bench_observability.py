"""Observability overhead, off-switch parity, and endpoint smoke.

The CI ``bench-obs`` job replays the deadline-batched ``bench_serving``
trace (hybrid policy, mixed Poisson+burst arrivals, sim backend) twice
— ``observability=False`` and ``observability=True`` — and gates three
metrics against ``benchmarks/baselines/metrics.json``:

* ``obs_overhead_headroom`` — CPU-time(disabled) / CPU-time(enabled)
  over the traced replay. The baseline pins 1.0 with 3% tolerance, so
  the gate fails when the enabled path is more than ~3% slower than the
  off path (the <= 3% overhead bar). Both replays run on the
  simulator's *virtual* clock, so the reported latencies are identical
  by construction; only the real cost of the Python machinery differs —
  exactly the overhead being measured. The arms are timed with
  ``time.process_time`` (immune to sleeps and other processes),
  interleaved over ``OBS_BENCH_REPEATS`` replay pairs, and the gate
  ratio uses each arm's *minimum* (best-of discards scheduler and
  frequency-scaling noise, which only ever inflates a run).
* ``obs_report_parity`` — 1.0 iff the two replays' full
  ``ServeReport.to_dict()`` JSON *and* ``SessionStats.summary()``
  strings are byte-identical: the off-switch guarantee, enforced in CI
  on the same trace the overhead is measured on.
* ``obs_endpoint_ok`` — 1.0 iff a live telemetry endpoint running
  beside the traced gateway serves ``/healthz``, a Prometheus ``/metrics``
  page containing the request counter, and ``/trace/<id>`` for a served
  request whose resolved spans reach ``round.decode``.
"""

import json
import os
import time
import urllib.request

import numpy as np

from _metrics import record_metric
from repro.api import Session
from repro.experiments.common import (
    SERVING_SCALE,
    make_serving_workload,
    serving_config,
)
from repro.obs.exporter import TelemetryServer
from repro.serve import Gateway, GatewayConfig, OpenLoopSource

N_REQUESTS = int(os.environ.get("OBS_TRACE_REQUESTS", "240"))
REPEATS = int(os.environ.get("OBS_BENCH_REPEATS", "5"))
#: inline sanity floor for the headroom assert. The strict <= 3% gate
#: is enforced in CI by check_perf_regression against
#: ``baselines/metrics.json`` (value 1.0, tolerance 0.03); the inline
#: floor is tunable because the ratio is hardware-sensitive — on a
#: 1-core VM the same replay measures several percent slower from
#: cache/allocator pressure alone (the direct per-request cost is
#: ~2.7us tracer + ~1.5us metrics on CPython 3.11).
MIN_HEADROOM = float(os.environ.get("OBS_MIN_HEADROOM", "0.97"))
WINDOW = 16
HYBRID = {"window": WINDOW, "safety": 2.0, "linger": 0.02}


def _replay(cfg, observability, *, n_requests=N_REQUESTS):
    """One deadline-batched replay of the canonical serving trace;
    returns (report, stats-summary, CPU seconds)."""
    import dataclasses

    session_cfg = dataclasses.replace(
        serving_config(cfg), observability=observability
    )
    t_cpu = time.process_time()
    with Session.create(session_cfg) as sess:
        x = sess.field.random(SERVING_SCALE, np.random.default_rng(0))
        sess.load(x)
        generator, requests = make_serving_workload(
            sess.field, SERVING_SCALE, n_requests=n_requests
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
        report = gateway.run()
        summary = sess.stats.summary()
    return report, summary, time.process_time() - t_cpu


def test_obs_overhead_and_parity(cfg):
    """The <=3% gate: tracing + registry + per-round span recording on
    the full serving trace, priced against the identical untraced
    replay — while the reports stay byte-identical."""
    # warm both paths once (imports, JIT-ish numpy caches), then take
    # best-of-N per arm: best-of discards scheduler noise, which only
    # ever inflates a run
    _replay(cfg, False, n_requests=16)
    _replay(cfg, True, n_requests=16)

    walls_off, walls_on = [], []
    report_off = report_on = None
    summary_off = summary_on = None
    for _ in range(REPEATS):
        report_off, summary_off, w = _replay(cfg, False)
        walls_off.append(w)
        report_on, summary_on, w = _replay(cfg, True)
        walls_on.append(w)

    parity = float(
        json.dumps(report_off.to_dict(), sort_keys=True)
        == json.dumps(report_on.to_dict(), sort_keys=True)
        and report_off.summary() == report_on.summary()
        and summary_off == summary_on
    )
    record_metric("obs_report_parity", parity)
    assert parity == 1.0, "observability changed the report"

    headroom = min(walls_off) / min(walls_on)
    record_metric("obs_overhead_headroom", headroom)
    assert len(report_on.served) == N_REQUESTS
    assert headroom >= MIN_HEADROOM, (
        f"observability overhead exceeds the floor: off {min(walls_off):.3f}s "
        f"vs on {min(walls_on):.3f}s ({(1 / headroom - 1) * 100:.1f}% slower, "
        f"floor {MIN_HEADROOM})"
    )


def test_obs_endpoint_smoke(cfg):
    """A live telemetry endpoint on the traced gateway: health, the
    Prometheus page, and a served request's full trace."""
    import dataclasses

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
            ok &= "gateway_requests_total" in fetch("/metrics")
            doc = json.loads(fetch(f"/trace/req-{report.served[0].request_id}"))
            names = {s["name"] for s in doc["spans"]}
            ok &= {"request", "session", "round", "round.decode"} <= names

    ok = float(ok)
    record_metric("obs_endpoint_ok", ok)
    assert ok == 1.0
