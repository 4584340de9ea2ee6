"""Off-switch parity and registry-accounting parity.

With ``observability=False`` (the default) the observability layer
must be invisible: ``ServeReport.to_dict()`` and the session's
``SessionStats.summary()`` byte-identical to an untouched run, zero
obs objects allocated. With it on, the control windows
(``WindowSignals``) and the report itself must not change either, and
the registry's request counters must agree with the report — the
simulator's virtual clock makes both runs deterministic, so equality
is exact, not approximate.
"""

import dataclasses
import json

import numpy as np
import pytest

from repro.api import Session, SessionConfig
from repro.coding import SchemeParams
from repro.experiments.common import make_serving_workload
from repro.serve import Gateway, GatewayConfig, OpenLoopSource

SHAPE = (48, 24)


def _run_serving(observability, *, control_interval=None, n_requests=60):
    cfg = SessionConfig(
        scheme=SchemeParams(n=8, k=4, s=1, m=1),
        backend="sim",
        seed=0,
        batch_window=64,
        observability=observability,
    )
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
            control_interval=control_interval,
        )
        report = gateway.run()
        return report, gateway, sess.stats.summary()


class TestOffSwitchParity:
    def test_disabled_session_allocates_no_obs(self):
        cfg = SessionConfig(
            scheme=SchemeParams(n=8, k=4, s=1, m=1), backend="sim", seed=0
        )
        with Session.create(cfg) as sess:
            assert sess.obs is None
            assert sess.backend.obs is None

    def test_serve_report_and_summary_byte_identical(self):
        rep_off, _, summary_off = _run_serving(False)
        rep_on, _, summary_on = _run_serving(True)
        assert json.dumps(rep_off.to_dict(), sort_keys=True) == json.dumps(
            rep_on.to_dict(), sort_keys=True
        )
        assert rep_off.summary() == rep_on.summary()
        assert summary_off == summary_on

    def test_histograms_are_opt_in_only(self):
        rep, _, _ = _run_serving(False)
        assert "histograms" not in rep.to_dict()
        assert "histograms" in rep.to_dict(include_histograms=True)
        hist = rep.latency_histogram()
        assert hist.count == len(rep.served)
        merged = hist.merge(hist)
        assert merged.count == 2 * hist.count


class TestWindowAccountingParity:
    def test_windows_identical_obs_on_vs_off(self):
        _, gw_off, _ = _run_serving(False, control_interval=0.05)
        _, gw_on, _ = _run_serving(True, control_interval=0.05)
        assert len(gw_on.window_history) == len(gw_off.window_history)
        assert gw_on.window_history, "trace produced no control windows"
        for off, on in zip(gw_off.window_history, gw_on.window_history):
            a = dataclasses.asdict(off)
            b = dataclasses.asdict(on)
            assert a.keys() == b.keys()
            for key in a:
                va, vb = a[key], b[key]
                if isinstance(va, float) and np.isnan(va):
                    assert np.isnan(vb), key
                else:
                    assert va == vb, (key, va, vb)

    def test_registry_counters_match_report_totals(self):
        rep, gw, _ = _run_serving(True)
        counter = gw.obs.registry.get("gateway_requests_total")
        assert counter is not None
        assert counter.total() == rep.total
        served = sum(
            v
            for key, v in counter.series()
            if dict(key).get("status") == "served"
        )
        assert served == len(rep.served)


class TestRequestTraces:
    def test_gateway_run_traces_every_terminal_request(self):
        rep, gw, _ = _run_serving(True)
        tracer = gw.obs.tracer
        for outcome in rep.outcomes:
            tid = f"req-{outcome.request_id}"
            assert tracer.has(tid), tid
            root = tracer.root(tid)
            assert root.t_end is not None
            assert root.attrs["status"] == outcome.status
        served = rep.served[0]
        names = [
            s.name for s in tracer.resolved(f"req-{served.request_id}")
        ]
        for need in ("request", "gateway.queue", "session", "round"):
            assert need in names, (need, names)
