"""Off-switch parity and registry-accounting parity.

With ``observability=False`` (the default) the observability layer
must be invisible: ``ServeReport.to_dict()`` and the session's
``SessionStats.summary()`` byte-identical to an untouched run, zero
obs objects allocated. With it on, the report must not change either,
and the registry's session and gateway series must be exact recounts
of the run's logs (``SessionStats.records`` and the report's terminal
outcomes), however often and from however many threads the registry
is read.
"""

import gc
import inspect
import json
import math
import threading
import weakref
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest

from repro.api import Session, SessionConfig
from repro.coding import SchemeParams
from repro.experiments.common import make_serving_workload
from repro.obs import Observability, Tracer
from repro.obs import metrics as metrics_mod
from repro.obs.metrics import snapshot_from_values
from repro.serve import Gateway, GatewayConfig, OpenLoopSource, Request

SHAPE = (48, 24)


def _run_serving(observability, *, n_requests=60):
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
        )
        report = gateway.run()
        return report, gateway, sess.stats.summary()


#: every method of these is observability work ...
_OBS_CLASSES = (
    Observability,
    Tracer,
    metrics_mod.MetricsRegistry,
    metrics_mod.Counter,
    metrics_mod.Gauge,
    metrics_mod.Histogram,
)
#: ... and so are the session's and the gateway's hooks into them
_OBS_HOOKS = {
    Session: ("_trace_submit", "_trace_round"),
    Gateway: ("_trace_admit", "_trace_dequeue_batch", "_trace_finish"),
}
#: the calls each request of `_serve_paced`'s trace costs with
#: observability on: one request, one round, one outcome. The only
#: metric writes are the backend's per-dispatch ones; the session and
#: gateway series are folded from their logs when the registry is read
PER_REQUEST = {
    "Gateway._trace_admit": 1,
    "Gateway._trace_dequeue_batch": 1,
    "Gateway._trace_finish": 1,
    "Session._trace_submit": 1,
    "Session._trace_round": 1,
    "Observability.on_dispatch": 1,
    "Observability.next_round_trace_id": 1,
    "Tracer.begin_request": 2,
    "Tracer.end": 1,
    "Tracer.end_many": 1,
    "Tracer.link_rounds": 1,
    "Tracer.record_round": 1,
    "Counter.inc": 2,
    "Gauge.set": 1,
}


@pytest.fixture
def obs_calls(monkeypatch):
    """Calls of every method of the observability classes and of the
    hooks, by ``Class.method``, counted from here on."""
    calls = Counter()
    targets = [
        (cls, name)
        for cls in _OBS_CLASSES
        for name, attr in vars(cls).items()
        if inspect.isfunction(attr) and (name == "__init__" or not name.startswith("__"))
    ]
    targets += [(cls, name) for cls, names in _OBS_HOOKS.items() for name in names]
    for cls, name in targets:

        def counted(*args, _real=vars(cls)[name], _key=f"{cls.__name__}.{name}", **kwargs):
            calls[_key] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(cls, name, counted)
    return calls


def _serve_paced(observability, n_requests):
    """``n_requests`` requests a second apart with no deadline: each is
    served alone, in a round of its own."""
    cfg = SessionConfig(
        scheme=SchemeParams(n=8, k=4, s=1, m=1),
        backend="sim",
        seed=0,
        observability=observability,
    )
    with Session.create(cfg) as sess:
        sess.load(sess.field.random(SHAPE, np.random.default_rng(0)))
        rng = np.random.default_rng(1)
        reqs = [
            Request(
                request_id=i,
                tenant="a",
                family="matvec",
                operand=sess.field.random(SHAPE[1], rng),
                arrival=float(i),
                deadline=math.inf,
            )
            for i in range(n_requests)
        ]
        gateway = Gateway(
            sess,
            OpenLoopSource(reqs),
            GatewayConfig(batch_policy="count", policy_options={"window": 1}),
        )
        report = gateway.run()
    assert len(report.served) == report.rounds_executed == n_requests
    return report


class TestOffSwitchParity:
    def test_obs_calls_off_and_per_request(self, obs_calls):
        """Off means off: a served trace with ``observability=False``
        makes no call into the tracer, the registry or a metric, and
        runs none of the session's or the gateway's trace hooks. On,
        every request of a paced trace costs the same calls, pinned in
        ``PER_REQUEST``, so a hook added to the request path shows."""
        _serve_paced(False, 8)
        assert not obs_calls
        totals = []
        for n in (4, 8, 12):
            obs_calls.clear()
            _serve_paced(True, n)
            totals.append(Counter(obs_calls))
        steps = [
            {k: (b[k] - a[k]) / 4 for k in a.keys() | b.keys() if b[k] != a[k]}
            for a, b in zip(totals, totals[1:])
        ]
        assert steps == [PER_REQUEST, PER_REQUEST]

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


class TestRegistryAccountingParity:
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


def _mixed_verdict_trace(field, rng):
    """An 8-request burst a depth-2 queue sheds, then a paced tail over
    two tenants where every third request carries a deadline no round
    can meet and every fourth carries none."""
    reqs = [
        Request(
            request_id=i,
            tenant="a",
            family="matvec",
            operand=field.random(5, rng),
            arrival=0.0,
            deadline=1.0,
        )
        for i in range(8)
    ]
    for i in range(16):
        t = 0.1 + 0.03 * i
        slack = math.inf if i % 4 == 3 else 1e-4 if i % 3 == 0 else 0.5
        reqs.append(
            Request(
                request_id=len(reqs),
                tenant="ab"[i % 2],
                family="matvec",
                operand=field.random(5, rng),
                arrival=t,
                deadline=t + slack,
            )
        )
    return reqs


def _serve_mixed(backend, rng, scrapers=()):
    """Serve `_mixed_verdict_trace` with observability on, while each
    of ``scrapers`` (callables taking the registry) reads the registry
    in a loop on its own thread. Returns the report, the session's
    stats and the registry."""
    cfg = SessionConfig(
        scheme=SchemeParams(n=6, k=2, s=1, m=1),
        backend=backend,
        seed=0,
        observability=True,
        backend_options={"straggle_scale": 0.002} if backend == "tcp" else {},
    )
    with Session.create(cfg) as sess:
        sess.load(sess.field.random((6, 5), rng))
        reqs = _mixed_verdict_trace(sess.field, rng)
        gw = Gateway(sess, OpenLoopSource(reqs), GatewayConfig(queue_depth=2))
        registry = sess.obs.registry
        done = threading.Event()
        reads = Counter()

        def scrape(read):
            while not done.is_set():
                read(registry)
                reads[read] += 1

        threads = [threading.Thread(target=scrape, args=(r,)) for r in scrapers]
        for t in threads:
            t.start()
        try:
            rep = gw.run()
        finally:
            done.set()
            for t in threads:
                t.join(timeout=30.0)
        assert not any(t.is_alive() for t in threads)
        assert all(reads[r] > 0 for r in scrapers)
        assert rep.total == len(reqs)
        return rep, sess.stats, registry


class TestSeriesRecount:
    """The gateway's four request series recount the report's terminal
    outcomes, and the session's five round series recount
    ``SessionStats.records`` and ``jobs_per_round``, series by series."""

    def test_series_recount_the_report(self, rng):
        rep, stats, registry = _serve_mixed("sim", rng)
        verdicts = {(o.status == "served", o.slo_met) for o in rep.outcomes}
        assert verdicts == {(True, True), (True, False), (False, False), (True, None)}
        _assert_series_recount(rep, registry)
        _assert_session_recount(stats, registry)

    def test_series_recount_a_tcp_run(self, rng):
        """On the wall clock which deadlines are met varies run to run;
        whatever the verdicts, the series recount them exactly."""
        rep, stats, registry = _serve_mixed("tcp", rng)
        assert rep.shed_queue_full == 6  # the burst overflows at admission
        _assert_series_recount(rep, registry)
        _assert_session_recount(stats, registry)

    @pytest.mark.parametrize("backend", ["sim", "tcp"])
    def test_session_series_recount_the_round_log(self, backend, rng):
        """Rounds of both families and of widths 1 to 3, read between
        rounds and after: each read folds only the rounds since the
        last, and the five series equal their recount every time."""
        cfg = SessionConfig(
            scheme=SchemeParams(n=6, k=2, s=1, m=1),
            backend=backend,
            seed=0,
            batch_window=8,
            observability=True,
            backend_options={"straggle_scale": 0.002} if backend == "tcp" else {},
        )
        with Session.create(cfg) as sess:
            sess.load(sess.field.random((6, 5), rng))
            registry = sess.obs.registry
            for width in (1, 3, 2):
                for _ in range(width):
                    sess.submit_matvec(sess.field.random(5, rng))
                sess.submit_matvec(sess.field.random(6, rng), transpose=True)
                sess.flush()
                sess.drain()
                _assert_session_recount(sess.stats, registry)
            stats = sess.stats
        assert sorted(stats.jobs_per_round) == [1, 1, 1, 1, 2, 3]
        _assert_session_recount(stats, registry)

    def test_reads_in_any_order_change_no_value(self, rng):
        """``get``, then ``render_prometheus``, then ``snapshot``: the
        first read folds the logs, the later ones find nothing new."""
        rep, stats, registry = _serve_mixed("sim", rng)
        names = sorted(SESSION_SERIES + GATEWAY_SERIES)
        first = {name: registry.get(name).snapshot() for name in names}
        text = registry.render_prometheus()
        snap = registry.snapshot()
        assert {name: snap[name]["series"] for name in names} == first
        assert registry.render_prometheus() == text
        assert registry.snapshot() == snap
        assert {name: registry.get(name).snapshot() for name in names} == first
        _assert_series_recount(rep, registry)
        _assert_session_recount(stats, registry)

    def test_concurrent_scrapes_fold_each_entry_once(self, rng):
        """Two threads read the registry in a loop while a tcp gateway
        serves; the series still equal their recount afterwards."""
        rep, stats, registry = _serve_mixed(
            "tcp",
            rng,
            scrapers=(
                lambda reg: reg.render_prometheus(),
                lambda reg: reg.snapshot(),
            ),
        )
        _assert_series_recount(rep, registry)
        _assert_session_recount(stats, registry)

    def test_registry_keeps_no_finished_gateway_alive(self, rng):
        """The session's collector holds the outcome log, not the
        gateway: a finished gateway and its result vectors are freed,
        and its outcomes still count."""
        cfg = SessionConfig(
            scheme=SchemeParams(n=6, k=2, s=1, m=1),
            backend="sim",
            seed=0,
            observability=True,
        )
        with Session.create(cfg) as sess:
            sess.load(sess.field.random((6, 5), rng))
            gw = Gateway(sess, OpenLoopSource(_mixed_verdict_trace(sess.field, rng)))
            rep = gw.run()
            gone = weakref.ref(gw)
            del gw
            gc.collect()
            assert gone() is None
            _assert_series_recount(rep, sess.obs.registry)

    def test_gateways_on_one_session_share_one_collector(self, rng):
        """Three observed gateways run one after another on one session,
        with a registry read after each: the registry holds the same
        collectors after the third as before the first, each read
        drains the outcome log, and the nine series recount all three
        reports and the whole round log."""
        cfg = SessionConfig(
            scheme=SchemeParams(n=6, k=2, s=1, m=1),
            backend="sim",
            seed=0,
            observability=True,
        )
        with Session.create(cfg) as sess:
            sess.load(sess.field.random((6, 5), rng))
            registry = sess.obs.registry
            collectors = list(registry._collectors)
            outcomes = []
            for _ in range(3):
                reqs = _mixed_verdict_trace(sess.field, rng)
                gw = Gateway(sess, OpenLoopSource(reqs), GatewayConfig(queue_depth=2))
                outcomes += gw.run().outcomes
                assert len(sess.obs.outcomes) == len(reqs)
                registry.snapshot()
                assert sess.obs.outcomes == []
            assert registry._collectors == collectors
            served = [o for o in outcomes if o.status == "served"]
            _assert_series_recount(SimpleNamespace(outcomes=outcomes, served=served), registry)
            _assert_session_recount(sess.stats, registry)


SESSION_SERIES = [
    "session_rounds_total",
    "session_jobs_served_total",
    "session_round_duration_seconds",
    "session_verify_seconds",
    "session_decode_seconds",
]
GATEWAY_SERIES = [
    "gateway_requests_total",
    "gateway_slo_requests_total",
    "gateway_request_latency_seconds",
    "gateway_deadline_slack_seconds",
]


def _same_histogram(hist, labels, values):
    got = hist.snapshot_of(**labels)
    want = snapshot_from_values(values, hist.bounds)
    assert got.counts == want.counts
    assert got.sum == pytest.approx(want.sum)


def _assert_session_recount(stats, registry):
    """Each of the session's round series equals its recount from the
    round log."""
    records = stats.records
    assert records and len(records) == len(stats.jobs_per_round)
    families = Counter(r.round_name for r in records)
    rounds = registry.get("session_rounds_total")
    assert dict(rounds.series()) == {
        (("family", f),): n for f, n in families.items()
    }
    jobs = registry.get("session_jobs_served_total")
    assert dict(jobs.series()) == {(): sum(stats.jobs_per_round)}
    durations = registry.get("session_round_duration_seconds")
    assert {dict(k)["family"] for k, _ in durations.series()} == set(families)
    for family in families:
        _same_histogram(
            durations,
            {"family": family},
            [r.duration for r in records if r.round_name == family],
        )
    _same_histogram(
        registry.get("session_verify_seconds"), {}, [r.verify_time for r in records]
    )
    _same_histogram(
        registry.get("session_decode_seconds"), {}, [r.decode_time for r in records]
    )


def _assert_series_recount(rep, registry):
    """Each of the gateway's request series equals its recount from
    the report's terminal outcomes."""
    outcomes = rep.outcomes
    timed = [o for o in outcomes if math.isfinite(o.deadline)]
    requests = registry.get("gateway_requests_total")
    assert dict(requests.series()) == {
        (("family", f), ("status", s), ("tenant", t)): n
        for (s, t, f), n in Counter(
            (o.status, o.tenant, o.family) for o in outcomes
        ).items()
    }
    slo = registry.get("gateway_slo_requests_total")
    assert dict(slo.series()) == {
        (("met", met),): n
        for met, n in Counter(str(o.slo_met) for o in timed).items()
    }
    latency = registry.get("gateway_request_latency_seconds")
    assert {dict(k)["tenant"] for k, _ in latency.series()} == {"a", "b"}
    for tenant in ("a", "b"):
        _same_histogram(
            latency,
            {"tenant": tenant},
            [o.latency for o in rep.served if o.tenant == tenant],
        )
    slack = registry.get("gateway_deadline_slack_seconds")
    _same_histogram(
        slack,
        {},
        [o.deadline - o.completed for o in timed if o.status == "served"],
    )


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
