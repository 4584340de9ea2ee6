"""The serving gateway end to end: parity, shedding, fairness, report.

The load-bearing test is parity: whatever the admission, fairness and
batching policies do to *when* work runs, every served request must
decode to exactly the bytes unbatched execution produces — coalescing
is a scheduling optimization, never a numerical one.
"""

import json
import math

import numpy as np
import pytest

from repro.api import Session, SessionConfig, WorkerSpec
from repro.coding import SchemeParams
from repro.ff import DEFAULT_PRIME, PrimeField, ff_matmul, ff_matvec
from repro.serve import (
    ClosedLoopSource,
    Gateway,
    GatewayConfig,
    OpenLoopSource,
    PoissonArrivals,
    Request,
    ServeReport,
    TenantSpec,
    WorkloadGenerator,
)

F = PrimeField(DEFAULT_PRIME)
M, D = 24, 12
SCHEME = SchemeParams(n=12, k=4, s=2, m=1)  # feasible at deg_f=2 (gramian)
_NEXT_ID = iter(range(100_000))


def _session_config(**kw):
    base = dict(
        scheme=SCHEME,
        master="avcc",
        backend="sim",
        seed=5,
        batch_window=64,
        workers=tuple(
            [WorkerSpec(straggler_factor=4.0), WorkerSpec(behavior="reverse")]
            + [WorkerSpec() for _ in range(10)]
        ),
    )
    base.update(kw)
    return SessionConfig(**base)


def _x(seed=0):
    return F.random((M, D), np.random.default_rng(seed))


def _generator(seed=7, slack=math.inf, rate=200.0, mix=None):
    tenants = [
        TenantSpec("free", weight=1.0, deadline_slack=slack,
                   family_mix=mix or {"matvec": 1.0}, transpose_fraction=0.4),
        TenantSpec("pro", weight=2.0, deadline_slack=slack,
                   family_mix=mix or {"matvec": 1.0}),
    ]
    return WorkloadGenerator(F, (M, D), tenants, PoissonArrivals(rate), seed=seed)


def _expected(x, req):
    if req.family == "matvec":
        return ff_matvec(F, x.T.copy() if req.transpose else x, req.operand)
    if req.family == "gramian":
        return ff_matvec(F, ff_matmul(F, x.T.copy(), x), req.operand)
    return ff_matmul(F, req.operand, req.operand_b)


def _run(requests, session_cfg=None, gateway_cfg=None, x=None):
    x = _x() if x is None else x
    with Session.create(session_cfg or _session_config()) as sess:
        sess.load(x)
        gw = Gateway(sess, OpenLoopSource(requests), gateway_cfg or GatewayConfig())
        report = gw.run()
    return x, gw, report


class TestEndToEndParity:
    def test_batched_results_byte_identical_to_ground_truth(self):
        """The acceptance parity pin: every request served by the
        deadline-batched gateway decodes to exactly the unbatched
        answer."""
        reqs = _generator(slack=math.inf).generate(40)
        x, gw, report = _run(
            reqs,
            gateway_cfg=GatewayConfig(
                batch_policy="hybrid",
                policy_options={"window": 8, "safety": 1.5, "linger": 0.05},
            ),
        )
        assert len(report.served) == 40
        for req in reqs:
            assert gw.results[req.request_id].tobytes() == _expected(x, req).tobytes()

    def test_batched_matches_serial_gateway_bytes(self):
        reqs = _generator(seed=11).generate(30)
        x, serial_gw, serial_report = _run(
            reqs,
            gateway_cfg=GatewayConfig(batch_policy="count", policy_options={"window": 1}),
        )
        _, batched_gw, batched_report = _run(
            reqs,
            gateway_cfg=GatewayConfig(
                batch_policy="count", policy_options={"window": 8}
            ),
            x=x,
        )
        assert serial_report.rounds_executed == 30
        assert batched_report.rounds_executed < serial_report.rounds_executed
        for rid, vec in serial_gw.results.items():
            assert vec.tobytes() == batched_gw.results[rid].tobytes()

    def test_pipelined_gateway_matches_serial_bytes(self):
        reqs = _generator(seed=13).generate(24)
        x, serial_gw, _ = _run(reqs)
        _, piped_gw, piped_report = _run(
            reqs, session_cfg=_session_config(max_inflight_rounds=6), x=x
        )
        assert len(piped_report.served) == 24
        assert piped_report.pipeline_occupancy > 1.0
        for rid, vec in serial_gw.results.items():
            assert vec.tobytes() == piped_gw.results[rid].tobytes()

    def test_mixed_families_including_gramian_and_matmul(self):
        mix = {"matvec": 0.6, "gramian": 0.25, "matmul": 0.15}
        reqs = _generator(seed=17, mix=mix).generate(40)
        assert {r.family for r in reqs} == {"matvec", "gramian", "matmul"}
        x, gw, report = _run(
            reqs,
            gateway_cfg=GatewayConfig(
                batch_policy="hybrid",
                policy_options={"window": 6, "linger": 0.05},
            ),
        )
        assert len(report.served) == 40
        for req in reqs:
            assert gw.results[req.request_id].tobytes() == _expected(x, req).tobytes()


class TestBatchingBehavior:
    def test_serial_policy_runs_one_round_per_request(self):
        reqs = _generator(seed=3).generate(12)
        _, _, report = _run(
            reqs,
            gateway_cfg=GatewayConfig(batch_policy="count", policy_options={"window": 1}),
        )
        assert report.rounds_executed == 12
        assert report.batching_factor == 1.0

    def test_batched_policy_coalesces_rounds(self):
        reqs = _generator(seed=3, rate=2000.0).generate(32)
        _, _, report = _run(
            reqs,
            gateway_cfg=GatewayConfig(
                batch_policy="count", policy_options={"window": 8}
            ),
        )
        assert report.rounds_executed < 12
        assert report.batching_factor > 2.0

    def test_max_batch_caps_round_width(self):
        reqs = _generator(seed=3, rate=5000.0).generate(30)
        _, _, report = _run(
            reqs,
            gateway_cfg=GatewayConfig(
                batch_policy="count", policy_options={"window": 100}, max_batch=5
            ),
        )
        # flushed in <=5-wide rounds despite the huge window
        assert report.rounds_executed >= 6


class TestSheddingAndSLO:
    def test_requests_aging_past_deadline_are_shed_not_served(self):
        # tight 0.1 ms deadlines at 5000 rps against one-round-per-
        # request service: while a round executes (several simulated
        # ms) the requests queued behind it age out and must be shed,
        # not pointlessly executed
        reqs = _generator(slack=1e-4, rate=5000.0).generate(20)
        _, gw, report = _run(
            reqs,
            gateway_cfg=GatewayConfig(batch_policy="count", policy_options={"window": 1}),
        )
        # non-vacuous: the trace is rebased to the gateway's start, so
        # early requests really execute — only the ones that aged
        # behind a running round are shed
        assert len(report.served) >= 1
        assert report.shed_expired > 0
        assert len(report.served) + report.shed == 20
        assert report.slo_attainment < 1.0

    def test_queue_overflow_sheds(self):
        # a burst of simultaneous arrivals against depth-2 tenant queues
        ops = F.random(D, np.random.default_rng(0))
        reqs = [
            Request(request_id=next(_NEXT_ID), tenant="free", family="matvec",
                    arrival=0.5, operand=ops)
            for _ in range(12)
        ]
        _, _, report = _run(reqs, gateway_cfg=GatewayConfig(queue_depth=2))
        assert report.shed_queue_full > 0
        assert len(report.served) + report.shed == 12

    def test_served_within_deadline_counts_toward_slo(self):
        reqs = _generator(slack=10.0, rate=100.0).generate(15)
        _, _, report = _run(reqs)
        assert report.slo_attainment == 1.0
        for o in report.served:
            assert o.slo_met is True
            assert o.latency >= 0.0


class TestReport:
    def test_report_json_round_trip(self):
        reqs = _generator(slack=5.0).generate(10)
        _, _, report = _run(reqs)
        payload = json.dumps(report.to_dict())
        data = json.loads(payload)
        assert data["metrics"]["served"] == 10.0
        assert set(data["tenants"]) <= {"free", "pro"}
        assert len(data["requests"]) == 10
        # inf deadlines would break strict JSON; they must be sanitized
        assert "Infinity" not in payload

    def test_percentiles_and_throughput(self):
        reqs = _generator().generate(20)
        _, _, report = _run(reqs)
        assert 0 < report.p50 <= report.p95 <= report.p99
        assert report.throughput > 0
        assert report.duration > 0

    def test_tenant_summary_accounts_everyone(self):
        reqs = _generator().generate(25)
        _, _, report = _run(reqs)
        rows = report.tenant_summary()
        assert sum(int(r["submitted"]) for r in rows.values()) == 25

    def test_fairness_index_bounds(self):
        reqs = _generator().generate(25)
        _, _, report = _run(reqs)
        assert 0.0 < report.fairness_index() <= 1.0

    def test_empty_report_degenerates_cleanly(self):
        report = ServeReport(outcomes=(), t_start=0.0, t_end=0.0)
        assert report.total == 0
        assert math.isnan(report.p99)
        assert report.slo_attainment == 1.0
        assert report.throughput == 0.0
        assert report.fairness_index() == 1.0


class TestClosedLoop:
    def test_closed_loop_serves_every_client_request(self):
        gen = _generator(seed=23)
        src = ClosedLoopSource(gen, n_clients=4, think_time=0.005, requests_per_client=3)
        with Session.create(_session_config()) as sess:
            sess.load(_x())
            gw = Gateway(sess, src, GatewayConfig())
            report = gw.run()
        assert report.total == 12
        assert len(report.served) == 12
        # arrivals really were paced by completions
        arrivals = sorted(o.arrival for o in report.outcomes)
        assert arrivals[-1] > arrivals[3]

    def test_closed_loop_client_survives_a_shed(self):
        """A shed is a terminal outcome: the client still issues its
        remaining requests instead of silently going quiet."""
        gen = _generator(seed=31, slack=1e-4, rate=5000.0)
        src = ClosedLoopSource(gen, n_clients=3, think_time=1e-4, requests_per_client=4)
        with Session.create(_session_config()) as sess:
            sess.load(_x())
            gw = Gateway(
                sess,
                src,
                GatewayConfig(batch_policy="count", policy_options={"window": 1}),
            )
            report = gw.run()
        # every client issued its full budget despite sheds along the way
        assert report.total == 12
        assert report.shed_expired > 0
        assert len(report.served) + report.shed == 12


class TestGatewayGuards:
    def test_gateway_runs_once(self):
        reqs = _generator().generate(2)
        with Session.create(_session_config()) as sess:
            sess.load(_x())
            gw = Gateway(sess, OpenLoopSource(reqs), GatewayConfig())
            gw.run()
            with pytest.raises(RuntimeError, match="already ran"):
                gw.run()

    def test_gateway_respects_session_batch_window(self):
        with Session.create(_session_config(batch_window=4)) as sess:
            sess.load(_x())
            gw = Gateway(
                sess,
                OpenLoopSource([]),
                GatewayConfig(max_batch=32),
            )
            assert gw._batcher.max_batch == 4

    def test_config_validation(self):
        with pytest.raises(ValueError, match="max_batch"):
            GatewayConfig(max_batch=0)
        with pytest.raises(ValueError, match="queue_depth"):
            GatewayConfig(queue_depth=0)


class TestWallClockBackend:
    def test_threaded_backend_serves_trace(self):
        """The gateway must run against wall-clock backends: the
        arrival schedule replays as-fast-as-possible (advance_to only
        floors the clock) and every request still terminates served."""
        reqs = _generator(seed=29, rate=500.0).generate(8)
        cfg = _session_config(backend="threaded")
        x = _x()
        with Session.create(cfg) as sess:
            sess.load(x)
            gw = Gateway(
                sess,
                OpenLoopSource(reqs),
                GatewayConfig(
                    batch_policy="hybrid",
                    policy_options={"window": 4, "linger": 0.05},
                ),
            )
            report = gw.run()
        assert len(report.served) == 8
        for req in reqs:
            assert gw.results[req.request_id].tobytes() == _expected(x, req).tobytes()
        for o in report.served:
            assert o.latency >= 0.0
