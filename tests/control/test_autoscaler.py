"""The control plane: autoscaling policy, gateway windows, actuation.

The :class:`~repro.control.autoscaler.Autoscaler` is pure decision
logic, so its hysteresis/cooldown/clamp behavior is pinned on
synthetic signal streams. The gateway's window builder is exercised on
the simulator (including the invariant that turning the control plane
*on* never changes a single served byte), and the
:class:`~repro.control.controller.FleetController` actuation path runs
against a real loopback TCP fleet — scale-up must heal a SIGKILLed
worker end to end (restart daemon → dial → admit → re-code).
"""

import dataclasses
import math
import os
import signal
import time

import numpy as np
import pytest

from repro.api import Session, SessionConfig, WorkerSpec
from repro.coding import SchemeParams
from repro.control import (
    Autoscaler,
    AutoscalerConfig,
    FleetController,
    WindowSignals,
)
from repro.ff import PrimeField, ff_matvec
from repro.serve import Gateway, GatewayConfig, OpenLoopSource, Request

F = PrimeField()


def _signals(
    i=0,
    *,
    slo=1.0,
    queue=0,
    completed=20,
    shed=0,
    live=4,
    pending=0,
    dead=0,
):
    return WindowSignals(
        window_index=i,
        t_start=i * 1.0,
        t_end=(i + 1) * 1.0,
        completed=completed,
        served=completed - shed,
        shed=shed,
        queue_depth=queue,
        slo_attainment=slo,
        p99_latency=0.05,
        deadline_slack=0.1,
        live_workers=live,
        pending_workers=pending,
        dead_workers=dead,
    )


# ----------------------------------------------------------------------
# policy: hysteresis, cooldown, clamps, precedence
# ----------------------------------------------------------------------
class TestAutoscalerPolicy:
    def test_single_breach_window_holds(self):
        scaler = Autoscaler(AutoscalerConfig(scale_up_after=2))
        assert scaler.observe(_signals(slo=0.5)).action == "hold"

    def test_persistent_breach_scales_up(self):
        scaler = Autoscaler(AutoscalerConfig(scale_up_after=2, scale_step=2))
        scaler.observe(_signals(0, slo=0.5))
        decision = scaler.observe(_signals(1, slo=0.5))
        assert decision.action == "scale_up" and decision.delta == 2
        assert "slo" in decision.reason

    def test_breach_streak_resets_on_calm_window(self):
        scaler = Autoscaler(AutoscalerConfig(scale_up_after=2))
        scaler.observe(_signals(0, slo=0.5))
        scaler.observe(_signals(1))  # calm: streak resets
        assert scaler.observe(_signals(2, slo=0.5)).action == "hold"

    def test_queue_and_shed_are_breaches_too(self):
        scaler = Autoscaler(AutoscalerConfig(scale_up_after=1, queue_high=4))
        assert scaler.observe(_signals(queue=9)).action == "scale_up"
        scaler = Autoscaler(AutoscalerConfig(scale_up_after=1, shed_high=0.1))
        decision = scaler.observe(_signals(completed=10, shed=5))
        assert decision.action == "scale_up" and "shed" in decision.reason

    def test_cooldown_blocks_scaling_but_not_recode(self):
        scaler = Autoscaler(
            AutoscalerConfig(scale_up_after=1, cooldown_windows=2)
        )
        assert scaler.observe(_signals(0, slo=0.5)).action == "scale_up"
        # still breaching, but refractory: hold...
        assert scaler.observe(_signals(1, slo=0.5)).action == "hold"
        # ...unless there is roster drift, which reconciles for free
        decision = scaler.observe(_signals(2, slo=0.5, pending=1))
        assert decision.action == "recode" and "cooldown" in decision.reason

    def test_scale_up_clamped_at_max_workers(self):
        scaler = Autoscaler(AutoscalerConfig(scale_up_after=1, max_workers=4))
        decision = scaler.observe(_signals(slo=0.5, live=4))
        assert decision.action == "hold" and "max_workers" in decision.reason
        scaler = Autoscaler(
            AutoscalerConfig(scale_up_after=1, max_workers=4, scale_step=3)
        )
        assert scaler.observe(_signals(slo=0.5, live=3)).delta == 1

    def test_calm_streak_scales_down_with_min_clamp(self):
        cfg = AutoscalerConfig(scale_down_after=3, min_workers=3, scale_step=2)
        scaler = Autoscaler(cfg)
        for i in range(2):
            assert scaler.observe(_signals(i, live=4)).action == "hold"
        decision = scaler.observe(_signals(2, live=4))
        assert decision.action == "scale_down"
        assert decision.delta == 1  # 4 live, min 3: only one to give
        scaler = Autoscaler(cfg)
        for i in range(5):  # never below min_workers
            assert scaler.observe(_signals(i, live=3)).action != "scale_down"

    def test_recode_fires_on_roster_drift_alone(self):
        scaler = Autoscaler()
        assert scaler.observe(_signals(pending=2)).action == "recode"
        assert scaler.observe(_signals(dead=1)).action == "recode"
        assert scaler.observe(_signals()).action == "hold"

    def test_decisions_are_recorded_in_order(self):
        scaler = Autoscaler(AutoscalerConfig(scale_up_after=1))
        scaler.observe(_signals(0))
        scaler.observe(_signals(1, slo=0.5))
        assert [d.action for d in scaler.decisions] == ["hold", "scale_up"]

    @pytest.mark.parametrize(
        "bad",
        [
            {"slo_target": 0.0},
            {"slo_target": 1.5},
            {"queue_high": 0},
            {"shed_high": 1.5},
            {"scale_up_after": 0},
            {"cooldown_windows": -1},
            {"min_workers": 0},
            {"min_workers": 9, "max_workers": 4},
            {"scale_step": 0},
        ],
    )
    def test_config_validation(self, bad):
        with pytest.raises(ValueError):
            AutoscalerConfig(**bad)


class TestWindowSignals:
    def test_shed_rate(self):
        assert _signals(completed=10, shed=3).shed_rate == pytest.approx(0.3)
        assert _signals(completed=0).shed_rate == 0.0

    def test_to_dict_sanitizes_non_finite(self):
        s = WindowSignals(
            window_index=0,
            t_start=0.0,
            t_end=1.0,
            completed=0,
            served=0,
            shed=0,
            queue_depth=0,
            slo_attainment=1.0,
            p99_latency=math.nan,
            deadline_slack=math.inf,
            live_workers=4,
            pending_workers=0,
            dead_workers=0,
        )
        d = s.to_dict()
        assert d["p99_latency"] is None and d["deadline_slack"] is None
        assert d["shed_rate"] == 0.0


# ----------------------------------------------------------------------
# gateway windows on the simulator
# ----------------------------------------------------------------------
def _sim_session(n=4):
    return Session.create(
        SessionConfig(
            scheme=SchemeParams(n=n, k=2, s=1, m=0),
            master="avcc",
            backend="sim",
        )
    )


def _requests(field, d, n, rng, *, spacing=0.03, slack=0.5):
    return [
        Request(
            request_id=i,
            tenant="t",
            family="matvec",
            operand=field.random(d, rng),
            arrival=i * spacing,
            deadline=i * spacing + slack,
        )
        for i in range(n)
    ]


class TestGatewayWindows:
    def test_controller_requires_interval(self):
        with _sim_session() as sess:
            with pytest.raises(ValueError, match="control_interval"):
                Gateway(
                    sess,
                    OpenLoopSource([]),
                    GatewayConfig(),
                    controller=FleetController(sess),
                )
            with pytest.raises(ValueError, match="> 0"):
                Gateway(
                    sess, OpenLoopSource([]), GatewayConfig(), control_interval=0.0
                )

    def test_windows_summarize_the_run(self, rng):
        x = F.random((6, 5), rng)
        with _sim_session() as sess:
            sess.load(x)
            reqs = _requests(F, 5, 12, rng)
            gw = Gateway(
                sess,
                OpenLoopSource(reqs),
                GatewayConfig(),
                control_interval=0.1,
            )
            gw.run()
        assert gw.window_history, "no control windows were built"
        for i, w in enumerate(gw.window_history):
            assert w.window_index == i
            assert w.t_end == pytest.approx(w.t_start + 0.1)
            assert w.completed == w.served + w.shed
            assert w.live_workers == 4
        assert sum(w.completed for w in gw.window_history) <= len(reqs)

    def test_control_plane_never_changes_served_bytes(self, rng):
        """The parity invariant: observing windows (with no controller
        attached) must not perturb a single scheduling decision."""
        x = F.random((6, 5), rng)

        def run(interval):
            with _sim_session() as sess:
                sess.load(x)
                rr = np.random.default_rng(11)
                gw = Gateway(
                    sess,
                    OpenLoopSource(_requests(F, 5, 16, rr)),
                    GatewayConfig(),
                    control_interval=interval,
                )
                gw.run()
            return gw.results

        plain, windowed = run(None), run(0.07)
        assert set(plain) == set(windowed)
        for rid in plain:
            np.testing.assert_array_equal(plain[rid], windowed[rid])


# ----------------------------------------------------------------------
# window contents recounted from the report's terminal outcomes
# ----------------------------------------------------------------------
def _burst(field, d, n, rng):
    """``n`` requests arriving together at t=0 with a 1 s deadline."""
    return [
        Request(
            request_id=i,
            tenant="t",
            family="matvec",
            operand=field.random(d, rng),
            arrival=0.0,
            deadline=1.0,
        )
        for i in range(n)
    ]


def _windowed_run(
    reqs, x, *, config=None, workers=(), interval=0.05, backend="sim"
):
    """Serve ``reqs`` with control windows on; returns ``(windows,
    windowed)`` where ``windowed`` are the report's outcomes that some
    closed window accounted for (the rest finished after the last
    window closed and are still the gateway's open tail)."""
    cfg = SessionConfig(
        scheme=SchemeParams(n=6, k=2, s=1, m=1),
        master="avcc",
        backend=backend,
        workers=workers,
    )
    with Session.create(cfg) as sess:
        sess.load(x)
        gw = Gateway(
            sess,
            OpenLoopSource(reqs),
            config or GatewayConfig(),
            control_interval=interval,
        )
        report = gw.run()
    tail = {o.request_id for o in gw._fresh_outcomes}
    windowed = [o for o in report.outcomes if o.request_id not in tail]
    assert report.total == len(reqs)
    assert gw.window_history, "trace produced no control windows"
    return gw.window_history, windowed


class TestWindowRecount:
    @pytest.mark.parametrize("backend", ["sim", "tcp"])
    def test_windows_count_their_outcomes_by_status(self, backend, rng):
        x = F.random((6, 5), rng)
        windows, windowed = _windowed_run(
            _requests(F, 5, 16, rng), x, backend=backend
        )
        assert sum(w.completed for w in windows) == len(windowed)
        assert sum(w.served for w in windows) == sum(
            1 for o in windowed if o.status == "served"
        )
        assert sum(w.shed for w in windows) == sum(
            1 for o in windowed if o.status != "served"
        )

    def test_window_slo_attainment_recounts_deadline_verdicts(self, rng):
        x = F.random((6, 5), rng)
        # a burst a depth-2 queue sheds, then a paced tail where every
        # third request carries a deadline no round can meet
        reqs = _burst(F, 5, 8, rng)
        for r in _requests(F, 5, 12, rng):
            slack = 1e-4 if r.request_id % 3 == 0 else 0.5
            reqs.append(
                dataclasses.replace(
                    r,
                    request_id=len(reqs),
                    arrival=r.arrival + 0.1,
                    deadline=r.arrival + 0.1 + slack,
                )
            )
        windows, windowed = _windowed_run(
            reqs, x, config=GatewayConfig(queue_depth=2)
        )
        verdicts = {(o.status == "served", o.slo_met) for o in windowed}
        assert verdicts == {(True, True), (True, False), (False, False)}
        # every request carries a deadline, so each window's
        # attainment is (met / completed) over its own outcomes, sheds
        # and late completions both counting as misses
        met = sum(1 for o in windowed if o.slo_met)
        assert sum(w.slo_attainment * w.completed for w in windows) == (
            pytest.approx(met)
        )

    @pytest.mark.parametrize("backend", ["sim", "tcp"])
    def test_window_tail_stats_come_from_served_outcomes(self, backend, rng):
        x = F.random((6, 5), rng)
        windows, windowed = _windowed_run(
            _requests(F, 5, 16, rng), x, backend=backend
        )
        served = [o for o in windowed if o.status == "served"]
        lats = [o.latency for o in served]
        slacks = [
            w.deadline_slack for w in windows if math.isfinite(w.deadline_slack)
        ]
        p99s = [w.p99_latency for w in windows if math.isfinite(w.p99_latency)]
        assert min(slacks) == min(o.deadline - o.completed for o in served)
        assert min(lats) <= min(p99s) <= max(p99s) <= max(lats)
        for w in windows:
            assert math.isnan(w.p99_latency) == (w.served == 0)

    @pytest.mark.parametrize("backend", ["sim", "tcp"])
    def test_queue_full_sheds_land_in_windows(self, backend, rng):
        x = F.random((6, 5), rng)
        windows, windowed = _windowed_run(
            _burst(F, 5, 8, rng),
            x,
            config=GatewayConfig(queue_depth=2),
            backend=backend,
        )
        sheds = [o for o in windowed if o.status == "shed-queue-full"]
        assert sheds, "a depth-2 queue must shed part of an 8-request burst"
        assert windows[0].shed == len(sheds)
        assert windows[0].shed_rate > 0.0

    def test_deadline_free_windows_read_full_slo_and_no_slack(self, rng):
        x = F.random((6, 5), rng)
        reqs = [
            Request(
                request_id=i,
                tenant="t",
                family="matvec",
                operand=F.random(5, rng),
                arrival=i * 0.03,
            )
            for i in range(10)
        ]
        windows, windowed = _windowed_run(reqs, x)
        assert sum(w.served for w in windows) == len(windowed) > 0
        for w in windows:
            assert w.slo_attainment == 1.0
            assert math.isnan(w.deadline_slack)

    def test_byzantine_worker_is_reported_in_windows(self, rng):
        x = F.random((6, 5), rng)
        workers = [WorkerSpec(behavior="reverse")] + [WorkerSpec()] * 5
        windows, _ = _windowed_run(_requests(F, 5, 12, rng), x, workers=workers)
        assert max(w.detected_byzantine for w in windows) == 1

    def test_windows_report_the_fleet_roster(self, rng):
        x = F.random((6, 5), rng)
        windows, _ = _windowed_run(_requests(F, 5, 12, rng), x)
        for w in windows:
            assert (w.live_workers, w.pending_workers, w.dead_workers) == (6, 0, 0)


# ----------------------------------------------------------------------
# actuation against a real TCP fleet
# ----------------------------------------------------------------------
def _tcp_session(n=4, k=2):
    return Session.create(
        SessionConfig(
            scheme=SchemeParams(n=n, k=k, s=1, m=0),
            master="avcc",
            backend="tcp",
            backend_options={
                "straggle_scale": 0.002,
                "heartbeat_interval": 0.05,
                "heartbeat_timeout": 0.5,
            },
        )
    )


class TestFleetControllerActuation:
    def test_scale_up_heals_a_killed_worker(self, rng):
        """Two breach windows after a SIGKILL: the controller restarts
        the dead daemon, waits for the dial, and re-codes it back in —
        with served answers still exact."""
        x = F.random((6, 5), rng)
        v = F.random(5, rng)
        with _tcp_session() as sess:
            sess.load(x)
            os.kill(sess.backend.worker_pids()[3], signal.SIGKILL)
            deadline = time.monotonic() + 30.0
            while 3 not in sess.backend.membership().dead:
                assert time.monotonic() < deadline, "death never detected"
                sess.submit_matvec(v).result()  # rounds observe the death
            sess.end_iteration()  # evict from the roster
            assert sess.master.scheme_now[0] == 3

            ctrl = FleetController(
                sess, Autoscaler(AutoscalerConfig(scale_up_after=2))
            )
            assert ctrl.on_window(_signals(0, slo=0.5, live=3)).action == "hold"
            decision = ctrl.on_window(_signals(1, slo=0.5, live=3))
            assert decision.action == "scale_up"
            view = sess.backend.membership()
            assert view.live == (0, 1, 2, 3) and view.dead == ()
            assert sess.master.scheme_now[0] == 4
            _, outcome = ctrl.actions[-1]
            assert outcome is not None and outcome.joined_workers == (3,)
            np.testing.assert_array_equal(
                sess.submit_matvec(v).result(), ff_matvec(F, x, v)
            )

    def test_recode_admits_a_pending_joiner(self, rng):
        x = F.random((6, 5), rng)
        v = F.random(5, rng)
        with _tcp_session() as sess:
            sess.load(x)
            wid = sess.backend.spawn_worker()
            ctrl = FleetController(sess)
            ctrl._await_dialed({wid})
            decision = ctrl.on_window(_signals(pending=1))
            assert decision.action == "recode"
            assert sess.master.scheme_now[0] == 5
            assert wid in sess.backend.membership().live
            np.testing.assert_array_equal(
                sess.submit_matvec(v).result(), ff_matvec(F, x, v)
            )

    def test_scale_down_releases_highest_ids(self, rng):
        x = F.random((6, 5), rng)
        v = F.random(5, rng)
        with _tcp_session(n=5, k=2) as sess:
            sess.load(x)
            scaler = Autoscaler(
                AutoscalerConfig(scale_down_after=1, min_workers=2)
            )
            ctrl = FleetController(sess, scaler)
            decision = ctrl.on_window(_signals(live=5))
            assert decision.action == "scale_down"
            view = sess.backend.membership()
            assert view.live == (0, 1, 2, 3) and view.dropped == (4,)
            assert sess.master.scheme_now[0] == 4
            np.testing.assert_array_equal(
                sess.submit_matvec(v).result(), ff_matvec(F, x, v)
            )

    @pytest.mark.parametrize("backend", ["sim", "tcp"])
    def test_released_worker_is_dropped_in_the_view_and_never_picked_again(
        self, backend, rng
    ):
        """Both backends report a released worker under ``dropped`` and
        not ``live``, so the next scale-down picks among the others."""
        x = F.random((6, 5), rng)
        v = F.random(5, rng)
        with _sim_session(n=5) if backend == "sim" else _tcp_session(n=5, k=2) as sess:
            sess.load(x)
            sess.release_workers([2])
            view = sess.backend.membership()
            assert (view.live, view.dropped) == ((0, 1, 3, 4), (2,))
            scaler = Autoscaler(AutoscalerConfig(scale_down_after=1, min_workers=2))
            ctrl = FleetController(sess, scaler)
            assert ctrl.on_window(_signals(live=4)).action == "scale_down"
            view = sess.backend.membership()
            assert (view.live, view.dropped) == ((0, 1, 3), (2, 4))
            assert sess.master.active == [0, 1, 3]
            np.testing.assert_array_equal(
                sess.submit_matvec(v).result(), ff_matvec(F, x, v)
            )

    def test_scale_up_needs_an_elastic_backend(self):
        with _sim_session() as sess:
            ctrl = FleetController(
                sess, Autoscaler(AutoscalerConfig(scale_up_after=1))
            )
            with pytest.raises(RuntimeError, match="cannot spawn"):
                ctrl.on_window(_signals(slo=0.5))
