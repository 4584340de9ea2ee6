"""Elastic fleet under failure: fixed roster vs the SLO autoscaler.

Two gateway runs replay the *same* deadline-carrying open-loop trace
over a real loopback TCP fleet of 8 worker daemons (scheme ``(n=8,
k=6, S=1)``, one injected 8x straggler) after two healthy workers are
SIGKILLed before the trace starts:

* **fixed** — no control plane. The dead pair stays in the coding
  roster as permanent erasures, so every round must wait for *all* six
  survivors — including the straggler, whose injected sleep exceeds
  the request SLO. Deadline misses pile up for the whole run.
* **autoscaled** — the gateway closes a control window every 250 ms
  and feeds it to the PR 7 control plane. The first window sees the
  dead workers and the SLO burst: the controller re-codes (evicting
  the dead pair and re-deriving K so the straggler is droppable
  again) and scales back up (restarting both daemons, admitting them
  at the quiesce, re-coding to the provisioned ``(8, 6)``). SLO
  attainment recovers for the rest of the trace.

CI gates (``bench-autoscale`` job, ``autoscale_*`` keys):

* ``autoscale_recode_recovered`` — 1.0 iff the autoscaled run ends
  with the full provisioned roster live and the scheme back at
  ``(8, 6)``. Binary, tolerance 0.
* ``autoscale_served_fraction`` — served fraction of the autoscaled
  run (the fixed run's served answers also stay byte-exact — coding
  changes are never allowed to corrupt results, only to delay them).
* ``autoscale_slo_uplift`` — autoscaled minus fixed SLO attainment;
  the loose floor guards the headline without depending on runner
  speed.

No wall-clock rate is gated: a round rate from one run of a shared
runner gates nothing, and the repo benchmark (``BENCHMARK.json``,
``benchmarks/e2e``) measures socket-fleet throughput with quartiles.

Byte-level parity is asserted in-bench: every served answer in both
runs must equal the plain-field ground truth.
"""

import os
import signal
import time

import numpy as np

from _metrics import record_metric
from repro.api import Session, SessionConfig, WorkerSpec
from repro.coding import SchemeParams
from repro.control import Autoscaler, AutoscalerConfig, FleetController
from repro.ff import PrimeField, ff_matvec
from repro.serve import Gateway, GatewayConfig, OpenLoopSource, Request

F = PrimeField()

SHAPE = (96, 48)
N_REQUESTS = 120
SPACING = 0.03  # seconds between arrivals (open loop)
SLACK = 0.08  # relative deadline: generous vs a healthy round,
#               hopeless vs the straggler's 70 ms injected sleep
KILLED = (6, 7)
STRAGGLER = 1
STRAGGLE_FACTOR = 8.0
CONTROL_INTERVAL = 0.25


def _config():
    workers = tuple(
        WorkerSpec(straggler_factor=STRAGGLE_FACTOR if i == STRAGGLER else 1.0)
        for i in range(8)
    )
    return SessionConfig(
        scheme=SchemeParams(n=8, k=6, s=1, m=0),
        master="avcc",
        backend="tcp",
        workers=workers,
        backend_options={
            "straggle_scale": 0.01,
            "heartbeat_interval": 0.05,
            "heartbeat_timeout": 0.5,
        },
    )


def _trace(rng):
    return [
        Request(
            request_id=i,
            tenant="t",
            family="matvec",
            operand=F.random(SHAPE[1], rng),
            arrival=i * SPACING,
            deadline=i * SPACING + SLACK,
        )
        for i in range(N_REQUESTS)
    ]


def _run(controlled):
    """One gateway run over the canonical degraded-fleet scenario."""
    rng = np.random.default_rng(42)
    x = F.random(SHAPE, rng)
    requests = _trace(rng)
    with Session.create(_config()) as sess:
        sess.load(x)
        pids = sess.backend.worker_pids()
        for wid in KILLED:
            os.kill(pids[wid], signal.SIGKILL)
        # throwaway rounds flush the heartbeat machinery, so both
        # variants start the trace from the same degraded roster
        probe = F.random(SHAPE[1], rng)
        deadline = time.monotonic() + 30.0
        while not set(KILLED) <= set(sess.backend.membership().dead):
            assert time.monotonic() < deadline, "deaths never detected"
            sess.submit_matvec(probe).result()
        controller = None
        kwargs = {}
        if controlled:
            controller = FleetController(
                sess,
                Autoscaler(
                    AutoscalerConfig(
                        slo_target=0.9,
                        scale_up_after=1,
                        scale_step=len(KILLED),
                        cooldown_windows=1,
                        min_workers=8,  # hold the provisioned floor
                        max_workers=8,
                    )
                ),
            )
            kwargs = {
                "control_interval": CONTROL_INTERVAL,
                "controller": controller,
            }
        gateway = Gateway(
            sess,
            OpenLoopSource(requests),
            GatewayConfig(
                batch_policy="hybrid",
                policy_options={"window": 8, "linger": 0.01},
            ),
            **kwargs,
        )
        report = gateway.run()
        view = sess.backend.membership()
        scheme = sess.master.scheme_now
    # ground-truth parity: coding/membership changes may delay answers,
    # never alter them
    by_id = {r.request_id: r for r in requests}
    for rid, value in gateway.results.items():
        np.testing.assert_array_equal(
            np.asarray(value).ravel(),
            ff_matvec(F, x, by_id[rid].operand),
        )
    return {
        "report": report,
        "view": view,
        "scheme": scheme,
        "controller": controller,
        "windows": gateway.window_history,
    }


def test_autoscaler_recovers_slo_after_fleet_failure():
    fixed = _run(controlled=False)
    scaled = _run(controlled=True)

    # the fixed roster never changes; the autoscaled one heals fully
    assert fixed["scheme"] == (8, 6) and fixed["view"].dead == KILLED
    recovered = float(
        scaled["scheme"] == (8, 6)
        and scaled["view"].live == tuple(range(8))
        and scaled["view"].dead == ()
    )
    assert recovered == 1.0, (scaled["scheme"], scaled["view"])
    actions = [d.action for d, _ in scaled["controller"].actions]
    assert "scale_up" in actions or "recode" in actions, actions

    fixed_slo = fixed["report"].slo_attainment
    scaled_slo = scaled["report"].slo_attainment
    uplift = scaled_slo - fixed_slo
    served_fraction = len(scaled["report"].served) / scaled["report"].total
    assert scaled_slo > fixed_slo, (scaled_slo, fixed_slo)

    record_metric("autoscale_recode_recovered", recovered)
    record_metric("autoscale_served_fraction", served_fraction)
    record_metric("autoscale_slo_uplift", uplift)
    print(
        f"\nfixed slo={fixed_slo:.1%} | autoscaled slo={scaled_slo:.1%} "
        f"uplift={uplift:+.1%} served={served_fraction:.1%} "
        f"windows={len(scaled['windows'])} actions={actions}"
    )
