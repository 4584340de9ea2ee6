"""Serving gateway: serial vs pipelined vs deadline-batched.

Three gateways replay the *same* mixed Poisson+burst trace (two
tenants, bursty Markov-modulated arrivals whose bursts exceed the
serial gateway's capacity — see
``repro.experiments.common.make_serving_workload``) against the same
simulated AVCC fleet:

* **serial** — ``count`` policy with ``window=1`` on a serial session:
  every request is its own round, back to back. Under the bursts the
  queue backs up, deadlines expire, and admission control sheds.
* **pipelined** — same one-round-per-request policy, but the session
  keeps 8 rounds in flight (PR 3's scheduler): broadcast/verify/decode
  of neighboring rounds overlap.
* **deadline-batched** — the ``hybrid`` policy (fill to 16, dispatch
  earlier when the tightest deadline's slack runs out, 20 ms linger
  cap): bursts coalesce into wide rounds whose per-request cost
  collapses.

The CI-gated headline is the p99-latency ratio serial/batched
(``serving_p99_speedup`` in ``benchmarks/baselines/metrics.json``);
the acceptance bar is >= 1.5x, and the committed baseline pins the
measured ~4x. Everything runs on the simulator's virtual clock,
so the numbers are deterministic — a drop is a real scheduling/policy
regression, not runner noise.

Byte-level parity of batched vs unbatched service is asserted here for
every request (and again, against ground truth, in
``tests/serve/test_gateway.py``).

Set ``SERVE_REPORT_OUT=<path>`` to dump the batched gateway's full
:class:`~repro.serve.gateway.ServeReport` as JSON (the CI
``bench-serving`` job uploads it as an artifact).

The ``bench-tcp`` CI job additionally replays the mixed trace through
a deadline-batched gateway over a **real loopback TCP fleet**
(``test_tcp_gateway_completes_mixed_trace``): served results must stay
byte-identical to the simulated gateway's, and the served fraction is
gated as ``tcp_serving_served_fraction``.
"""

import json
import os

import numpy as np
import pytest

from _metrics import record_metric
from repro.api import Session
from repro.experiments.common import (
    SERVING_SCALE,
    make_serving_workload,
    serving_config,
)
from repro.serve import Gateway, GatewayConfig, OpenLoopSource

N_REQUESTS = 240
WINDOW = 16
PIPELINE_DEPTH = 8


def _serve(
    cfg,
    *,
    policy,
    options,
    max_inflight=1,
    backend="sim",
    n_requests=N_REQUESTS,
):
    """Run one gateway variant over the canonical trace; returns
    (report, results-by-request-id)."""
    session_cfg = serving_config(
        cfg, max_inflight_rounds=max_inflight, backend=backend
    )
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
                batch_policy=policy,
                policy_options=options,
                tenant_weights=generator.tenant_weights,
            ),
        )
        report = gateway.run()
    return report, gateway.results


def _serial(cfg):
    return _serve(cfg, policy="count", options={"window": 1})


def _pipelined(cfg):
    return _serve(
        cfg, policy="count", options={"window": 1}, max_inflight=PIPELINE_DEPTH
    )


def _batched(cfg):
    return _serve(
        cfg,
        policy="hybrid",
        options={"window": WINDOW, "safety": 2.0, "linger": 0.02},
    )


def test_serial_gateway(benchmark, cfg):
    """The baseline: one round per request, strictly serial."""
    report, _ = benchmark.pedantic(lambda: _serial(cfg), rounds=1, iterations=1)
    assert report.total == N_REQUESTS
    # the bursts overwhelm a serial gateway: sheds are the evidence
    assert report.shed > 0
    assert report.slo_attainment < 1.0


def test_pipelined_gateway(benchmark, cfg):
    """One round per request, but 8 rounds in flight."""
    report, _ = benchmark.pedantic(lambda: _pipelined(cfg), rounds=1, iterations=1)
    assert report.total == N_REQUESTS
    assert len(report.served) == N_REQUESTS


def test_deadline_batched_gateway(benchmark, cfg):
    """Deadline-aware micro-batching (hybrid policy)."""
    report, _ = benchmark.pedantic(lambda: _batched(cfg), rounds=1, iterations=1)
    assert report.total == N_REQUESTS
    assert len(report.served) == N_REQUESTS
    assert report.batching_factor > 4.0  # bursts actually coalesced


def test_serving_p99_speedup_and_parity(cfg):
    """The acceptance pin: deadline-batched beats serial by >= 1.5x on
    p99 latency under the mixed trace, while serving byte-identical
    results for every request both gateways served."""
    serial_report, serial_results = _serial(cfg)
    batched_report, batched_results = _batched(cfg)

    # parity: batching must never change a single byte of any answer
    assert set(batched_results) >= set(serial_results)
    for rid, vec in serial_results.items():
        assert vec.tobytes() == batched_results[rid].tobytes()

    speedup = serial_report.p99 / batched_report.p99
    record_metric("serving_p99_speedup", speedup)
    record_metric("serving_slo_attainment", batched_report.slo_attainment)
    record_metric("serving_batching_factor", batched_report.batching_factor)

    out = os.environ.get("SERVE_REPORT_OUT")
    if out:
        with open(out, "w") as fh:
            json.dump(batched_report.to_dict(), fh, indent=2)

    assert batched_report.slo_attainment > serial_report.slo_attainment
    assert speedup >= 1.5, (
        f"deadline batching should cut p99 by >= 1.5x under the mixed trace: "
        f"serial p99 {serial_report.p99:.4f}s vs batched "
        f"{batched_report.p99:.4f}s ({speedup:.2f}x)"
    )


def test_tcp_gateway_completes_mixed_trace(cfg):
    """The distributed acceptance pin: the deadline-batched gateway
    replays a (smaller) mixed Poisson+burst trace over a real loopback
    TCP fleet. Every request terminates, the served fraction clears
    the gated baseline, and every result served by both the tcp and
    the simulated gateway is byte-identical — the substrate can change
    the timing, never a byte of an answer."""
    n = 120
    sim_report, sim_results = _serve(
        cfg, policy="hybrid",
        options={"window": WINDOW, "safety": 2.0, "linger": 0.02},
        n_requests=n,
    )
    tcp_report, tcp_results = _serve(
        cfg, policy="hybrid",
        options={"window": WINDOW, "safety": 2.0, "linger": 0.02},
        backend="tcp", n_requests=n,
    )

    assert tcp_report.total == n
    assert len(tcp_report.served) + tcp_report.shed == n
    served_fraction = len(tcp_report.served) / n
    record_metric("tcp_serving_served_fraction", served_fraction)
    assert served_fraction >= 0.8, tcp_report.summary()

    common = set(tcp_results) & set(sim_results)
    assert common, "the two gateways served no request in common"
    for rid in common:
        assert tcp_results[rid].tobytes() == sim_results[rid].tobytes()
    assert sim_report.total == n  # both replays saw the identical trace


@pytest.mark.parametrize("variant", ["serial", "pipelined", "batched"])
def test_every_request_terminates(cfg, variant):
    """Each variant accounts for all requests: served or shed, never
    lost."""
    report, _ = {
        "serial": _serial,
        "pipelined": _pipelined,
        "batched": _batched,
    }[variant](cfg)
    assert report.total == N_REQUESTS
    assert len(report.served) + report.shed == N_REQUESTS
