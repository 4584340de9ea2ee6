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
  keeps 8 rounds in flight: broadcast/verify/decode of neighboring
  rounds overlap.
* **deadline-batched** — the ``hybrid`` policy (fill to 16, dispatch
  earlier when the tightest deadline's slack runs out, 20 ms linger
  cap): bursts coalesce into wide rounds whose per-request cost
  collapses.

The gated headline is the p99-latency ratio serial/batched
(``serving_p99_speedup`` in ``benchmarks/baselines/metrics.json``);
the acceptance bar is >= 1.5x, and the committed baseline pins the
measured ~4x. Everything runs on the simulator's virtual clock,
so the numbers are deterministic — a drop is a real scheduling/policy
regression, not runner noise.

Byte-level parity of batched vs unbatched service is asserted here for
every request (and again, against ground truth, in
``tests/serve/test_gateway.py``).

Set ``SERVE_REPORT_OUT=<path>`` to dump the batched gateway's full
:class:`~repro.serve.gateway.ServeReport` as JSON (CI uploads it as an
artifact).

``test_tcp_gateway_completes_mixed_trace`` replays the mixed trace
through a deadline-batched gateway over a **real loopback TCP fleet**:
served results must stay byte-identical to the simulated gateway's,
and the served fraction is gated as ``tcp_serving_served_fraction``.
"""

import json
import os

import pytest

from _metrics import record_metric
from conftest import serve_trace

N_REQUESTS = 240
PIPELINE_DEPTH = 8
VARIANTS = {
    "serial": {"policy": "count", "options": {"window": 1}},
    "pipelined": {
        "policy": "count",
        "options": {"window": 1},
        "max_inflight_rounds": PIPELINE_DEPTH,
    },
    "batched": {},  # the hybrid policy, serve_trace's default
}


@pytest.fixture(scope="module")
def served(cfg):
    """Each variant's ``(report, results-by-request-id)``, replayed once."""
    out = {}
    for name, variant in VARIANTS.items():
        report, gateway, _ = serve_trace(cfg, n_requests=N_REQUESTS, **variant)
        out[name] = (report, gateway.results)
    return out


@pytest.mark.parametrize("variant", VARIANTS)
def test_every_request_terminates(served, variant):
    """Each variant accounts for all requests: served or shed, never
    lost. The bursts overwhelm the serial gateway (sheds are the
    evidence); the other two serve everything, and the batched one
    actually coalesces."""
    report, _ = served[variant]
    assert report.total == N_REQUESTS
    assert len(report.served) + report.shed == N_REQUESTS
    if variant == "serial":
        assert report.shed > 0
        assert report.slo_attainment < 1.0
    else:
        assert len(report.served) == N_REQUESTS
    if variant == "batched":
        assert report.batching_factor > 4.0


def _same_bytes(served, faster):
    serial_results = served["serial"][1]
    results = served[faster][1]
    assert set(results) >= set(serial_results)
    for rid, vec in serial_results.items():
        assert vec.tobytes() == results[rid].tobytes()


def test_serving_p99_speedup_and_parity(served):
    """The acceptance pin: deadline-batched beats serial by >= 1.5x on
    p99 latency under the mixed trace, while serving byte-identical
    results for every request both gateways served."""
    serial_report, batched_report = served["serial"][0], served["batched"][0]
    _same_bytes(served, "batched")

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


def test_serving_pipelined_p50_speedup(served):
    """The pipelining pin: one round per request with 8 rounds in
    flight beats the serial gateway's p50 latency on the simulated
    clock, serving byte-identical results. A gateway that stops
    finalizing due rounds before it idles loses most of the gain."""
    serial_report, pipelined_report = served["serial"][0], served["pipelined"][0]
    _same_bytes(served, "pipelined")

    speedup = serial_report.p50 / pipelined_report.p50
    record_metric("serving_pipelined_p50_speedup", speedup)
    assert speedup > 1.0, (
        f"serial p50 {serial_report.p50:.4f}s vs pipelined "
        f"{pipelined_report.p50:.4f}s ({speedup:.2f}x)"
    )


def test_tcp_gateway_completes_mixed_trace(cfg):
    """The distributed acceptance pin: the deadline-batched gateway
    replays a (smaller) mixed Poisson+burst trace over a real loopback
    TCP fleet. Every request terminates, the served fraction clears
    the gated baseline, and every result served by both the tcp and
    the simulated gateway is byte-identical — the substrate can change
    the timing, never a byte of an answer."""
    n = 120
    sim_report, sim_gateway, _ = serve_trace(cfg, n_requests=n)
    tcp_report, tcp_gateway, _ = serve_trace(cfg, n_requests=n, backend="tcp")
    sim_results, tcp_results = sim_gateway.results, tcp_gateway.results

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
