"""Execution-backend comparison at the paper's calibrated scale.

Runs the identical AVCC workload — setup plus a block of
forward/backward rounds at the experiments' default (m=1200, d=600,
N=12, K=9) scale — on both ``Backend`` implementations and reports
real wall-clock for each. The deployment is one
``SessionConfig``; only the ``backend`` registry name changes:

* ``sim`` measures protocol + master arithmetic only (worker time is
  virtual), so it is the floor: the master-side cost of the protocol.
* ``tcp`` runs one worker daemon process per worker and pays real
  sockets and real serialization (the binary wire protocol) against a
  loopback fleet — the closest this repo gets to the paper's physical
  testbed, and the backend the repo benchmark measures.

Shape assertions only check correctness (every backend must decode
bit-exactly); wall-clock is machine-dependent and intentionally not
asserted. The CI ``bench-tcp``
job gates the deterministic ``tcp_decode_success_rate`` emitted here
(every socket round must decode bit-exactly) via
``check_perf_regression.py --select``. It gates no wall-clock rate:
the socket fleet's round rate is measured, with quartiles, by the
repo benchmark (``BENCHMARK.json``, ``benchmarks/e2e``).
"""

import numpy as np
import pytest

from _metrics import record_metric
from repro.api import Session, SessionConfig, WorkerSpec
from repro.coding import SchemeParams
from repro.ff import ff_matvec

N, K, S, M = 12, 9, 1, 2
ROUNDS = 4
#: blocks of ``ROUNDS`` fwd/bwd round pairs the decode-rate gate serves
REPS = 5


def _specs(straggler_factor=3.0, byzantine_id=7):
    specs = [WorkerSpec() for _ in range(N)]
    specs[0] = WorkerSpec(straggler_factor=straggler_factor)
    if byzantine_id is not None:
        specs[byzantine_id] = WorkerSpec(behavior="reverse")
    return tuple(specs)


def _config(kind, s=S, m=M, **kwargs):
    return SessionConfig(
        scheme=SchemeParams(n=N, k=K, s=s, m=m),
        master="avcc",
        backend=kind,
        seed=1,
        **kwargs,
    )


@pytest.mark.parametrize("kind", ["sim", "tcp"])
def test_avcc_rounds_per_backend(benchmark, cfg, field, rng, kind):
    x = field.random((cfg.m, cfg.d), rng)
    w = field.random(cfg.d, rng)
    e = field.random(cfg.m, rng)
    z = ff_matvec(field, x, w)
    g = ff_matvec(field, x.T.copy(), e)

    opts = {} if kind == "sim" else {"backend_options": {"straggle_scale": 0.01}}
    config = _config(kind, workers=_specs(), **opts)

    def run():
        with Session.create(config) as sess:
            sess.load(x)
            outs = []
            for _ in range(ROUNDS):
                outs.append(sess.submit_matvec(w).result())
                outs.append(sess.submit_matvec(e, transpose=True).result())
                sess.end_iteration()
            return outs

    outs = benchmark.pedantic(run, rounds=1, iterations=1)
    for i, vec in enumerate(outs):
        np.testing.assert_array_equal(vec, z if i % 2 == 0 else g)


@pytest.mark.parametrize("kind", ["tcp"])
def test_early_stopping_saves_straggler_tail(benchmark, field, rng, kind):
    """With one heavy straggler and enough slack, a real-backend round
    must cost ~(fast worker time), not ~(straggler sleep)."""
    sleep = 0.75
    factor = 6.0
    scale = sleep / (factor - 1.0)
    x = field.random((600, 300), rng)
    w = field.random(300, rng)

    config = _config(
        kind,
        s=2,
        m=1,
        workers=_specs(straggler_factor=factor, byzantine_id=None),
        backend_options={"straggle_scale": scale},
    )

    def run():
        with Session.create(config) as sess:
            sess.load(x)
            return sess.submit_matvec(w).outcome()

    out = benchmark.pedantic(run, rounds=1, iterations=1)
    np.testing.assert_array_equal(out.vector, ff_matvec(field, x, w))
    assert 0 not in out.record.used_workers


def test_tcp_loopback_fleet_decode_rate(benchmark, cfg, field, rng):
    """The ``bench-tcp`` CI headline: a loopback socket fleet serving
    blocks of mixed fwd/bwd rounds under a straggler and a Byzantine
    worker must decode every round bit-exactly. The gated metric is
    the *success rate*: protocol correctness does not vary with the
    runner."""
    x = field.random((cfg.m, cfg.d), rng)
    w = field.random(cfg.d, rng)
    e = field.random(cfg.m, rng)
    z = ff_matvec(field, x, w)
    g = ff_matvec(field, x.T.copy(), e)

    config = _config(
        "tcp", workers=_specs(), backend_options={"straggle_scale": 0.01}
    )

    def run():
        with Session.create(config) as sess:
            sess.load(x)
            outs = []
            for _ in range(REPS * ROUNDS):
                outs.append(sess.submit_matvec(w).result())
                outs.append(sess.submit_matvec(e, transpose=True).result())
            return outs

    outs = benchmark.pedantic(run, rounds=1, iterations=1)
    exact = sum(
        np.array_equal(vec, z if i % 2 == 0 else g) for i, vec in enumerate(outs)
    )
    record_metric("tcp_decode_success_rate", exact / len(outs))
    assert exact == len(outs) == REPS * ROUNDS * 2
