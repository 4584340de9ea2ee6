"""The distributed smoke: AVCC rounds over a real loopback TCP fleet.

A loopback socket fleet (one worker daemon process per worker, the
binary wire protocol) serves blocks of forward/backward rounds at the
experiments' calibrated scale (m=1200, d=600, N=12, K=9) under a
straggler and a Byzantine worker. The gated metric,
``tcp_decode_success_rate``, is the fraction of rounds decoded
bit-exactly: protocol correctness does not vary with the runner. No
wall-clock rate is gated here: the repo benchmark
(``BENCHMARK.json``, ``benchmarks/e2e``) measures the fleet's round
rate, with quartiles.
"""

import numpy as np

from _metrics import record_metric
from repro.api import Session, SessionConfig, WorkerSpec
from repro.coding import SchemeParams
from repro.ff import ff_matvec

N, K, S, M = 12, 9, 1, 2
ROUNDS = 4
#: blocks of ``ROUNDS`` fwd/bwd round pairs the decode-rate gate serves
REPS = 5


def test_tcp_loopback_fleet_decode_rate(benchmark, cfg, field, rng):
    x = field.random((cfg.m, cfg.d), rng)
    w = field.random(cfg.d, rng)
    e = field.random(cfg.m, rng)
    z = ff_matvec(field, x, w)
    g = ff_matvec(field, x.T.copy(), e)

    specs = [WorkerSpec() for _ in range(N)]
    specs[0] = WorkerSpec(straggler_factor=3.0)
    specs[7] = WorkerSpec(behavior="reverse")
    config = SessionConfig(
        scheme=SchemeParams(n=N, k=K, s=S, m=M),
        master="avcc",
        backend="tcp",
        seed=1,
        workers=tuple(specs),
        backend_options={"straggle_scale": 0.01},
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
