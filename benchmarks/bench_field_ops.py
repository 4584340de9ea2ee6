"""Micro-benchmarks of the finite-field substrate.

These are genuine wall-clock benches (pytest-benchmark statistics are
meaningful here): chunked modular matmul, the worker's wide products
and stored-share matvec, Fermat vs Montgomery inversion, vectorized
modpow.

The ``ff_*`` metrics recorded for the perf gate are ratios of two
best-of-30 times taken back to back on the same box — the ``int64`` reference
kernel (``a @ b % q``) over :func:`ff_matmul`; the validating
:func:`ff_matvec` over the worker's :func:`run_job_compute`; and the
``int64`` :func:`matvec_reduced` over :func:`run_job_compute` on cold
``float64``-resident shares; twelve per-worker :func:`run_job_compute`
calls over one stacked :class:`SimCluster` round — so they track which
kernel runs, not how fast the runner is. Worker shares are stored as a daemon stores one
off the wire (:func:`store_share` on a ``<u4`` array), so the round is
timed on the dtype the worker really multiplies.
"""

import time

import numpy as np
import pytest

from _metrics import record_metric
from repro.ff import batch_inverse, ff_matmul, ff_matvec, mod_inverse
from repro.ff.linalg import matvec_reduced
from repro.runtime import SimCluster, SimWorker
from repro.runtime.backend import RoundJob, run_job_compute, store_share

#: the worker's product in a width-64 round: batch_wide_sim's share,
#: and the paper's GISETTE split (m=6000 over K=9 workers, d=5000)
WIDE_SHAPES = {"wide": (134, 600, 64), "gisette": (667, 5000, 64)}


def _best_s(fn, budget_s=1.0, calls=30):
    """Fastest of up to ``calls`` calls of ``fn()``, cut short (but
    never below 3) once ``budget_s`` is spent. Interference only ever
    adds time, so the minimum is the steadiest estimate of a kernel."""
    times = []
    while len(times) < calls and (len(times) < 3 or sum(times) < budget_s):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return min(times)


@pytest.mark.parametrize("n", [128, 512])
def test_ff_matmul_square(benchmark, field, rng, n):
    a = field.random((n, n), rng)
    b = field.random((n, n), rng)
    out = benchmark(ff_matmul, field, a, b)
    assert out.shape == (n, n)


def test_ff_matmul_chunked_overhead(benchmark, field, rng):
    """The chunked path (forced) must stay within ~3x of single-shot
    for GISETTE-block shapes — chunking is an overflow guard, not a
    performance cliff."""
    a = field.random((64, 5000), rng)
    b = field.random((5000, 8), rng)

    t0 = time.perf_counter()
    want = ff_matmul(field, a, b)
    single = time.perf_counter() - t0

    # this shape takes the float64 kernel: shrink the bound that guards it
    old = field.chunk, field.float_chunk
    field.chunk = field.float_chunk = 512
    try:
        t0 = time.perf_counter()
        got = ff_matmul(field, a, b)
        chunked = time.perf_counter() - t0
    finally:
        field.chunk, field.float_chunk = old
    np.testing.assert_array_equal(got, want)
    assert chunked < max(3.5 * single, single + 0.05)
    benchmark(ff_matmul, field, a, b)


def test_worker_round_matvec(benchmark, field, rng):
    """The exact hot operation a worker performs per round at GISETTE
    scale: (667, 5000) x (5000,)."""
    share = field.random((667, 5000), rng)
    w = field.random(5000, rng)
    out = benchmark(ff_matvec, field, share, w)
    assert out.shape == (667,)


@pytest.mark.parametrize("name", WIDE_SHAPES)
def test_worker_round_wide_matmul(benchmark, field, rng, name):
    """A worker's product in a width-64 round — the shapes the float64
    (dgemm) kernel exists for — against the int64 reference kernel."""
    n, k, m = WIDE_SHAPES[name]
    share = field.random((n, k), rng)
    operand = field.random((k, m), rng)
    out = benchmark(ff_matmul, field, share, operand)
    want = share @ operand % field.q  # k <= field.chunk: one exact int64 product
    assert out.dtype == want.dtype and out.tobytes() == want.tobytes()
    reference = _best_s(lambda: share @ operand % field.q)
    record_metric(
        f"ff_matmul_{name}_speedup",
        reference / _best_s(lambda: ff_matmul(field, share, operand)),
    )


def _stored(field, share) -> dict:
    """A worker's payload holding ``share`` as a daemon stores it: the
    ``<u4`` frame array through :func:`store_share`."""
    payload = {}
    store_share(field, payload, "share", share.astype("<u4"))
    return payload


def test_worker_round_stored_share_matvec(benchmark, field, rng):
    """A matvec round as the worker runs it: the share was validated
    (and made resident) once when it was stored, so the round pays for
    the product only — against the validating entry point, which
    reduces the share again."""
    share = field.random((667, 5000), rng)
    job = RoundJob(op="matvec", payload_key="share", operand=field.random(5000, rng))
    payload = _stored(field, share)
    out = benchmark(run_job_compute, field, payload, job)
    np.testing.assert_array_equal(out, ff_matvec(field, share, job.operand))
    validating = _best_s(lambda: ff_matvec(field, share, job.operand))
    record_metric(
        "ff_stored_matvec_speedup",
        validating / _best_s(lambda: run_job_compute(field, payload, job)),
    )


def test_worker_round_resident_share_matvec(benchmark, field, rng):
    """train_logreg's worker round: a 200x2000 share, over the
    ``2**18`` residency bound, so it is stored ``float64`` and every
    round over it is one exact dgemm. Twelve distinct shares are
    cycled, as twelve daemons on one box do, so no share is hot in
    cache; the reference is the ``int64`` kernel over the same shares."""
    shares = [field.random((200, 2000), rng) for _ in range(12)]
    payloads = [_stored(field, s) for s in shares]
    job = RoundJob(op="matvec", payload_key="share", operand=field.random(2000, rng))
    assert all(p["share"].dtype == np.float64 for p in payloads)
    for share, payload in zip(shares, payloads):
        want = matvec_reduced(field, share, job.operand)
        assert run_job_compute(field, payload, job).tobytes() == want.tobytes()
    benchmark(lambda: [run_job_compute(field, p, job) for p in payloads])
    int64 = _best_s(lambda: [matvec_reduced(field, s, job.operand) for s in shares])
    resident = _best_s(lambda: [run_job_compute(field, p, job) for p in payloads])
    record_metric("ff_resident_matvec_speedup", int64 / resident)


def test_sim_round_stacked_products(benchmark, field, rng):
    """batch_wide_sim's round on the simulator: twelve workers' 134x600
    shares times one 600x64 operand. The reference is the per-worker
    round — twelve :func:`run_job_compute` calls, each validating the
    operand, splitting it into limbs, widening its share and
    recombining — against one stacked round, which does each of those
    once over the whole stack (bookkeeping of the round included)."""
    n, (b, k, m) = 12, WIDE_SHAPES["wide"]
    shares = field.random((n, b, k), rng)
    payloads = [_stored(field, s) for s in shares]
    job = RoundJob(op="matvec", payload_key="share", operand=field.random((k, m), rng))
    cluster = SimCluster(field, [SimWorker(i) for i in range(n)])
    cluster.distribute("share", shares)

    def stacked_round():
        return cluster.dispatch_round(job).result()

    arrivals = stacked_round().arrivals
    assert sorted(a.worker_id for a in arrivals) == list(range(n))
    for a in arrivals:
        want = run_job_compute(field, payloads[a.worker_id], job)
        assert a.value.dtype == want.dtype and a.value.tobytes() == want.tobytes()
    benchmark(stacked_round)
    per_worker = _best_s(lambda: [run_job_compute(field, p, job) for p in payloads])
    record_metric("ff_sim_round_speedup", per_worker / _best_s(stacked_round))


def test_fermat_inverse_vectorized(benchmark, field, rng):
    a = field.random(100_000, rng) + 1
    a %= field.q
    a[a == 0] = 1
    inv = benchmark(mod_inverse, a, field.q)
    assert np.all(a * inv % field.q == 1)


def test_montgomery_batch_inverse_small(benchmark, field, rng):
    """Decoder-sized batches (N+K elements) — the Montgomery trick's
    natural regime."""
    a = field.random(32, rng) + 1
    a %= field.q
    a[a == 0] = 1
    inv = benchmark(batch_inverse, a, field.q)
    assert np.all(a * inv % field.q == 1)
