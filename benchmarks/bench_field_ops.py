"""Micro-benchmarks of the finite-field substrate.

These are genuine wall-clock benches (pytest-benchmark statistics are
meaningful here): chunked modular matmul, the worker's wide products
and stored-share matvec, Fermat vs Montgomery inversion, vectorized
modpow.

The ``ff_*`` metrics recorded for the perf gate are ratios of two
best-of-30 times taken back to back on the same box — the ``int64`` reference
kernel (``a @ b % q``) over :func:`ff_matmul`, and the validating
:func:`ff_matvec` over the worker's :func:`run_job_compute` — so they
track which kernel runs, not how fast the runner is.
"""

import time

import numpy as np
import pytest

from _metrics import record_metric
from repro.ff import batch_inverse, ff_matmul, ff_matvec, mod_inverse
from repro.runtime.backend import RoundJob, run_job_compute

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


def test_worker_round_stored_share_matvec(benchmark, field, rng):
    """A matvec round as the worker runs it: the share was validated
    once when it was stored, so the round pays for the product only —
    against the validating entry point, which reduces the share again."""
    share = field.ensure_reduced(field.random((667, 5000), rng))
    job = RoundJob(op="matvec", payload_key="share", operand=field.random(5000, rng))
    payload = {"share": share}
    out = benchmark(run_job_compute, field, payload, job)
    np.testing.assert_array_equal(out, ff_matvec(field, share, job.operand))
    validating = _best_s(lambda: ff_matvec(field, share, job.operand))
    record_metric(
        "ff_stored_matvec_speedup",
        validating / _best_s(lambda: run_job_compute(field, payload, job)),
    )


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
