"""Micro-benchmarks of the codecs: encode/decode costs and their
scaling, backing the paper's quasi-linear complexity discussion
(Sec. II-A).

The three metrics recorded for the perf gate guard the set-up /
re-code path: ``coding_encode_inplace_speedup`` is a same-box ratio of
two medians taken back to back (the plain full product over
:meth:`LagrangeCode.encode` into a reused destination — which encoder
runs, not how fast the runner is); ``coding_setup_alloc_headroom`` and
``setup_retained_headroom`` are ratios of byte counts, the same on
every machine — what building a configuration allocates at its peak,
and what a master keeps once it has shipped the shares.
"""

import statistics
import time
import tracemalloc

import numpy as np
import pytest

from _metrics import record_metric
from repro.coding import LagrangeCode, MDSCode, SchemeParams
from repro.core import AVCCMaster, EncodingCache
from repro.runtime import SimCluster, SimWorker


def _median_s(fn, calls=7):
    times = []
    for _ in range(calls):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


@pytest.mark.parametrize("n,k", [(12, 9), (24, 18), (48, 36)])
def test_lagrange_encode_scaling(benchmark, field, rng, n, k):
    """Encoding cost grows ~linearly in N at fixed per-worker share."""
    blocks = field.random((k, 64, 256), rng)
    code = LagrangeCode(field, n=n, k=k)
    shares = benchmark(code.encode, blocks)
    assert shares.shape == (n, 64, 256)


def test_encode_in_place_against_the_full_product(benchmark, field, rng):
    """The train workload's forward family: 9 blocks of 200 x 2000 into
    12 shares. The systematic encoder leaves the data where it is and
    computes three parity shares in the destination; the product it
    replaced recomputed all twelve into two fresh arrays."""
    n, k = 12, 9
    code = LagrangeCode(field, n=n, k=k)
    into = np.empty((n, 200, 2000), dtype=np.int64)
    into[:k] = field.random((k, 200, 2000), rng)
    blocks = into[:k]
    u_t = np.ascontiguousarray(code.encoding_matrix().T)
    flat = blocks.reshape(k, -1)
    shares = benchmark(code.encode, blocks, None, into)
    assert shares is into
    assert shares.tobytes() == (u_t @ flat % field.q).tobytes()
    full = _median_s(lambda: u_t @ flat % field.q)
    in_place = _median_s(lambda: code.encode(blocks, None, into))
    record_metric("coding_encode_inplace_speedup", full / in_place)


def test_setup_allocates_little_more_than_the_shares(field, rng):
    """Bytes of shares returned over the peak traced while building
    them, on the train workload's 1800 x 2000 matrix at (12, 9): 1.0
    would be the shares and nothing else."""
    x = field.random((1800, 2000), rng)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        _, fwd, bwd = EncodingCache(field, x).shares(12, 9)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    returned = fwd.nbytes + bwd.nbytes
    record_metric("coding_setup_alloc_headroom", returned / peak)
    assert peak >= returned


def test_master_keeps_the_dataset_not_its_shares(field, rng):
    """Bytes of the dataset over the bytes an AVCC master still holds
    once ``setup`` has shipped the shares, on the same matrix and
    scheme: 1.0 would be the dataset and nothing else (codes and keys
    are ~1.5 % more); a master that kept both share stacks, 0.27. The
    workers' copies are not the master's, so distribute keeps none."""
    backend = SimCluster(field, [SimWorker(i) for i in range(12)], rng=rng)
    backend.distribute = lambda name, shares, participants=None: 0.0
    master = AVCCMaster(backend, SchemeParams(n=12, k=9, s=1, m=2), rng=rng)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        x = field.random((1800, 2000), rng)
        master.setup(x)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    record_metric("setup_retained_headroom", x.nbytes / held)
    assert held >= x.nbytes


def test_mds_decode_paper_shape(benchmark, field, rng):
    """Decode from K=9 verified results at GISETTE block size."""
    n, k = 12, 9
    code = LagrangeCode(field, n=n, k=k)
    blocks = field.random((k, 667), rng)
    shares = code.encode(blocks)
    idx = np.arange(9)
    out = benchmark(code.decode, idx, shares[idx])
    np.testing.assert_array_equal(out, blocks)


def test_decode_subset_choice_irrelevant(benchmark, field, rng):
    """Any K-subset decodes in the same time (no fast/slow subsets)."""
    n, k = 12, 9
    code = LagrangeCode(field, n=n, k=k)
    blocks = field.random((k, 667), rng)
    shares = code.encode(blocks)
    idx = np.array([11, 9, 7, 5, 3, 1, 0, 2, 4])  # scattered subset
    out = benchmark(code.decode, idx, shares[idx])
    np.testing.assert_array_equal(out, blocks)


def test_privacy_padding_encode_overhead(benchmark, field, rng):
    """T=1 adds one random block to the interpolation — encoding cost
    rises by ~1/K, not by a multiplicative factor."""
    k, t, n = 9, 1, 13
    blocks = field.random((k, 64, 128), rng)
    code = LagrangeCode(field, n=n, k=k, t=t)
    shares = benchmark(code.encode, blocks, rng)
    assert shares.shape == (n, 64, 128)


def test_explicit_generator_mds_roundtrip(benchmark, field, rng):
    code = MDSCode.systematic(field, 12, 9)
    blocks = field.random((9, 100), rng)
    shares = code.encode(blocks)
    idx = np.arange(3, 12)
    out = benchmark(code.decode, idx, shares[idx])
    np.testing.assert_array_equal(out, blocks)
