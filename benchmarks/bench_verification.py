"""Ablation: Freivalds verification vs recomputation.

Quantifies the paper's Sec. II-B claim: the integrity check costs
``O(m + d)`` arithmetic ops versus ``O(md)`` for recomputing — at
GISETTE block shape that is a ~300x wall-clock gap, which is what makes
per-worker verification affordable at all.
"""

import numpy as np
import pytest

from repro.ff import ff_matvec
from repro.verify import FreivaldsVerifier


@pytest.fixture(scope="module")
def gisette_block():
    from repro.ff import DEFAULT_PRIME, PrimeField

    field = PrimeField(DEFAULT_PRIME)
    rng = np.random.default_rng(5)
    share = field.random((667, 5000), rng)
    w = field.random(5000, rng)
    z = ff_matvec(field, share, w)
    return field, share, w, z, rng


def test_freivalds_check(benchmark, gisette_block):
    field, share, w, z, rng = gisette_block
    v = FreivaldsVerifier(field)
    key = v.keygen_single(share, rng)
    ok = benchmark(v.check, key, w, z)
    assert ok


def test_recompute_baseline(benchmark, gisette_block):
    """The alternative to verification: redo the worker's multiply."""
    field, share, w, z, rng = gisette_block
    out = benchmark(ff_matvec, field, share, w)
    np.testing.assert_array_equal(out, z)


def test_check_vs_recompute_gap(gisette_block):
    """Direct wall-clock comparison: verification at least 20x cheaper."""
    import time

    field, share, w, z, rng = gisette_block
    v = FreivaldsVerifier(field)
    key = v.keygen_single(share, rng)

    t0 = time.perf_counter()
    for _ in range(20):
        assert v.check(key, w, z)
    t_check = (time.perf_counter() - t0) / 20

    t0 = time.perf_counter()
    for _ in range(3):
        ff_matvec(field, share, w)
    t_recompute = (time.perf_counter() - t0) / 3

    assert t_check * 20 < t_recompute


@pytest.mark.parametrize("probes", [1, 2, 4])
def test_probe_scaling(benchmark, gisette_block, probes):
    """Check cost scales linearly in probe count (soundness q^-p)."""
    field, share, w, z, rng = gisette_block
    v = FreivaldsVerifier(field, probes=probes)
    key = v.keygen_single(share, rng)
    assert benchmark(v.check, key, w, z)
