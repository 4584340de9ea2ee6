"""Tests for Freivalds matrix-matrix verification."""

import numpy as np
import pytest

from repro.ff import PrimeField, ff_matmul
from repro.verify import MatmulVerifier

F = PrimeField(2**25 - 39)
SMALL = PrimeField(97)


class TestMatmulVerifier:
    def test_honest_passes(self, rng):
        v = MatmulVerifier(F)
        a = F.random((6, 8), rng)
        b = F.random((8, 5), rng)
        key = v.keygen_single(a, rng)
        assert v.check(key, b, ff_matmul(F, a, b))

    def test_key_reports_probes_rows_and_inner_dimension(self, rng):
        v = MatmulVerifier(F, probes=3)
        key = v.keygen_single(F.random((6, 8), rng), rng)
        assert (key.probes, key.rows, key.inner) == (3, 6, 8)

    def test_forgery_rejected(self, rng):
        v = MatmulVerifier(F)
        a = F.random((6, 8), rng)
        b = F.random((8, 5), rng)
        c = ff_matmul(F, a, b)
        for _ in range(100):
            forged = c.copy()
            i, j = rng.integers(0, 6), rng.integers(0, 5)
            forged[i, j] = (forged[i, j] + rng.integers(1, F.q)) % F.q
            assert not v.check(key_for(v, a, rng), b, forged)

    def test_statistical_soundness_small_field(self, rng):
        v = MatmulVerifier(SMALL, probes=1)
        a = SMALL.random((4, 4), rng)
        b = SMALL.random((4, 4), rng)
        c = ff_matmul(SMALL, a, b)
        passed = 0
        trials = 3000
        for _ in range(trials):
            key = v.keygen_single(a, rng)
            forged = (c + SMALL.random((4, 4), rng)) % SMALL.q
            if np.array_equal(forged, c):
                continue
            if v.check(key, b, forged):
                passed += 1
        assert passed / trials < 3 / 97

    def test_batch_keygen(self, rng):
        v = MatmulVerifier(F)
        shares = F.random((4, 5, 6), rng)
        keys = v.keygen(shares, rng)
        assert len(keys) == 4
        b = F.random((6, 3), rng)
        for key, a in zip(keys, shares):
            assert v.check(key, b, ff_matmul(F, a, b))

    def test_shape_validation(self, rng):
        v = MatmulVerifier(F)
        key = v.keygen_single(F.random((4, 6), rng), rng)
        with pytest.raises(ValueError, match="claimed"):
            v.check(key, F.random((6, 3), rng), F.random((5, 3), rng))
        with pytest.raises(ValueError, match="B-share"):
            v.check(key, F.random((7, 3), rng), F.random((4, 3), rng))
        with pytest.raises(ValueError, match="columns"):
            v.check(key, F.random((6, 2), rng), F.random((4, 3), rng))
        with pytest.raises(ValueError):
            v.keygen_single(F.random(5, rng), rng)
        with pytest.raises(ValueError):
            MatmulVerifier(F, probes=0)

    def test_cost_asymmetry(self):
        """Check cost << worker cost by roughly a factor of the output
        rows (the whole point of verification)."""
        v = MatmulVerifier(F)
        a_rows, inner, out_cols = 500, 400, 300
        worker = v.worker_cost_ops(a_rows, inner, out_cols)
        check = v.probes * (a_rows * out_cols + inner * out_cols)
        assert check * 50 < worker


def key_for(v, a, rng):
    return v.keygen_single(a, rng)
