"""Tests for Freivalds matvec verification: completeness, soundness,
attack detection, and cost accounting."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ff import PrimeField, ff_matvec
from repro.verify import FreivaldsVerifier, soundness_error

SMALL = PrimeField(97)
F = PrimeField(2**25 - 39)


def _honest(field, share, w):
    return ff_matvec(field, share, w)


class TestCompleteness:
    def test_honest_always_passes(self, rng):
        v = FreivaldsVerifier(F)
        share = F.random((8, 12), rng)
        key = v.keygen_single(share, rng)
        for _ in range(50):
            w = F.random(12, rng)
            assert v.check(key, w, _honest(F, share, w))

    def test_zero_vectors(self, rng):
        v = FreivaldsVerifier(F)
        share = F.random((4, 6), rng)
        key = v.keygen_single(share, rng)
        w = F.zeros(6)
        assert v.check(key, w, _honest(F, share, w))

    def test_multiworker_keygen(self, rng):
        v = FreivaldsVerifier(F)
        shares = F.random((5, 4, 6), rng)
        keys = v.keygen(shares, rng)
        assert len(keys) == 5
        w = F.random(6, rng)
        for key, share in zip(keys, shares):
            assert v.check(key, w, _honest(F, share, w))

    @given(
        b=st.integers(1, 10),
        d=st.integers(1, 10),
        probes=st.integers(1, 3),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=50, deadline=None)
    def test_property_completeness(self, b, d, probes, seed):
        r = np.random.default_rng(seed)
        v = FreivaldsVerifier(SMALL, probes=probes)
        share = SMALL.random((b, d), r)
        key = v.keygen_single(share, r)
        w = SMALL.random(d, r)
        assert v.check(key, w, _honest(SMALL, share, w))


class TestSoundness:
    def test_single_entry_forgery_caught_whp_large_field(self, rng):
        """In the 25-bit field a forgery slipping through is a ~3e-8
        event; 200 attempts must all be caught."""
        v = FreivaldsVerifier(F)
        share = F.random((6, 9), rng)
        key = v.keygen_single(share, rng)
        w = F.random(9, rng)
        z = _honest(F, share, w)
        for _ in range(200):
            forged = z.copy()
            i = rng.integers(0, 6)
            forged[i] = (forged[i] + rng.integers(1, F.q)) % F.q
            assert not v.check(key, w, forged)

    def test_statistical_soundness_small_field(self, rng):
        """F_97, 1 probe: forged acceptance rate must be ~1/97, far
        below 5% and above 0 occasionally — check it stays under 3/97
        over many trials (binomial tail is negligible)."""
        v = FreivaldsVerifier(SMALL, probes=1)
        share = SMALL.random((5, 5), rng)
        w = SMALL.random(5, rng)
        z = _honest(SMALL, share, w)
        trials, passed = 4000, 0
        for _ in range(trials):
            key = v.keygen_single(share, rng)  # fresh r each trial
            forged = (z + SMALL.random(5, rng)) % SMALL.q
            if np.array_equal(forged, z):
                continue
            if v.check(key, w, forged):
                passed += 1
        assert passed / trials < 3 / 97

    def test_probe_amplification(self, rng):
        """With 2 probes in F_97 the pass rate drops to ~1e-4: expect
        zero passes in 3000 trials (P(any) < 0.3)."""
        v = FreivaldsVerifier(SMALL, probes=3)
        share = SMALL.random((5, 5), rng)
        w = SMALL.random(5, rng)
        z = _honest(SMALL, share, w)
        for _ in range(3000):
            key = v.keygen_single(share, rng)
            forged = z.copy()
            forged[0] = (forged[0] + 1) % SMALL.q
            assert not v.check(key, w, forged)

    def test_soundness_error_bound(self):
        assert soundness_error(97) == pytest.approx(1 / 97)
        assert soundness_error(97, 2) == pytest.approx(1 / 97**2)
        assert soundness_error(2**25 - 39) < 3e-8
        with pytest.raises(ValueError):
            soundness_error(97, 0)


class TestPaperAttacks:
    """The two Byzantine models of Sec. V must be detected."""

    def test_reverse_value_attack_detected(self, rng):
        """z -> -c z with c = 1 (the paper's setting)."""
        v = FreivaldsVerifier(F)
        share = F.random((6, 8), rng)
        key = v.keygen_single(share, rng)
        w = F.random(8, rng)
        z = _honest(F, share, w)
        attacked = F.neg(z)
        if np.array_equal(attacked, z):  # only if z == 0
            pytest.skip("degenerate zero result")
        assert not v.check(key, w, attacked)

    def test_constant_attack_detected(self, rng):
        v = FreivaldsVerifier(F)
        share = F.random((6, 8), rng)
        key = v.keygen_single(share, rng)
        w = F.random(8, rng)
        z = _honest(F, share, w)
        attacked = np.full_like(z, 12345)
        if np.array_equal(attacked, z):
            pytest.skip("degenerate constant result")
        assert not v.check(key, w, attacked)


class TestValidationAndCosts:
    def test_shape_checks(self, rng):
        v = FreivaldsVerifier(F)
        key = v.keygen_single(F.random((4, 6), rng), rng)
        with pytest.raises(ValueError, match="claimed"):
            v.check(key, F.random(6, rng), F.random(5, rng))
        with pytest.raises(ValueError, match="operand"):
            v.check(key, F.random(7, rng), F.random(4, rng))

    def test_keygen_shape_checks(self, rng):
        v = FreivaldsVerifier(F)
        with pytest.raises(ValueError):
            v.keygen_single(F.random(4, rng), rng)
        with pytest.raises(ValueError):
            v.keygen(F.random((4, 6), rng), rng)

    def test_probes_validation(self):
        with pytest.raises(ValueError):
            FreivaldsVerifier(F, probes=0)

    def test_cost_accounting_matches_paper(self, rng):
        """Check cost O(m+d) must be far below compute cost O(m d / K):
        the asymmetry that makes verification worthwhile (Sec. II-B)."""
        v = FreivaldsVerifier(F)
        b, d = 667, 5000  # GISETTE block: m/K = 6000/9 rows
        key_cost = v.keygen_cost_ops(b, d)
        share = F.random((10, 20), rng)
        key = v.keygen_single(share, rng)
        assert v.check_cost_ops(key) == 10 + 20
        assert key_cost == b * d  # one-time
        # per-check cost (b + d) << worker compute (b * d)
        assert (b + d) * 100 < b * d


class TestBatchedOperand:
    """A batched round's ``(d, B)`` operand and ``(b, B)`` product are
    checked in one probe application; the check accepts only when every
    column verifies."""

    @pytest.mark.parametrize("column", [0, 2, 4])
    def test_a_forged_column_rejects_the_whole_batch(self, column, rng):
        v = FreivaldsVerifier(F)
        share = F.random((6, 9), rng)
        key = v.keygen_single(share, rng)
        w = F.random((9, 5), rng)
        z = share @ w % F.q
        assert v.check(key, w, z)
        for _ in range(50):
            forged = z.copy()
            i = rng.integers(0, 6)
            forged[i, column] = (forged[i, column] + rng.integers(1, F.q)) % F.q
            assert not v.check(key, w, forged)

    def test_statistical_soundness_small_field(self, rng):
        """F_97, 1 probe, a forged batch: the acceptance rate stays
        under 3/97, as for one vector (the bound holds per column)."""
        v = FreivaldsVerifier(SMALL, probes=1)
        share = SMALL.random((5, 5), rng)
        w = SMALL.random((5, 3), rng)
        z = share @ w % SMALL.q
        trials, passed = 4000, 0
        for _ in range(trials):
            key = v.keygen_single(share, rng)  # fresh r each trial
            forged = z.copy()
            forged[:, 1] = (forged[:, 1] + SMALL.random(5, rng)) % SMALL.q
            if np.array_equal(forged, z):
                continue
            if v.check(key, w, forged):
                passed += 1
        assert passed / trials < 3 / 97

    def test_shape_checks(self, rng):
        v = FreivaldsVerifier(F)
        key = v.keygen_single(F.random((4, 6), rng), rng)
        with pytest.raises(ValueError, match="claimed"):
            v.check(key, F.random((6, 3), rng), F.random((4, 2), rng))
        with pytest.raises(ValueError, match="claimed"):
            v.check(key, F.random((6, 3), rng), F.random(4, rng))
        with pytest.raises(ValueError, match="operand"):
            v.check(key, F.random((7, 3), rng), F.random((4, 3), rng))
        with pytest.raises(ValueError, match="operand"):
            v.check(key, F.random((6, 3, 1), rng), F.random((4, 3), rng))

    def test_check_cost_scales_with_width(self, rng):
        v = FreivaldsVerifier(F, probes=2)
        key = v.keygen_single(F.random((10, 20), rng), rng)
        assert v.check_cost_ops(key, width=1) == v.check_cost_ops(key) == 2 * 30
        assert v.check_cost_ops(key, width=64) == 64 * v.check_cost_ops(key)


class TestPreparedOperand:
    """The operand side ``s_i·w`` computed once per round for every key
    (:meth:`FreivaldsVerifier.prepare`) gives the verdicts of the
    per-call product; a plain operand still works, as a replay of one
    check makes it."""

    @pytest.mark.parametrize("probes", [1, 3])
    @pytest.mark.parametrize("width", [None, 1, 5])
    def test_prepared_and_unprepared_agree(self, probes, width, rng):
        v = FreivaldsVerifier(SMALL, probes=probes)
        shares = SMALL.random((6, 4, 9), rng)
        keys = v.keygen(shares, rng)
        shape = (9,) if width is None else (9, width)
        for _ in range(20):
            w = SMALL.random(shape, rng)
            prepared = v.prepare(w, keys)
            assert prepared.operand is w  # residues: validated, not copied
            for key, share in zip(keys, shares):
                honest = share @ w % SMALL.q
                forged = honest.copy()
                forged.reshape(-1)[int(rng.integers(honest.size))] += 1
                forged %= SMALL.q
                for claimed in (honest, forged):
                    assert v.check(key, prepared, claimed) == v.check(key, w, claimed)
                assert v.check(key, prepared, honest)

    def test_a_key_it_was_not_prepared_for_is_checked_in_full(self, rng):
        v = FreivaldsVerifier(F)
        shares = F.random((3, 4, 6), rng)
        keys = v.keygen(shares, rng)
        w = F.random(6, rng)
        prepared = v.prepare(w, keys[:2])
        assert prepared.side(keys[2]) is None
        assert v.check(keys[2], prepared, _honest(F, shares[2], w))
        assert not v.check(keys[2], prepared, (_honest(F, shares[2], w) + 1) % F.q)

    def test_operand_sides_of_two_rounds_never_cross(self, rng):
        """Each round's result passes against its own prepared operand
        and fails against the other round's."""
        v = FreivaldsVerifier(F)
        shares = F.random((4, 5, 8), rng)
        keys = v.keygen(shares, rng)
        w1, w2 = F.random((8, 3), rng), F.random((8, 3), rng)
        p1, p2 = v.prepare(w1, keys), v.prepare(w2, keys)
        for key, share in zip(keys, shares):
            z1, z2 = share @ w1 % F.q, share @ w2 % F.q
            assert v.check(key, p1, z1) and v.check(key, p2, z2)
            assert not v.check(key, p2, z1) and not v.check(key, p1, z2)

    def test_prepare_validates_the_operand_once(self, rng):
        v = FreivaldsVerifier(F)
        keys = v.keygen(F.random((2, 3, 4), rng), rng)
        with pytest.raises(TypeError, match="float"):
            v.prepare(np.ones(4), keys)
        with pytest.raises(ValueError, match="operand"):
            v.prepare(F.random(5, rng), keys)
        w = F.random(4, rng)
        unreduced = v.prepare(w + F.q, keys)
        assert unreduced.operand.tobytes() == w.tobytes()
