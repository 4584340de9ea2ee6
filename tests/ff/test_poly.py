"""Tests for dense polynomials over F_q."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ff import Poly, PrimeField

F = PrimeField(97)

coeff_lists = st.lists(st.integers(min_value=0, max_value=96), min_size=0, max_size=12)


def P(*coeffs):
    return Poly(F, list(coeffs))


class TestBasics:
    def test_trailing_zeros_stripped(self):
        assert P(1, 2, 0, 0).degree == 1
        assert P(0, 0).degree == -1

    def test_zero_and_one(self):
        assert Poly.zero(F).is_zero()
        assert Poly.one(F).degree == 0
        assert Poly.x(F).degree == 1

    def test_eval_scalar_and_array(self):
        p = P(1, 2, 3)  # 1 + 2x + 3x^2
        assert p(2) == (1 + 4 + 12) % 97
        np.testing.assert_array_equal(p(np.array([0, 1])), [1, 6])

    def test_zero_poly_eval(self):
        assert Poly.zero(F)(5) == 0

    def test_equality(self):
        assert P(1, 2) == P(1, 2, 0)
        assert P(1, 2) != P(2, 1)

    def test_different_fields_raise(self):
        with pytest.raises(ValueError, match="different fields"):
            P(1) + Poly(PrimeField(101), [1])


class TestArithmetic:
    def test_add_sub(self):
        a, b = P(1, 2, 3), P(4, 5)
        assert a + b == P(5, 7, 3)
        assert (a + b) - b == a

    def test_mul(self):
        # (1 + x)(1 - x) = 1 - x^2
        assert P(1, 1) * P(1, 96) == P(1, 0, 96)

    def test_mul_by_zero(self):
        assert (P(1, 2) * Poly.zero(F)).is_zero()

    def test_scalar_coerce(self):
        assert P(1, 2) + 5 == P(6, 2)
        assert P(1, 2) * 2 == P(2, 4)

    def test_scale(self):
        assert P(1, 2).scale(3) == P(3, 6)

    def test_divmod_exact(self):
        a = P(1, 2, 1)  # (x+1)^2
        q, r = divmod(a, P(1, 1))
        assert q == P(1, 1) and r.is_zero()

    def test_divmod_with_remainder(self):
        q, r = divmod(P(1, 0, 1), P(1, 1))  # x^2+1 = (x+1)(x-1) + 2
        assert q == P(96, 1)
        assert r == P(2)

    def test_division_reconstruction(self, rng):
        for _ in range(20):
            a = Poly(F, rng.integers(0, 97, size=8))
            b = Poly(F, np.append(rng.integers(0, 97, size=3), 1))
            q, r = divmod(a, b)
            assert q * b + r == a
            assert r.degree < b.degree

    def test_div_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            divmod(P(1), Poly.zero(F))

    def test_divides_exactly(self):
        assert P(1, 1).divides_exactly(P(1, 2, 1))
        assert not P(1, 1).divides_exactly(P(1, 0, 1))

    def test_floordiv_and_mod_are_the_divmod_halves(self, rng):
        for _ in range(10):
            a = Poly(F, rng.integers(0, 97, size=7))
            b = Poly(F, np.append(rng.integers(0, 97, size=2), 3))
            q, r = divmod(a, b)
            assert a // b == q
            assert a % b == r
        assert P(1, 0, 1) // P(1, 1) == P(96, 1)
        assert P(1, 0, 1) % P(1, 1) == P(2)

    def test_floordiv_and_mod_by_zero_raise(self):
        with pytest.raises(ZeroDivisionError):
            P(1, 2) // Poly.zero(F)
        with pytest.raises(ZeroDivisionError):
            P(1, 2) % Poly.zero(F)

    def test_equal_polys_hash_equal(self):
        a, b = P(1, 2, 0, 0), P(1, 2)
        assert a == b and hash(a) == hash(b)
        assert len({a, b, P(2, 1)}) == 2
        assert {P(5): "five"}[P(5, 0)] == "five"


class TestConstructors:
    def test_from_roots(self):
        p = Poly.from_roots(F, [3, 5])
        assert p(3) == 0 and p(5) == 0 and p(4) != 0
        assert p.coeffs[-1] == 1  # monic

    def test_from_roots_empty(self):
        assert Poly.from_roots(F, []) == Poly.one(F)

    def test_derivative(self):
        assert P(5, 3, 2).derivative() == P(3, 4)
        assert P(7).derivative().is_zero()

    def test_monic(self):
        p = P(2, 4).monic()
        assert p.coeffs[-1] == 1
        with pytest.raises(ZeroDivisionError):
            Poly.zero(F).monic()


class TestProperties:
    @given(a=coeff_lists, b=coeff_lists)
    @settings(max_examples=60, deadline=None)
    def test_mul_commutes_and_degree(self, a, b):
        pa, pb = Poly(F, a or [0]), Poly(F, b or [0])
        prod = pa * pb
        assert prod == pb * pa
        if not pa.is_zero() and not pb.is_zero():
            assert prod.degree == pa.degree + pb.degree

    @given(a=coeff_lists, b=coeff_lists, x=st.integers(0, 96))
    @settings(max_examples=60, deadline=None)
    def test_eval_homomorphism(self, a, b, x):
        pa, pb = Poly(F, a or [0]), Poly(F, b or [0])
        assert (pa * pb)(x) == pa(x) * pb(x) % 97
        assert (pa + pb)(x) == (pa(x) + pb(x)) % 97
