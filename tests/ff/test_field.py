"""Tests for the PrimeField element-ops layer."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ff import DEFAULT_PRIME, PrimeField

elems = st.integers(min_value=-(10**9), max_value=10**9)


class TestConstruction:
    def test_default_prime_value(self):
        assert DEFAULT_PRIME == 33_554_393 == 2**25 - 39

    def test_rejects_composite(self):
        with pytest.raises(ValueError, match="not prime"):
            PrimeField(2**25 - 1)

    def test_rejects_too_large(self):
        with pytest.raises(ValueError, match="too large"):
            PrimeField(2**31 + 11)

    def test_chunk_bound_is_safe(self):
        f = PrimeField(DEFAULT_PRIME)
        assert f.chunk * (f.q - 1) ** 2 + (f.q - 1) <= np.iinfo(np.int64).max
        assert (f.chunk + 1) * (f.q - 1) ** 2 + (f.q - 1) > np.iinfo(np.int64).max

    def test_paper_chunk_covers_gisette(self):
        """d = 5000 must fit in a single accumulation chunk (Sec. V)."""
        assert PrimeField(DEFAULT_PRIME).chunk >= 5000

    def test_equality_and_hash(self):
        assert PrimeField(97) == PrimeField(97)
        assert PrimeField(97) != PrimeField(101)
        assert hash(PrimeField(97)) == hash(PrimeField(97))


class TestConversion:
    def test_asarray_reduces(self, small_field):
        np.testing.assert_array_equal(
            small_field.asarray([-1, 97, 98, 0]), [96, 0, 1, 0]
        )

    def test_asarray_rejects_floats(self, small_field):
        with pytest.raises(TypeError, match="quantize"):
            small_field.asarray(np.array([1.5]))

    def test_asarray_bignum_objects(self, small_field):
        big = np.array([10**30, -(10**30)], dtype=object)
        got = small_field.asarray(big)
        assert got.dtype == np.int64
        np.testing.assert_array_equal(got, [10**30 % 97, (-(10**30)) % 97])

    def test_signed_roundtrip(self, small_field):
        vals = np.arange(-48, 49)
        np.testing.assert_array_equal(
            small_field.to_signed(small_field.from_signed(vals)), vals
        )

    def test_signed_boundaries(self, small_field):
        # (q-1)/2 = 48 stays positive; 49 maps to -48.
        assert small_field.to_signed(np.array([48]))[0] == 48
        assert small_field.to_signed(np.array([49]))[0] == -48

    def test_random_in_range(self, small_field, rng):
        x = small_field.random(1000, rng)
        assert x.min() >= 0 and x.max() < 97


class TestFieldAxioms:
    @given(a=elems, b=elems, c=elems)
    @settings(max_examples=80, deadline=None)
    def test_ring_axioms(self, a, b, c):
        f = PrimeField(97)
        assert f.add(a, b) == f.add(b, a)
        assert f.mul(a, b) == f.mul(b, a)
        assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
        assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
        assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))

    @given(a=elems)
    @settings(max_examples=60, deadline=None)
    def test_additive_inverse(self, a):
        f = PrimeField(97)
        assert f.add(a, f.neg(a)) == 0

    @given(a=elems.filter(lambda v: v % 97 != 0))
    @settings(max_examples=60, deadline=None)
    def test_multiplicative_inverse(self, a):
        f = PrimeField(97)
        assert f.mul(a, f.inv(a)) == 1

    def test_div(self, small_field):
        assert small_field.div(10, 5) == 2
        assert small_field.mul(small_field.div(7, 13), 13) == 7

    def test_pow_negative_exponent(self, small_field):
        a = 5
        assert small_field.pow(a, -1) == small_field.inv(a)
        assert small_field.mul(small_field.pow(a, -3), small_field.pow(a, 3)) == 1

    def test_sub_is_add_of_the_negation(self, small_field, rng):
        a = small_field.random((4, 6), rng)
        b = small_field.random((4, 6), rng)
        d = small_field.sub(a, b)
        np.testing.assert_array_equal(d, small_field.add(a, small_field.neg(b)))
        np.testing.assert_array_equal(small_field.add(d, b), a)
        assert d.min() >= 0 and d.max() < 97
        assert not small_field.sub(a, a).any()

    def test_ones_is_the_multiplicative_identity(self, small_field, rng):
        one = small_field.ones((3, 2))
        assert one.dtype == np.int64 and one.shape == (3, 2)
        a = small_field.random((3, 2), rng)
        np.testing.assert_array_equal(small_field.mul(a, one), a)


class TestBatchInverse:
    def test_matches_fermat_inversion_and_keeps_shape(self, paper_field, rng):
        a = paper_field.random((3, 5), rng)
        a[a == 0] = 1
        inv = paper_field.batch_inv(a)
        assert inv.shape == (3, 5) and inv.dtype == np.int64
        np.testing.assert_array_equal(inv, paper_field.inv(a))
        np.testing.assert_array_equal(paper_field.mul(a, inv), paper_field.ones((3, 5)))

    def test_reduces_before_inverting(self, small_field):
        np.testing.assert_array_equal(
            small_field.batch_inv([98, -1]), small_field.inv([1, 96])
        )

    def test_zero_raises(self, small_field):
        with pytest.raises(ZeroDivisionError):
            small_field.batch_inv([3, 97, 5])

    def test_empty_input_keeps_its_shape(self, small_field):
        out = small_field.batch_inv(np.zeros((0, 3), dtype=np.int64))
        assert out.shape == (0, 3)


class TestDistinctPoints:
    def test_basic(self, small_field):
        pts = small_field.distinct_points(10)
        assert len(np.unique(pts)) == 10

    def test_start_offset(self, small_field):
        pts = small_field.distinct_points(5, start=50)
        np.testing.assert_array_equal(pts, [50, 51, 52, 53, 54])

    def test_too_many(self, small_field):
        with pytest.raises(ValueError):
            small_field.distinct_points(97)
