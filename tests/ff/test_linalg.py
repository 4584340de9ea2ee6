"""Tests for overflow-safe field linear algebra."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ff import PrimeField, ff_dot, ff_matmul, ff_matvec, safe_chunk_len
from repro.ff import linalg
from repro.ff.field import float_chunk_len, limb_bits
from repro.ff.linalg import matmul_reduced, matvec_reduced, resident_share


def _ref_matmul(a, b, q):
    """Object-dtype (bignum) reference — immune to overflow."""
    return np.array(
        (a.astype(object) @ b.astype(object)) % q, dtype=np.int64
    )


class TestSafeChunk:
    @pytest.mark.parametrize("q", [97, 7919, 2**25 - 39, 2**31 - 1])
    def test_bound(self, q):
        c = safe_chunk_len(q)
        imax = np.iinfo(np.int64).max
        assert c * (q - 1) ** 2 + (q - 1) <= imax
        assert (c + 1) * (q - 1) ** 2 + (q - 1) > imax


FIELDS = [97, 7919, 2**25 - 39, 2**31 - 1]


def _same_bytes(got, want):
    assert got.dtype == np.int64
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def _three_ways(f, a, b):
    """dgemm kernel == int64 kernel == bignum oracle, byte for byte —
    returned, or written to a destination the caller supplies, and
    with ``a`` held ``float64`` as a resident share is."""
    want = _ref_matmul(a, b, f.q)
    _same_bytes(linalg._matmul_float64(a, b, f.q, f.float_chunk), want)
    _same_bytes(linalg._matmul_int64(a, b, f.q, f.chunk), want)
    _same_bytes(matmul_reduced(f, a, b), want)
    _same_bytes(matmul_reduced(f, a.astype(np.float64), b), want)
    _same_bytes(ff_matmul(f, a, b), want)
    for dest in (
        np.full(want.shape, -1, dtype=np.int64),
        np.full((want.shape[0], 2 * want.shape[1]), -1, dtype=np.int64)[:, ::2],
    ):
        assert matmul_reduced(f, a, b, dest) is dest
        _same_bytes(np.ascontiguousarray(dest), want)


class TestFloatChunk:
    @pytest.mark.parametrize("q", FIELDS)
    def test_bound(self, q):
        """``chunk`` worst-case products sum below 2**53; one more do not."""
        c = float_chunk_len(q)
        sh = limb_bits(q)
        assert (q - 1) >> sh < 2**sh  # the high limb fits the low limb's width
        worst = (q - 1) * (2**sh - 1)
        assert c * worst <= 2**53 - 1 < (c + 1) * worst
        assert PrimeField(q).float_chunk == c

    def test_paper_and_mersenne_values(self):
        assert float_chunk_len(2**25 - 39) == 32772
        assert float_chunk_len(2**31 - 1) == 64


class TestKernelEquality:
    """The path is picked from shapes and ``q`` alone, so whichever
    kernel runs the bytes must be the ones the other would produce."""

    @given(
        q=st.sampled_from(FIELDS),
        # small, or just big enough that n*k*m crosses 2**18 near k = 64
        n=st.one_of(st.integers(1, 12), st.integers(56, 72)),
        k=st.integers(1, 130),
        m=st.one_of(st.integers(1, 12), st.integers(56, 72)),
        chunk=st.sampled_from([None, 1, 7, 64, 65]),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=120, deadline=None)
    def test_random_shapes_straddling_the_crossover(self, q, n, k, m, chunk, seed):
        f = PrimeField(q)
        if chunk is not None:  # forced small chunks, each kernel's own bound
            f.chunk = min(f.chunk, chunk)
            f.float_chunk = min(f.float_chunk, chunk)
        r = np.random.default_rng(seed)
        _three_ways(f, f.random((n, k), r), f.random((k, m), r))

    @pytest.mark.parametrize(
        "dest", [np.zeros((4, 3), dtype=np.int32), np.zeros((3, 4), dtype=np.int64)]
    )
    def test_rejects_a_destination_of_the_wrong_dtype_or_shape(self, dest, paper_field, rng):
        a, b = paper_field.random((4, 5), rng), paper_field.random((5, 3), rng)
        with pytest.raises(ValueError, match="destination"):
            matmul_reduced(paper_field, a, b, dest)

    def test_rule_sends_wide_products_to_dgemm_and_keeps_the_rest(self, paper_field):
        fc = float_chunk_len(paper_field.q)
        assert linalg._use_dgemm(134, 600, 64, fc)        # batch_wide_sim share
        assert linalg._use_dgemm(667, 5000, 64, fc)       # GISETTE-scale share
        assert not linalg._use_dgemm(12, 9, 80400, fc)    # LagrangeCode.encode
        assert not linalg._use_dgemm(1, 600, 64, fc)      # Freivalds probe
        assert not linalg._use_dgemm(27, 120, 16, fc)     # serve_small share
        assert not linalg._use_dgemm(134, 600, 64, 7)     # chunks too short to pay
        # the residency rule: n*k >= 2**18, the same product bound at m = 1
        for shape, dtype in [
            ((200, 2000), np.float64),  # train_logreg share
            ((134, 600), np.int64),     # batch_wide_sim share
            ((27, 120), np.int64),      # serve_small share
        ]:
            assert resident_share(paper_field, paper_field.zeros(shape)).dtype == dtype

    @pytest.mark.parametrize(
        "n, k, m",
        [(134, 600, 64), (12 * 134, 600, 64), (667, 5000, 64)],
        ids=["batch_wide_share", "batch_wide_stack", "gisette_share"],
    )
    def test_worker_wide_products_take_the_float64_kernel(self, paper_field, monkeypatch, n, k, m):
        """A width-64 round over an ``int64`` share — batch_wide_sim's
        share, the simulator's stack of twelve of them, and a GISETTE
        worker's share — is one call of the float64 kernel, with the
        int64 kernel's bytes."""
        f = paper_field
        r = np.random.default_rng(n)
        a, b = f.random((n, k), r), f.random((k, m), r)
        want = linalg._matmul_int64(a, b, f.q, f.chunk)
        calls = []
        real = linalg._matmul_float64

        def counted(a, b, q, chunk):
            calls.append(a.shape)
            return real(a, b, q, chunk)

        monkeypatch.setattr(linalg, "_matmul_float64", counted)
        _same_bytes(matmul_reduced(f, a, b), want)
        assert calls == [(n, k)]

    @pytest.mark.parametrize("q", [2**25 - 39, 2**31 - 1])
    @pytest.mark.parametrize("extra", [0, 1])
    def test_worst_case_operands_at_the_float_chunk_bound(self, q, extra):
        """All-(q-1) operands with ``k`` = the bound (the longest run a
        float64 sums exactly, in one dgemm) and bound+1 (the first
        chunked case). Every entry is ``k (q-1)**2 mod q``."""
        f = PrimeField(q)
        bound = float_chunk_len(q)
        k = bound + extra
        a = np.full((64, k), q - 1, dtype=np.int64)
        b = np.full((k, 64), q - 1, dtype=np.int64)
        want = np.full((64, 64), k * (q - 1) ** 2 % q, dtype=np.int64)
        _same_bytes(linalg._matmul_float64(a, b, q, bound), want)
        assert linalg._use_dgemm(64, k, 64, f.float_chunk)
        _same_bytes(ff_matmul(f, a, b), want)

    @pytest.mark.parametrize("q", [2**25 - 39, 2**31 - 1])
    @pytest.mark.parametrize("m", [1, 64])
    def test_float_recombination_equals_the_int64_kernel_at_the_limits(self, q, m):
        """All-(q-1) operands, so every limb sum is as large as it gets,
        across inner chunk boundaries (the recombined sum plus a
        previous chunk's residue) and, at the 25-bit prime, across the
        row blocks a wide product is cut into (``2**24`` multiply-adds
        over 300-term chunks of 128 limb columns: 436 of the 450 rows)."""
        f = PrimeField(q)
        n = 450 if m > 1 else 40
        for k, chunk in [(64, 64), (65, 64), (129, 64), (600, 300), (601, 300)]:
            chunk = min(chunk, f.float_chunk)
            a = np.full((n, k), q - 1, dtype=np.int64)
            b = np.full((k, m), q - 1, dtype=np.int64)
            want = np.full((n, m), k * (q - 1) ** 2 % q, dtype=np.int64)
            _same_bytes(linalg._matmul_int64(a, b, q, f.chunk), want)
            _same_bytes(linalg._matmul_float64(a, b, q, chunk), want)
            _same_bytes(
                linalg._matmul_float64(a.astype(np.float64), b[:, 0], q, chunk), want[:, 0]
            )
        r = np.random.default_rng(q)
        # a full chunk of low limbs 2**sh - 1 against entries near q - 1:
        # the low sums come within (q - 1) * 2**sh of 2**53, half of them
        # odd, so they must be reduced before the high residue is added
        sh, kc = limb_bits(q), f.float_chunk
        a = q - 1 - r.integers(0, 4, size=(8, kc))
        b = (r.integers(0, (q >> sh) - 1, size=(kc, m)) << sh) | ((1 << sh) - 1)
        _same_bytes(linalg._matmul_float64(a, b, q, kc), linalg._matmul_int64(a, b, q, f.chunk))
        a, b = f.random((n, 601), r), f.random((601, m), r)
        a[::7] = q - 1
        _same_bytes(
            linalg._matmul_float64(a, b, q, min(300, f.float_chunk)),
            linalg._matmul_int64(a, b, q, f.chunk),
        )

    @pytest.mark.parametrize("q", [97, 7919])
    def test_worst_case_operands_small_fields_forced_chunk(self, q):
        """Small fields' float bound is astronomically long; a forced
        chunk puts the boundary within reach."""
        f = PrimeField(q)
        f.float_chunk = 256
        for k in (256, 257):
            a = np.full((64, k), q - 1, dtype=np.int64)
            b = np.full((k, 64), q - 1, dtype=np.int64)
            _same_bytes(
                ff_matmul(f, a, b), np.full((64, 64), k * (q - 1) ** 2 % q, dtype=np.int64)
            )

    @pytest.mark.parametrize("q", FIELDS)
    def test_unreduced_and_negative_inputs_through_the_public_entry(self, q):
        f = PrimeField(q)
        r = np.random.default_rng(q)
        a = r.integers(-(2**40), 2**40, size=(16, 300))
        b = r.integers(-(2**40), 2**40, size=(300, 64))
        want = _ref_matmul(a, b, q)
        _same_bytes(ff_matmul(f, a, b), want)
        _same_bytes(ff_matvec(f, a, b[:, 0]), want[:, 0])
        _same_bytes(ff_matmul(f, a.astype(np.int32) // 2**9, b), _ref_matmul(
            a.astype(np.int32) // 2**9, b, q))

    @pytest.mark.parametrize("q", FIELDS)
    def test_non_contiguous_and_transposed_views(self, q):
        """Transposed views, column slices and strided rows reach the
        kernels as they are."""
        f = PrimeField(q)
        r = np.random.default_rng(q + 1)
        share = f.random((300, 16), r)                 # share.T is (16, 300)
        z = f.random((300, 64), r)
        _three_ways(f, share.T, z)
        wide = f.random((32, 600), r)[::2, ::2]        # (16, 300), strided
        _three_ways(f, wide, z)
        _three_ways(f, share.T, f.random((300, 128), r)[:, ::2])
        _same_bytes(
            matvec_reduced(f, share.T, z[:, 0]), _ref_matmul(share.T, z[:, :1], q)[:, 0]
        )

    def test_float_input_is_still_rejected(self, paper_field):
        a = np.ones((16, 300))
        b = np.ones((300, 64), dtype=np.int64)
        with pytest.raises(TypeError, match="float input"):
            ff_matmul(paper_field, a, b)
        with pytest.raises(TypeError, match="float input"):
            ff_matmul(paper_field, b.T, a.T.copy())
        with pytest.raises(TypeError, match="float input"):
            ff_matvec(paper_field, b.T, a[0])

    def test_reduced_cores_keep_the_shape_errors(self, small_field):
        ok = np.ones((2, 3), dtype=np.int64)
        with pytest.raises(ValueError, match="inner dims"):
            matmul_reduced(small_field, ok, np.ones((4, 2), dtype=np.int64))
        with pytest.raises(ValueError, match="2-D"):
            matmul_reduced(small_field, ok[0], ok.T)
        with pytest.raises(ValueError, match="1-D"):
            matvec_reduced(small_field, ok, ok.T)
        with pytest.raises(ValueError, match="inner dims"):
            matvec_reduced(small_field, ok, ok[0, :2])


class TestResidentShare:
    """A share kept ``float64`` by :func:`resident_share` takes the
    float64 kernel for every product over it, a matvec included, with
    no per-call conversion; the bytes are the int64 kernel's and the
    bignum oracle's."""

    @pytest.mark.parametrize("q", [2**25 - 39, 2**31 - 1])
    @pytest.mark.parametrize("float_chunk", [None, 7, 64])
    def test_matvec_transposed_view_and_wide_matmul(self, q, float_chunk):
        """Products over a resident share: the matvec, a matvec over
        the transposed view ``share.T`` and a width-64 batched round.
        ``q = 2**31 - 1`` sums at most 64 terms at once, so its 300-long
        inner runs are chunked anyway; a shrunk ``float_chunk`` forces
        the paper field's chunked path too."""
        f = PrimeField(q)
        if float_chunk is not None:
            f.float_chunk = min(f.float_chunk, float_chunk)
        r = np.random.default_rng(q)
        share = f.random((40, 300), r)
        resident = share.astype(np.float64)
        x, z, wide = f.random(300, r), f.random(40, r), f.random((300, 64), r)
        for a, a_f, v in ((share, resident, x), (share.T, resident.T, z)):
            want = _ref_matmul(a, v[:, None], q)[:, 0]
            _same_bytes(matvec_reduced(f, a_f, v), want)
            _same_bytes(linalg._matmul_int64(a, v, q, f.chunk), want)
        _same_bytes(matmul_reduced(f, resident, wide), _ref_matmul(share, wide, q))
        _same_bytes(matmul_reduced(f, resident.T, wide[:40]), _ref_matmul(share.T, wide[:40], q))

    @pytest.mark.parametrize("size", [2**18 - 1, 2**18, 2**18 + 1])
    def test_one_element_either_side_of_the_bound(self, paper_field, size):
        """2**18 - 1 = 513 x 511, 2**18 = 512 x 512, 2**18 + 1 = 5 x 52429:
        the first stays int64, the other two are resident; all three
        multiply to the same bytes."""
        f = paper_field
        n = {2**18 - 1: 513, 2**18: 512, 2**18 + 1: 5}[size]
        r = np.random.default_rng(size)
        share = f.random((n, size // n), r)
        stored = resident_share(f, share)
        assert stored.dtype == (np.int64 if size < 2**18 else np.float64)
        if stored.dtype == np.int64:
            assert stored is share  # validated by a scan, not copied
        x = f.random(share.shape[1], r)
        _same_bytes(matvec_reduced(f, stored, x), _ref_matmul(share, x[:, None], f.q)[:, 0])

    def test_validation_is_ensure_reduced(self, paper_field):
        """Out-of-range integers are reduced, residues in an unsigned
        container are widened, floats are refused — at either size."""
        f = paper_field
        r = np.random.default_rng(3)
        for shape in [(27, 120), (200, 2000)]:
            share = f.random(shape, r)
            shifted = share + f.q * r.choice([-1, 1, 2**20], size=shape)
            for sent in (shifted, share.astype("<u4"), shifted.astype(np.int32) % 2**20):
                stored = resident_share(f, sent)
                want = sent.astype(np.int64) % f.q
                np.testing.assert_array_equal(stored, want)
                assert stored.flags.owndata
            with pytest.raises(TypeError, match="float input"):
                resident_share(f, share.astype(np.float64))
        assert resident_share(f, f.zeros(2**18)).dtype == np.int64  # 1-D: not a share


class TestMatmul:
    def test_small_matches_reference(self, paper_field, rng):
        a = paper_field.random((7, 11), rng)
        b = paper_field.random((11, 5), rng)
        np.testing.assert_array_equal(
            ff_matmul(paper_field, a, b), _ref_matmul(a, b, paper_field.q)
        )

    def test_chunked_path_matches_reference(self, paper_field, rng):
        """Force the chunked path by shrinking the field's chunk bound."""
        a = paper_field.random((4, 25), rng)
        b = paper_field.random((25, 3), rng)
        want = _ref_matmul(a, b, paper_field.q)
        paper_field.chunk = 7  # 25 inner dims -> 4 chunks
        try:
            np.testing.assert_array_equal(ff_matmul(paper_field, a, b), want)
        finally:
            paper_field.chunk = safe_chunk_len(paper_field.q)

    def test_wide_31bit_field_no_overflow(self, rng):
        """Worst case: q near 2**31 forces chunk == 1."""
        f = PrimeField(2**31 - 1)
        assert f.chunk >= 1
        a = f.random((3, 40), rng)
        b = f.random((40, 2), rng)
        np.testing.assert_array_equal(ff_matmul(f, a, b), _ref_matmul(a, b, f.q))

    def test_unreduced_inputs(self, small_field):
        a = np.array([[-1, 98]])
        b = np.array([[3], [4]])
        # (-1*3 + 98*4) mod 97 == (96*3 + 1*4) mod 97
        assert ff_matmul(small_field, a, b)[0, 0] == (96 * 3 + 4) % 97

    def test_shape_errors(self, small_field):
        with pytest.raises(ValueError, match="inner dims"):
            ff_matmul(small_field, np.ones((2, 3), dtype=np.int64), np.ones((4, 2), dtype=np.int64))
        with pytest.raises(ValueError, match="2-D"):
            ff_matmul(small_field, np.ones(3, dtype=np.int64), np.ones((3, 2), dtype=np.int64))

    @given(
        n=st.integers(1, 6),
        k=st.integers(1, 20),
        m=st.integers(1, 6),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_property_matches_reference(self, n, k, m, seed):
        f = PrimeField(2**25 - 39)
        r = np.random.default_rng(seed)
        a = f.random((n, k), r)
        b = f.random((k, m), r)
        np.testing.assert_array_equal(ff_matmul(f, a, b), _ref_matmul(a, b, f.q))


class TestMatvec:
    def test_matches_matmul(self, paper_field, rng):
        a = paper_field.random((9, 30), rng)
        x = paper_field.random(30, rng)
        np.testing.assert_array_equal(
            ff_matvec(paper_field, a, x), ff_matmul(paper_field, a, x[:, None])[:, 0]
        )

    def test_chunked(self, paper_field, rng):
        a = paper_field.random((3, 50), rng)
        x = paper_field.random(50, rng)
        want = _ref_matmul(a, x[:, None], paper_field.q)[:, 0]
        paper_field.chunk = 8
        try:
            np.testing.assert_array_equal(ff_matvec(paper_field, a, x), want)
        finally:
            paper_field.chunk = safe_chunk_len(paper_field.q)

    def test_requires_1d(self, small_field):
        with pytest.raises(ValueError, match="1-D"):
            ff_matvec(small_field, np.ones((2, 2), dtype=np.int64), np.ones((2, 1), dtype=np.int64))


class TestDot:
    def test_basic(self, small_field):
        assert ff_dot(small_field, np.array([1, 2, 3]), np.array([4, 5, 6])) == 32 % 97

    def test_chunked_matches(self, paper_field, rng):
        x = paper_field.random(100, rng)
        y = paper_field.random(100, rng)
        want = ff_dot(paper_field, x, y)
        paper_field.chunk = 9
        try:
            assert ff_dot(paper_field, x, y) == want
        finally:
            paper_field.chunk = safe_chunk_len(paper_field.q)

    def test_returns_python_int(self, small_field, rng):
        out = ff_dot(small_field, small_field.random(5, rng), small_field.random(5, rng))
        assert isinstance(out, int)

    def test_mismatched_raises(self, small_field):
        with pytest.raises(ValueError):
            ff_dot(small_field, np.array([1, 2]), np.array([1, 2, 3]))
