"""Tests for the Lagrange code: roundtrips, systematicity, polynomial
commutation, and error-corrected decoding."""

import tracemalloc
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.coding import LagrangeCode, partition_rows, unpartition_rows
from repro.coding import lcc as lcc_module
from repro.ff import DecodingError, PrimeField, ff_matvec, gauss_rank
from repro.ff.lagrange import eval_lagrange_basis

F = PrimeField(7919)


class TestConstruction:
    def test_defaults_systematic_when_t0(self):
        code = LagrangeCode(F, n=6, k=3)
        assert code.is_systematic
        np.testing.assert_array_equal(code.beta, code.alpha[:3])

    def test_t_positive_disjoint_points(self):
        code = LagrangeCode(F, n=8, k=3, t=2)
        assert np.intersect1d(code.alpha, code.beta).size == 0
        assert not code.is_systematic

    def test_rejects_overlap_with_t(self):
        with pytest.raises(ValueError, match="disjoint"):
            LagrangeCode(F, 5, 2, 1, alpha=np.arange(1, 6), beta=np.array([5, 6, 7]))

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            LagrangeCode(F, n=3, k=3, t=1)

    def test_rejects_duplicate_points(self):
        with pytest.raises(ValueError):
            LagrangeCode(F, 4, 2, alpha=np.array([1, 1, 2, 3]))

    def test_recovery_threshold(self):
        code = LagrangeCode(F, n=12, k=9)
        assert code.recovery_threshold() == 9
        assert code.recovery_threshold(deg_f=2) == 17
        code_t = LagrangeCode(F, n=12, k=3, t=2)
        assert code_t.recovery_threshold(2) == (3 + 2 - 1) * 2 + 1

    def test_encoding_matrix_systematic_prefix(self):
        code = LagrangeCode(F, n=6, k=3)
        u = code.encoding_matrix()
        np.testing.assert_array_equal(u[:, :3], np.eye(3, dtype=np.int64))


class TestEncodeDecode:
    def test_roundtrip_identity_f(self, rng):
        code = LagrangeCode(F, n=7, k=4)
        blocks = F.random((4, 3, 5), rng)
        shares = code.encode(blocks)
        got = code.decode(np.arange(4), shares[:4])
        np.testing.assert_array_equal(got, blocks)

    def test_roundtrip_every_k_subset(self, rng):
        n, k = 7, 3
        code = LagrangeCode(F, n=n, k=k)
        blocks = F.random((k, 2, 2), rng)
        shares = code.encode(blocks)
        for subset in combinations(range(n), k):
            idx = np.array(subset)
            np.testing.assert_array_equal(code.decode(idx, shares[idx]), blocks)

    def test_extra_shares_ignored(self, rng):
        code = LagrangeCode(F, n=8, k=3)
        blocks = F.random((3, 4), rng)
        shares = code.encode(blocks)
        np.testing.assert_array_equal(
            code.decode(np.arange(8), shares), blocks
        )

    def test_linear_f_commutes(self, rng):
        """decode(f(shares)) == f(blocks) for linear f (matvec)."""
        m, d, k, n = 12, 6, 4, 7
        x = F.random((m, d), rng)
        w = F.random(d, rng)
        blocks = partition_rows(x, k)
        code = LagrangeCode(F, n=n, k=k)
        shares = code.encode(blocks)
        results = np.stack([ff_matvec(F, s, w) for s in shares])  # workers
        idx = np.array([6, 2, 0, 5])  # any k, any order
        got = code.decode(idx, results[idx])
        want = np.stack([ff_matvec(F, b, w) for b in blocks])
        np.testing.assert_array_equal(got, want)

    def test_degree2_f_elementwise_square(self, rng):
        """Workers compute f(X) = X*X elementwise (deg 2): need 2(k+t-1)+1
        evaluations — the LCC degree accounting of Eq. (14)."""
        k, t, n = 3, 1, 12
        code = LagrangeCode(F, n=n, k=k, t=t)
        blocks = F.random((k, 2, 3), rng)
        shares = code.encode(blocks, rng)
        results = shares * shares % F.q
        need = code.recovery_threshold(deg_f=2)  # 2*3+1 = 7
        assert need == 7
        got = code.decode(np.arange(need), results[:need], deg_f=2)
        np.testing.assert_array_equal(got, blocks * blocks % F.q)

    def test_degree2_insufficient_shares_garbage(self, rng):
        """With only k+t shares a degree-2 result cannot decode — the
        code must refuse rather than silently return wrong blocks."""
        code = LagrangeCode(F, n=12, k=3, t=1)
        blocks = F.random((3, 2), rng)
        shares = code.encode(blocks, rng)
        results = shares * shares % F.q
        with pytest.raises(ValueError, match="need 7"):
            code.decode(np.arange(4), results[:4], deg_f=2)

    def test_decode_validations(self, rng):
        code = LagrangeCode(F, n=6, k=3)
        shares = code.encode(F.random((3, 2), rng))
        with pytest.raises(ValueError, match="duplicate"):
            code.decode(np.array([0, 0, 1]), shares[[0, 0, 1]])
        with pytest.raises(ValueError, match="out of range"):
            code.decode(np.array([0, 1, 9]), shares[[0, 1, 2]])
        with pytest.raises(ValueError, match="mismatch"):
            code.decode(np.array([0, 1]), shares[[0, 1, 2]])

    def test_encode_shape_validation(self, rng):
        code = LagrangeCode(F, n=6, k=3)
        with pytest.raises(ValueError, match="stacked blocks"):
            code.encode(F.random((4, 2), rng))

    def test_t_requires_rng(self, rng):
        code = LagrangeCode(F, n=8, k=3, t=2)
        with pytest.raises(ValueError, match="rng"):
            code.encode(F.random((3, 2), rng))

    @given(
        k=st.integers(1, 5),
        extra=st.integers(0, 4),
        t=st.integers(0, 2),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_property_roundtrip(self, k, extra, t, seed):
        r = np.random.default_rng(seed)
        n = k + t + extra
        code = LagrangeCode(F, n=n, k=k, t=t)
        blocks = F.random((k, 3), r)
        shares = code.encode(blocks, r)
        need = code.recovery_threshold()
        idx = r.permutation(n)[:need]
        np.testing.assert_array_equal(code.decode(idx, shares[idx]), blocks)


def _encode_reference(code, blocks, seed):
    """``U.T @ [X; W] mod q`` one term at a time in ``int64`` (a product
    of two residues fits, a sum of ``k + t`` of them need not), with the
    privacy rows the encoder draws from a generator seeded alike."""
    q = code.field.q
    flat = np.asarray(blocks).reshape(code.k, -1).astype(np.int64) % q
    if code.t:
        w = code.field.random((code.t, flat.shape[1]), np.random.default_rng(seed))
        flat = np.concatenate([flat, w], axis=0)
    u = code.encoding_matrix()
    want = np.zeros((code.n, flat.shape[1]), dtype=np.int64)
    for j in range(code.k + code.t):
        want = (want + u[j][:, None] * flat[j][None, :]) % q
    return want.reshape(code.n, *np.shape(blocks)[1:])


@st.composite
def _encode_cases(draw):
    q = draw(st.sampled_from([97, 7919, 2**25 - 39, 2**31 - 1]))
    k = draw(st.integers(1, 6))
    t = draw(st.integers(0, 2))
    n = k + t + draw(st.integers(0, 4))
    trailing = tuple(draw(st.lists(st.integers(1, 5), min_size=1, max_size=2)))
    chunk = draw(st.sampled_from([None, 1, 2, max(1, k + t - 1)]))
    layout = draw(st.sampled_from(["fresh", "given", "in_place", "strided"]))
    return q, n, k, t, trailing, chunk, layout, draw(st.integers(0, 2**32 - 1))


class TestEncodeInto:
    """The destination parameter: same shares wherever they are written,
    whichever way the inner dimension is chunked."""

    @given(_encode_cases())
    @settings(max_examples=150, deadline=None)
    def test_equals_the_plain_product(self, case):
        q, n, k, t, trailing, chunk, layout, seed = case
        field = PrimeField(q)
        if chunk is not None:
            field.chunk = min(field.chunk, chunk)
        code = LagrangeCode(field, n=n, k=k, t=t)
        rng = np.random.default_rng(seed)
        blocks = field.random((k, *trailing), rng)
        want = _encode_reference(code, blocks, seed)
        into = None
        if layout == "strided":  # every other column of a wider array
            wide = np.zeros((k, *trailing[:-1], 2 * trailing[-1]), dtype=np.int64)
            wide[..., ::2] = blocks
            blocks = wide[..., ::2]
        elif layout != "fresh":
            into = np.full((n, *trailing), -1, dtype=np.int64)
            if layout == "in_place":
                into[:k] = blocks
                blocks = into[:k]
        before = None if layout == "in_place" else blocks.copy()
        got = code.encode(blocks, np.random.default_rng(seed) if t else None, into)
        if into is not None:
            assert got is into
        assert got.dtype == np.int64 and got.flags.c_contiguous
        assert got.tobytes() == want.tobytes()
        if before is not None:  # the input is read, never written
            np.testing.assert_array_equal(blocks, before)

    def test_n_equal_k_is_a_copy(self, rng):
        code = LagrangeCode(F, n=4, k=4)
        blocks = F.random((4, 3, 2), rng)
        shares = code.encode(blocks)
        np.testing.assert_array_equal(shares, blocks)
        assert not np.shares_memory(shares, blocks)

    @pytest.mark.parametrize("in_place", [True, False], ids=["in_place", "copied"])
    def test_systematic_encode_multiplies_the_parity_rows_only(self, rng, monkeypatch, in_place):
        """``blocks is into[:k]``: nothing is copied onto itself; blocks
        elsewhere are copied in. Either way the only product is the
        parity rows', and no array of ``n`` shares is allocated beside
        the destination (the full product ``U.T @ blocks % q`` makes
        two)."""
        code = LagrangeCode(F, n=7, k=4)
        into = np.empty((7, 40, 30), dtype=np.int64)
        data = F.random((4, 40, 30), rng)
        into[:4] = data
        blocks = into[:4] if in_place else data.copy()
        seen = []
        real = lcc_module.matmul_reduced

        def spy(field, a, b, into=None):
            seen.append((a.shape, b.shape))
            return real(field, a, b, into)

        monkeypatch.setattr(lcc_module, "matmul_reduced", spy)
        into[4:] = -1
        tracemalloc.start()
        try:
            code.encode(blocks, None, into)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert seen == [((3, 4), (4, 1200))]
        assert peak < into[0].nbytes  # less than one share
        np.testing.assert_array_equal(into[:4], data)
        np.testing.assert_array_equal(into, code.encode(data))

    def test_overlapping_input_of_a_non_systematic_code(self, rng):
        """No privacy rows, custom points: the full product would read
        rows it has already overwritten if the input were not copied."""
        code = LagrangeCode(F, 5, 3, alpha=np.arange(1, 6), beta=np.arange(10, 13))
        assert not code.is_systematic
        blocks = F.random((3, 4), rng)
        into = np.zeros((5, 4), dtype=np.int64)
        into[:3] = blocks
        np.testing.assert_array_equal(
            code.encode(into[:3], None, into), code.encode(blocks)
        )

    def test_unreduced_input_is_reduced_and_float_rejected(self, rng):
        code = LagrangeCode(F, n=5, k=3)
        blocks = F.random((3, 4), rng)
        shifted = blocks + F.q * rng.integers(-3, 4, size=blocks.shape)
        into = np.zeros((5, 4), dtype=np.int64)
        np.testing.assert_array_equal(
            code.encode(shifted, None, into), code.encode(blocks)
        )
        np.testing.assert_array_equal(code.encode(shifted.astype(np.int32)), into)
        with pytest.raises(TypeError, match="float"):
            code.encode(blocks.astype(np.float64), None, into)

    @pytest.mark.parametrize(
        "bad",
        [
            np.zeros((5, 4), dtype=np.int32),
            np.zeros((5, 5), dtype=np.int64),
            np.zeros((4, 4), dtype=np.int64),
            np.zeros((5, 8), dtype=np.int64)[:, ::2],
        ],
        ids=["dtype", "trailing", "n", "strided"],
    )
    def test_rejects_a_destination_it_cannot_fill(self, bad, rng):
        code = LagrangeCode(F, n=5, k=3)
        with pytest.raises(ValueError, match="destination"):
            code.encode(F.random((3, 4), rng), None, bad)


class TestDecodeBasisCache:
    """The decode basis is kept per responder set; what decode returns
    must not depend on what the code object decoded before."""

    @given(seed=st.integers(0, 2**32 - 1), t=st.integers(0, 1), deg_f=st.integers(1, 2))
    @settings(max_examples=25, deadline=None)
    def test_cached_equals_fresh_over_permuted_and_repeated_sets(self, seed, t, deg_f):
        r = np.random.default_rng(seed)
        k = 3
        need = (k + t - 1) * deg_f + 1
        n = need + 3
        warm = LagrangeCode(F, n=n, k=k, t=t)
        results = F.random((n, 4), r)  # decode is linear: any values do
        subsets = [r.permutation(n)[: need + int(r.integers(0, 3))] for _ in range(4)]
        # each set again in a different arrival order, then repeated as is
        order = subsets + [r.permutation(s[:need]) for s in subsets] + subsets
        for idx in order:
            fresh = LagrangeCode(F, n=n, k=k, t=t)  # has decoded nothing yet
            got = warm.decode(idx, results[idx], deg_f=deg_f)
            want = fresh.decode(idx, results[idx], deg_f=deg_f)
            assert got.tobytes() == want.tobytes()
            basis = eval_lagrange_basis(F, warm.alpha[idx[:need]], warm.beta[:k])
            assert warm._decode_basis(idx[:need]).tobytes() == basis.tobytes()

    def test_one_entry_per_set_whatever_the_order(self, rng):
        code = LagrangeCode(F, n=12, k=9)
        results = F.random((12, 2), rng)
        base = np.array([0, 1, 2, 3, 4, 5, 6, 7, 9])
        for _ in range(20):
            idx = rng.permutation(base)
            code.decode(idx, results[idx])
        assert len(code._decode_bases) == 1
        code.decode(np.arange(1, 10), results[1:10])
        assert len(code._decode_bases) == 2
        # all k systematic workers: every block is copied, no basis built
        code.decode(np.arange(9), results[:9])
        assert len(code._decode_bases) == 2

    def test_bound_respected(self, rng, monkeypatch):
        monkeypatch.setattr(lcc_module, "_BASIS_CACHE_MAX", 4)
        code = LagrangeCode(F, n=8, k=3)
        blocks = F.random((3, 2), rng)
        shares = code.encode(blocks)
        for subset in combinations(range(8), 3):
            idx = np.array(subset)
            np.testing.assert_array_equal(code.decode(idx, shares[idx]), blocks)
            assert len(code._decode_bases) <= 4
        assert code._decode_bases  # only (0, 1, 2) needs no basis

    def test_validation_runs_before_the_cache(self, rng):
        code = LagrangeCode(F, n=6, k=3)
        shares = code.encode(F.random((3, 2), rng))
        code.decode(np.array([0, 1, 3]), shares[[0, 1, 3]])  # warm
        with pytest.raises(ValueError, match="duplicate"):
            code.decode(np.array([0, 0, 1]), shares[[0, 0, 1]])
        with pytest.raises(ValueError, match="out of range"):
            code.decode(np.array([0, 1, 9]), shares[[0, 1, 2]])
        with pytest.raises(ValueError, match="out of range"):
            code.decode(np.array([0, 1, -1]), shares[[0, 1, 2]])
        assert list(code._decode_bases) == [(0, 1, 3)]

    def test_a_new_code_object_starts_empty(self):
        # re-coding builds a new LagrangeCode, so nothing is invalidated
        assert LagrangeCode(F, n=6, k=3)._decode_bases == {}


class TestDecodeCorrected:
    def test_corrects_byzantine_shares(self, rng):
        """k=4, n=12 linear: slack 8 -> corrects up to 4 errors."""
        code = LagrangeCode(F, n=12, k=4)
        blocks = F.random((4, 5), rng)
        shares = code.encode(blocks)
        shares[2] = F.random(5, rng)
        shares[9] = F.random(5, rng)
        got, errs = code.decode_corrected(np.arange(12), shares)
        np.testing.assert_array_equal(got, blocks)
        assert set(errs.tolist()) == {2, 9}

    def test_max_errors_budget_respected(self, rng):
        """LCC designed for M=1 cannot reliably fix 2 corruptions."""
        code = LagrangeCode(F, n=12, k=9)
        blocks = F.random((9, 4), rng)
        shares = code.encode(blocks)
        bad = [1, 5]
        for b in bad:
            shares[b] = F.random(4, rng)
        # 11 of 12 received (S=1 straggler), budget M=1: must fail or
        # produce a decode inconsistent with the true blocks.
        received = np.arange(11)
        try:
            got, errs = code.decode_corrected(received, shares[:11], max_errors=1)
        except DecodingError:
            return
        assert not np.array_equal(got, blocks)

    def test_exact_capacity(self, rng):
        """11 received, k=9 => slack 2 => exactly 1 error correctable."""
        code = LagrangeCode(F, n=12, k=9)
        blocks = F.random((9, 3), rng)
        shares = code.encode(blocks)
        shares[4] = F.random(3, rng)
        got, errs = code.decode_corrected(np.arange(11), shares[:11])
        np.testing.assert_array_equal(got, blocks)
        assert errs.tolist() == [4]


class TestLinearSpecialCase:
    """At ``deg_f = 1`` and ``t = 0`` the Lagrange code is an MDS code,
    the setting of the paper's Fig. 1: ``X`` split into ``X1, X2`` over
    three workers, any two of which recover ``X b``."""

    def test_fig1_shares(self, rng):
        x1, x2 = partition_rows(F.random((4, 3), rng), 2)
        code = LagrangeCode(F, n=3, k=2)
        shares = code.encode(np.stack([x1, x2]))
        u = code.encoding_matrix()
        np.testing.assert_array_equal(shares[0], x1)
        np.testing.assert_array_equal(shares[1], x2)
        np.testing.assert_array_equal(shares[2], (u[0, 2] * x1 + u[1, 2] * x2) % F.q)

    @pytest.mark.parametrize("straggler", [0, 1, 2])
    def test_fig1_any_one_straggler(self, straggler, rng):
        x, b = F.random((4, 3), rng), F.random(3, rng)
        code = LagrangeCode(F, n=3, k=2)
        results = np.stack([ff_matvec(F, s, b) for s in code.encode(partition_rows(x, 2))])
        idx = np.array([i for i in range(3) if i != straggler])
        got = code.decode(idx, results[idx])
        np.testing.assert_array_equal(unpartition_rows(got), ff_matvec(F, x, b))

    @pytest.mark.parametrize("t", [0, 2])
    def test_every_square_column_subset_of_u_invertible(self, t):
        """The MDS property of ``U``: the columns of any ``k + t``
        workers are independent, so any ``k + t`` linear evaluations
        decode."""
        code = LagrangeCode(F, n=7, k=3, t=t)
        u = code.encoding_matrix()
        for cols in combinations(range(7), 3 + t):
            assert gauss_rank(F, u[:, list(cols)]) == 3 + t


def _full_basis_decode(code, idx, shares, deg_f):
    """The interpolate-everything reference: every block is the
    ``(k, R)`` basis product over the first ``R`` shares, in bignums."""
    need = code.recovery_threshold(deg_f)
    idx = np.asarray(idx)[:need]
    basis = eval_lagrange_basis(code.field, code.alpha[idx], code.beta[: code.k])
    flat = np.asarray(shares)[:need].reshape(need, -1).astype(object)
    out = np.array((basis.T.astype(object) @ flat) % code.field.q, dtype=np.int64)
    return out.reshape(code.k, *np.asarray(shares).shape[1:])


class TestSystematicDecode:
    """A systematic code copies the blocks its own workers sent and
    interpolates only the missing ones; the bytes are those of the full
    basis product, for any responder set, arrival order and ``deg_f``
    (the shares need not even be consistent: the interpolant passes
    through every node, and ``beta_j`` is the node ``alpha_j``)."""

    @pytest.mark.parametrize("deg_f", [1, 2])
    @pytest.mark.parametrize("chunk", [None, 1, 2])
    def test_every_subset_and_order_equals_the_full_basis(self, deg_f, chunk):
        field = PrimeField(7919)
        if chunk is not None:  # the kernels' chunked paths
            field.chunk = field.float_chunk = chunk
        k, n = 3, 7
        code = LagrangeCode(field, n=n, k=k)
        assert code.is_systematic
        need = code.recovery_threshold(deg_f)
        r = np.random.default_rng(deg_f)
        results = field.random((n, 2, 3), r)  # any values: decode is linear
        for subset in combinations(range(n), need):
            for order in (subset, subset[::-1], tuple(r.permutation(subset))):
                idx = np.array(order)
                want = _full_basis_decode(code, idx, results[idx], deg_f)
                got = code.decode(idx, results[idx], deg_f=deg_f)
                assert got.dtype == np.int64 and got.tobytes() == want.tobytes()
                as_list = code.decode(idx, list(results[idx]), deg_f=deg_f)
                assert as_list.tobytes() == want.tobytes()

    def test_present_blocks_are_the_systematic_shares(self, rng):
        code = LagrangeCode(F, n=12, k=9)
        blocks = F.random((9, 4, 2), rng)
        shares = code.encode(blocks)
        idx = np.array([11, 0, 5, 9, 3, 1, 2, 4, 6])  # blocks 7, 8 missing
        got = code.decode(idx, shares[idx])
        np.testing.assert_array_equal(got, blocks)
        assert code.decode(np.arange(9), shares[:9]).tobytes() == blocks.tobytes()

    @pytest.mark.parametrize("t", [1, 2])
    def test_privacy_padded_codes_interpolate_every_block(self, t):
        code = LagrangeCode(F, n=8, k=3, t=t)
        assert not code.is_systematic
        r = np.random.default_rng(t)
        results = F.random((8, 5), r)
        need = code.recovery_threshold()
        for subset in combinations(range(8), need):
            idx = np.array(subset)
            want = _full_basis_decode(code, idx, results[idx], 1)
            assert code.decode(idx, results[idx]).tobytes() == want.tobytes()

    def test_shares_are_validated_not_re_reduced(self, rng):
        code = LagrangeCode(F, n=6, k=3)
        shares = code.encode(F.random((3, 4), rng))
        idx = np.array([0, 4, 2])
        want = code.decode(idx, shares[idx])
        shifted = shares[idx] + F.q  # unreduced: reduced into a copy
        assert code.decode(idx, shifted).tobytes() == want.tobytes()
        assert code.decode(idx, list(shifted)).tobytes() == want.tobytes()
        assert code.decode(idx, shares[idx].astype(np.int32)).tobytes() == want.tobytes()
        with pytest.raises(TypeError, match="float"):
            code.decode(idx, shares[idx].astype(np.float64))
        with pytest.raises(TypeError, match="float"):
            code.decode(idx, [s.astype(np.float64) for s in shares[idx]])
        with pytest.raises(ValueError, match="shape"):
            code.decode(idx, [shares[0], shares[4], shares[2][:-1]])
        with pytest.raises(ValueError, match="mismatch"):
            code.decode(idx, list(shares[idx])[:2])
