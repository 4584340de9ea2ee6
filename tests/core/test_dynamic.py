"""Tests for the adaptive policy (Eqs. 16–19) and the encoding cache."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import AdaptivePolicy, EncodingCache
from repro.ff import PrimeField, ff_matvec

F = PrimeField(7919)


class TestPolicyMDS:
    def test_fig5_scenario(self):
        """Fig. 5: (N=12, K=9), 3 stragglers + 1 Byzantine observed ->
        A_t = 12-1-3-9-0 = -1 < 0 -> new scheme (11, 8)."""
        policy = AdaptivePolicy(mode="mds")
        d = policy.decide(n_t=12, k_t=9, m_t=1, s_t=3)
        assert d.slack == -1
        assert (d.new_n, d.new_k) == (11, 8)
        assert d.reencode

    def test_positive_slack_drops_byzantine_only(self):
        """Eq. 17 top branch: A_t >= 0 -> (N-M, K), no re-encode."""
        policy = AdaptivePolicy(mode="mds")
        d = policy.decide(n_t=12, k_t=9, m_t=1, s_t=1)
        assert d.slack == 1
        assert (d.new_n, d.new_k) == (11, 9)
        assert not d.reencode

    def test_exactly_zero_slack(self):
        policy = AdaptivePolicy(mode="mds")
        d = policy.decide(n_t=12, k_t=9, m_t=1, s_t=2)
        assert d.slack == 0
        assert (d.new_n, d.new_k) == (11, 9)
        assert not d.reencode

    def test_t_colluders_consume_slack(self):
        policy = AdaptivePolicy(mode="mds")
        assert policy.decide(12, 9, 1, 1, t_t=1).slack == 0
        assert policy.decide(12, 9, 1, 1, t_t=2).slack == -1

    def test_infeasible_raises(self):
        policy = AdaptivePolicy(mode="mds", min_k=1)
        with pytest.raises(ValueError, match="no feasible"):
            policy.decide(n_t=4, k_t=2, m_t=2, s_t=2)

    def test_invalid_observation(self):
        policy = AdaptivePolicy()
        with pytest.raises(ValueError):
            policy.slack(0, 1, 0, 0)
        with pytest.raises(ValueError):
            policy.slack(4, 2, -1, 0)


class TestPolicyLagrange:
    def test_degree_weighted_slack(self):
        """Eq. 18: A_t = N - M - S - (K+T-1) deg f."""
        policy = AdaptivePolicy(mode="lagrange", deg_f=2)
        assert policy.slack(20, 4, m_t=1, s_t=2, t_t=1) == 20 - 1 - 2 - 8

    def test_shrink_uses_floor_division(self):
        """Eq. 19: K' = K + floor(A_t / deg f)."""
        policy = AdaptivePolicy(mode="lagrange", deg_f=2)
        d = policy.decide(n_t=12, k_t=6, m_t=1, s_t=2, t_t=0)
        # A = 12-1-2-10 = -1; floor(-1/2) = -1 -> K' = 5
        assert d.slack == -1
        assert (d.new_n, d.new_k) == (11, 5)
        assert d.reencode

    def test_mode_validation(self):
        with pytest.raises(ValueError):
            AdaptivePolicy(mode="bogus")
        with pytest.raises(ValueError):
            AdaptivePolicy(deg_f=0)

    @given(
        n=st.integers(4, 30),
        k=st.integers(1, 10),
        m=st.integers(0, 3),
        s=st.integers(0, 3),
    )
    @settings(max_examples=80, deadline=None)
    def test_property_new_scheme_feasible(self, n, k, m, s):
        """Whenever the policy returns a decision, the new scheme must be
        decodable: K' + S' <= N' for every straggler level up to the
        observed one."""
        policy = AdaptivePolicy(mode="mds")
        if n - m - s < k + 0:
            # may raise (infeasible) — that is acceptable behaviour
            try:
                d = policy.decide(n, k, m, s)
            except ValueError:
                return
        else:
            d = policy.decide(n, k, m, s)
        assert d.new_k >= 1
        assert d.new_n - s >= d.new_k or d.slack >= 0


class TestEncodingCache:
    def test_builds_consistent_config(self, rng):
        x = F.random((12, 10), rng)
        cache = EncodingCache(F, x, rng=rng)
        cfg, fwd, bwd = cache.shares(6, 4)
        assert fwd.shape == (6, 3, 10)   # m=12, k=4 -> 3 rows
        assert bwd.shape == (6, 3, 12)   # d=10 padded to 12
        assert cfg.m_pad == 12 and cfg.d_pad == 12
        assert len(cfg.fwd_keys) == 6 and len(cfg.bwd_keys) == 6

    def test_memoized(self, rng):
        x = F.random((8, 4), rng)
        cache = EncodingCache(F, x, rng=rng)
        assert cache.shares(4, 2)[0] is cache.shares(4, 2)[0]

    def test_every_configuration_built_is_cached(self, rng):
        x = F.random((8, 4), rng)
        cache = EncodingCache(F, x, rng=rng)
        for n, k in [(4, 2), (3, 2)]:
            cache.shares(n, k)
        assert (4, 2) in cache._configs and (3, 2) in cache._configs

    def test_padding_roundtrip_through_decode(self, rng):
        """Padded encode/decode must reproduce X w exactly."""
        x = F.random((10, 7), rng)  # 10 rows, k=4 -> pad to 12
        w = F.random(7, rng)
        cache = EncodingCache(F, x, rng=rng)
        cfg, fwd, _ = cache.shares(6, 4)
        results = np.stack(
            [ff_matvec(F, s, w) for s in fwd]
        )
        blocks = cfg.code.decode(np.arange(4), results[:4])
        got = blocks.reshape(-1)[:10]
        np.testing.assert_array_equal(got, ff_matvec(F, x, w))

    def test_no_keys_mode(self, rng):
        cache = EncodingCache(F, F.random((4, 4), rng), build_keys=False, rng=rng)
        cfg, _, _ = cache.shares(4, 2)
        assert cfg.fwd_keys == () and cfg.bwd_keys == ()

    def test_rejects_non_matrix(self, rng):
        with pytest.raises(ValueError):
            EncodingCache(F, F.random(5, rng))

    def test_privacy_padding_used_when_t_positive(self, rng):
        x = F.random((6, 4), rng)
        cache = EncodingCache(F, x, t=1, rng=rng)
        cfg, _, _ = cache.shares(6, 2)
        assert cfg.code.t == 1
        assert not cfg.code.is_systematic


def _config_by_the_old_recipe(field, x, n, k, t, probes, rng):
    """Shares and keys the way they were built before the stacks were
    encoded in place: pad a copy, transpose a copy, pad that, the full
    ``U.T @ [X; W]`` product, then ``r`` and ``s = r @ share`` per share
    — the same draws from ``rng`` in the same order."""
    from repro.coding import LagrangeCode, partition_rows

    q = field.q
    x_pad = np.pad(x % q, [(0, (-x.shape[0]) % k), (0, 0)])
    xt_pad = np.pad(np.ascontiguousarray(x_pad.T), [(0, (-x.shape[1]) % k), (0, 0)])
    u_t = LagrangeCode(field, n=n, k=k, t=t).encoding_matrix().T

    def encode(blocks):
        flat = blocks.reshape(k, -1)
        if t:
            flat = np.concatenate([flat, field.random((t, flat.shape[1]), rng)])
        return (u_t @ flat % q).reshape(n, *blocks.shape[1:])

    def keys(shares):
        out = []
        for share in shares:
            r = field.random((probes, share.shape[0]), rng)
            out.append((r, r @ share % q))
        return out

    fwd, bwd = encode(partition_rows(x_pad, k)), encode(partition_rows(xt_pad, k))
    return x_pad, xt_pad, fwd, bwd, keys(fwd), keys(bwd)


class TestEncodedInPlace:
    """One allocation per share stack, the dataset written into its
    first ``k`` shares — and the bytes of the recipe it replaced."""

    @pytest.mark.parametrize("t", [0, 1])
    @pytest.mark.parametrize("m,d,n,k", [(10, 7, 6, 4), (12, 10, 6, 4), (7, 12, 5, 3)])
    def test_same_shares_and_keys_as_the_old_recipe(self, m, d, n, k, t):
        x = F.random((m, d), np.random.default_rng(5))
        cfg, got_fwd, got_bwd = EncodingCache(
            F, x, t=t, probes=2, rng=np.random.default_rng(11)
        ).shares(n, k)
        x_pad, xt_pad, fwd, bwd, fwd_keys, bwd_keys = _config_by_the_old_recipe(
            F, x, n, k, t, 2, np.random.default_rng(11)
        )
        assert (cfg.m, cfg.d, cfg.m_pad, cfg.d_pad) == (m, d, x_pad.shape[0], xt_pad.shape[0])
        for got, want in ((got_fwd, fwd), (got_bwd, bwd)):
            assert got.dtype == np.int64 and got.flags.c_contiguous
            assert got.tobytes() == want.tobytes()
        for got, want in ((cfg.fwd_keys, fwd_keys), (cfg.bwd_keys, bwd_keys)):
            assert len(got) == n
            for key, (r, s) in zip(got, want):
                assert key.r.tobytes() == r.tobytes() and key.s.tobytes() == s.tobytes()
        if t == 0:  # systematic: the first k shares are the padded data
            assert got_fwd[:k].reshape(x_pad.shape).tobytes() == x_pad.tobytes()
            assert got_bwd[:k].reshape(xt_pad.shape).tobytes() == xt_pad.tobytes()

    def test_shares_never_alias_the_dataset(self, rng):
        x = F.random((8, 6), rng)
        cache = EncodingCache(F, x, rng=rng)
        for _ in range(2):  # built, then re-encoded
            _, fwd, bwd = cache.shares(4, 4)  # n == k: shares are the data
            assert not np.shares_memory(fwd, x)
            assert not np.shares_memory(bwd, x)

    def test_held_dataset_is_a_read_only_view(self, rng):
        x = F.random((8, 6), rng)
        cache = EncodingCache(F, x, rng=rng)
        assert np.shares_memory(cache.x, x)  # a reference, not a copy
        assert not cache.x.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            cache.x[0, 0] = 1
        with pytest.raises(ValueError, match="read-only"):
            cache.x.T[0] = 0
        with pytest.raises(ValueError, match="read-only"):
            cache.x %= 2
        cache.shares(4, 2)  # encoding only reads it
        # the caller's own handle is untouched by the view's flag
        assert x.flags.writeable

    def test_caller_writing_into_its_array_gets_shares_the_keys_refuse(self, rng):
        """What a master handed an array directly does *not* guarantee:
        the caller can still write through its own handle, and a
        re-encode then encodes the mutated data — under the keys of the
        original shares, which reject all but ``k - 1`` of them."""
        from repro.verify.freivalds import FreivaldsVerifier

        x = F.random((8, 6), rng)
        cache = EncodingCache(F, x, rng=np.random.default_rng(1))
        cfg, first, _ = cache.shares(4, 2)
        x[0, 0] = (x[0, 0] + 1) % F.q
        _, again, _ = cache.shares(4, 2)
        want_mutated = EncodingCache(F, x.copy(), rng=np.random.default_rng(1)).shares(4, 2)
        np.testing.assert_array_equal(again, want_mutated[1])
        assert not np.array_equal(again, first)
        verifier, w = FreivaldsVerifier(F), F.random(6, rng)
        passed = [
            verifier.check(key, w, ff_matvec(F, share, w))
            for key, share in zip(cfg.fwd_keys, again)
        ]
        assert sum(passed) == cfg.k - 1 < cfg.code.recovery_threshold()

    def test_session_load_isolates_the_caller(self):
        """``Session.load`` hands the master a copy it owns: writing
        into the loaded array afterwards changes no later re-code."""
        from repro.api import Session, SessionConfig
        from repro.coding import SchemeParams

        field = PrimeField()
        # reduced int64 residues: validating them needs no copy
        x = field.random((12, 8), np.random.default_rng(2))
        kept = x.copy()
        config = SessionConfig(scheme=SchemeParams(n=6, k=3, s=1, m=1), backend="sim", seed=3)
        with Session.create(config) as session:
            session.load(x)
            cache = session.master._cache
            assert not np.shares_memory(cache.x, x) and not cache.x.flags.writeable
            x[:] = 0
            recoded = cache.shares(5, 3)
        want = EncodingCache(field, kept, rng=np.random.default_rng(0)).shares(5, 3)
        np.testing.assert_array_equal(recoded[1], want[1])
        np.testing.assert_array_equal(recoded[2], want[2])

    def test_unreduced_dataset_is_reduced_float_rejected(self, rng):
        x = F.random((6, 4), rng)
        want = EncodingCache(F, x, rng=np.random.default_rng(1)).shares(4, 2)
        got = EncodingCache(F, x - F.q, rng=np.random.default_rng(1)).shares(4, 2)
        np.testing.assert_array_equal(got[1], want[1])
        np.testing.assert_array_equal(got[2], want[2])
        with pytest.raises(TypeError, match="float"):
            EncodingCache(F, x.astype(np.float64))

    def test_building_a_config_allocates_little_more_than_its_shares(self):
        """The train workload's matrix: two share stacks of 36.6 MiB.
        Built by the old recipe the peak was 2.64x their bytes."""
        import tracemalloc

        field = PrimeField()
        x = field.random((1800, 2000), np.random.default_rng(0))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            _, fwd, bwd = EncodingCache(field, x).shares(12, 9)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak <= 1.15 * (fwd.nbytes + bwd.nbytes)


class TestReinstall:
    """The cache keeps configurations, not shares: every install after
    the first re-encodes from the dataset, and ships the same bytes."""

    @pytest.mark.parametrize("t", [0, 1])  # systematic, then not
    def test_shares_again_are_the_first_bytes_and_draw_nothing(self, t):
        x = F.random((10, 7), np.random.default_rng(5))
        cache = EncodingCache(F, x, t=t, probes=2, rng=np.random.default_rng(11))
        cfg, fwd, bwd = cache.shares(6, 4)
        assert cfg.code.is_systematic == (t == 0)
        assert (cfg.padding_state is None) == (t == 0)
        state = cache.rng.bit_generator.state
        for _ in range(2):
            again, fwd2, bwd2 = cache.shares(6, 4)
            assert again is cfg  # keys never rebuilt
            assert fwd2.tobytes() == fwd.tobytes() and bwd2.tobytes() == bwd.tobytes()
            assert not np.shares_memory(fwd2, fwd)
        assert cache.rng.bit_generator.state == state

    def test_cache_keeps_no_share_stack(self):
        import gc
        import weakref

        cache = EncodingCache(F, F.random((8, 6), np.random.default_rng(0)))
        _, fwd, bwd = cache.shares(4, 2)
        refs = [weakref.ref(fwd), weakref.ref(bwd)]
        del fwd, bwd
        for n, k in [(4, 2), (3, 2)]:
            cache.shares(n, k)
        gc.collect()
        assert [r() for r in refs] == [None, None]

    @pytest.mark.parametrize("t", [0, 1])
    def test_recode_back_and_rejoin_ship_the_first_install_bytes(self, t):
        """Through the master: a departure shrinks ``K`` (a cold build),
        the rejoin grows it back to the cached configuration, and a
        join at unchanged ``(N, K)`` re-installs it once more."""
        from repro.coding import SchemeParams
        from repro.core import AVCCMaster
        from repro.runtime import SimCluster, SimWorker

        field = PrimeField()
        n = 6 + t
        scheme = SchemeParams(n=n, k=4, s=1, m=1, t=t)
        backend = SimCluster(field, [SimWorker(i) for i in range(n)], rng=np.random.default_rng(3))
        shipped = []
        real = backend.distribute

        def recording(name, shares, participants=None):
            shipped.append((name, shares.tobytes()))
            return real(name, shares, participants=participants)

        backend.distribute = recording
        master = AVCCMaster(backend, scheme, rng=np.random.default_rng(4))
        x = field.random((13, 9), np.random.default_rng(6))
        w = field.random(9, np.random.default_rng(7))
        master.setup(x)
        first, cfg = list(shipped), master._cfg
        master.adopt_membership(departed=(n - 1,))
        assert master.scheme_now == (n - 1, 3)
        state = master.rng.bit_generator.state
        for joined in ((n - 1,), (0,)):
            shipped.clear()
            master.adopt_membership(joined=joined)
            assert master.scheme_now == (n, 4) and master._cfg is cfg
            assert shipped == first
            np.testing.assert_array_equal(master.forward_round(w).vector, ff_matvec(field, x, w))
        assert master.rng.bit_generator.state == state

    def test_dataset_mutated_after_setup_is_refused_not_decoded(self):
        from repro.coding import SchemeParams
        from repro.core import AVCCMaster, InsufficientResultsError
        from repro.runtime import SimCluster, SimWorker

        field = PrimeField()
        backend = SimCluster(field, [SimWorker(i) for i in range(6)], rng=np.random.default_rng(3))
        master = AVCCMaster(backend, SchemeParams(n=6, k=3, s=1, m=1))
        x = field.random((12, 8), np.random.default_rng(6))
        w = field.random(8, np.random.default_rng(7))
        master.setup(x)
        want = ff_matvec(field, x, w)
        x[5, 3] = (x[5, 3] + 1) % field.q  # through the caller's own handle
        np.testing.assert_array_equal(master.forward_round(w).vector, want)  # shipped before
        master.adopt_membership(joined=(0,))  # re-encodes the mutated data
        with pytest.raises(InsufficientResultsError):
            master.forward_round(w)
