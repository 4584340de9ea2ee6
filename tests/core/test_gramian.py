"""Tests for the generalized (degree-2) AVCC master."""

import numpy as np
import pytest

from repro.coding import SchemeParams
from repro.core import GramianAVCCMaster, InsufficientResultsError
from repro.ff import PrimeField, ff_matmul, ff_matvec
from repro.runtime import (
    ConstantAttack,
    Honest,
    ReversedValueAttack,
    SimCluster,
    SimWorker,
    TcpCluster,
    make_profiles,
)

F = PrimeField(2**25 - 39)


def make_workers(n, straggler_factors=None, behaviors=None):
    profiles = make_profiles(n, straggler_factors or {})
    behaviors = behaviors or {}
    return [
        SimWorker(i, profile=profiles[i], behavior=behaviors.get(i, Honest()))
        for i in range(n)
    ]


def make_cluster(n=12, straggler_factors=None, behaviors=None, seed=5):
    workers = make_workers(n, straggler_factors, behaviors)
    return SimCluster(F, workers, rng=np.random.default_rng(seed))


def make_tcp_cluster(n=12, straggler_factors=None, behaviors=None):
    workers = make_workers(n, straggler_factors, behaviors)
    return TcpCluster(F, workers, straggle_scale=0.01)


def exact_gramian(x, w):
    return ff_matvec(F, ff_matmul(F, x.T.copy(), x), w)


SCHEME = SchemeParams(n=12, k=4, s=2, m=1, deg_f=2)  # threshold 7, 7+2+1+1=11<=12


class TestExactness:
    def test_matches_direct_computation(self, rng):
        x = F.random((20, 6), rng)
        w = F.random(6, rng)
        master = GramianAVCCMaster(make_cluster(), SCHEME)
        master.setup(x)
        out = master.gramian_round(w)
        np.testing.assert_array_equal(out.vector, exact_gramian(x, w))

    def test_with_row_padding(self, rng):
        x = F.random((18, 5), rng)  # 18 % 4 != 0 -> padded to 20
        w = F.random(5, rng)
        master = GramianAVCCMaster(make_cluster(), SCHEME)
        master.setup(x)
        np.testing.assert_array_equal(
            master.gramian_round(w).vector, exact_gramian(x, w)
        )

    def test_with_privacy_padding(self, rng):
        # (k + t - 1)*2 + 1 = 9; 9 + s + m + 1 = 12
        scheme = SchemeParams(n=12, k=4, s=1, m=1, t=1, deg_f=2)
        x = F.random((16, 5), rng)
        w = F.random(5, rng)
        master = GramianAVCCMaster(make_cluster(), scheme)
        master.setup(x)
        np.testing.assert_array_equal(
            master.gramian_round(w).vector, exact_gramian(x, w)
        )

    def test_repeated_rounds(self, rng):
        x = F.random((20, 6), rng)
        master = GramianAVCCMaster(make_cluster(), SCHEME)
        master.setup(x)
        for _ in range(3):
            w = F.random(6, rng)
            np.testing.assert_array_equal(
                master.gramian_round(w).vector, exact_gramian(x, w)
            )


class TestFaults:
    def test_byzantine_rejected(self, rng):
        x = F.random((20, 6), rng)
        w = F.random(6, rng)
        master = GramianAVCCMaster(
            make_cluster(behaviors={5: ReversedValueAttack()}), SCHEME
        )
        master.setup(x)
        out = master.gramian_round(w)
        np.testing.assert_array_equal(out.vector, exact_gramian(x, w))
        assert out.record.rejected_workers == (5,)

    def test_byzantine_corrupting_only_gramian_part_rejected(self, rng):
        """An attacker that computes z honestly but corrupts g must be
        caught by the second verification stage."""

        class GramianOnlyAttack:
            is_byzantine = True

            def corrupt(self, result, field, rng):
                out = result.copy()
                out[-1] = (out[-1] + 1) % field.q  # g lives at the tail
                return out

        x = F.random((20, 6), rng)
        w = F.random(6, rng)
        master = GramianAVCCMaster(
            make_cluster(behaviors={2: GramianOnlyAttack()}), SCHEME
        )
        master.setup(x)
        out = master.gramian_round(w)
        np.testing.assert_array_equal(out.vector, exact_gramian(x, w))
        assert out.record.rejected_workers == (2,)

    def test_straggler_skipped(self, rng):
        x = F.random((20, 6), rng)
        w = F.random(6, rng)
        slow = make_cluster(straggler_factors={0: 50.0, 1: 40.0})
        fast = make_cluster()
        for cluster in (slow, fast):
            master = GramianAVCCMaster(cluster, SCHEME)
            master.setup(x)
            master.gramian_round(w)
        assert slow.now == pytest.approx(fast.now, rel=1e-9)

    def test_too_many_byzantine_raises(self, rng):
        x = F.random((20, 6), rng)
        w = F.random(6, rng)
        behaviors = {i: ConstantAttack() for i in range(6)}
        master = GramianAVCCMaster(make_cluster(behaviors=behaviors), SCHEME)
        master.setup(x)
        with pytest.raises(InsufficientResultsError):
            master.gramian_round(w)


class TestOverTcpFleet:
    """The same master over loopback worker daemons, where results race
    in over real sockets in wall-clock order."""

    def test_matches_direct_computation(self, rng):
        x = F.random((20, 6), rng)
        with make_tcp_cluster() as cluster:
            master = GramianAVCCMaster(cluster, SCHEME)
            master.setup(x)
            for _ in range(2):
                w = F.random(6, rng)
                np.testing.assert_array_equal(
                    master.gramian_round(w).vector, exact_gramian(x, w)
                )

    def test_byzantine_rejected(self, rng):
        x = F.random((20, 6), rng)
        w = F.random(6, rng)
        # six honest stragglers: the forger is among the first arrivals,
        # so its result is verified (and refused) before the decode
        slow = {i: 10.0 for i in range(6, 12)}
        cluster = make_tcp_cluster(
            straggler_factors=slow, behaviors={5: ReversedValueAttack()}
        )
        with cluster:
            master = GramianAVCCMaster(cluster, SCHEME)
            master.setup(x)
            out = master.gramian_round(w)
        np.testing.assert_array_equal(out.vector, exact_gramian(x, w))
        assert out.record.rejected_workers == (5,)

    def test_too_many_byzantine_raises(self, rng):
        x = F.random((20, 6), rng)
        w = F.random(6, rng)
        behaviors = {i: ConstantAttack() for i in range(6)}
        with make_tcp_cluster(behaviors=behaviors) as cluster:
            master = GramianAVCCMaster(cluster, SCHEME)
            master.setup(x)
            with pytest.raises(InsufficientResultsError):
                master.gramian_round(w)


class TestDegreeAccounting:
    def test_threshold_is_degree_weighted(self):
        master = GramianAVCCMaster(make_cluster(), SCHEME)
        assert master.scheme.recovery_threshold == (4 - 1) * 2 + 1 == 7

    def test_rejects_wrong_degree_scheme(self):
        with pytest.raises(ValueError, match="deg_f=2"):
            GramianAVCCMaster(make_cluster(), SchemeParams(n=12, k=4, s=2, m=1))

    def test_infeasible_scheme_rejected(self):
        with pytest.raises(ValueError, match="Eq. 2"):
            GramianAVCCMaster(
                make_cluster(), SchemeParams(n=12, k=5, s=2, m=2, deg_f=2)
            )

    def test_operand_validation(self, rng):
        master = GramianAVCCMaster(make_cluster(), SCHEME)
        master.setup(F.random((20, 6), rng))
        with pytest.raises(ValueError, match="length 6"):
            master.gramian_round(F.zeros(4))

    def test_round_before_setup(self):
        master = GramianAVCCMaster(make_cluster(), SCHEME)
        with pytest.raises(RuntimeError, match="setup"):
            master.gramian_round(F.zeros(6))


class TestOneRoundLinearRegression:
    def test_gradient_descent_via_gramian(self, rng):
        """One-round linear regression: grad = (X^T X w - X^T y)/m."""
        from repro.ml import Quantizer, make_linreg_dataset

        ds = make_linreg_dataset(m=160, d=12, rng=np.random.default_rng(3))
        master = GramianAVCCMaster(make_cluster(), SCHEME)
        master.setup(ds.x_train)
        q = Quantizer(F, 6)
        xty = ds.x_train.T @ ds.y_train  # master-side constant
        w = np.zeros(ds.d)
        losses = []
        for _ in range(15):
            w_q = q.quantize(w)
            gram = master.gramian_round(w_q)
            # scale: data (2^0) squared times w (2^6) -> dequantize 2^-6
            xxw = q.dequantize(gram.vector)
            grad = (xxw - xty) / ds.m
            norm = np.linalg.norm(grad)
            if norm > 50:
                grad *= 50 / norm
            w = w - 0.005 * grad
            losses.append(float(np.mean((ds.x_train @ w - ds.y_train) ** 2)))
        assert losses[-1] < losses[0] * 0.6
