"""Tests for the coded-matmul AVCC master (polynomial codes +
Freivalds matmul verification)."""

import numpy as np
import pytest

from repro.core import CodedMatmulAVCCMaster, InsufficientResultsError
from repro.ff import PrimeField, ff_matmul
from repro.runtime import (
    ConstantAttack,
    Honest,
    RandomAttack,
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


def make_cluster(n=9, straggler_factors=None, behaviors=None, seed=8):
    workers = make_workers(n, straggler_factors, behaviors)
    return SimCluster(F, workers, rng=np.random.default_rng(seed))


def make_tcp_cluster(n=9, straggler_factors=None, behaviors=None):
    workers = make_workers(n, straggler_factors, behaviors)
    return TcpCluster(F, workers, straggle_scale=0.01)


@pytest.fixture
def factors(rng):
    a = F.random((8, 10), rng)
    b = F.random((10, 6), rng)
    return a, b


class TestExactness:
    def test_product_exact(self, factors):
        a, b = factors
        master = CodedMatmulAVCCMaster(make_cluster(), p=2, q=3, s=2, m=1)
        master.setup(a, b)
        out = master.multiply()
        np.testing.assert_array_equal(out.vector, ff_matmul(F, a, b))

    def test_repeated_multiplies(self, factors):
        a, b = factors
        master = CodedMatmulAVCCMaster(make_cluster(), p=2, q=3, s=2, m=1)
        master.setup(a, b)
        want = ff_matmul(F, a, b)
        for _ in range(3):
            np.testing.assert_array_equal(master.multiply().vector, want)

    def test_p1_q1_replication_degenerate(self, rng):
        """p = q = 1: every worker holds the full factors."""
        a = F.random((4, 5), rng)
        b = F.random((5, 3), rng)
        master = CodedMatmulAVCCMaster(make_cluster(n=3), p=1, q=1, s=1, m=1)
        master.setup(a, b)
        np.testing.assert_array_equal(master.multiply().vector, ff_matmul(F, a, b))


class TestFaults:
    def test_byzantine_rejected(self, factors):
        a, b = factors
        master = CodedMatmulAVCCMaster(
            make_cluster(behaviors={3: RandomAttack()}), p=2, q=3, s=1, m=2
        )
        master.setup(a, b)
        out = master.multiply()
        np.testing.assert_array_equal(out.vector, ff_matmul(F, a, b))
        assert out.record.rejected_workers == (3,)

    def test_straggler_skipped(self, factors):
        a, b = factors
        slow = make_cluster(straggler_factors={0: 60.0, 8: 45.0})
        fast = make_cluster()
        for cluster in (slow, fast):
            master = CodedMatmulAVCCMaster(cluster, p=2, q=3, s=2, m=1)
            master.setup(a, b)
            master.multiply()
        assert slow.now == pytest.approx(fast.now, rel=1e-9)

    def test_combined_faults_at_capacity(self, factors):
        a, b = factors
        master = CodedMatmulAVCCMaster(
            make_cluster(
                straggler_factors={1: 30.0, 2: 25.0},
                behaviors={5: ConstantAttack(value=3)},
            ),
            p=2,
            q=3,
            s=2,
            m=1,
        )
        master.setup(a, b)
        out = master.multiply()
        np.testing.assert_array_equal(out.vector, ff_matmul(F, a, b))
        assert out.record.rejected_workers == (5,)

    def test_beyond_capacity_raises(self, factors):
        a, b = factors
        behaviors = {i: RandomAttack() for i in range(4)}
        master = CodedMatmulAVCCMaster(
            make_cluster(behaviors=behaviors), p=2, q=3, s=2, m=1
        )
        master.setup(a, b)
        with pytest.raises(InsufficientResultsError):
            master.multiply()


class TestOverTcpFleet:
    """The same master over loopback worker daemons, where results race
    in over real sockets in wall-clock order."""

    def test_product_exact(self, factors):
        a, b = factors
        with make_tcp_cluster() as cluster:
            master = CodedMatmulAVCCMaster(cluster, p=2, q=3, s=2, m=1)
            master.setup(a, b)
            want = ff_matmul(F, a, b)
            for _ in range(2):
                np.testing.assert_array_equal(master.multiply().vector, want)

    def test_byzantine_rejected(self, factors):
        a, b = factors
        # honest stragglers past the recovery threshold: the forger is
        # among the first arrivals, so it is verified (and refused)
        slow = {i: 10.0 for i in range(4, 9)}
        cluster = make_tcp_cluster(
            straggler_factors=slow, behaviors={3: RandomAttack()}
        )
        with cluster:
            master = CodedMatmulAVCCMaster(cluster, p=2, q=3, s=1, m=2)
            master.setup(a, b)
            out = master.multiply()
        np.testing.assert_array_equal(out.vector, ff_matmul(F, a, b))
        assert out.record.rejected_workers == (3,)

    def test_beyond_capacity_raises(self, factors):
        a, b = factors
        behaviors = {i: RandomAttack() for i in range(4)}
        with make_tcp_cluster(behaviors=behaviors) as cluster:
            master = CodedMatmulAVCCMaster(cluster, p=2, q=3, s=2, m=1)
            master.setup(a, b)
            with pytest.raises(InsufficientResultsError):
                master.multiply()


class TestRoster:
    """``participants`` names the workers the master codes over (the
    session passes its matvec master's roster): the worker budget is
    checked against it, and no other worker gets a share or a round."""

    ROSTER = [1, 2, 4, 5, 7, 8]

    def _took_part(self, record):
        return {
            *record.used_workers,
            *record.rejected_workers,
            *(wid for wid, _ in record.worker_latencies),
        }

    def test_budget_is_checked_against_the_roster(self):
        with pytest.raises(ValueError, match="the roster has 5"):
            CodedMatmulAVCCMaster(
                make_cluster(), p=2, q=2, s=1, m=1, participants=self.ROSTER[:5]
            )

    def test_only_the_roster_serves(self, factors):
        a, b = factors
        master = CodedMatmulAVCCMaster(
            make_cluster(), p=2, q=3, s=0, m=0, participants=self.ROSTER
        )
        master.setup(a, b)
        out = master.multiply()
        np.testing.assert_array_equal(out.vector, ff_matmul(F, a, b))
        assert master.scheme_now == (6, 6)
        assert self._took_part(out.record) == set(self.ROSTER)

    def test_a_forger_in_the_roster_is_rejected(self, factors):
        a, b = factors
        cluster = make_cluster(behaviors={4: ConstantAttack()})
        master = CodedMatmulAVCCMaster(
            cluster, p=2, q=2, s=1, m=1, participants=self.ROSTER
        )
        master.setup(a, b)
        out = master.multiply()
        np.testing.assert_array_equal(out.vector, ff_matmul(F, a, b))
        assert out.record.rejected_workers == (4,)
        assert self._took_part(out.record) <= set(self.ROSTER)


class TestValidation:
    def test_worker_budget(self):
        with pytest.raises(ValueError, match="p\\*q \\+ S \\+ M"):
            CodedMatmulAVCCMaster(make_cluster(n=6), p=2, q=3, s=1, m=1)

    def test_divisibility(self, rng):
        master = CodedMatmulAVCCMaster(make_cluster(), p=3, q=2, s=1, m=1)
        with pytest.raises(ValueError, match="divide"):
            master.setup(F.random((8, 4), rng), F.random((4, 6), rng))

    def test_incompatible_factors(self, rng):
        master = CodedMatmulAVCCMaster(make_cluster(), p=2, q=2, s=1, m=1)
        with pytest.raises(ValueError, match="incompatible"):
            master.setup(F.random((4, 5), rng), F.random((6, 4), rng))

    def test_multiply_before_setup(self):
        master = CodedMatmulAVCCMaster(make_cluster(), p=2, q=3, s=1, m=1)
        with pytest.raises(RuntimeError, match="setup"):
            master.multiply()

    def test_scheme_now(self, factors):
        a, b = factors
        master = CodedMatmulAVCCMaster(make_cluster(), p=2, q=3, s=2, m=1)
        master.setup(a, b)
        assert master.scheme_now == (9, 6)
