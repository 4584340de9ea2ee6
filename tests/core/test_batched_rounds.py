"""The AVCC master's batched round: B same-family jobs coalesced into
one ``(d, B)`` operand, served by one broadcast.

Every worker returns a ``(b, B)`` product, Freivalds checks the whole
batch with one probe application, and one decode recovers every job.
These tests pin that path against the direct product of each job, under
stragglers and forgers, on the simulator and over loopback worker
daemons (where results race in over real sockets in wall-clock order).
"""

from dataclasses import dataclass

import numpy as np
import pytest

from repro.coding import SchemeParams
from repro.core import AVCCMaster, InsufficientResultsError
from repro.ff import PrimeField, ff_matvec
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
BACKENDS = ["sim", "tcp"]


def make_cluster(kind="sim", n=12, straggler_factors=None, behaviors=None, seed=8):
    profiles = make_profiles(n, straggler_factors or {})
    behaviors = behaviors or {}
    workers = [
        SimWorker(i, profile=profiles[i], behavior=behaviors.get(i, Honest()))
        for i in range(n)
    ]
    if kind == "sim":
        return SimCluster(F, workers, rng=np.random.default_rng(seed))
    return TcpCluster(F, workers, straggle_scale=0.01)


@dataclass(frozen=True)
class ForgeOneColumn:
    """Send the honest batch with one job's column shifted by one."""

    column: int
    is_byzantine: bool = True

    def corrupt(self, result, field, rng):
        out = np.array(result, copy=True)
        out[:, self.column] = (out[:, self.column] + 1) % field.q
        return out


@pytest.fixture
def x(rng):
    return F.random((36, 10), rng)


@pytest.fixture
def batch(rng):
    return [F.random(10, rng) for _ in range(5)]


def _assert_exact(outs, x, operands):
    assert len(outs) == len(operands)
    for out, w in zip(outs, operands):
        np.testing.assert_array_equal(out.vector, ff_matvec(F, x, w))


class TestExactness:
    @pytest.mark.parametrize("kind", BACKENDS)
    def test_every_job_is_exact(self, kind, x, batch):
        with make_cluster(kind) as cluster:
            master = AVCCMaster(cluster, SchemeParams(n=12, k=9, s=2, m=1))
            master.setup(x)
            _assert_exact(master.round_many("fwd", batch), x, batch)

    def test_the_jobs_share_one_round(self, x, batch):
        master = AVCCMaster(make_cluster(), SchemeParams(n=12, k=9, s=2, m=1))
        master.setup(x)
        outs = master.round_many("fwd", batch)
        assert all(out.record is outs[0].record for out in outs)

    def test_repeated_batches(self, x, batch, rng):
        master = AVCCMaster(make_cluster(), SchemeParams(n=12, k=9, s=2, m=1))
        master.setup(x)
        for _ in range(3):
            _assert_exact(master.round_many("fwd", batch), x, batch)
            batch = [F.random(10, rng) for _ in range(3)]

    def test_backward_family(self, x, rng):
        errors = [F.random(36, rng) for _ in range(4)]
        master = AVCCMaster(make_cluster(), SchemeParams(n=12, k=9, s=2, m=1))
        master.setup(x)
        _assert_exact(master.round_many("bwd", errors), x.T.copy(), errors)

    def test_k1_replication_degenerate(self, rng):
        """k = 1: every worker holds the full matrix."""
        x = F.random((4, 5), rng)
        operands = [F.random(5, rng) for _ in range(3)]
        master = AVCCMaster(make_cluster(n=3), SchemeParams(n=3, k=1, s=1, m=1))
        master.setup(x)
        _assert_exact(master.round_many("fwd", operands), x, operands)

    def test_a_batch_of_one_is_the_single_round(self, x, batch):
        single = AVCCMaster(make_cluster(), SchemeParams(n=12, k=9, s=2, m=1))
        single.setup(x)
        batched = AVCCMaster(make_cluster(), SchemeParams(n=12, k=9, s=2, m=1))
        batched.setup(x)
        (out,) = batched.round_many("fwd", batch[:1])
        assert out.vector.tobytes() == single.forward_round(batch[0]).vector.tobytes()


class TestFaults:
    #: three honest stragglers past the recovery threshold: the two
    #: forgers are among the first arrivals, so both are verified (and
    #: refused) before the round can finish
    SLOW = {9: 10.0, 10: 10.0, 11: 10.0}

    @pytest.mark.parametrize("kind", BACKENDS)
    def test_byzantine_rejected(self, kind, x, batch):
        behaviors = {3: RandomAttack(), 7: ConstantAttack(value=3)}
        with make_cluster(kind, straggler_factors=self.SLOW, behaviors=behaviors) as cluster:
            master = AVCCMaster(cluster, SchemeParams(n=12, k=9, s=1, m=2))
            master.setup(x)
            outs = master.round_many("fwd", batch)
        _assert_exact(outs, x, batch)
        assert outs[0].record.rejected_workers == (3, 7)

    @pytest.mark.parametrize("column", [0, 4])
    def test_a_forgery_in_one_column_rejects_the_whole_batch(self, column, x, batch):
        cluster = make_cluster(
            straggler_factors=self.SLOW, behaviors={5: ForgeOneColumn(column)}
        )
        master = AVCCMaster(cluster, SchemeParams(n=12, k=9, s=1, m=2))
        master.setup(x)
        outs = master.round_many("fwd", batch)
        _assert_exact(outs, x, batch)
        assert outs[0].record.rejected_workers == (5,)
        assert 5 not in outs[0].record.used_workers

    def test_straggler_skipped(self, x, batch):
        slow = make_cluster(straggler_factors={0: 60.0, 8: 45.0})
        fast = make_cluster()
        for cluster in (slow, fast):
            master = AVCCMaster(cluster, SchemeParams(n=12, k=9, s=2, m=1))
            master.setup(x)
            master.round_many("fwd", batch)
        assert slow.now == pytest.approx(fast.now, rel=1e-9)

    @pytest.mark.parametrize("kind", BACKENDS)
    def test_combined_faults_at_capacity(self, kind, x, batch):
        cluster = make_cluster(
            kind,
            straggler_factors={1: 30.0, 2: 25.0},
            behaviors={5: ConstantAttack(value=3)},
        )
        with cluster:
            master = AVCCMaster(cluster, SchemeParams(n=12, k=9, s=2, m=1))
            master.setup(x)
            outs = master.round_many("fwd", batch)
        _assert_exact(outs, x, batch)
        assert 5 not in outs[0].record.used_workers

    @pytest.mark.parametrize("kind", BACKENDS)
    def test_beyond_capacity_raises(self, kind, x, batch):
        behaviors = {i: RandomAttack() for i in range(4)}
        with make_cluster(kind, behaviors=behaviors) as cluster:
            master = AVCCMaster(cluster, SchemeParams(n=12, k=9, s=2, m=1))
            master.setup(x)
            with pytest.raises(InsufficientResultsError):
                master.round_many("fwd", batch)


class TestValidation:
    def test_empty_batch_is_no_round(self, x):
        cluster = make_cluster()
        master = AVCCMaster(cluster, SchemeParams(n=12, k=9, s=2, m=1))
        master.setup(x)
        t0 = cluster.now
        assert master.round_many("fwd", []) == []
        assert cluster.now == t0

    def test_batch_before_setup(self, batch):
        master = AVCCMaster(make_cluster(), SchemeParams(n=12, k=9, s=2, m=1))
        with pytest.raises(RuntimeError, match="setup"):
            master.round_many("fwd", batch)

    def test_scheme_now(self, x, batch):
        master = AVCCMaster(make_cluster(), SchemeParams(n=12, k=9, s=2, m=1))
        master.setup(x)
        master.round_many("fwd", batch)
        assert master.scheme_now == (12, 9)
