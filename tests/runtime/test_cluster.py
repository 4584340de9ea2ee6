"""Tests for the simulated cluster round executor."""

import math

import numpy as np
import pytest

from repro.ff import PrimeField, ff_matvec
from repro.runtime import (
    CostModel,
    Honest,
    ReversedValueAttack,
    RoundJob,
    SilentFailure,
    SimCluster,
    SimWorker,
    make_profiles,
)

F = PrimeField(7919)


def _mk_cluster(n=4, straggler_factors=None, behaviors=None, rng=None, cm=None):
    profiles = make_profiles(n, straggler_factors or {})
    behaviors = behaviors or {}
    workers = [
        SimWorker(i, profile=profiles[i], behavior=behaviors.get(i, Honest()))
        for i in range(n)
    ]
    return SimCluster(F, workers, cost_model=cm or CostModel(), rng=rng or np.random.default_rng(1))


class TestConstruction:
    def test_requires_contiguous_ids(self):
        with pytest.raises(ValueError, match="0..n-1"):
            SimCluster(F, [SimWorker(0), SimWorker(2)])

    def test_workers_sorted_by_id(self):
        c = SimCluster(F, [SimWorker(1), SimWorker(0)])
        assert [w.worker_id for w in c.workers] == [0, 1]


class TestClock:
    def test_advance(self):
        c = _mk_cluster()
        c.advance_to(5.0)
        assert c.now == 5.0
        with pytest.raises(ValueError, match="backward"):
            c.advance_to(1.0)

    def test_elapse(self):
        c = _mk_cluster()
        c.elapse(2.0)
        c.elapse(3.0)
        assert c.now == 5.0
        with pytest.raises(ValueError):
            c.elapse(-1.0)


class TestDistribute:
    def test_stores_and_charges_time(self, rng):
        c = _mk_cluster(n=3)
        shares = F.random((3, 4, 5), rng)
        spent = c.distribute("X", shares)
        for i in range(3):
            np.testing.assert_array_equal(c.worker(i).payload["X"], shares[i])
        want = 3 * c.cost_model.transfer_time(20)
        assert spent == pytest.approx(want)
        assert c.now == pytest.approx(want)

    def test_subset_participants_slot_mapping(self, rng):
        """shares[slot] goes to participants[slot] — the (N-1,K-1)
        re-encode path ships fewer shares than workers."""
        c = _mk_cluster(n=4)
        shares = F.random((2, 3), rng)
        c.distribute("X", shares, participants=[3, 1])
        np.testing.assert_array_equal(c.worker(3).payload["X"], shares[0])
        np.testing.assert_array_equal(c.worker(1).payload["X"], shares[1])
        assert "X" not in c.worker(0).payload

    def test_too_few_shares(self, rng):
        c = _mk_cluster(n=3)
        with pytest.raises(ValueError, match="fewer shares"):
            c.distribute("X", F.random((2, 2), rng))

    def test_a_dropped_worker_is_refused(self, rng):
        """``Backend.drop_workers``'s contract, as the socket cluster
        keeps it: a dropped id in later participants raises."""
        c = _mk_cluster(n=4)
        c.distribute("X", F.random((4, 3, 6), rng))
        c.drop_workers([2])
        job = RoundJob(payload_key="X", operand=F.random(6, rng))
        with pytest.raises(ValueError, match=r"workers \[2\] were dropped"):
            c.dispatch_round(job, participants=[0, 2])
        with pytest.raises(ValueError, match=r"workers \[2\] were dropped"):
            c.distribute("Y", F.random((2, 3, 6), rng), participants=[3, 2])
        handle = c.dispatch_round(job, participants=[0, 1, 3])
        assert sorted(a.worker_id for a in handle) == [0, 1, 3]

    def test_drops_accumulate(self, rng):
        c = _mk_cluster(n=4)
        c.distribute("X", F.random((4, 3, 6), rng))
        c.drop_workers([2])
        c.drop_workers([0])
        job = RoundJob(payload_key="X", operand=F.random(6, rng))
        for gone in (0, 2):
            with pytest.raises(ValueError, match=rf"workers \[{gone}\] were dropped"):
                c.dispatch_round(job, participants=[1, gone, 3])
        handle = c.dispatch_round(job, participants=[1, 3])
        assert sorted(a.worker_id for a in handle) == [1, 3]


    def test_duplicate_or_out_of_range_participants_are_refused(self, rng):
        c = _mk_cluster(n=4)
        c.distribute("X", F.random((4, 3, 6), rng))
        job = RoundJob(payload_key="X", operand=F.random(6, rng))
        with pytest.raises(ValueError, match="duplicate participant"):
            c.dispatch_round(job, participants=[0, 1, 1])
        with pytest.raises(ValueError, match="worker id 4 out of range"):
            c.distribute("Y", F.random((2, 3, 6), rng), participants=[0, 4])
        with pytest.raises(ValueError, match="worker id -1 out of range"):
            c.dispatch_round(job, participants=[-1, 2])
        assert "Y" not in c.worker(0).payload

    def test_unrestricted_round_skips_dropped_workers(self, rng):
        """``participants=None`` means every worker not dropped, and
        the roster view agrees."""
        c = _mk_cluster(n=4)
        c.distribute("X", F.random((4, 3, 6), rng))
        c.drop_workers([1])
        handle = c.dispatch_round(RoundJob(payload_key="X", operand=F.random(6, rng)))
        assert sorted(a.worker_id for a in handle) == [0, 2, 3]
        view = c.membership()
        assert (view.live, view.dropped, view.live_count) == ((0, 2, 3), (1,), 3)
        assert c.admit_workers() == () and c.take_membership_events() == ()

class TestRunRound:
    def _setup(self, c, rng, d=6):
        shares = F.random((c.n, 3, d), rng)
        c.distribute("X", shares)
        w = F.random(d, rng)
        return shares, w

    def test_honest_results_and_ordering(self, rng):
        c = _mk_cluster(n=4, straggler_factors={2: 10.0})
        shares, w = self._setup(c, rng)
        rr = c.run_round(
            compute=lambda p: ff_matvec(F, p["X"], w),
            macs=lambda p: p["X"].size,
            broadcast_elements=w.size,
        )
        assert len(rr.arrivals) == 4
        times = [a.t_arrival for a in rr.arrivals]
        assert times == sorted(times)
        assert rr.arrivals[-1].worker_id == 2  # the straggler arrives last
        for a in rr.arrivals:
            np.testing.assert_array_equal(
                a.value, ff_matvec(F, shares[a.worker_id], w)
            )

    def test_straggler_time_scales(self, rng):
        cm = CostModel(link_latency_s=0.0)
        c = _mk_cluster(n=2, straggler_factors={1: 5.0}, cm=cm)
        self._setup(c, rng)
        w = F.random(6, rng)
        rr = c.run_round(
            compute=lambda p: ff_matvec(F, p["X"], w),
            macs=lambda p: p["X"].size,
            broadcast_elements=w.size,
        )
        fast, slow = rr.arrivals
        assert slow.compute_time == pytest.approx(5.0 * fast.compute_time)

    def test_byzantine_value_corrupted_flag_set(self, rng):
        c = _mk_cluster(n=3, behaviors={1: ReversedValueAttack()})
        shares, w = self._setup(c, rng)
        rr = c.run_round(
            compute=lambda p: ff_matvec(F, p["X"], w),
            macs=lambda p: p["X"].size,
            broadcast_elements=w.size,
        )
        by_id = {a.worker_id: a for a in rr.arrivals}
        honest = ff_matvec(F, shares[1], w)
        np.testing.assert_array_equal(by_id[1].value, F.neg(honest))
        assert by_id[1].truly_byzantine
        assert not by_id[0].truly_byzantine

    def test_silent_worker_never_arrives(self, rng):
        c = _mk_cluster(n=3, behaviors={2: SilentFailure()})
        shares, w = self._setup(c, rng)
        rr = c.run_round(
            compute=lambda p: ff_matvec(F, p["X"], w),
            macs=lambda p: p["X"].size,
            broadcast_elements=w.size,
        )
        assert math.isinf(rr.arrivals[-1].t_arrival)
        assert rr.arrivals[-1].worker_id == 2
        assert len(rr.arrived()) == 2

    def test_participants_subset(self, rng):
        c = _mk_cluster(n=4)
        shares, w = self._setup(c, rng)
        rr = c.run_round(
            compute=lambda p: ff_matvec(F, p["X"], w),
            macs=lambda p: p["X"].size,
            broadcast_elements=w.size,
            participants=[0, 3],
        )
        assert sorted(a.worker_id for a in rr.arrivals) == [0, 3]

    def test_clock_advanced_to_broadcast_only(self, rng):
        c = _mk_cluster(n=2)
        self._setup(c, rng)
        t0 = c.now
        w = F.random(6, rng)
        rr = c.run_round(
            compute=lambda p: ff_matvec(F, p["X"], w),
            macs=lambda p: p["X"].size,
            broadcast_elements=w.size,
        )
        assert c.now == pytest.approx(t0 + rr.broadcast_time)
        assert all(a.t_arrival >= c.now for a in rr.arrivals)

    def test_deterministic_given_seed(self, rng):
        def run(seed):
            c = _mk_cluster(n=3, straggler_factors={0: 3.0}, rng=np.random.default_rng(seed))
            shares = F.random((3, 2, 4), np.random.default_rng(42))
            c.distribute("X", shares)
            w = F.asarray([1, 2, 3, 4])
            rr = c.run_round(
                compute=lambda p: ff_matvec(F, p["X"], w),
                macs=lambda p: p["X"].size,
                broadcast_elements=4,
            )
            return [(a.worker_id, a.t_arrival) for a in rr.arrivals]

        assert run(7) == run(7)

    def test_duplicate_participants_rejected(self, rng):
        c = _mk_cluster(n=3)
        self._setup(c, rng)
        with pytest.raises(ValueError, match="duplicate"):
            c.run_round(
                compute=lambda p: p["X"][0],
                macs=lambda p: 1,
                broadcast_elements=1,
                participants=[1, 1],
            )
