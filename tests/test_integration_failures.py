"""Failure-injection integration tests.

End-to-end training runs under adversarial cluster conditions beyond
the paper's configurations: attackers at every position, crash-stop
workers, straggler storms, simultaneous fault mixes, and the boundary
cases at exactly the tolerated fault counts.
"""

import numpy as np
import pytest

from repro import (
    AVCCMaster,
    ConstantAttack,
    DistributedLogisticTrainer,
    Honest,
    InsufficientResultsError,
    IntermittentAttack,
    LCCMaster,
    LogisticConfig,
    PrimeField,
    ReversedValueAttack,
    SchemeParams,
    SilentFailure,
    SimCluster,
    SimWorker,
    make_gisette_like,
    make_profiles,
)

F = PrimeField(2**25 - 39)
CFG = LogisticConfig(iterations=5, learning_rate=0.3, l_w=8, l_e=8)


@pytest.fixture(scope="module")
def dataset():
    return make_gisette_like(m=240, d=36, class_lift=0.9, rng=np.random.default_rng(1))


@pytest.fixture(scope="module")
def reference_weights(dataset):
    """Clean-cluster AVCC weights — the target every fault-tolerant run
    must reproduce bit-exactly."""
    master = AVCCMaster(_cluster(), SchemeParams(n=12, k=9, s=2, m=1))
    master.setup(dataset.x_train)
    trainer = DistributedLogisticTrainer(master, dataset, CFG)
    trainer.train()
    return trainer.final_weights


def _cluster(straggler_factors=None, behaviors=None, seed=42):
    from repro import CostModel

    profiles = make_profiles(12, straggler_factors or {})
    behaviors = behaviors or {}
    workers = [
        SimWorker(i, profile=profiles[i], behavior=behaviors.get(i, Honest()))
        for i in range(12)
    ]
    # compute-dominant constants so straggler *detection* works at this
    # tiny test scale (with the defaults, fixed link latency would mask
    # the compute slowdown — realistic, but not what we test here)
    cm = CostModel(worker_sec_per_mac=2e-6, link_latency_s=1e-5)
    return SimCluster(F, workers, cost_model=cm, rng=np.random.default_rng(seed))


class TestAttackerPosition:
    @pytest.mark.parametrize("pos", range(12))
    def test_byzantine_at_every_position(self, dataset, reference_weights, pos):
        """AVCC's result must not depend on where the attacker sits —
        including position 0 (systematic share = raw data block) and
        the last coded position."""
        master = AVCCMaster(
            _cluster(behaviors={pos: ConstantAttack(value=777)}),
            SchemeParams(n=12, k=9, s=2, m=1),
        )
        master.setup(dataset.x_train)
        trainer = DistributedLogisticTrainer(master, dataset, CFG)
        trainer.train()
        np.testing.assert_array_equal(trainer.final_weights, reference_weights)


class TestCrashStop:
    def test_silent_worker_treated_as_straggler(self, dataset, reference_weights):
        master = AVCCMaster(
            _cluster(behaviors={4: SilentFailure()}),
            SchemeParams(n=12, k=9, s=2, m=1),
        )
        master.setup(dataset.x_train)
        trainer = DistributedLogisticTrainer(master, dataset, CFG)
        hist = trainer.train()
        np.testing.assert_array_equal(trainer.final_weights, reference_weights)
        # the dead worker is observed as a straggler (not Byzantine)
        # every iteration and stays in the pool
        assert all(4 in ws for ws in hist.observed_stragglers)
        assert all(4 not in ws for ws in hist.detected_byzantine)
        assert 4 in master.active

    def test_silent_plus_byzantine_plus_straggler(self, dataset, reference_weights):
        """The full fault mix at the tolerance boundary: one crash, one
        attacker, one heavy straggler — S+M budget exactly consumed."""
        master = AVCCMaster(
            _cluster(
                straggler_factors={0: 9.0},
                behaviors={5: SilentFailure(), 8: ReversedValueAttack()},
            ),
            SchemeParams(n=12, k=9, s=2, m=1),
        )
        master.setup(dataset.x_train)
        trainer = DistributedLogisticTrainer(master, dataset, CFG)
        trainer.train()
        np.testing.assert_array_equal(trainer.final_weights, reference_weights)

    def test_lcc_survives_silent_worker(self, dataset):
        master = LCCMaster(
            _cluster(behaviors={2: SilentFailure()}),
            SchemeParams(n=12, k=9, s=1, m=1),
        )
        master.setup(dataset.x_train)
        hist = DistributedLogisticTrainer(master, dataset, CFG).train()
        assert hist.iterations() == CFG.iterations

    def test_too_many_crashes_fail_loudly(self, dataset):
        behaviors = {i: SilentFailure() for i in range(4)}  # > S+M slack
        master = AVCCMaster(
            _cluster(behaviors=behaviors), SchemeParams(n=12, k=9, s=2, m=1)
        )
        master.setup(dataset.x_train)
        trainer = DistributedLogisticTrainer(master, dataset, CFG)
        with pytest.raises(InsufficientResultsError):
            trainer.train()


class TestStragglerStorm:
    def test_everyone_slow_but_uniform(self, dataset, reference_weights):
        """A uniformly slow cluster has no stragglers: nothing is
        flagged, results exact, time scales by the factor."""
        slow = _cluster(straggler_factors={i: 4.0 for i in range(12)})
        fast = _cluster()
        masters = []
        for cluster in (slow, fast):
            m = AVCCMaster(cluster, SchemeParams(n=12, k=9, s=2, m=1))
            m.setup(dataset.x_train)
            t = DistributedLogisticTrainer(m, dataset, CFG)
            t.train()
            masters.append((t, cluster))
        np.testing.assert_array_equal(masters[0][0].final_weights, reference_weights)
        assert masters[0][1].now > masters[1][1].now

    def test_three_heavy_stragglers_with_adaptation(self, dataset, reference_weights):
        """Beyond-design straggler storm: the adaptive master re-encodes
        and still produces the exact model."""
        master = AVCCMaster(
            _cluster(straggler_factors={0: 20.0, 1: 25.0, 2: 30.0}),
            SchemeParams(n=12, k=9, s=2, m=1),
        )
        master.setup(dataset.x_train)
        trainer = DistributedLogisticTrainer(master, dataset, CFG)
        hist = trainer.train()
        np.testing.assert_array_equal(trainer.final_weights, reference_weights)
        # A_t = 12 - 0 - 3 - 9 = 0: exactly enough fast workers remain,
        # so Eq. 17 keeps (12, 9) — the 9 healthy workers cover K
        assert hist.schemes[-1] == (12, 9)
        assert all(set(ws) == {0, 1, 2} for ws in hist.observed_stragglers)


class TestIntermittentAdversary:
    def test_on_off_attacker_dropped_after_first_strike(self, dataset, reference_weights):
        master = AVCCMaster(
            _cluster(
                behaviors={7: IntermittentAttack(ConstantAttack(), probability=0.5)}
            ),
            SchemeParams(n=12, k=9, s=2, m=1),
        )
        master.setup(dataset.x_train)
        trainer = DistributedLogisticTrainer(master, dataset, CFG)
        hist = trainer.train()
        np.testing.assert_array_equal(trainer.final_weights, reference_weights)
        strikes = [i for i, ws in enumerate(hist.detected_byzantine) if 7 in ws]
        if strikes:  # once detected, never participates again
            first = strikes[0]
            assert all(7 not in ws for ws in hist.detected_byzantine[first + 1:])
            assert 7 not in master.active

    def test_static_vcc_keeps_rejecting_forever(self, dataset, reference_weights):
        master = AVCCMaster(
            _cluster(behaviors={7: ConstantAttack()}),
            SchemeParams(n=12, k=9, s=2, m=1),
            adaptive=False,
        )
        master.setup(dataset.x_train)
        trainer = DistributedLogisticTrainer(master, dataset, CFG)
        hist = trainer.train()
        np.testing.assert_array_equal(trainer.final_weights, reference_weights)
        # rejected in every iteration, never dropped
        assert all(7 in ws for ws in hist.detected_byzantine)
        assert 7 in master.active
