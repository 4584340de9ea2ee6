"""End-to-end tests of distributed logistic regression.

The load-bearing invariant: coded execution must be **bit-identical**
to a centralized implementation of the same quantized update — coding,
verification and decoding are exact in F_q, so the entire training
trajectory must match to the last ULP.
"""

import numpy as np
import pytest

from repro.coding import SchemeParams
from repro.core import AVCCMaster, LCCMaster, UncodedMaster
from repro.experiments.fig4 import mean_breakdown
from repro.ff import PrimeField, ff_matvec
from repro.ml import (
    DistributedLinearRegressionTrainer,
    DistributedLogisticTrainer,
    LinRegConfig,
    LogisticConfig,
    Quantizer,
    accuracy,
    make_gisette_like,
    make_linreg_dataset,
    sigmoid,
)
from repro.runtime import (
    ConstantAttack,
    Honest,
    ReversedValueAttack,
    SimCluster,
    SimWorker,
    make_profiles,
)

F = PrimeField(2**25 - 39)
CFG = LogisticConfig(iterations=8, learning_rate=1.0, l_w=5, l_e=6)


def make_cluster(n=12, straggler_factors=None, behaviors=None, seed=11):
    profiles = make_profiles(n, straggler_factors or {})
    behaviors = behaviors or {}
    workers = [
        SimWorker(i, profile=profiles[i], behavior=behaviors.get(i, Honest()))
        for i in range(n)
    ]
    return SimCluster(F, workers, rng=np.random.default_rng(seed))


@pytest.fixture(scope="module")
def dataset():
    return make_gisette_like(m=320, d=60, class_lift=0.9, rng=np.random.default_rng(9))


def centralized_reference(ds, cfg):
    """The same quantized two-round update, computed locally in F_q."""
    qw, qe = Quantizer(F, cfg.l_w), Quantizer(F, cfg.l_e)
    x_q = F.asarray(ds.x_train)
    w = np.zeros(ds.d)
    accs = []
    for _ in range(cfg.iterations):
        z = qw.dequantize(ff_matvec(F, x_q, qw.quantize(w)))
        e = sigmoid(z) - ds.y_train
        g = qe.dequantize(ff_matvec(F, x_q.T.copy(), qe.quantize(e)))
        grad = g / ds.m
        norm = np.linalg.norm(grad)
        if cfg.grad_clip is not None and norm > cfg.grad_clip:
            grad *= cfg.grad_clip / norm
        w = w - cfg.learning_rate * grad
        accs.append(accuracy(ds.y_test, sigmoid(ds.x_test @ w)))
    return w, accs


class TestBitExactness:
    @pytest.mark.parametrize(
        "mk",
        [
            lambda c: AVCCMaster(c, SchemeParams(n=12, k=9, s=2, m=1)),
            lambda c: LCCMaster(c, SchemeParams(n=12, k=9, s=1, m=1)),
            lambda c: UncodedMaster(c, k=9),
        ],
        ids=["avcc", "lcc", "uncoded"],
    )
    def test_matches_centralized_reference(self, dataset, mk):
        master = mk(make_cluster())
        master.setup(dataset.x_train)
        trainer = DistributedLogisticTrainer(master, dataset, CFG)
        hist = trainer.train()
        w_ref, accs_ref = centralized_reference(dataset, CFG)
        np.testing.assert_array_equal(trainer.final_weights, w_ref)
        assert hist.test_acc == accs_ref

    def test_avcc_with_straggler_and_byzantine_still_exact(self, dataset):
        cluster = make_cluster(
            straggler_factors={2: 8.0}, behaviors={5: ReversedValueAttack()}
        )
        master = AVCCMaster(cluster, SchemeParams(n=12, k=9, s=1, m=2))
        master.setup(dataset.x_train)
        trainer = DistributedLogisticTrainer(master, dataset, CFG)
        trainer.train()
        w_ref, _ = centralized_reference(dataset, CFG)
        np.testing.assert_array_equal(trainer.final_weights, w_ref)


class TestConvergence:
    def test_reaches_good_accuracy(self, dataset):
        master = AVCCMaster(make_cluster(), SchemeParams(n=12, k=9, s=2, m=1))
        master.setup(dataset.x_train)
        cfg = LogisticConfig(iterations=30, learning_rate=0.3, l_w=8, l_e=8)
        hist = DistributedLogisticTrainer(master, dataset, cfg).train()
        assert hist.final_test_acc >= 0.84
        assert hist.times == sorted(hist.times)

    def test_history_fields_populated(self, dataset):
        master = AVCCMaster(make_cluster(), SchemeParams(n=12, k=9, s=2, m=1))
        master.setup(dataset.x_train)
        trainer = DistributedLogisticTrainer(master, dataset, CFG)
        hist = trainer.train()
        records = trainer.session.stats.records
        assert hist.iterations() == CFG.iterations
        assert [r.iteration for r in records] == [i for i in range(CFG.iterations) for _ in "zg"]
        assert all(s == (12, 9) for s in hist.schemes)
        b = mean_breakdown(records)
        assert b["verification"] > 0 and b["decoding"] > 0


class TestUnderAttack:
    def test_avcc_beats_uncoded_under_constant_attack(self, dataset):
        cfg = LogisticConfig(iterations=25, learning_rate=1.0, l_w=5, l_e=6)
        behaviors = {3: ConstantAttack(value=50)}

        c1 = make_cluster(behaviors=behaviors)
        avcc = AVCCMaster(c1, SchemeParams(n=12, k=9, s=2, m=1))
        avcc.setup(dataset.x_train)
        h_avcc = DistributedLogisticTrainer(avcc, dataset, cfg).train()

        c2 = make_cluster(behaviors=behaviors)
        unc = UncodedMaster(c2, k=9)
        unc.setup(dataset.x_train)
        h_unc = DistributedLogisticTrainer(unc, dataset, cfg).train()

        w_ref, _ = centralized_reference(dataset, cfg)
        # AVCC is attack-immune: identical to the clean reference
        assert h_avcc.final_test_acc == pytest.approx(
            accuracy(dataset.y_test, sigmoid(dataset.x_test @ w_ref))
        )
        assert h_avcc.plateau_accuracy() > h_unc.plateau_accuracy()

    def test_lcc_degrades_with_two_byzantine(self, dataset):
        """(12,9,S=1,M=1) LCC + 2 constant attackers: decode poisoned,
        accuracy below the AVCC level (Fig. 3d mechanism)."""
        cfg = LogisticConfig(iterations=25, learning_rate=1.0, l_w=5, l_e=6)
        behaviors = {3: ConstantAttack(value=50), 8: ConstantAttack(value=50)}

        c1 = make_cluster(behaviors=behaviors)
        lcc = LCCMaster(c1, SchemeParams(n=12, k=9, s=1, m=1))
        lcc.setup(dataset.x_train)
        h_lcc = DistributedLogisticTrainer(lcc, dataset, cfg).train()

        c2 = make_cluster(behaviors=behaviors)
        avcc = AVCCMaster(c2, SchemeParams(n=12, k=9, s=1, m=2))
        avcc.setup(dataset.x_train)
        h_avcc = DistributedLogisticTrainer(avcc, dataset, cfg).train()

        assert h_avcc.plateau_accuracy() > h_lcc.plateau_accuracy()

    def test_time_to_accuracy_metric(self, dataset):
        master = AVCCMaster(make_cluster(), SchemeParams(n=12, k=9, s=2, m=1))
        master.setup(dataset.x_train)
        cfg = LogisticConfig(iterations=20, learning_rate=1.0)
        hist = DistributedLogisticTrainer(master, dataset, cfg).train()
        t = hist.time_to_accuracy(0.8)
        assert np.isfinite(t)
        assert hist.time_to_accuracy(2.0) == np.inf


def _oversized_data():
    """Logistic regression on features ``10**5`` times the dataset's."""
    ds = make_gisette_like(m=320, d=60, value_max=15, rng=np.random.default_rng(3))
    big = ds.__class__(
        name="big",
        x_train=ds.x_train * 10**5,
        y_train=ds.y_train,
        x_test=ds.x_test,
        y_test=ds.y_test,
    )
    return DistributedLogisticTrainer, big, CFG


def _huge_residual_clip():
    """Linear regression whose round-2 bound ``residual_clip`` cannot fit."""
    ds = make_linreg_dataset(m=240, d=24, rng=np.random.default_rng(7))
    cfg = LinRegConfig(iterations=4, residual_clip=1e12)
    return DistributedLinearRegressionTrainer, ds, cfg


class TestOverflowGuard:
    @pytest.mark.parametrize(
        "build",
        [
            pytest.param(_oversized_data, id="logistic-oversized-data"),
            pytest.param(_huge_residual_clip, id="linreg-huge-residual-clip"),
        ],
    )
    def test_budget_violation_refused_before_any_round(self, build):
        """A run violating the Sec. V budget must be refused, not
        silently wrap — and before its first round is dispatched."""
        trainer_cls, ds, cfg = build()
        master = AVCCMaster(make_cluster(), SchemeParams(n=12, k=9, s=2, m=1))
        master.setup(ds.x_train)
        trainer = trainer_cls(master, ds, cfg)
        with pytest.raises(OverflowError):
            trainer.train()
        assert trainer.session.stats.rounds_executed == 0
