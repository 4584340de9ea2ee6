"""No training iteration does work proportional to the training matrix.

What is derived from a ``Dataset``'s (immutable) arrays is computed
outside the loop: ``max_feature()`` once per dataset, accuracy and loss
once per run, after the last iteration (``test_evaluation_pass.py``
holds that pass against its per-iteration reference). These tests pin
the loop's side: no iteration allocates anything the size of the
training matrix, and the bound check scans the dataset once.
"""

import tracemalloc
from dataclasses import fields
from functools import cached_property

import numpy as np
import pytest

from repro.coding import SchemeParams
from repro.core import AVCCMaster
from repro.ff import PrimeField
from repro.ml import (
    DistributedLinearRegressionTrainer,
    DistributedLogisticTrainer,
    LinRegConfig,
    LogisticConfig,
    make_gisette_like,
)
from repro.ml.datasets import Dataset
from repro.runtime import Honest, SimCluster, SimWorker, make_profiles

F = PrimeField(2**25 - 39)


class CountingDataset(Dataset):
    """Counts the scans behind ``max_feature()``."""

    scans: list = []

    @cached_property
    def _max_abs_feature(self):
        self.scans.append(self.name)
        return super()._max_abs_feature


def _as(cls, ds):
    return cls(**{f.name: getattr(ds, f.name) for f in fields(Dataset)})


def _master(ds, k=8):
    workers = [SimWorker(i, profile=p, behavior=Honest())
               for i, p in enumerate(make_profiles(12))]
    master = AVCCMaster(
        SimCluster(F, workers, rng=np.random.default_rng(5)),
        SchemeParams(n=12, k=k, s=2, m=1),
    )
    master.setup(ds.x_train)
    return master


def _logistic(ds, iterations=6):
    return DistributedLogisticTrainer(
        _master(ds), ds, LogisticConfig(iterations=iterations)
    )


def _linreg(ds, iterations=6):
    return DistributedLinearRegressionTrainer(
        _master(ds), ds, LinRegConfig(iterations=iterations, learning_rate=0.01)
    )


@pytest.fixture(scope="module")
def logistic_ds():
    return make_gisette_like(m=320, d=60, class_lift=0.9, rng=np.random.default_rng(9))


class TestNoPerIterationMatrixWork:
    @pytest.mark.parametrize("make_trainer", [_logistic, _linreg], ids=["logistic", "linreg"])
    def test_no_iteration_allocates_a_matrix_copy(self, make_trainer):
        """Once, every iteration allocated a ``float64`` copy of
        ``x_train`` inside ``x_train @ w``. The window is the loop —
        the end of iteration 1, which pays the session's lazy set-up,
        to the last ``end_iteration()`` — and leaves out the evaluation
        pass after it."""
        ds = make_gisette_like(m=800, d=400, rng=np.random.default_rng(3))
        trainer = make_trainer(ds, iterations=5)
        end_iteration = trainer.session.end_iteration
        baseline, peaks = [], []

        def mark_iteration():
            out = end_iteration()
            if not baseline:
                tracemalloc.reset_peak()
                baseline.append(tracemalloc.get_traced_memory()[0])
            peaks.append(tracemalloc.get_traced_memory()[1])
            return out

        trainer.session.end_iteration = mark_iteration
        tracemalloc.start()
        try:
            trainer.train()
        finally:
            tracemalloc.stop()
        assert len(peaks) == 5
        assert peaks[-1] - baseline[0] < ds.x_train.nbytes / 8

    def test_max_feature_scanned_once_per_dataset(self, logistic_ds):
        CountingDataset.scans.clear()
        ds = _as(CountingDataset, logistic_ds)
        _logistic(ds, iterations=4).train()
        _logistic(ds, iterations=3).train()  # a second trainer, same dataset
        assert CountingDataset.scans == [ds.name]
        assert ds.max_feature() == logistic_ds.max_feature()


class TestMaxFeatureIsAMagnitude:
    def test_negative_features_count_by_magnitude(self):
        x = np.array([[0, -9, 3], [2, 0, -1]], dtype=np.int64)
        ds = Dataset("signed", x, np.zeros(2), -4 * x, np.zeros(2))
        assert ds.max_feature() == 36

    def test_empty_split(self):
        x = np.array([[5, 1]], dtype=np.int64)
        ds = Dataset("no-test", x, np.zeros(1), np.zeros((0, 2), np.int64), np.zeros(0))
        assert ds.max_feature() == 5

    @pytest.mark.parametrize("make_trainer", [_logistic, _linreg], ids=["logistic", "linreg"])
    def test_signed_dataset_that_can_wrap_is_refused(self, make_trainer):
        """``max(x)`` is 0 here, so the old bound passed the no-wrap
        check on data whose round-1 product can reach 2000·32·400 (or
        ·256 for linreg) > (q-1)/2."""
        rng = np.random.default_rng(1)
        x = -rng.integers(0, 2001, size=(48, 400))
        x[0, 0] = -2000
        y = np.zeros(36)
        ds = Dataset("signed", x[:36], y, x[36:], np.zeros(12))
        assert max(ds.x_train.max(), ds.x_test.max()) == 0
        trainer = make_trainer(ds)
        with pytest.raises(OverflowError, match="round-1"):
            trainer.train()
