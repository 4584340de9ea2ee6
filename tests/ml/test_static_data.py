"""The trainers' per-iteration evaluation runs on data prepared once.

What is derived from a ``Dataset``'s (immutable) arrays — a trainer's
``float64`` evaluation matrices, the dataset's ``max_feature()`` — is
computed once. These tests pin the two halves of that contract: the
numbers the trainers record do not move by a bit, and no iteration
does work or allocation proportional to the training matrix.
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
    make_linreg_dataset,
)
from repro.ml import linreg as linreg_module
from repro.ml import logistic as logistic_module
from repro.ml.datasets import Dataset
from repro.ml.trainer import evaluation_matrices
from repro.runtime import Honest, SimCluster, SimWorker, make_profiles

F = PrimeField(2**25 - 39)


def int64_evaluation_matrices(dataset):
    """Evaluation as it was before the trainers cast once: the
    ``int64`` matrices against the ``float64`` weights, cast inside
    NumPy on every product."""
    return dataset.x_train, dataset.x_test


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


@pytest.fixture(scope="module")
def linreg_ds():
    return make_linreg_dataset(m=240, d=24, rng=np.random.default_rng(7))


def _bytes(values):
    return np.asarray(values, dtype=np.float64).tobytes()


class TestTrainerParity:
    @pytest.mark.parametrize(
        "make_trainer, module, fixture",
        [(_logistic, logistic_module, "logistic_ds"), (_linreg, linreg_module, "linreg_ds")],
        ids=["logistic", "linreg"],
    )
    def test_history_and_weights_byte_identical(
        self, make_trainer, module, fixture, request, monkeypatch
    ):
        ds = request.getfixturevalue(fixture)
        new = make_trainer(ds)
        monkeypatch.setattr(module, "evaluation_matrices", int64_evaluation_matrices)
        ref = make_trainer(ds)
        assert new._x_train_f.dtype == np.float64 and ref._x_train_f.dtype == np.int64
        h_new, h_ref = new.train(), ref.train()
        for series in ("train_acc", "test_acc", "train_loss", "times"):
            assert _bytes(getattr(h_new, series)) == _bytes(getattr(h_ref, series))
        assert h_new.schemes == h_ref.schemes
        assert new.final_weights.tobytes() == ref.final_weights.tobytes()

    def test_float_matrices_are_the_cast_numpy_makes(self, logistic_ds):
        ds = logistic_ds
        x_train_f, x_test_f = evaluation_matrices(ds)
        w = np.random.default_rng(0).normal(size=ds.d)
        assert (x_train_f @ w).tobytes() == (ds.x_train @ w).tobytes()
        assert (x_test_f @ w).tobytes() == (ds.x_test @ w).tobytes()


class TestNoPerIterationMatrixWork:
    @pytest.mark.parametrize("make_trainer", [_logistic, _linreg], ids=["logistic", "linreg"])
    def test_no_iteration_allocates_a_matrix_copy(self, make_trainer):
        """Before, every iteration allocated one ``float64`` copy of
        ``x_train`` inside ``x_train @ w``. Iteration 1 is left out:
        it pays the session's lazy set-up."""
        ds = make_gisette_like(m=800, d=400, rng=np.random.default_rng(3))
        trainer = make_trainer(ds, iterations=5)
        end_iteration = trainer.session.end_iteration
        baseline = []

        def mark_first_iteration():
            out = end_iteration()
            if not baseline:
                tracemalloc.reset_peak()
                baseline.append(tracemalloc.get_traced_memory()[0])
            return out

        trainer.session.end_iteration = mark_first_iteration
        tracemalloc.start()
        try:
            trainer.train()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - baseline[0] < ds.x_train.nbytes / 2

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
