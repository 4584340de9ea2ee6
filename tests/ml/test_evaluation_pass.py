"""Evaluation happens once, after the training loop.

An iteration buffers its weight vector and nothing else plaintext;
``record_evaluation`` fills ``train_acc`` / ``test_acc`` / ``train_loss``
after the last ``end_iteration()``. The per-iteration loops the trainers
used to run are kept here as the reference: everything the protocol
produces keeps its bytes, the accuracies are equal, and the loss moves
only by the rounding of a dgemm against a dgemv.
"""

import tracemalloc
from dataclasses import dataclass

import numpy as np
import pytest

from repro.api import Session, SessionConfig, WorkerSpec
from repro.coding import SchemeParams
from repro.core import AVCCMaster, InsufficientResultsError
from repro.ff import PrimeField
from repro.ml import (
    DistributedLinearRegressionTrainer,
    DistributedLogisticTrainer,
    LinRegConfig,
    LogisticConfig,
    Quantizer,
    TrainingHistory,
    accuracy,
    binary_cross_entropy,
    make_gisette_like,
    make_linreg_dataset,
    sigmoid,
)
from repro.ml import trainer as trainer_module
from repro.ml.datasets import Dataset
from repro.ml.trainer import record_evaluation
from repro.runtime import Honest, SimCluster, SimWorker, make_profiles

F = PrimeField(2**25 - 39)
LOSS_RTOL = 1e-12  # float64 dgemm against dgemv over <= 2000 terms


# ----------------------------------------------------------------------
# the per-iteration loops, as the trainers ran them before
# ----------------------------------------------------------------------
def _clip(grad, limit):
    norm = float(np.linalg.norm(grad))
    return grad * (limit / norm) if limit is not None and norm > limit else grad


def _bookkeep(history, session, t0, adapt):
    history.times.append(session.now - t0)
    history.schemes.append(adapt.scheme)
    history.reencode_times.append(adapt.reencode_time)
    history.detected_byzantine.append(adapt.detected_byzantine)
    history.observed_stragglers.append(adapt.observed_stragglers)
    history.audit_heads.append(session.audit.head if session.audit is not None else None)


def reference_logistic(session, ds, cfg):
    qw, qe = Quantizer(session.field, cfg.l_w), Quantizer(session.field, cfg.l_e)
    x_train_f, x_test_f = ds.x_train.astype(np.float64), ds.x_test.astype(np.float64)
    w = np.zeros(ds.d)
    history = TrainingHistory(method=session.master.name)
    t0 = session.now
    for _ in range(cfg.iterations):
        z = qw.dequantize(session.submit_matvec(qw.quantize(w)).result())
        e = sigmoid(z) - ds.y_train
        g = qe.dequantize(session.submit_matvec(qe.quantize(e), transpose=True).result())
        w = w - cfg.learning_rate * _clip(g / ds.m, cfg.grad_clip)
        _bookkeep(history, session, t0, session.end_iteration())
        p_train, p_test = sigmoid(x_train_f @ w), sigmoid(x_test_f @ w)
        history.train_acc.append(accuracy(ds.y_train, p_train))
        history.test_acc.append(accuracy(ds.y_test, p_test))
        history.train_loss.append(binary_cross_entropy(ds.y_train, p_train))
    return history, w


def reference_linreg(session, ds, cfg):
    qw, qe = Quantizer(session.field, cfg.l_w), Quantizer(session.field, cfg.l_e)
    x_train_f, x_test_f = ds.x_train.astype(np.float64), ds.x_test.astype(np.float64)
    w = np.zeros(ds.d)
    history = TrainingHistory(method=session.master.name)
    t0 = session.now
    for _ in range(cfg.iterations):
        z = qw.dequantize(session.submit_matvec(qw.quantize(w)).result())
        e = np.clip(z - ds.y_train, -cfg.residual_clip, cfg.residual_clip)
        g = qe.dequantize(session.submit_matvec(qe.quantize(e), transpose=True).result())
        w = w - cfg.learning_rate * _clip(g / ds.m, cfg.grad_clip)
        _bookkeep(history, session, t0, session.end_iteration())
        r_train, r_test = x_train_f @ w - ds.y_train, x_test_f @ w - ds.y_test
        history.train_acc.append(-float(np.mean(r_train * r_train)))
        history.test_acc.append(-float(np.mean(r_test * r_test)))
        history.train_loss.append(float(np.mean(r_train * r_train)))
    return history, w


# ----------------------------------------------------------------------
def _session(ds):
    """AVCC on ``sim`` with a Byzantine worker, a straggler and the
    audit chain armed, so every history series has content."""
    workers = [WorkerSpec()] * 12
    workers[3] = WorkerSpec(behavior="reverse")
    workers[7] = WorkerSpec(straggler_factor=3.0)
    session = Session.create(
        SessionConfig(
            scheme=SchemeParams(n=12, k=9, s=1, m=2),
            backend="sim",
            workers=tuple(workers),
            audit=True,
            seed=4,
        )
    )
    session.load(ds.x_train)
    return session


@pytest.fixture(scope="module")
def logistic_ds():
    return make_gisette_like(m=320, d=60, class_lift=0.9, rng=np.random.default_rng(9))


@pytest.fixture(scope="module")
def linreg_ds():
    return make_linreg_dataset(m=240, d=24, rng=np.random.default_rng(7))


CASES = {
    "logistic": (
        DistributedLogisticTrainer, LogisticConfig(iterations=10), reference_logistic,
        "logistic_ds",
    ),
    "linreg": (
        DistributedLinearRegressionTrainer,
        LinRegConfig(iterations=10, learning_rate=0.01),
        reference_linreg,
        "linreg_ds",
    ),
}


@pytest.fixture(params=list(CASES))
def case(request):
    trainer_cls, cfg, reference, fixture = CASES[request.param]
    return trainer_cls, cfg, reference, request.getfixturevalue(fixture)


def _assert_same_run(h_new, h_ref):
    for series in (
        "times", "schemes", "reencode_times", "detected_byzantine",
        "observed_stragglers", "audit_heads",
    ):
        assert getattr(h_new, series) == getattr(h_ref, series), series
    np.testing.assert_allclose(h_new.train_loss, h_ref.train_loss, rtol=LOSS_RTOL, atol=0)


class TestAgainstPerIterationReference:
    def test_protocol_bytes_equal_and_evaluation_agrees(self, case):
        trainer_cls, cfg, reference, ds = case
        with _session(ds) as session:
            trainer = trainer_cls(session, ds, cfg)
            h_new = trainer.train()
        with _session(ds) as session:
            h_ref, w_ref = reference(session, ds, cfg)

        assert trainer.final_weights.tobytes() == w_ref.tobytes()
        _assert_same_run(h_new, h_ref)
        assert any(h_ref.detected_byzantine) and all(h_ref.audit_heads)
        if trainer_cls is DistributedLogisticTrainer:
            assert h_new.train_acc == h_ref.train_acc
            assert h_new.test_acc == h_ref.test_acc
        else:  # the "accuracy" slots hold -MSE: a float, not a count
            np.testing.assert_allclose(h_new.train_acc, h_ref.train_acc, rtol=LOSS_RTOL)
            np.testing.assert_allclose(h_new.test_acc, h_ref.test_acc, rtol=LOSS_RTOL)
        assert h_new.iterations() == len(h_new.train_loss) == cfg.iterations

    def test_no_iterations_no_evaluation(self, logistic_ds):
        with _session(logistic_ds) as session:
            history = DistributedLogisticTrainer(
                session, logistic_ds, LogisticConfig(iterations=0)
            ).train()
        assert history.train_acc == history.test_acc == history.train_loss == []


class TestAdaptationsAreThisRunsTail:
    def test_history_reads_only_its_own_iterations_outcomes(self, case):
        """On a session that already ended iterations and released a
        worker, each adaptation series holds exactly the outcomes of
        this run's ``end_iteration()`` calls: the tail of
        ``stats.adaptations``."""
        trainer_cls, cfg, _, ds = case
        with _session(ds) as session:
            session.submit_matvec(session.field.random(ds.d, np.random.default_rng(0)))
            session.end_iteration()
            session.end_iteration()
            assert session.release_workers([11]).departed_workers == (11,)
            before = len(session.stats.adaptations)
            history = trainer_cls(session, ds, cfg).train()
            outcomes = session.stats.adaptations[before:]
        assert before == 3 and len(outcomes) == cfg.iterations
        assert history.schemes == [a.scheme for a in outcomes]
        assert history.reencode_times == [a.reencode_time for a in outcomes]
        assert history.detected_byzantine == [a.detected_byzantine for a in outcomes]
        assert history.observed_stragglers == [a.observed_stragglers for a in outcomes]
        assert all(n <= 11 for n, _ in history.schemes)


# ----------------------------------------------------------------------
class _Logged(np.ndarray):
    """A dataset matrix that records every read made of it: slicing,
    casts, ufuncs (``@`` included) and array functions."""

    log: list = []

    def __getitem__(self, index):
        self.log.append("getitem")
        return super().__getitem__(index)

    def astype(self, *args, **kwargs):
        self.log.append("astype")
        return super().astype(*args, **kwargs)

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        self.log.append(ufunc.__name__)
        inputs = tuple(np.asarray(i) if isinstance(i, _Logged) else i for i in inputs)
        return getattr(ufunc, method)(*inputs, **kwargs)

    def __array_function__(self, func, types, args, kwargs):
        self.log.append(func.__name__)
        return super().__array_function__(func, types, args, kwargs)


def _spied(ds):
    """``ds`` with logged matrices, and the (fresh) log."""
    _Logged.log = []
    return (
        Dataset(ds.name, ds.x_train.view(_Logged), ds.y_train, ds.x_test.view(_Logged), ds.y_test),
        _Logged.log,
    )


class TestLoopDoesProtocolWorkOnly:
    def test_no_plaintext_read_of_the_dataset_inside_the_loop(self, case):
        trainer_cls, cfg, _, ds = case
        spied, log = _spied(ds)
        spied.max_feature()  # the one scan per dataset, not the loop's
        with _session(ds) as session:
            trainer = trainer_cls(session, spied, cfg)
            submit, end_iteration = session.submit_matvec, session.end_iteration

            def logged_submit(*args, **kwargs):
                log.append("submit_matvec")
                return submit(*args, **kwargs)

            def logged_end_iteration():
                out = end_iteration()
                log.append("end_iteration")
                return out

            session.submit_matvec, session.end_iteration = logged_submit, logged_end_iteration
            del log[:]
            history = trainer.train()

        first = log.index("submit_matvec")
        last = len(log) - 1 - log[::-1].index("end_iteration")
        protocol = {"submit_matvec", "end_iteration"}
        assert log[:first] == []
        assert set(log[first : last + 1]) == protocol
        # the spy is live: the evaluation pass after the loop reads both splits
        assert log[last + 1 :] and not protocol & set(log[last + 1 :])
        assert len(history.test_acc) == cfg.iterations

    def test_reference_loop_trips_the_spy(self, logistic_ds):
        spied, log = _spied(logistic_ds)
        with _session(logistic_ds) as session:
            reference_logistic(session, spied, LogisticConfig(iterations=2))
        assert "matmul" in log


# ----------------------------------------------------------------------
class TestColumnBlocks:
    def test_more_iterations_than_one_block_same_history(self, case, monkeypatch):
        """Blocks of 3, 3, 3 and a single trailing column (which NumPy
        hands to dgemv) against the one block of the default constant."""
        trainer_cls, cfg, _, ds = case
        assert cfg.iterations < trainer_module.EVAL_COLUMN_BLOCK
        with _session(ds) as session:
            one_block = trainer_cls(session, ds, cfg).train()
        monkeypatch.setattr(trainer_module, "EVAL_COLUMN_BLOCK", 3)
        monkeypatch.setattr(trainer_module, "EVAL_ROW_BLOCK", 50)
        with _session(ds) as session:
            blocked = trainer_cls(session, ds, cfg).train()
        _assert_same_run(blocked, one_block)
        np.testing.assert_allclose(blocked.train_acc, one_block.train_acc, rtol=LOSS_RTOL)
        np.testing.assert_allclose(blocked.test_acc, one_block.test_acc, rtol=LOSS_RTOL)

    def test_products_are_the_cast_numpy_makes(self, logistic_ds):
        ds = logistic_ds
        w_block = np.random.default_rng(0).normal(size=(ds.d, 5))
        rows_f = np.empty((64, ds.d))
        got = trainer_module._products(ds.x_train, w_block, rows_f)
        assert got.flags.c_contiguous and got.shape == (5, ds.m)
        np.testing.assert_allclose(got, (ds.x_train @ w_block).T, rtol=LOSS_RTOL)

    def test_working_memory_does_not_grow_with_iterations(self, monkeypatch):
        monkeypatch.setattr(trainer_module, "EVAL_COLUMN_BLOCK", 8)
        ds = make_gisette_like(m=1600, d=400, rng=np.random.default_rng(3))
        rng = np.random.default_rng(1)
        weights = [rng.normal(size=ds.d) for _ in range(80)]

        def score(z, y):
            return float(z[0]), float(y[0])

        def peak(n):
            history = TrainingHistory(method="x")
            tracemalloc.start()
            try:
                record_evaluation(history, ds, weights[:n], score)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        # from the second block on, the previous block's products are
        # still referenced while the next are computed: compare 2 with 10
        two_blocks, ten_blocks = peak(16), peak(80)
        # unblocked, 64 more columns of weights and products are ~1.5 MiB
        assert ten_blocks - two_blocks < 64 * 1024
        # and it never holds a float64 copy of the dataset (as many bytes)
        assert ten_blocks < ds.x_train.nbytes / 2


# ----------------------------------------------------------------------
@dataclass
class SilentFrom:
    """Honest for ``after`` results, then never answers again."""

    after: int
    is_byzantine: bool = False

    def corrupt(self, result, field, rng):
        self.after -= 1
        return result if self.after >= 0 else None


class TestFailureMidRun:
    def test_insufficient_results_propagates_unchanged(self, case, monkeypatch):
        trainer_cls, cfg, _, ds = case
        # four workers crash after iteration 3: more than S + M can hide
        behaviors = {i: SilentFrom(after=6) for i in range(4)}
        workers = [
            SimWorker(i, profile=p, behavior=behaviors.get(i, Honest()))
            for i, p in enumerate(make_profiles(12))
        ]
        master = AVCCMaster(
            SimCluster(F, workers, rng=np.random.default_rng(5)),
            SchemeParams(n=12, k=9, s=2, m=1),
        )
        master.setup(ds.x_train)
        trainer = trainer_cls(master, ds, cfg)
        ended, evaluated = [], []
        end_iteration = trainer.session.end_iteration
        monkeypatch.setattr(
            trainer.session, "end_iteration", lambda: ended.append(1) or end_iteration()
        )
        monkeypatch.setattr(
            trainer_module, "record_evaluation", lambda *args: evaluated.append(args)
        )
        with pytest.raises(InsufficientResultsError) as raised:
            trainer.train()
        assert type(raised.value) is InsufficientResultsError
        assert len(ended) == 3 and not evaluated
        assert not hasattr(trainer, "final_weights")
