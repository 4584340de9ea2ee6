"""The :class:`~repro.ml.trainer.TrainingHistory` read-outs the
experiment reports are built from, on hand-written histories."""

import pytest

from repro.ml.trainer import TrainingHistory


def _history(test_acc, method="avcc"):
    return TrainingHistory(
        method=method,
        times=[0.5 * (i + 1) for i in range(len(test_acc))],
        test_acc=list(test_acc),
    )


class TestTrainingHistory:
    def test_best_test_acc_is_the_maximum_not_the_last(self):
        h = _history([0.6, 0.91, 0.85])
        assert h.best_test_acc() == 0.91
        assert h.final_test_acc == 0.85

    def test_best_test_acc_of_an_empty_history_is_zero(self):
        assert _history([]).best_test_acc() == 0.0

    def test_summary_names_method_iterations_clock_and_final_accuracy(self):
        h = _history([0.5, 0.7, 0.8124], method="lcc")
        assert h.iterations() == 3
        assert h.summary() == (
            "lcc: 3 iters, 1.50s on the backend clock, final test acc 0.812"
        )

    def test_summary_of_an_empty_history_raises(self):
        with pytest.raises(ValueError, match="empty history"):
            _history([]).summary()
