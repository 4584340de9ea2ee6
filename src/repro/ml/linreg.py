"""Distributed linear regression over the same two-round substrate.

Gradient descent on ``(1/2m)·||X w − y||²``: per iteration the master
computes ``z = X·w`` (round 1), forms the residual ``e = z − y`` in the
real domain, and computes ``g = X^T·e`` (round 2). Demonstrates that
the coded masters are a generic linear-computation service, not a
logistic-regression one-off (the paper: "AVCC is particularly suitable
for ... linear regression and logistic regression").

As in :mod:`repro.ml.logistic`, the loop does protocol work only: the
train and test MSEs are scored from the buffered weight vectors in one
pass after the last iteration
(:func:`~repro.ml.trainer.record_evaluation`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.ml.datasets import Dataset
from repro.ml.quantize import OverflowBudget, Quantizer
from repro.ml.trainer import TrainingHistory, record_evaluation

__all__ = ["LinRegConfig", "DistributedLinearRegressionTrainer"]


@dataclass(frozen=True)
class LinRegConfig:
    iterations: int = 30
    learning_rate: float = 0.01
    l_w: int = 8
    l_e: int = 6
    grad_clip: float | None = 100.0
    #: residuals are clipped to this magnitude before quantization so
    #: the round-2 overflow budget holds for arbitrary early iterates
    residual_clip: float = 16.0


class DistributedLinearRegressionTrainer:
    """Same drive loop as logistic regression, squared loss instead.

    Accepts a :class:`repro.api.Session` or a bare master (wrapped in a
    session transparently). Rounds flow through the session's
    pipelined scheduler; the two rounds per iteration are
    data-dependent, so training itself is window-insensitive (see
    :class:`~repro.ml.logistic.DistributedLogisticTrainer`)."""

    def __init__(self, service, dataset: Dataset, config: LinRegConfig | None = None):
        from repro.api.session import Session

        self.session = (
            service if isinstance(service, Session) else Session.from_master(service)
        )
        self.master = self.session.master
        self.dataset = dataset
        self.config = config or LinRegConfig()
        self.field = self.session.field
        self.qw = Quantizer(self.field, self.config.l_w)
        self.qe = Quantizer(self.field, self.config.l_e)
        self._budget = OverflowBudget(self.field)

    def train(self) -> TrainingHistory:
        cfg = self.config
        ds = self.dataset
        m = ds.m
        w = np.zeros(ds.d, dtype=np.float64)
        history = TrainingHistory(method=self.master.name)
        weights: list[np.ndarray] = []
        t0 = self.session.now

        for _ in range(cfg.iterations):
            x_max = ds.max_feature()
            self._budget.check_matvec(
                x_max, max(1.0, float(np.abs(w).max())) * self.qw.scale, ds.d,
                what="round-1 z = X w",
            )
            self._budget.check_matvec(
                x_max, cfg.residual_clip * self.qe.scale, ds.m,
                what="round-2 g = X^T e",
            )

            w_q = self.qw.quantize(w)
            out1 = self.session.submit_matvec(w_q)
            z = self.qw.dequantize(out1.result())
            e = np.clip(z - ds.y_train, -cfg.residual_clip, cfg.residual_clip)

            e_q = self.qe.quantize(e)
            out2 = self.session.submit_matvec(e_q, transpose=True)
            g = self.qe.dequantize(out2.result())

            grad = g / m
            if cfg.grad_clip is not None:
                norm = float(np.linalg.norm(grad))
                if norm > cfg.grad_clip:
                    grad = grad * (cfg.grad_clip / norm)
            w = w - cfg.learning_rate * grad

            adapt = self.session.end_iteration()
            t_iter_end = self.session.now

            # the MSEs are evaluated after the loop, from this
            weights.append(w)
            history.times.append(t_iter_end - t0)
            history.schemes.append(adapt.scheme)
            history.reencode_times.append(adapt.reencode_time)
            history.detected_byzantine.append(adapt.detected_byzantine)
            history.observed_stragglers.append(adapt.observed_stragglers)
            audit = getattr(self.session, "audit", None)
            history.audit_heads.append(audit.head if audit is not None else None)
        self.final_weights = w
        record_evaluation(history, ds, weights, _score)
        return history


def _score(z: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    """For regression the "accuracy" slots hold negative MSE, so the
    shared ``time_to_accuracy`` machinery still works monotonely."""
    r = z - y
    mse = float(np.mean(r * r))
    return -mse, mse
