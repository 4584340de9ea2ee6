"""Distributed linear regression over the same two-round loop.

Gradient descent on ``(1/2m)·||X w − y||²``: the error round 2
multiplies by ``X^T`` is the residual ``e = z − y``. Demonstrates that
the coded masters are a generic linear-computation service, not a
logistic-regression one-off (the paper: "AVCC is particularly suitable
for ... linear regression and logistic regression").
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.ml.trainer import TwoRoundTrainer

__all__ = ["LinRegConfig", "DistributedLinearRegressionTrainer"]


@dataclass(frozen=True)
class LinRegConfig:
    iterations: int = 30
    learning_rate: float = 0.01
    l_w: int = 8
    l_e: int = 6
    grad_clip: float = 100.0
    #: residuals are clipped to this magnitude before quantization so
    #: the round-2 overflow budget holds for arbitrary early iterates
    residual_clip: float = 16.0


class DistributedLinearRegressionTrainer(TwoRoundTrainer):
    """Linear regression over the two-round protocol; ``|e|`` is
    clipped to ``residual_clip``."""

    config_type = LinRegConfig

    @property
    def error_bound(self) -> float:
        return self.config.residual_clip

    def error(self, z: np.ndarray) -> np.ndarray:
        clip = self.config.residual_clip
        return np.clip(z - self.dataset.y_train, -clip, clip)

    @staticmethod
    def score(z: np.ndarray, y: np.ndarray) -> tuple[float, float]:
        """For regression the "accuracy" slots hold negative MSE, so the
        shared ``time_to_accuracy`` machinery still works monotonely."""
        r = z - y
        mse = float(np.mean(r * r))
        return -mse, mse
