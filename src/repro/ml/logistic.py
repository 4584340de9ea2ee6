"""Distributed logistic regression (paper Sec. IV-A): the two-round
loop of :class:`~repro.ml.trainer.TwoRoundTrainer` with the
cross-entropy gradient's error ``e = h(z) − y``, ``h`` the sigmoid."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.ml.metrics import accuracy, binary_cross_entropy, sigmoid
from repro.ml.trainer import TwoRoundTrainer

__all__ = ["LogisticConfig", "DistributedLogisticTrainer"]


@dataclass(frozen=True)
class LogisticConfig:
    """Hyper-parameters of the quantized training loop.

    ``l_w = 5`` matches the paper's optimized weight quantization;
    ``l_e`` controls the error-vector precision in round 2.
    """

    iterations: int = 50
    learning_rate: float = 1.0
    l_w: int = 5
    l_e: int = 6
    grad_clip: float = 10.0


class DistributedLogisticTrainer(TwoRoundTrainer):
    """Logistic regression over the two-round protocol; ``|e| < 1``."""

    config_type = LogisticConfig
    error_bound = 1.0

    def error(self, z: np.ndarray) -> np.ndarray:
        return sigmoid(z) - self.dataset.y_train

    @staticmethod
    def score(z: np.ndarray, y: np.ndarray) -> tuple[float, float]:
        """Accuracy and cross-entropy of the predictions ``h(z)``."""
        p = sigmoid(z)
        return accuracy(y, p), binary_cross_entropy(y, p)
