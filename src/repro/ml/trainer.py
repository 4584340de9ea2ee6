"""Shared training-history record for the distributed trainers."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.ml.datasets import Dataset

__all__ = ["TrainingHistory", "evaluation_matrices"]


def evaluation_matrices(dataset: Dataset) -> tuple[np.ndarray, np.ndarray]:
    """``(x_train, x_test)`` as ``float64`` — what a trainer evaluates
    its per-iteration accuracy and loss on.

    That evaluation is plaintext and off-protocol (the coded rounds
    never see it), and ``x @ w`` with an ``int64`` matrix and real
    weights makes NumPy cast the whole matrix on every call. A trainer
    makes the cast once, when it is built: the same dgemv then runs on
    the same values, so every recorded number keeps its bytes. The
    copies live as long as the trainer, not the dataset.
    """
    return dataset.x_train.astype(np.float64), dataset.x_test.astype(np.float64)


@dataclass
class TrainingHistory:
    """Everything an experiment needs about one training run.

    All times are simulated seconds **relative to training start**
    (setup/preprocessing is excluded, matching the paper's amortization
    of one-time costs).
    """

    method: str
    times: list[float] = field(default_factory=list)        # end of each iteration
    train_acc: list[float] = field(default_factory=list)
    test_acc: list[float] = field(default_factory=list)
    train_loss: list[float] = field(default_factory=list)
    schemes: list[tuple[int, int]] = field(default_factory=list)
    reencode_times: list[float] = field(default_factory=list)
    detected_byzantine: list[tuple[int, ...]] = field(default_factory=list)
    observed_stragglers: list[tuple[int, ...]] = field(default_factory=list)
    #: audit-chain head hash after each iteration (``None`` entries
    #: when the session is unaudited) — a training run whose heads all
    #: chain is provable as one unbroken sequence of verified rounds
    audit_heads: list[str | None] = field(default_factory=list)

    def iterations(self) -> int:
        return len(self.times)

    @property
    def final_test_acc(self) -> float:
        if not self.test_acc:
            raise ValueError("empty history")
        return self.test_acc[-1]

    @property
    def total_time(self) -> float:
        return self.times[-1] if self.times else 0.0

    def time_to_accuracy(self, target: float) -> float:
        """First simulated time at which test accuracy reaches
        ``target``; ``inf`` if never — the Table I speedup metric."""
        for t, acc in zip(self.times, self.test_acc):
            if acc >= target:
                return t
        return math.inf

    def best_test_acc(self) -> float:
        return max(self.test_acc) if self.test_acc else 0.0

    def plateau_accuracy(self, tail: int = 5) -> float:
        """Mean test accuracy over the last ``tail`` iterations — a
        robust 'converged accuracy' (single-iteration spikes ignored)."""
        if not self.test_acc:
            raise ValueError("empty history")
        return float(np.mean(self.test_acc[-tail:]))

    def summary(self) -> str:
        return (
            f"{self.method}: {self.iterations()} iters, "
            f"{self.total_time:.2f}s simulated, "
            f"final test acc {self.final_test_acc:.3f}"
        )
