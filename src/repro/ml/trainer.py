"""Shared training-history record for the distributed trainers, and
the one plaintext evaluation pass that fills its accuracy and loss."""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field

import numpy as np

from repro.ml.datasets import Dataset

__all__ = ["TrainingHistory", "record_evaluation"]

#: weight vectors evaluated per dgemm: the evaluation's working set is
#: one ``(rows, EVAL_COLUMN_BLOCK)`` product per split, whatever
#: ``iterations`` is
EVAL_COLUMN_BLOCK = 64
#: dataset rows cast to ``float64`` at a time, into one reused buffer
EVAL_ROW_BLOCK = 256


@dataclass
class TrainingHistory:
    """Everything an experiment needs about one training run.

    ``times`` are seconds on the session's backend clock **relative to
    training start** (setup/preprocessing is excluded, matching the
    paper's amortization of one-time costs), and ``reencode_times``
    durations on the same clock: simulated seconds on ``sim``,
    wall-clock seconds (``perf_counter``) on ``tcp``.
    ``times[i]`` is read right after
    iteration ``i``'s ``end_iteration()``. On a wall-clock backend it
    therefore holds protocol work only — the phases of the paper's
    Fig. 4 (encode, compute, communicate, verify, decode), re-coding,
    and the master's ``O(m + d)`` update between the two rounds — and
    no evaluation: ``train_acc`` / ``test_acc`` / ``train_loss`` are
    filled by :func:`record_evaluation` after the last iteration, off
    that clock. (On ``sim`` the master's plaintext work never advanced
    the clock.)
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
        """First time (on the clock of ``times``) at which test accuracy
        reaches ``target``; ``inf`` if never — the Table I speedup
        metric."""
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
            f"{self.total_time:.2f}s on the backend clock, "
            f"final test acc {self.final_test_acc:.3f}"
        )


def _products(x: np.ndarray, w_block: np.ndarray, rows_f: np.ndarray) -> np.ndarray:
    """``(x.astype(float64) @ w_block).T``, contiguous: row ``j`` is
    ``x @ w_block[:, j]``. ``x`` is cast a row block at a time into the
    scratch buffer ``rows_f`` — the only place the integer dataset
    becomes ``float64``, and never more than ``rows_f`` of it."""
    out = np.empty((x.shape[0], w_block.shape[1]), dtype=np.float64)
    step = rows_f.shape[0]
    for r0 in range(0, x.shape[0], step):
        rows = x[r0 : r0 + step]
        block = rows_f[: len(rows)]
        np.copyto(block, rows)
        np.matmul(block, w_block, out=out[r0 : r0 + step])
    return np.ascontiguousarray(out.T)


def record_evaluation(
    history: TrainingHistory,
    dataset: Dataset,
    weights: Sequence[np.ndarray],
    score: Callable[[np.ndarray, np.ndarray], tuple[float, float]],
) -> None:
    """Fill ``train_acc`` / ``test_acc`` / ``train_loss`` from the
    weight vector each iteration left behind.

    Evaluation is plaintext and off-protocol — the coded rounds never
    see it — so the trainers keep it out of the training loop: an
    iteration only buffers its weights, and this pass runs once, after
    the last ``end_iteration()`` and before ``train()`` returns. Each
    split is multiplied by ``EVAL_COLUMN_BLOCK`` iterations' weights at
    a time — dgemms over row blocks where the loop ran one dgemv per
    iteration. ``score(z, y)`` maps one iteration's products
    ``z = X @ w`` and the labels to that iteration's
    ``(accuracy, loss)`` entries; the test split's loss is not recorded.
    """
    rows_f = np.empty((EVAL_ROW_BLOCK, dataset.d), dtype=np.float64)
    for c0 in range(0, len(weights), EVAL_COLUMN_BLOCK):
        w_block = np.stack(weights[c0 : c0 + EVAL_COLUMN_BLOCK], axis=1)
        z_train = _products(dataset.x_train, w_block, rows_f)
        z_test = _products(dataset.x_test, w_block, rows_f)
        for z_tr, z_te in zip(z_train, z_test):
            acc, loss = score(z_tr, dataset.y_train)
            history.train_acc.append(acc)
            history.train_loss.append(loss)
            history.test_acc.append(score(z_te, dataset.y_test)[0])
