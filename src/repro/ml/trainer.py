"""The two-round training loop of paper Sec. IV-A, shared by every
model, with its history record and the one plaintext evaluation pass
that fills the history's accuracy and loss.

Per iteration ``t``:

* **Round 1** — the master broadcasts the quantized weights ``w_q`` and
  receives the coded products ``z~_i = X~_i · w_q``; after
  verification/decoding it holds ``z = X · w_q`` exactly in F_q,
  dequantizes, and forms the model's error ``e`` in the real domain
  (``sigmoid(z) − y`` for logistic regression, the clipped residual
  ``z − y`` for linear regression).
* **Round 2** — the master broadcasts the quantized error ``e_q`` and
  obtains ``g = X^T · e_q``, dequantizes and applies the update
  ``w ← w − (η/m)·g``.

Gradient clipping (by L2 norm) is applied identically to every method;
it is the standard guard that keeps a *poisoned* decode (LCC beyond
capacity, uncoded under attack) a bounded-wrong step instead of a
divergence — without it no baseline survives the constant attack at
all, with it they degrade gracefully to the plateaus Fig. 3 shows.

An iteration is those two rounds, the ``O(m + d)`` master work between
them and ``end_iteration()`` — the phases of Fig. 4 and nothing else.
Accuracy and loss are plaintext and off-protocol: the loop only keeps
each iteration's weight vector, and :func:`record_evaluation` scores
them all in one pass after the last iteration, before ``train()``
returns.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field

import numpy as np

from repro.ml.datasets import Dataset
from repro.ml.quantize import OverflowBudget, Quantizer

__all__ = ["TrainingHistory", "TwoRoundTrainer", "record_evaluation"]

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


class TwoRoundTrainer:
    """Drives a coded-computing service through the two-round protocol
    and records accuracy-vs-time curves (the backend's clock: simulated
    on ``sim``, wall elsewhere — see :class:`TrainingHistory`).

    Accepts either a :class:`repro.api.Session` (the sanctioned path)
    or a bare master (AVCC / LCC / uncoded / Static VCC), which is
    wrapped in a session transparently; all round traffic flows through
    the session's submission API — and thus its pipelined round
    scheduler — either way. The two training rounds are data-dependent
    (the error needs the decoded ``z``), so a single training loop
    runs the pipeline at depth 1 regardless of
    ``max_inflight_rounds``; widening the window pays off when the
    session *also* serves independent traffic (other jobs overlap the
    training rounds), and training results are byte-identical at any
    window size.

    A model subclass supplies:

    * ``config_type`` — its hyper-parameter dataclass (``iterations``,
      ``learning_rate``, ``l_w``, ``l_e``, ``grad_clip``);
    * ``error(z)`` — the error vector round 2 multiplies by ``X^T``,
      from the decoded round-1 products ``z = X w``;
    * ``error_bound`` — the largest ``|e|`` it can take, the round-2
      overflow bound;
    * ``score(z, y)`` — one iteration's ``(accuracy, loss)`` from
      ``z = X w`` and the labels (see :func:`record_evaluation`).
    """

    config_type: type
    error_bound: float

    def __init__(self, service, dataset: Dataset, config=None):
        from repro.api.session import Session

        self.session = (
            service if isinstance(service, Session) else Session.from_master(service)
        )
        self.master = self.session.master
        self.dataset = dataset
        self.config = config or self.config_type()
        self.field = self.session.field
        self.qw = Quantizer(self.field, self.config.l_w)
        self.qe = Quantizer(self.field, self.config.l_e)
        self._budget = OverflowBudget(self.field)

    def train(self) -> TrainingHistory:
        cfg = self.config
        ds = self.dataset
        session = self.session
        x_max = ds.max_feature()
        w = np.zeros(ds.d, dtype=np.float64)
        weights: list[np.ndarray] = []
        times: list[float] = []
        audit_heads: list[str | None] = []
        first = len(session.stats.adaptations)
        t0 = session.now

        for _ in range(cfg.iterations):
            # worst-case wrap-around analysis for both rounds (Sec. V)
            w_max = max(1.0, float(np.abs(w).max()))
            self._budget.check_matvec(
                x_max, w_max * self.qw.scale, ds.d, what="round-1 z = X w"
            )
            self._budget.check_matvec(
                x_max, self.error_bound * self.qe.scale, ds.m, what="round-2 g = X^T e"
            )

            # ---- round 1: z = X w ----------------------------------
            out1 = session.submit_matvec(self.qw.quantize(w))
            z = self.qw.dequantize(out1.result())    # scale 2^{-l_w}
            e = self.error(z)

            # ---- round 2: g = X^T e --------------------------------
            out2 = session.submit_matvec(self.qe.quantize(e), transpose=True)
            g = self.qe.dequantize(out2.result())    # scale 2^{-l_e}

            grad = g / ds.m
            norm = float(np.linalg.norm(grad))
            if norm > cfg.grad_clip:
                grad = grad * (cfg.grad_clip / norm)
            w = w - cfg.learning_rate * grad

            # end_iteration() advances the backend clock itself when it
            # re-ships shares, so session.now already includes the cost.
            session.end_iteration()
            # accuracy and loss are evaluated after the loop, from this
            weights.append(w)
            times.append(session.now - t0)
            audit_heads.append(session.audit.head if session.audit is not None else None)

        # the outcomes this run's end_iteration() calls appended
        outcomes = session.stats.adaptations[first:]
        history = TrainingHistory(
            method=self.master.name,
            times=times,
            schemes=[a.scheme for a in outcomes],
            reencode_times=[a.reencode_time for a in outcomes],
            detected_byzantine=[a.detected_byzantine for a in outcomes],
            observed_stragglers=[a.observed_stragglers for a in outcomes],
            audit_heads=audit_heads,
        )
        self.final_weights = w
        record_evaluation(history, ds, weights, self.score)
        return history
