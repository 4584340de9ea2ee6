"""Two-round distributed logistic regression (paper Sec. IV-A).

Per iteration ``t``:

* **Round 1** — master broadcasts the quantized weights ``w_q`` and
  receives the coded products ``z~_i = X~_i · w_q``; after
  verification/decoding it holds ``z = X · w_q`` exactly in F_q,
  dequantizes, and computes the predictions ``p = h(z)`` and error
  ``e = p − y`` in the real domain.
* **Round 2** — master broadcasts the quantized error ``e_q`` and
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
each iteration's weight vector, and
:func:`~repro.ml.trainer.record_evaluation` scores them all in one
pass after the last iteration, before ``train()`` returns.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.ml.datasets import Dataset
from repro.ml.metrics import accuracy, binary_cross_entropy, sigmoid
from repro.ml.quantize import OverflowBudget, Quantizer
from repro.ml.trainer import TrainingHistory, record_evaluation
from repro.runtime.trace import TraceRecorder

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
    grad_clip: float | None = 10.0
    check_overflow: bool = True


class DistributedLogisticTrainer:
    """Drives a coded-computing service through the two-round protocol
    and records accuracy-vs-time curves (the backend's clock: simulated
    on ``sim``, wall elsewhere — see :class:`~repro.ml.trainer.TrainingHistory`).

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

    ``activation`` defaults to the exact logistic function; pass a
    :class:`repro.ml.polyapprox.PolynomialSigmoid` to explore the
    paper's Sec. VII polynomial-approximation direction (evaluation
    metrics always use the true sigmoid).
    """

    def __init__(
        self,
        service,
        dataset: Dataset,
        config: LogisticConfig | None = None,
        activation=None,
    ):
        from repro.api.session import Session

        self.session = (
            service if isinstance(service, Session) else Session.from_master(service)
        )
        self.master = self.session.master
        self.dataset = dataset
        self.config = config or LogisticConfig()
        self.activation = activation or sigmoid
        self.field = self.session.field
        self.qw = Quantizer(self.field, self.config.l_w)
        self.qe = Quantizer(self.field, self.config.l_e)
        self._budget = OverflowBudget(self.field)

    # ------------------------------------------------------------------
    def _check_budgets(self, w_max: float) -> None:
        """Worst-case wrap-around analysis for both rounds (Sec. V)."""
        ds = self.dataset
        x_max = ds.max_feature()
        self._budget.check_matvec(
            x_max, w_max * self.qw.scale, ds.d, what="round-1 z = X w"
        )
        self._budget.check_matvec(
            x_max, self.qe.scale, ds.m, what="round-2 g = X^T e"
        )

    # ------------------------------------------------------------------
    def train(self, recorder: TraceRecorder | None = None) -> TrainingHistory:
        cfg = self.config
        ds = self.dataset
        m = ds.m
        w = np.zeros(ds.d, dtype=np.float64)
        history = TrainingHistory(method=self.master.name)
        weights: list[np.ndarray] = []
        t0 = self.session.now

        for it in range(cfg.iterations):
            if cfg.check_overflow:
                w_max = max(1.0, float(np.abs(w).max()))
                self._check_budgets(w_max)

            # ---- round 1: z = X w ----------------------------------
            w_q = self.qw.quantize(w)
            out1 = self.session.submit_matvec(w_q)
            z = self.qw.dequantize(out1.result())    # scale 2^{-l_w}
            p = self.activation(z)
            e = p - ds.y_train

            # ---- round 2: g = X^T e --------------------------------
            e_q = self.qe.quantize(e)
            out2 = self.session.submit_matvec(e_q, transpose=True)
            g = self.qe.dequantize(out2.result())    # scale 2^{-l_e}

            grad = g / m
            if cfg.grad_clip is not None:
                norm = float(np.linalg.norm(grad))
                if norm > cfg.grad_clip:
                    grad = grad * (cfg.grad_clip / norm)
            w = w - cfg.learning_rate * grad

            # ---- bookkeeping ---------------------------------------
            # end_iteration() advances the backend clock itself when it
            # re-ships shares, so session.now already includes the cost.
            adapt = self.session.end_iteration()
            t_iter_end = self.session.now

            # accuracy and loss are evaluated after the loop, from this
            weights.append(w)
            history.times.append(t_iter_end - t0)
            history.schemes.append(adapt.scheme)
            history.reencode_times.append(adapt.reencode_time)
            history.detected_byzantine.append(adapt.detected_byzantine)
            history.observed_stragglers.append(adapt.observed_stragglers)
            audit = getattr(self.session, "audit", None)
            history.audit_heads.append(audit.head if audit is not None else None)

            if recorder is not None:
                recorder.add(
                    TraceRecorder.merge_rounds(
                        it,
                        [out1.record, out2.record],
                        reencode_time=adapt.reencode_time,
                        scheme=adapt.scheme,
                    )
                )
        self.final_weights = w
        record_evaluation(history, ds, weights, _score)
        return history


def _score(z: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    """Accuracy and cross-entropy of the predictions ``h(z)`` — always
    the true sigmoid, whatever activation trained the weights."""
    p = sigmoid(z)
    return accuracy(y, p), binary_cross_entropy(y, p)
