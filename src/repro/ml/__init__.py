"""Quantized machine-learning applications over the coded masters.

The paper's evaluation workload is binary logistic regression trained
with the two-round protocol of Sec. IV-A:

* round 1: ``z = X·w`` (coded, verified), then master-side
  ``p = h(z)``, ``e = p − y``;
* round 2: ``g = X^T·e`` (coded, verified), then master-side
  ``w ← w − (η/m)·g``.

Everything the workers see is in F_q; reals cross into the field via
:class:`Quantizer` (Eq. 21, two's-complement embedding) and back via
the signed representative. :class:`OverflowBudget` validates the
paper's Sec. V constraint that worst-case results stay below
``(q−1)/2`` so the signed interpretation is unambiguous.
"""

from repro.ml.datasets import Dataset, make_gisette_like, make_linreg_dataset
from repro.ml.linreg import DistributedLinearRegressionTrainer, LinRegConfig
from repro.ml.logistic import DistributedLogisticTrainer, LogisticConfig
from repro.ml.metrics import accuracy, binary_cross_entropy, sigmoid
from repro.ml.quantize import OverflowBudget, Quantizer
from repro.ml.trainer import TrainingHistory

__all__ = [
    "Dataset",
    "DistributedLinearRegressionTrainer",
    "DistributedLogisticTrainer",
    "LinRegConfig",
    "LogisticConfig",
    "OverflowBudget",
    "Quantizer",
    "TrainingHistory",
    "accuracy",
    "binary_cross_entropy",
    "make_gisette_like",
    "make_linreg_dataset",
    "sigmoid",
]
