"""Synthetic datasets standing in for GISETTE (documented substitution).

GISETTE (NIPS 2003 feature-selection challenge) is a 6000×5000 binary
classification problem whose feature values are bounded non-negative
integers — the paper relies on exactly those two properties (Sec. V:
"the GISETTE dataset values are all non-negative integers and fit
within the selected finite field. Hence, no quantization is necessary"
for the data). :func:`make_gisette_like` generates data with the same
interface properties:

* integer features in ``[0, value_max]``, sparse (most entries zero);
* binary labels from a sparse ground-truth linear separator with label
  noise, so logistic regression converges into the mid-90s% accuracy
  range over a few dozen iterations — the regime of Fig. 3;
* shape defaults scaled down for CI, full ``(6000, 5000)`` available.

The value/density defaults keep the worst-case field magnitudes well
inside ``(q−1)/2`` (checked by tests via
:class:`~repro.ml.quantize.OverflowBudget`), which GISETTE+field-size
tuning achieved in the paper.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = ["Dataset", "make_gisette_like", "make_linreg_dataset"]


@dataclass(frozen=True)
class Dataset:
    """A train/test split with integer features.

    ``x_*`` are ``int64`` (field-embeddable as-is); ``y_*`` are
    ``float64`` 0/1 labels (logistic) or reals (regression targets).

    The arrays are **immutable inputs**: what is derived from them
    (:meth:`max_feature`) is computed once and never refreshed — build
    a new ``Dataset`` instead of writing into one.
    """

    name: str
    x_train: np.ndarray
    y_train: np.ndarray
    x_test: np.ndarray
    y_test: np.ndarray

    @property
    def m(self) -> int:
        return self.x_train.shape[0]

    @property
    def d(self) -> int:
        return self.x_train.shape[1]

    def max_feature(self) -> int:
        """Largest ``|x|`` over both splits — the matrix-entry bound
        :meth:`~repro.ml.quantize.OverflowBudget.check_matvec` needs
        (a negative feature counts by its magnitude). One scan per
        dataset; the trainers ask every iteration."""
        return self._max_abs_feature

    @cached_property
    def _max_abs_feature(self) -> int:
        return max(
            abs(int(bound))
            for x in (self.x_train, self.x_test)
            for bound in (x.min(initial=0), x.max(initial=0))
        )


def make_gisette_like(
    m: int = 1200,
    d: int = 600,
    *,
    test_fraction: float = 0.25,
    density: float = 0.15,
    value_max: int = 15,
    informative_fraction: float = 0.2,
    label_noise: float = 0.02,
    class_lift: float = 0.5,
    rng: np.random.Generator | None = None,
) -> Dataset:
    """Sparse bounded-integer binary classification data.

    Parameters
    ----------
    m, d:
        Total samples (train+test) and features. The paper's full shape
        is ``(6000, 5000)``; the default is a CI-friendly reduction
        with identical structure.
    density:
        Fraction of nonzero feature entries.
    value_max:
        Maximum feature value (GISETTE uses 999 with ~13% density; we
        default lower to keep field headroom at small ``d``).
    informative_fraction:
        Fraction of features carrying label signal.
    label_noise:
        Probability of flipping a label — bounds achievable accuracy
        below 100%, like the paper's ~95–96% plateaus.
    class_lift:
        Relative shift of the informative features' firing probability
        between classes (GISETTE-style class-conditional pixels);
        larger = more separable.
    """
    if not 0 < test_fraction < 1:
        raise ValueError("test_fraction must be in (0, 1)")
    if not 0 < density <= 1:
        raise ValueError("density must be in (0, 1]")
    if value_max < 1:
        raise ValueError("value_max must be >= 1")
    if not 0 <= class_lift <= 1:
        raise ValueError("class_lift must be in [0, 1]")
    rng = rng or np.random.default_rng(0)

    # Labels first, then class-conditional features (GISETTE-style: the
    # informative "pixels" fire more often in one class than the other).
    y = (rng.random(m) < 0.5).astype(np.float64)
    n_info = max(1, int(d * informative_fraction))
    info_idx = rng.choice(d, size=n_info, replace=False)
    info_sign = rng.choice([-1.0, 1.0], size=n_info)

    prob = np.full((m, d), density)
    class_signal = 2.0 * y - 1.0  # -1 / +1
    for j, s in zip(info_idx, info_sign):
        prob[:, j] = density * (1.0 + s * class_lift * class_signal)
    prob = np.clip(prob, 0.005, 0.95)

    x = np.zeros((m, d), dtype=np.int64)
    mask = rng.random((m, d)) < prob
    x[mask] = rng.integers(1, value_max + 1, size=int(mask.sum()))

    # Per-sample multiplicative intensity jitter (label-independent),
    # like scan brightness / pen pressure in the original handwriting
    # features. It decorrelates the naive class-mean direction from the
    # optimal separator, so gradient descent needs a realistic number
    # of iterations (~10-30) instead of one lucky first step.
    intensity = np.exp(rng.normal(0.0, 0.25, size=m))
    x = np.clip(np.round(x * intensity[:, None]), 0, value_max).astype(np.int64)

    flip = rng.random(m) < label_noise
    y[flip] = 1.0 - y[flip]

    n_test = int(m * test_fraction)
    perm = rng.permutation(m)
    test_idx, train_idx = perm[:n_test], perm[n_test:]
    return Dataset(
        name=f"gisette-like(m={m},d={d})",
        x_train=x[train_idx],
        y_train=y[train_idx],
        x_test=x[test_idx],
        y_test=y[test_idx],
    )


def make_linreg_dataset(
    m: int = 800,
    d: int = 100,
    *,
    test_fraction: float = 0.25,
    value_max: int = 7,
    density: float = 0.3,
    noise_std: float = 0.5,
    rng: np.random.Generator | None = None,
) -> Dataset:
    """Integer-feature linear regression data, ``y = X w* + noise``."""
    rng = rng or np.random.default_rng(0)
    x = np.zeros((m, d), dtype=np.int64)
    mask = rng.random((m, d)) < density
    x[mask] = rng.integers(1, value_max + 1, size=int(mask.sum()))
    w_true = rng.normal(0.0, 1.0, size=d) / np.sqrt(d * density * value_max)
    y = x @ w_true + rng.normal(0.0, noise_std, size=m)

    n_test = int(m * test_fraction)
    perm = rng.permutation(m)
    test_idx, train_idx = perm[:n_test], perm[n_test:]
    return Dataset(
        name=f"linreg(m={m},d={d})",
        x_train=x[train_idx],
        y_train=y[train_idx],
        x_test=x[test_idx],
        y_test=y[test_idx],
    )
