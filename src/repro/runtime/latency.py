"""Worker latency profiles.

The paper attributes straggling to "heterogeneity in server hardware,
resource contention across shared virtual instances, IO delays, or even
hardware faults" with slowdowns "up to an order of magnitude" (Sec. I).
We model a worker's completion time as::

    time = profile.sample(base_time, rng)

where ``base_time`` is the nominal compute time from the cost model.
Profiles compose a multiplicative slowdown with an optional stochastic
tail; the experiment configs use heterogeneous straggler factors (one
heavy ~8x, one mild ~1.4x) so that "the faster of the two stragglers"
(Fig. 3a discussion) is meaningfully faster than the slower one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol, runtime_checkable

import numpy as np

__all__ = [
    "LatencyModel",
    "DeterministicLatency",
    "ShiftedExponentialLatency",
    "GaussianJitterLatency",
    "make_profiles",
]


@runtime_checkable
class LatencyModel(Protocol):
    """Anything that can turn a nominal compute time into a sampled one."""

    def sample(self, base_time: float, rng: np.random.Generator) -> float:
        """Return the simulated completion time (>= 0)."""
        ...  # pragma: no cover


@dataclass(frozen=True)
class DeterministicLatency:
    """Pure multiplicative slowdown — the workhorse of the experiments
    because it keeps every figure bit-reproducible.

    ``factor = 1.0`` is a nominal worker; ``factor = 8.0`` a straggler
    roughly "an order of magnitude" slower.
    """

    factor: float = 1.0

    def __post_init__(self):
        if self.factor <= 0:
            raise ValueError("factor must be positive")

    def sample(self, base_time: float, rng: np.random.Generator) -> float:
        return base_time * self.factor


@dataclass(frozen=True)
class ShiftedExponentialLatency:
    """The classic coded-computing straggler model: a deterministic
    service floor plus an exponential tail,
    ``T = factor * base * (1 + Exp(rate))``.

    ``rate`` is the tail rate in units of 1/base-time: larger rate =>
    lighter tail.
    """

    factor: float = 1.0
    rate: float = 10.0

    def __post_init__(self):
        if self.factor <= 0 or self.rate <= 0:
            raise ValueError("factor and rate must be positive")

    def sample(self, base_time: float, rng: np.random.Generator) -> float:
        return self.factor * base_time * (1.0 + rng.exponential(1.0 / self.rate))


@dataclass(frozen=True)
class GaussianJitterLatency:
    """Multiplicative slowdown with truncated Gaussian jitter
    (models OS noise on an otherwise healthy node)."""

    factor: float = 1.0
    sigma: float = 0.05

    def __post_init__(self):
        if self.factor <= 0 or self.sigma < 0:
            raise ValueError("factor must be positive and sigma non-negative")

    def sample(self, base_time: float, rng: np.random.Generator) -> float:
        jitter = max(0.0, 1.0 + rng.normal(0.0, self.sigma))
        return base_time * self.factor * jitter


def make_profiles(
    n: int,
    straggler_factors: dict[int, float] | None = None,
    default_factor: float = 1.0,
    jitter_sigma: float = 0.0,
) -> list[LatencyModel]:
    """Build ``n`` profiles, overriding specific workers as stragglers.

    Parameters
    ----------
    n:
        Number of workers.
    straggler_factors:
        Map ``worker_id -> slowdown factor``.
    default_factor:
        Factor for everyone else.
    jitter_sigma:
        If positive, all profiles get Gaussian jitter of this sigma.
    """
    straggler_factors = straggler_factors or {}
    for wid in straggler_factors:
        if not 0 <= wid < n:
            raise ValueError(f"straggler id {wid} out of range for n={n}")
    out: list[LatencyModel] = []
    for i in range(n):
        factor = straggler_factors.get(i, default_factor)
        if jitter_sigma > 0:
            out.append(GaussianJitterLatency(factor=factor, sigma=jitter_sigma))
        else:
            out.append(DeterministicLatency(factor=factor))
    return out
