"""Worker latency profiles.

The paper attributes straggling to "heterogeneity in server hardware,
resource contention across shared virtual instances, IO delays, or even
hardware faults" with slowdowns "up to an order of magnitude" (Sec. I).
We model a worker's completion time as::

    time = profile.sample(base_time, rng)

where ``base_time`` is the nominal compute time from the cost model.
Every worker's profile is a multiplicative slowdown
(:class:`DeterministicLatency`), which keeps every figure
bit-reproducible; the experiment configs use heterogeneous straggler
factors (one heavy ~8x, one mild ~1.4x) so that "the faster of the two
stragglers" (Fig. 3a discussion) is meaningfully faster than the
slower one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol, runtime_checkable

import numpy as np

__all__ = [
    "LatencyModel",
    "DeterministicLatency",
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
    """Pure multiplicative slowdown.

    ``factor = 1.0`` is a nominal worker; ``factor = 8.0`` a straggler
    roughly "an order of magnitude" slower.
    """

    factor: float = 1.0

    def __post_init__(self):
        if self.factor <= 0:
            raise ValueError("factor must be positive")

    def sample(self, base_time: float, rng: np.random.Generator) -> float:
        return base_time * self.factor


def make_profiles(
    n: int,
    straggler_factors: dict[int, float] | None = None,
    default_factor: float = 1.0,
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
    """
    straggler_factors = straggler_factors or {}
    for wid in straggler_factors:
        if not 0 <= wid < n:
            raise ValueError(f"straggler id {wid} out of range for n={n}")
    return [
        DeterministicLatency(factor=straggler_factors.get(i, default_factor))
        for i in range(n)
    ]
