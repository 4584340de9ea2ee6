"""A simulated worker node.

A worker is: a mutable *payload* (the coded shares the master shipped
to it), a latency profile, and a (possibly Byzantine) behaviour. The
computation itself is **real** — the master hands the worker a compute
callable and the worker runs it over its actual payload arrays — only
the elapsed time is simulated.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Any, Callable

import numpy as np

from repro.ff.field import PrimeField
from repro.runtime.byzantine import Behavior, Honest
from repro.runtime.latency import DeterministicLatency, LatencyModel

__all__ = ["SimWorker"]


@dataclass
class SimWorker:
    """One simulated node.

    Attributes
    ----------
    worker_id:
        Stable integer id (position in the code's ``alpha`` points).
    profile:
        Latency model turning nominal compute time into sampled time.
    behavior:
        Honest / attack behaviour applied to every result it sends.
    payload:
        The worker's local storage (coded shares, keyed by name).
        ``None`` values are allowed while storage is being provisioned.
    """

    worker_id: int
    profile: LatencyModel = dc_field(default_factory=DeterministicLatency)
    behavior: Behavior = dc_field(default_factory=Honest)
    payload: dict[str, Any] = dc_field(default_factory=dict)

    def store(self, **items) -> None:
        """Install data shipped by the master (e.g. coded sub-matrices).

        Rounds multiply a stored share as stored, so what is installed
        must be reduced residues in the dtype rounds multiply: the
        clusters' ``distribute`` validates each share once on the way
        in and keeps it resident (``repro.ff.linalg.resident_share``).
        """
        self.payload.update(items)

    def execute(
        self,
        compute: Callable[[dict[str, Any]], np.ndarray],
        field: PrimeField,
        rng: np.random.Generator,
    ) -> np.ndarray | None:
        """Run ``compute`` over the local payload, then apply behaviour.

        Returns what the worker transmits (``None`` for silent nodes).
        """
        honest = compute(self.payload)
        return self.behavior.corrupt(honest, field, rng)

    def sample_time(self, base_time: float, rng: np.random.Generator) -> float:
        return self.profile.sample(base_time, rng)

    @property
    def is_byzantine(self) -> bool:
        return self.behavior.is_byzantine
