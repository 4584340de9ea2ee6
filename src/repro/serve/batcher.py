"""Deadline-aware micro-batching policies and the per-family batcher.

The session already coalesces same-family jobs into one broadcast
round, but its trigger is purely count-based (``batch_window`` fills).
A serving gateway needs the *when* to be a policy: waiting longer
coalesces more requests per round (amortizing broadcast, straggler
exposure, verification and decode), but waiting too long blows the
earliest deadline in the batch. This module holds that trade-off:

* :class:`BatchPolicy` — maps a :class:`PendingBatch` to the absolute
  backend-clock time at which it *must* dispatch (``-inf`` = overdue,
  dispatch now; ``+inf`` = no pressure, wait for more traffic).
* two policies, built by name with :func:`make_batch_policy`:

  - ``"count"`` — dispatch when the batch reaches ``window`` requests;
  - ``"hybrid"`` — the count trigger, or when the earliest deadline's
    slack is about to fall below ``safety ×`` the estimated round time
    (live estimate from
    :meth:`repro.api.session.Session.estimate_round_time`: cost-model
    prior blended with observed round durations), or a linger
    timeout — whichever fires first. With a large ``window`` and
    ``linger=inf`` it is a pure deadline trigger.

* :class:`MicroBatcher` — holds at most one open batch per encoded
  family and surfaces the next due time, so the gateway's event loop
  can sleep exactly until either a new arrival or a batch deadline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from typing import Callable, Protocol, runtime_checkable

from repro.serve.workload import Request

__all__ = [
    "BatchPolicy",
    "CountPolicy",
    "HybridPolicy",
    "MicroBatcher",
    "PendingBatch",
    "make_batch_policy",
]

#: (session family key, batch width) -> estimated round seconds
RoundTimeEstimator = Callable[[str, int], float]


@dataclass
class PendingBatch:
    """Requests accumulated for one encoded family, awaiting dispatch."""

    family: str  # session family key: "fwd" | "bwd"
    opened_at: float
    requests: list[Request] = dc_field(default_factory=list)

    @property
    def width(self) -> int:
        return len(self.requests)

    @property
    def earliest_deadline(self) -> float:
        return min((r.deadline for r in self.requests), default=math.inf)

    def add(self, request: Request) -> None:
        self.requests.append(request)


@runtime_checkable
class BatchPolicy(Protocol):
    """When must a pending batch dispatch?"""

    def due_at(self, batch: PendingBatch, estimator: RoundTimeEstimator) -> float:
        """Absolute backend-clock time by which ``batch`` must
        dispatch. ``-inf`` = overdue (dispatch immediately); ``+inf``
        = no pressure (dispatch only on drain or a later trigger)."""
        ...  # pragma: no cover


@dataclass(frozen=True)
class CountPolicy:
    """Dispatch when the batch reaches ``window`` requests — the
    count-based trigger of ``SessionConfig.batch_window``, as a
    gateway policy. ``window=1`` is the *serial gateway*: every
    request dispatches as its own round the moment it is popped."""

    window: int = 8

    def __post_init__(self):
        if self.window < 1:
            raise ValueError(f"window must be >= 1, got {self.window}")

    def due_at(self, batch: PendingBatch, estimator: RoundTimeEstimator) -> float:
        return -math.inf if batch.width >= self.window else math.inf


@dataclass(frozen=True)
class HybridPolicy:
    """A full ``window``, a deadline, or a linger timeout — whichever
    fires first: fill up to ``window`` requests, unless an SLO forces
    an earlier dispatch, and never hold a batch open longer than
    ``linger`` seconds.

    The deadline trigger puts a batch in flight ``safety ×
    estimate_round_time(family, width)`` before its earliest absolute
    deadline — the estimator blends the cost-model prior with live
    observed round times, and ``safety`` absorbs what the estimate
    cannot see (stragglers, pipeline queueing). Deadline-free batches
    (all ``math.inf``) feel no pressure from it. The linger cap is what
    keeps tail latency flat through calm stretches: without it a
    generous deadline lets the batch fill right up to the SLO
    boundary, turning slack into latency even when no more traffic is
    coming."""

    window: int = 8
    safety: float = 1.5
    linger: float = math.inf

    def __post_init__(self):
        if self.window < 1:
            raise ValueError(f"window must be >= 1, got {self.window}")
        if self.safety <= 0:
            raise ValueError(f"safety must be positive, got {self.safety}")
        if self.linger <= 0:
            raise ValueError(f"linger must be positive, got {self.linger}")

    def due_at(self, batch: PendingBatch, estimator: RoundTimeEstimator) -> float:
        if batch.width >= self.window:
            return -math.inf
        due = batch.opened_at + self.linger
        deadline = batch.earliest_deadline
        if math.isfinite(deadline):
            due = min(due, deadline - self.safety * estimator(batch.family, batch.width))
        return due


_POLICIES: dict[str, Callable[..., BatchPolicy]] = {
    "count": CountPolicy,
    "hybrid": HybridPolicy,
}


def make_batch_policy(name: str, **options) -> BatchPolicy:
    """Instantiate the policy called ``name`` with ``options``."""
    try:
        factory = _POLICIES[name]
    except KeyError:
        raise ValueError(
            f"unknown batch policy {name!r}; registered: {tuple(sorted(_POLICIES))}"
        ) from None
    return factory(**options)


# ----------------------------------------------------------------------
class MicroBatcher:
    """One open batch per encoded family, dispatched by policy.

    The gateway adds fair-dequeued requests; :meth:`next_due` is the
    earliest time any open batch must dispatch (the event loop's timer),
    and :meth:`take_due` pops the batches whose time has come. A batch
    reaching ``max_batch`` is due unconditionally — the hard cap that
    keeps one round's broadcast bounded regardless of policy.
    """

    def __init__(
        self,
        policy: BatchPolicy,
        estimator: RoundTimeEstimator,
        max_batch: int = 32,
    ):
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        self.policy = policy
        self.estimator = estimator
        self.max_batch = max_batch
        self._open: dict[str, PendingBatch] = {}

    # ------------------------------------------------------------------
    def _due_at(self, batch: PendingBatch) -> float:
        if batch.width >= self.max_batch:
            return -math.inf
        return self.policy.due_at(batch, self.estimator)

    def add(self, family: str, request: Request, now: float) -> None:
        batch = self._open.get(family)
        if batch is None:
            batch = self._open[family] = PendingBatch(family=family, opened_at=now)
        batch.add(request)

    def due_now(self, family: str, now: float) -> bool:
        """Whether the family's open batch must dispatch at ``now``
        (policy fired, or the ``max_batch`` cap was reached)."""
        batch = self._open.get(family)
        return batch is not None and self._due_at(batch) <= now

    def pop_family(self, family: str) -> PendingBatch | None:
        """Force the family's open batch out (window pressure)."""
        return self._open.pop(family, None)

    def next_due(self) -> float:
        """Earliest dispatch obligation over all open batches."""
        return min((self._due_at(b) for b in self._open.values()), default=math.inf)

    def take_due(self, now: float) -> list[PendingBatch]:
        """Pop every batch due at or before ``now``."""
        due = [fam for fam, b in self._open.items() if self._due_at(b) <= now]
        return [self._open.pop(fam) for fam in due]

    def drain(self) -> list[PendingBatch]:
        """Pop everything (arrivals exhausted — no reason to wait)."""
        out = list(self._open.values())
        self._open.clear()
        return out

    @property
    def pending(self) -> int:
        """Requests currently held in open batches."""
        return sum(b.width for b in self._open.values())

    def open_families(self) -> tuple[str, ...]:
        return tuple(sorted(self._open))
