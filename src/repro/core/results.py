"""Shared result/outcome records for the coded masters."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["RoundRecord", "RoundOutcome", "AdaptationOutcome", "InsufficientResultsError"]


class InsufficientResultsError(RuntimeError):
    """Raised when a master cannot gather enough (verified) results to
    decode — more failures than the deployed scheme tolerates."""


@dataclass(frozen=True)
class RoundRecord:
    """Timing breakdown of one broadcast-compute-collect round.

    The session keeps one per finished round (``SessionStats.records``);
    that list is the run's log. Fig. 4's four per-iteration cost
    categories (Sec. VI, "Per Iteration Cost") are sums of its fields:

    * **compute** — worst-case worker latency the master actually waited on;
    * **communication** — broadcast + result upload time on the critical path;
    * **verification** — master-side Freivalds checks (AVCC only);
    * **decoding** — master-side interpolation / error correction.
    """

    iteration: int
    round_name: str
    t_start: float
    t_end: float
    compute_wait: float        # time from broadcast-done to last used arrival
    comm_time: float           # broadcast + critical-path upload
    verify_time: float         # master verification work
    decode_time: float         # master decoding work
    n_collected: int           # arrivals the master consumed
    n_verified: int            # arrivals that passed verification
    n_rejected: int            # arrivals that failed verification
    rejected_workers: tuple[int, ...] = ()
    used_workers: tuple[int, ...] = ()
    #: (worker_id, broadcast-done -> arrival latency) for every worker
    #: that responded — the per-worker slowdown observation the tracer
    #: turns into per-worker spans
    worker_latencies: tuple[tuple[int, float], ...] = ()

    @property
    def duration(self) -> float:
        return self.t_end - self.t_start


@dataclass(frozen=True)
class RoundOutcome:
    """Product of one coded round.

    Attributes
    ----------
    vector:
        The decoded full-length result (padding stripped), in F_q.
    record:
        Timing/accounting for the round.
    """

    vector: np.ndarray
    record: RoundRecord


@dataclass(frozen=True)
class AdaptationOutcome:
    """What ``end_iteration`` did (AVCC's dynamic coding step).

    Attributes
    ----------
    reencode_time:
        Simulated seconds spent re-shipping shares (0 when no re-code).
    scheme:
        The ``(N_t, K_t)`` in effect *after* adaptation.
    dropped_workers:
        Byzantine workers removed from the pool this iteration.
    observed_stragglers:
        ``S_t``: workers whose results the master never used.
    detected_byzantine:
        ``M_t``: workers that failed verification this iteration.
    joined_workers:
        Workers admitted into the roster at this quiesce point
        (rejoins of dead/dropped ids and brand-new capacity alike).
    departed_workers:
        Workers evicted from the roster at this quiesce point for
        reasons *other* than Byzantine detection — heartbeat-declared
        deaths reconciled by the session, or explicit releases.
    """

    reencode_time: float = 0.0
    scheme: tuple[int, int] = (0, 0)
    dropped_workers: tuple[int, ...] = ()
    observed_stragglers: tuple[int, ...] = ()
    detected_byzantine: tuple[int, ...] = ()
    joined_workers: tuple[int, ...] = ()
    departed_workers: tuple[int, ...] = ()
