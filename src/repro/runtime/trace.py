"""Execution traces: the raw material for Fig. 4 and Fig. 5.

Masters record one :class:`RoundRecord` per protocol round and one
:class:`IterationRecord` per training iteration. The recorder
aggregates them into the paper's four per-iteration cost categories
(Sec. VI, "Per Iteration Cost"):

* **compute** — worst-case worker latency the master actually waited on;
* **communication** — broadcast + result upload time on the critical path;
* **verification** — master-side Freivalds checks (AVCC only);
* **decoding** — master-side interpolation / error correction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

__all__ = ["RoundRecord", "IterationRecord", "TraceRecorder"]


@dataclass(frozen=True)
class RoundRecord:
    """Timing breakdown of one broadcast-compute-collect round."""

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
class IterationRecord:
    """One training iteration (possibly several rounds) plus any
    adaptation events that followed it."""

    iteration: int
    t_start: float
    t_end: float
    rounds: tuple[RoundRecord, ...]
    reencode_time: float = 0.0     # dynamic-coding re-distribution cost
    scheme: tuple[int, int] = (0, 0)   # (N_t, K_t) in effect

    @property
    def duration(self) -> float:
        return self.t_end - self.t_start

    def breakdown(self) -> dict[str, float]:
        out = {"compute": 0.0, "communication": 0.0, "verification": 0.0, "decoding": 0.0}
        for r in self.rounds:
            out["compute"] += r.compute_wait
            out["communication"] += r.comm_time
            out["verification"] += r.verify_time
            out["decoding"] += r.decode_time
        return out


class TraceRecorder:
    """Accumulates iteration records and aggregates paper-style stats."""

    def __init__(self):
        self.iterations: list[IterationRecord] = []

    def add(self, record: IterationRecord) -> None:
        self.iterations.append(record)

    # ------------------------------------------------------------------
    def total_time(self) -> float:
        if not self.iterations:
            return 0.0
        return self.iterations[-1].t_end - self.iterations[0].t_start

    def cumulative_times(self) -> list[float]:
        """End time of each iteration (Fig. 5's x-axis)."""
        return [it.t_end for it in self.iterations]

    def mean_breakdown(self) -> dict[str, float]:
        """Average per-iteration cost split (Fig. 4's bars)."""
        agg = {"compute": 0.0, "communication": 0.0, "verification": 0.0, "decoding": 0.0}
        if not self.iterations:
            return agg
        for it in self.iterations:
            for k, v in it.breakdown().items():
                agg[k] += v
        return {k: v / len(self.iterations) for k, v in agg.items()}

    def total_reencode_time(self) -> float:
        return sum(it.reencode_time for it in self.iterations)

    def rejected_by_iteration(self) -> list[set[int]]:
        return [
            set(w for r in it.rounds for w in r.rejected_workers)
            for it in self.iterations
        ]

    def schemes(self) -> list[tuple[int, int]]:
        """(N_t, K_t) trajectory — shows dynamic-coding decisions."""
        return [it.scheme for it in self.iterations]

    @staticmethod
    def merge_rounds(
        iteration: int, rounds: Iterable[RoundRecord], reencode_time: float = 0.0,
        scheme: tuple[int, int] = (0, 0),
    ) -> IterationRecord:
        rounds = tuple(rounds)
        if not rounds:
            raise ValueError("an iteration needs at least one round")
        return IterationRecord(
            iteration=iteration,
            t_start=rounds[0].t_start,
            t_end=rounds[-1].t_end + reencode_time,
            rounds=rounds,
            reencode_time=reencode_time,
            scheme=scheme,
        )
