"""The pipelined round scheduler: a bounded window of in-flight rounds.

PR 2's session executed rounds strictly one at a time — ``flush``
blocked inside the master until decode finished, so independent jobs on
different encoded families (fwd vs. bwd) and successive
serving requests serialized on a fleet that was mostly idle. AVCC's
core idea is that master-side verify/decode work overlaps straggler
waiting (paper Sec. IV-A verifies each arrival as it lands); this
module extends that overlap across *rounds*.

The masters' round lifecycle is an explicit state machine
(:class:`~repro.core.base.RoundPlan`: plan → dispatch → collect →
finalize), so the scheduler can hold several dispatched rounds open at
once:

* **dispatch** is non-blocking on every backend — the simulator
  pre-computes the arrival schedule (with per-worker busy-time queues,
  so concurrent rounds contend realistically), the socket master
  routes replies by round id;
* **finalize** happens in dispatch (FIFO) order — the master core is
  one core; verify/decode of round *i* runs while the workers compute
  rounds *i+1 … i+W*;
* the window is bounded by ``SessionConfig.max_inflight_rounds`` = W,
  2 by default: one family's round computes on the fleet while the
  master verifies/decodes the other's. ``W = 1`` degenerates to the
  serial scheduler (every dispatch is finalized immediately, byte-
  and time-identical to a session without a pipeline).

Results are byte-identical across window sizes: which worker subset a
round decodes from may shift under contention, but any verified subset
of recovery-threshold size interpolates the same exact values — that
is the MDS property the masters already rely on for early stopping.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Sequence

import numpy as np

from repro.core.base import RoundPlan
from repro.core.results import RoundOutcome
from repro.runtime.backend import RoundHandle

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.api.session import JobHandle

__all__ = ["InflightRound", "RoundScheduler", "SessionClosedError"]


class SessionClosedError(RuntimeError):
    """The session was closed; the operation (a submission, or
    resolving a job the session never got to execute) cannot run."""


@dataclass
class InflightRound:
    """One dispatched-but-not-finalized round in the window (the
    window deque itself carries the FIFO dispatch order)."""

    plan: RoundPlan
    handle: RoundHandle
    jobs: list["JobHandle"]


class RoundScheduler:
    """Bounded-window FIFO pipeline over a master's round lifecycle.

    Parameters
    ----------
    master:
        The master every round is planned, dispatched and finalized on.
    max_inflight:
        Window bound W (>= 1). ``1`` is the serial scheduler.
    on_dispatched:
        Telemetry callback, invoked with the in-flight depth *after*
        each dispatch (so a depth >= 2 proves two rounds overlapped).
    on_finalized:
        Invoked with the finalized round and its outcomes, in finalize
        (= dispatch) order — the stats hook.
    """

    def __init__(
        self,
        master: Any,
        max_inflight: int,
        on_dispatched: Callable[[int], None],
        on_finalized: Callable[[InflightRound, list[RoundOutcome]], None],
    ) -> None:
        if max_inflight < 1:
            raise ValueError(f"max_inflight must be >= 1, got {max_inflight}")
        self.master = master
        self.max_inflight = max_inflight
        self._window: deque[InflightRound] = deque()
        self._on_dispatched = on_dispatched
        self._on_finalized = on_finalized

    # ------------------------------------------------------------------
    @property
    def in_flight(self) -> int:
        """Rounds currently dispatched but not finalized."""
        return len(self._window)

    def submit(
        self,
        family: str,
        jobs: list["JobHandle"],
        operands: Sequence[np.ndarray],
    ) -> None:
        """Plan and dispatch one coalesced round for ``jobs``.

        Blocks only for window pressure: when W rounds are already in
        flight the oldest is finalized first. With ``W = 1`` the round
        is additionally finalized before returning (serial semantics —
        exactly the pre-pipeline session behavior).

        If anything raises before this round is in the window —
        finalizing an older round under window pressure included —
        the submitted jobs' handles fail with that exception (they
        were never dispatched, and the root cause is what the caller
        needs); no handle is ever silently lost.
        """
        try:
            while len(self._window) >= self.max_inflight:
                self.finalize_next()
            plan = self.master.plan_round(family, operands)
            handle = self.master.dispatch_plan(plan)
        except BaseException as exc:
            for h in jobs:
                if not h.done():
                    h._fail(exc)
            raise
        self._window.append(
            InflightRound(plan=plan, handle=handle, jobs=jobs)
        )
        self._on_dispatched(len(self._window))
        if self.max_inflight == 1:
            self.finalize_next()

    def finalize_next(self) -> None:
        """Finalize the oldest in-flight round: collect its arrival
        stream, verify/decode, resolve its job handles. On failure the
        round's backend handle is cancelled (idempotent, safe after
        ``result()``) so the round never keeps contending for workers,
        and its job handles fail with the root cause."""
        rec = self._window.popleft()
        try:
            outcomes = self.master.complete_round(rec.plan, rec.handle)
        except BaseException as exc:
            try:
                rec.handle.cancel()
            except Exception:  # noqa: BLE001 - best-effort teardown
                pass
            for h in rec.jobs:
                if not h.done():
                    h._fail(exc)
            raise
        for h, out in zip(rec.jobs, outcomes):
            h._resolve(out)
        self._on_finalized(rec, outcomes)

    def drain(self) -> None:
        """Finalize every in-flight round (oldest first)."""
        while self._window:
            self.finalize_next()

    def drain_until(self, done: Callable[[], bool]) -> None:
        """Finalize rounds in FIFO order until ``done()`` turns true —
        a job waits only on rounds dispatched at or before its own."""
        while self._window and not done():
            self.finalize_next()

    def abandon(self, exc: BaseException) -> None:
        """Unwind path: cancel every in-flight round and fail its jobs
        instead of finalizing (used when the session closes without a
        flush, e.g. while an exception is propagating)."""
        while self._window:
            rec = self._window.popleft()
            try:
                rec.handle.cancel()
            except Exception:  # noqa: BLE001 - best-effort teardown
                pass
            for h in rec.jobs:
                if not h.done():
                    h._fail(exc)
