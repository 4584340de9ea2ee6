"""Common machinery for all masters: padding, cost helpers, the
broadcast-compute-collect round skeleton.

Masters are **backend-agnostic**: they accept any
:class:`~repro.runtime.backend.Backend` (the discrete-event simulator,
the thread pool, or the shared-memory process pool) and drive it
through declarative :class:`~repro.runtime.backend.RoundJob` dispatches.
A master's verify/decode/adapt logic never changes across backends —
only where the worker arithmetic physically runs.

Every matvec master serves two encoded matrix *families* (paper
Sec. IV-A):

* ``fwd`` — row-blocks of ``X`` (``(m_pad/K, d)`` each), computing
  ``z = X·w`` from worker products ``X~_i·w``;
* ``bwd`` — row-blocks of ``X^T`` (``(d_pad/K, m_pad)`` each), computing
  ``g = X^T·e`` from worker products ``(X^T)~_i·e``.

Padding: GISETTE's ``m = 6000`` is not divisible by ``K = 9``, so rows
(and columns for the transpose side) are zero-padded up to the next
multiple of ``K``; zero rows decode to zeros and are stripped from the
returned vectors, leaving the computation bit-identical to the unpadded
one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace as dc_replace
from typing import Any, Sequence

import numpy as np

from repro.coding.base import unpartition_rows
from repro.ff.field import PrimeField
from repro.obs.audit import digest_array
from repro.runtime.backend import Arrival, Backend, RoundHandle, RoundJob, RoundResult
from repro.runtime.trace import RoundRecord

__all__ = [
    "pad_rows_to_multiple",
    "encode_padded_rows",
    "MatvecMasterBase",
    "FamilyState",
    "RoundPlan",
]


def pad_rows_to_multiple(x: np.ndarray, k: int) -> np.ndarray:
    """Zero-pad the first axis of ``x`` up to a multiple of ``k``."""
    if k < 1:
        raise ValueError("k must be >= 1")
    m = x.shape[0]
    pad = (-m) % k
    if pad == 0:
        return x
    widths = [(0, pad)] + [(0, 0)] * (x.ndim - 1)
    return np.pad(x, widths)


def encode_padded_rows(
    code: Any, x: np.ndarray, cols: int, rng: np.random.Generator | None
) -> np.ndarray:
    """The ``(n, rows_pad/k, cols)`` share stack of the matrix ``x``,
    zero-padded to ``cols`` columns and a multiple of ``k`` rows.

    The stack is the only allocation: the padded matrix is written
    straight into its first ``k`` shares (one copy, strided when ``x``
    is a transposed view) and the code encodes around it
    (:meth:`~repro.coding.lcc.LagrangeCode.encode` with ``into``).
    ``x`` must hold reduced residues; the shares never alias it.
    """
    k = code.k
    rows, width = x.shape
    rows_pad = rows + (-rows) % k
    stack = np.empty((code.n, rows_pad // k, cols), dtype=np.int64)
    data = stack[:k].reshape(rows_pad, cols)
    data[:rows, :width] = x
    data[:rows, width:] = 0
    data[rows:] = 0
    return code.encode(stack[:k], rng, into=stack)


@dataclass
class FamilyState:
    """Per-family bookkeeping (one for ``fwd``, one for ``bwd``)."""

    name: str              # payload key on the workers
    true_len: int          # m (fwd) or d (bwd): output length before padding
    padded_len: int        # m_pad or d_pad
    operand_len: int       # d (fwd) or m_pad (bwd): broadcast length
    operand_true_len: int  # d (fwd) or m (bwd): operand length pre-padding
    block_rows: int        # padded_len // k
    block_cols: int        # columns of each share

    def pad_operand(self, field, operand: np.ndarray) -> np.ndarray:
        """Zero-extend a true-length operand to the broadcast length
        (masters accept unpadded operands; padding is internal).

        Accepts a single vector or a ``(len, B)`` batch of ``B``
        operands stacked along the trailing axis."""
        operand = field.asarray(operand)
        if operand.ndim not in (1, 2):
            raise ValueError(
                f"{self.name} operand must be 1-D or 2-D, got shape {operand.shape}"
            )
        length = operand.shape[0]
        if length == self.operand_len:
            return operand
        if length == self.operand_true_len:
            pad_shape = (self.operand_len - self.operand_true_len,) + operand.shape[1:]
            return np.concatenate([operand, field.zeros(pad_shape)])
        raise ValueError(
            f"{self.name} operand must have length {self.operand_true_len} "
            f"(or padded {self.operand_len}), got {operand.shape}"
        )


@dataclass(frozen=True)
class RoundPlan:
    """Everything needed to dispatch and later finalize one round.

    The round lifecycle is an explicit **plan → dispatch → collect →
    finalize** state machine: ``plan_round`` pads/stacks the operands,
    builds the declarative :class:`~repro.runtime.backend.RoundJob`
    and *snapshots* the verification context (keys, code, code
    positions, participants) so the master stays re-entrant — a
    dynamic re-code between plan and finalize can never corrupt an
    in-flight round's bookkeeping. ``dispatch_plan`` hands the job to
    the backend; ``complete_round`` consumes the arrival stream,
    verifies, decodes and traces.

    Attributes
    ----------
    family:
        Encoded family served (``"fwd"``/``"bwd"``/``"gram"``...).
    round_name:
        Name stamped on the round's trace record.
    job:
        The declarative broadcast-compute-collect description.
    participants:
        Worker ids the round was planned against (snapshot of the
        master's active pool at plan time).
    width:
        Trailing batch width of the stacked operand (1 = plain vector).
    n_jobs:
        How many session-level jobs the round serves. ``0`` marks a
        *raw* round (``forward_round``-style single operand): the
        finalized vector is returned unsplit.
    context:
        Master-specific frozen verification/decoding context.
    """

    family: str
    round_name: str
    job: RoundJob
    participants: tuple[int, ...]
    width: int = 1
    n_jobs: int = 0
    context: Any = None


class MatvecMasterBase:
    """Skeleton shared by AVCC, LCC, uncoded and Static VCC masters.

    Subclasses implement their waiting/verification policy over the
    round's :class:`~repro.runtime.backend.RoundHandle` and ``setup``;
    the round-driving logic here is common and backend-agnostic.

    The round lifecycle is split into the :class:`RoundPlan` state
    machine so callers (the session scheduler) can hold several rounds
    in flight: ``plan_round`` → ``dispatch_plan`` → ``complete_round``.
    The blocking helpers (``forward_round`` / ``round_many``) are thin
    compositions of those three stages.
    """

    name = "base"

    #: the session's shared :class:`~repro.obs.audit.AuditLog` when
    #: ``SessionConfig.audit`` is on, ``None`` otherwise. Armed by the
    #: session; with it off, :meth:`_audit_commit` is a no-op and the
    #: finalize path is byte-identical to an unaudited build.
    audit: Any = None

    #: latency-ratio threshold of the *exact-timing* straggler detector:
    #: on backends with a virtual clock (``timing_is_exact`` — the
    #: simulator), a worker is observed as a straggler when its arrival
    #: latency exceeds this multiple of the round's median latency. The
    #: paper does not specify its detector; the median-ratio test flags
    #: exactly the "order of magnitude" slowdowns it describes while
    #: ignoring benign jitter. Wall-clock backends (threads, processes)
    #: do **not** use this ratio at all — OS scheduling jitter would
    #: masquerade as straggling there, so they observe a straggler as a
    #: worker whose results went unused in *every* round of the
    #: iteration (see :meth:`_note_stragglers`).
    straggler_ratio = 2.0

    def __init__(self, backend: Backend, rng: np.random.Generator | None = None):
        self.backend = backend
        self.field: PrimeField = backend.field
        self.cost_model = backend.cost_model
        self.rng = rng or np.random.default_rng(0)
        #: worker ids participating, in code-position order
        self.active: list[int] = list(range(backend.n))
        self._families: dict[str, FamilyState] = {}
        self._iteration = 0
        # per-iteration observation scratch (reset by end_iteration)
        self._iter_rejected: set[int] = set()
        self._iter_stragglers: set[int] = set()
        self._iter_rounds = 0  # rounds observed by _note_stragglers

    def release(self) -> None:
        """Let go of everything the size of the dataset (encoded
        shares, keys, an encoding cache): called by the owner once no
        further round will be planned. ``scheme_now`` keeps answering;
        planning a round afterwards needs a new ``setup``."""

    # ------------------------------------------------------------------
    # helpers for subclasses
    # ------------------------------------------------------------------
    def _position_of(self, worker_id: int) -> int:
        """Code position (index into alpha points) of a worker."""
        return self.active.index(worker_id)

    def _family(self, family: str) -> FamilyState:
        try:
            return self._families[family]
        except KeyError:
            raise ValueError(f"unknown family {family!r}; call setup() first") from None

    def _plan_family_round(
        self, family: str, operand: np.ndarray, context: Any = None
    ) -> RoundPlan:
        """Shared plan builder for the matvec families: pad the operand,
        build the broadcast job, snapshot the participants."""
        st = self._family(family)
        operand = st.pad_operand(self.field, self.field.asarray(operand))
        if operand.shape[0] != st.operand_len or operand.ndim not in (1, 2):
            raise ValueError(
                f"{family} operand must have length {st.operand_len}, got {operand.shape}"
            )
        width = 1 if operand.ndim == 1 else int(operand.shape[1])
        job = RoundJob(op="matvec", payload_key=st.name, operand=operand)
        return RoundPlan(
            family=family,
            round_name=family,
            job=job,
            participants=tuple(self.active),
            width=width,
            context=context,
        )

    def _master_free_at(self, handle: RoundHandle) -> float:
        """When the master core can start verifying this round's
        arrivals: not before the broadcast finished, and not before the
        master finished whatever it was doing (finalizing earlier
        in-flight rounds, broadcasting later ones). On the serial path
        ``backend.now`` sits exactly at the end of the broadcast, so
        this is the classic ``t_start + broadcast_time``."""
        return max(handle.t_start + handle.broadcast_time, self.backend.now)

    def _note_stragglers(self, rr: RoundResult, used: Sequence[int] = ()) -> None:
        """Straggler observation, feeding the adaptive policy's ``S_t``.

        Workers that never arrived (silent, or cancelled before
        finishing) are always flagged.

        On exact-timing backends (the simulator) a worker is
        additionally flagged when its broadcast-to-arrival latency
        exceeds ``straggler_ratio`` times the round's median latency.
        Note that a straggler the master *waited for* still counts —
        that is what makes the Fig. 5 scenario observe ``S_t = 3``
        even though only two stragglers went unused.

        On wall-clock backends the ratio test misfires: at millisecond
        scale, OS scheduling jitter (especially with more workers than
        cores) routinely exceeds twice the median, and false flags
        goad the adaptive policy into shrinking the code. There a
        worker is instead observed as a straggler when its result went
        unused — the paper's operational reading of ``S_t`` — and only
        if that happened in *every* round of the iteration: which
        worker loses a scheduling race changes round to round, but a
        genuine straggler loses them all. The flag set is a running
        intersection, so a session that never ends an iteration (a
        serving gateway) keeps constant state.
        """
        bcast_done = rr.t_start + rr.broadcast_time
        finite = [a for a in rr.arrivals if math.isfinite(a.t_arrival)]
        flagged = {
            a.worker_id for a in rr.arrivals if not math.isfinite(a.t_arrival)
        }
        if not getattr(self.backend, "timing_is_exact", False):
            consumed = set(used) | self._iter_rejected
            flagged.update(a.worker_id for a in finite if a.worker_id not in consumed)
            if self._iter_rounds:
                flagged &= self._iter_stragglers
            self._iter_stragglers = flagged
            self._iter_rounds += 1
            return
        self._iter_stragglers.update(flagged)
        if not finite:
            return
        latencies = np.array([a.t_arrival - bcast_done for a in finite])
        med = float(np.median(latencies))
        if med <= 0.0:
            return
        for a, lat in zip(finite, latencies):
            if lat > self.straggler_ratio * med:
                self._iter_stragglers.add(a.worker_id)

    def _mk_record(
        self,
        round_name: str,
        rr: RoundResult,
        last_used: Arrival,
        t_end: float,
        verify_time: float,
        decode_time: float,
        n_collected: int,
        n_verified: int,
        rejected: Sequence[int],
        used: Sequence[int],
    ) -> RoundRecord:
        bcast_done = rr.t_start + rr.broadcast_time
        compute_wait = max(0.0, last_used.t_arrival - bcast_done - last_used.comm_time)
        worker_latencies = tuple(
            (a.worker_id, max(0.0, a.t_arrival - bcast_done))
            for a in rr.arrivals
            if math.isfinite(a.t_arrival)
        )
        return RoundRecord(
            iteration=self._iteration,
            round_name=round_name,
            t_start=rr.t_start,
            t_end=t_end,
            compute_wait=compute_wait,
            comm_time=rr.broadcast_time + last_used.comm_time,
            verify_time=verify_time,
            decode_time=decode_time,
            n_collected=n_collected,
            n_verified=n_verified,
            n_rejected=len(rejected),
            rejected_workers=tuple(rejected),
            used_workers=tuple(used),
            worker_latencies=worker_latencies,
        )

    @staticmethod
    def _strip(blocks: np.ndarray, true_len: int) -> np.ndarray:
        """Concatenate decoded blocks and strip zero padding."""
        return unpartition_rows(blocks)[:true_len]

    def _audit_commit(
        self,
        plan: RoundPlan,
        record: RoundRecord,
        *,
        output: np.ndarray,
        accepted: Sequence[int],
        verify_ok: bool,
        arrivals: Sequence[Arrival] = (),
        handle: RoundHandle | None = None,
    ) -> None:
        """Append this round's commitment to the session's audit chain
        (no-op unless the session armed :attr:`audit`).

        Digests every *received* result — rejected workers included,
        so the evidence of a Byzantine share survives verification —
        and cross-checks any daemon-countersigned digests the backend
        handle collected (``worker_digests``, socket backends only):
        workers whose shipped digest matches the master-side digest of
        the received bytes land in the commitment's ``attested`` set.
        """
        if self.audit is None:
            return
        n_t, k_t = self.scheme_now
        scheme = getattr(self, "scheme", None)
        s = int(getattr(scheme, "s", 0) or getattr(self, "s", 0) or 0)
        m = int(getattr(scheme, "m", 0) or getattr(self, "m", 0) or 0)
        digests = {
            int(a.worker_id): digest_array(a.value)
            for a in arrivals
            if a.value is not None
        }
        shipped = getattr(handle, "worker_digests", None) or {}
        attested = sorted(
            w for w, d in digests.items() if shipped.get(w) == d
        )
        operand = plan.job.operand
        self.audit.commit(
            family=record.round_name,
            scheme=(n_t, k_t, s, m),
            operand_digest=digest_array(operand) if operand is not None else "",
            output_digest=digest_array(output),
            workers=plan.participants,
            worker_digests=sorted(digests.items()),
            attested=attested,
            accepted=accepted,
            rejected=record.rejected_workers,
            verify_ok=verify_ok,
            t_end=record.t_end,
        )

    # ------------------------------------------------------------------
    # cost formulas (documented in DESIGN.md; drive simulated timing)
    # ------------------------------------------------------------------
    @staticmethod
    def lagrange_decode_macs(n_used: int, k: int, block_elems: int) -> int:
        """Interpolate-and-evaluate decode: basis build ``O(R^2)`` plus
        the ``(k, R) @ (R, block)`` application."""
        return n_used * n_used + k * n_used * block_elems

    @staticmethod
    def bw_decode_macs(n_received: int, degree: int, budget: int, block_elems: int) -> int:
        """Berlekamp–Welch cost: random projection over the blocks, the
        ``(D + 2e + 1)^3 / 3`` Gaussian solve, residual re-evaluation,
        and the final erasure interpolation."""
        dim = degree + 2 * budget + 1
        solve = dim**3 // 3
        proj = n_received * block_elems
        resid = n_received * (degree + budget)
        return proj + solve + resid

    # ------------------------------------------------------------------
    # interface
    # ------------------------------------------------------------------
    def setup(self, x_field: np.ndarray) -> float:  # pragma: no cover - abstract
        raise NotImplementedError

    def forward_round(self, w):
        return self._round("fwd", w)

    def backward_round(self, e):
        return self._round("bwd", e)

    # ------------------------------------------------------------------
    # round lifecycle: plan -> dispatch -> collect/finalize
    # ------------------------------------------------------------------
    def plan_round(self, family: str, operands: Sequence[np.ndarray]) -> RoundPlan:
        """Stage 1: coalesce ``operands`` (same-family jobs) into one
        plan. A single operand stays a plain vector round; several are
        stacked into a ``(len, B)`` batch served by one broadcast."""
        ops = [self.field.asarray(op) for op in operands]
        if not ops:
            raise ValueError("plan_round needs at least one operand")
        if len(ops) == 1:
            raw = ops[0]
        else:
            st = self._family(family)
            raw = np.stack([st.pad_operand(self.field, op) for op in ops], axis=1)
        return dc_replace(self._plan_raw(family, raw), n_jobs=len(ops))

    def dispatch_plan(self, plan: RoundPlan) -> RoundHandle:
        """Stage 2: hand the planned job to the backend. Non-blocking on
        every backend — the returned handle is the in-flight round."""
        return self.backend.dispatch_round(plan.job, participants=list(plan.participants))

    def complete_round(self, plan: RoundPlan, handle: RoundHandle):
        """Stages 3+4: consume the arrival stream (per-arrival verify
        where the policy has one), decode, trace. Returns one
        :class:`~repro.core.results.RoundOutcome` per planned job, in
        submission order; they share the round's record."""
        from repro.core.results import RoundOutcome

        out = self._complete_raw(plan, handle)
        if plan.n_jobs <= 1:
            return [out]
        return [
            RoundOutcome(vector=out.vector[:, j], record=out.record)
            for j in range(plan.n_jobs)
        ]

    def round_many(self, family: str, operands: Sequence[np.ndarray]):
        """Serve many same-family jobs in **one** blocking broadcast
        round (plan → dispatch → complete back to back).

        Workers compute all products in one pass, verification checks
        each worker's whole batch with one probe application, and a
        single decode recovers every job — B jobs cost one broadcast,
        one arrival wait and one straggler exposure instead of B.
        """
        ops = list(operands)
        if not ops:
            return []
        plan = self.plan_round(family, ops)
        return self.complete_round(plan, self.dispatch_plan(plan))

    def _round(self, family: str, operand):
        """Blocking raw round (operand may be a pre-stacked batch)."""
        plan = self._plan_raw(family, operand)
        return self._complete_raw(plan, self.dispatch_plan(plan))

    def _plan_raw(self, family: str, operand) -> RoundPlan:  # pragma: no cover
        raise NotImplementedError

    def _complete_raw(self, plan: RoundPlan, handle: RoundHandle):  # pragma: no cover
        raise NotImplementedError

    def _reset_iteration_observations(self) -> None:
        self._iteration += 1
        self._iter_rejected = set()
        self._iter_stragglers = set()
        self._iter_rounds = 0

    def end_iteration(self):
        """Default: advance the iteration counter, no adaptation."""
        from repro.core.results import AdaptationOutcome

        out = AdaptationOutcome(
            reencode_time=0.0,
            scheme=self.scheme_now,
            dropped_workers=(),
            observed_stragglers=tuple(sorted(self._iter_stragglers - self._iter_rejected)),
            detected_byzantine=tuple(sorted(self._iter_rejected)),
        )
        self._reset_iteration_observations()
        return out

    @property
    def scheme_now(self) -> tuple[int, int]:  # pragma: no cover - abstract
        raise NotImplementedError
