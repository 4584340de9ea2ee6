"""Common machinery for all masters: padding, cost helpers, and the one
round path every master runs.

Masters are **backend-agnostic**: they accept any
:class:`~repro.runtime.backend.Backend` (the discrete-event simulator
or the socket fleet) and drive it
through declarative :class:`~repro.runtime.backend.RoundJob` dispatches.
A master's verify/decode/adapt logic never changes across backends —
only where the worker arithmetic physically runs.

A master supplies three things: its ``setup`` (encode, ship, key), a
collect policy (verify each arrival and stop at the recovery
threshold, or take results unchecked until enough have landed) and a
decode step. :class:`MatvecMasterBase` does the rest once for all of
them: plan, dispatch, the collect loop, the refusal below the
threshold, and the finish — iteration observations, the
:class:`~repro.core.results.RoundRecord`, the audit commitment and the
clock.

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
from repro.core.results import (
    AdaptationOutcome,
    InsufficientResultsError,
    RoundOutcome,
    RoundRecord,
)
from repro.ff.field import PrimeField
from repro.obs.audit import digest_array
from repro.runtime.backend import Arrival, Backend, RoundHandle, RoundJob, RoundResult

__all__ = [
    "pad_rows_to_multiple",
    "encode_padded_rows",
    "matvec_families",
    "MatvecMasterBase",
    "FamilyState",
    "RoundContext",
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


@dataclass(frozen=True)
class FamilyState:
    """Geometry of one encoded family (``fwd`` or ``bwd``)."""

    name: str              # payload key on the workers
    true_len: int          # m (fwd) or d (bwd): output length before padding
    operand_len: int       # d (fwd) or m_pad (bwd): broadcast length
    operand_true_len: int  # d (fwd) or m (bwd): operand length pre-padding
    block_rows: int        # rows of each share: m_pad // k (fwd), d_pad // k (bwd)

    def pad_operand(self, field, operand: np.ndarray) -> np.ndarray:
        """Zero-extend a true-length operand to the broadcast length
        (masters accept unpadded operands; padding is internal).

        Accepts a single vector or a ``(len, B)`` batch of ``B``
        operands stacked along the trailing axis, already reduced."""
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

    def stack_operands(self, operands: Sequence[np.ndarray]) -> np.ndarray:
        """The ``(operand_len, B)`` batch of ``B`` reduced vectors, each
        true-length or padded, written straight into one zero-padded
        buffer: no per-operand padded copy."""
        out = np.zeros((self.operand_len, len(operands)), dtype=np.int64)
        for j, op in enumerate(operands):
            if op.ndim != 1 or op.shape[0] not in (self.operand_true_len, self.operand_len):
                raise ValueError(
                    f"{self.name} operand must be a vector of length "
                    f"{self.operand_true_len} (or padded {self.operand_len}), got {op.shape}"
                )
            out[: op.shape[0], j] = op
        return out

    def result_shape(self, operand: np.ndarray) -> tuple[int, ...]:
        """Shape of one worker's honest result for a broadcast (padded)
        ``operand``: its share's rows times the operand's batch
        columns."""
        return (self.block_rows, *operand.shape[1:])


def matvec_families(m: int, d: int, k: int) -> dict[str, FamilyState]:
    """The ``fwd``/``bwd`` geometry of an ``m x d`` dataset cut into
    ``k`` row blocks per family, each side zero-padded to a multiple of
    ``k``."""
    m_pad, d_pad = m + (-m) % k, d + (-d) % k
    return {
        "fwd": FamilyState("fwd", m, d, d, m_pad // k),
        "bwd": FamilyState("bwd", d, m_pad, m, d_pad // k),
    }


@dataclass(frozen=True)
class RoundContext:
    """What a round is verified and decoded against, fixed at plan time.

    A master keeps one context per family and *replaces* it — at
    ``setup``, on a re-code, when workers are dropped — never edits it
    or the objects it holds, so a round planned under the old context
    keeps decoding against exactly what it was planned with (the
    re-entrancy the pipelined scheduler relies on). Any change that
    mutated these objects in place instead would break that contract.
    """

    st: FamilyState           # geometry
    code: Any                 # the code decoded with (None: uncoded)
    code_pos: dict[int, int]  # worker id -> code position
    keys: dict[int, Any]      # worker id -> key (empty: nothing is verified)
    need: int                 # results the decode needs


@dataclass(frozen=True)
class RoundPlan:
    """Everything needed to dispatch and later finalize one round.

    The round lifecycle is an explicit **plan → dispatch → collect →
    finalize** state machine: ``plan_round`` pads/stacks the operands,
    builds the declarative :class:`~repro.runtime.backend.RoundJob`
    and takes the family's current :class:`RoundContext` (keys, code,
    code positions) so the master stays re-entrant — a dynamic re-code
    between plan and finalize can never corrupt an in-flight round's
    bookkeeping. ``dispatch_plan`` hands the job to the backend;
    ``complete_round`` consumes the arrival stream, verifies, decodes
    and traces.

    Attributes
    ----------
    family:
        Encoded family served (``"fwd"``/``"bwd"``), the name stamped
        on the round's record.
    job:
        The declarative broadcast-compute-collect description.
    participants:
        Worker ids the round was planned against (snapshot of the
        master's active pool at plan time).
    context:
        The :class:`RoundContext` the round is verified and decoded
        against.
    width:
        Trailing batch width of the stacked operand (1 = plain vector).
    n_jobs:
        How many session-level jobs the round serves. ``0`` marks a
        *raw* round (``forward_round``-style single operand): the
        finalized vector is returned unsplit.
    """

    family: str
    job: RoundJob
    participants: tuple[int, ...]
    context: RoundContext
    width: int = 1
    n_jobs: int = 0


def _well_formed(value: Any, shape: tuple[int, ...], field: PrimeField | None = None) -> bool:
    """Whether a worker's result is an integer array of ``shape`` (of
    any integer dtype that widens to ``int64`` without loss) and, given
    ``field``, of residues in ``[0, q)``. A verifying master passes no
    field: its verifier's range scan over the claimed value refuses a
    non-residue, so each arrival is still scanned once."""
    return (
        isinstance(value, np.ndarray)
        and value.shape == shape
        and np.can_cast(value.dtype, np.int64)
        and (field is None or field.is_reduced(value))
    )


class MatvecMasterBase:
    """The round skeleton shared by every master.

    Subclasses implement ``setup`` (which installs one
    :class:`RoundContext` per family via :meth:`_install_rounds`), pick
    a collect policy (:attr:`verify_each`, or :meth:`_wait_count`) and
    implement :meth:`_decode`; the round driving here is common and
    backend-agnostic.

    The round lifecycle is split into the :class:`RoundPlan` state
    machine so callers (the session scheduler) can hold several rounds
    in flight: ``plan_round`` → ``dispatch_plan`` → ``complete_round``.
    The blocking helpers (``forward_round`` / ``round_many``) are thin
    compositions of those three stages.
    """

    name = "base"

    #: the session's shared :class:`~repro.obs.audit.AuditLog` when
    #: ``SessionConfig.audit`` is on, ``None`` otherwise. Armed by the
    #: session; with it off, :meth:`_finish` commits nothing and the
    #: finalize path is byte-identical to an unaudited build.
    audit: Any = None

    #: collect policy. ``True``: check every arrival on the master core
    #: against the round's operand and stop at ``need`` accepted
    #: results (AVCC).
    #: ``False``: take results unchecked until :meth:`_wait_count` have
    #: landed (LCC, uncoded).
    verify_each = False

    #: the ``(S, M)`` budget the master was provisioned for, committed
    #: with every audited round
    _budget: tuple[int, int] = (0, 0)

    #: latency-ratio threshold of the *exact-timing* straggler detector:
    #: on backends with a virtual clock (``timing_is_exact`` — the
    #: simulator), a worker is observed as a straggler when its arrival
    #: latency exceeds this multiple of the round's median latency. The
    #: paper does not specify its detector; the median-ratio test flags
    #: exactly the "order of magnitude" slowdowns it describes while
    #: ignoring benign jitter. Wall-clock backends (the socket fleet)
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
        #: family -> the context the next round of that family is planned against
        self._rounds: dict[str, RoundContext] = {}
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
        self._rounds = {}

    # ------------------------------------------------------------------
    # helpers for subclasses
    # ------------------------------------------------------------------
    def _install_rounds(
        self,
        families: dict[str, FamilyState],
        code: Any,
        need: int,
        participants: Sequence[int],
        keys: dict[str, Sequence[Any]] | None = None,
    ) -> None:
        """Plan new rounds against ``families``: worker
        ``participants[i]`` holds share ``i`` of ``code`` and, for a
        verifying master, key ``keys[family][i]``."""
        code_pos = {wid: slot for slot, wid in enumerate(participants)}
        self._rounds = {
            name: RoundContext(
                st, code, code_pos, dict(zip(participants, keys[name])) if keys else {}, need
            )
            for name, st in families.items()
        }

    def _drop_workers(self, worker_ids) -> None:
        """Plan no further round on ``worker_ids``: the roster and every
        family's positions and keys lose them. Surviving positions stay
        valid — the code is unchanged, their redundancy is spent."""
        gone = set(worker_ids)
        self.active = [w for w in self.active if w not in gone]
        self._rounds = {
            name: dc_replace(
                ctx,
                code_pos={w: p for w, p in ctx.code_pos.items() if w not in gone},
                keys={w: key for w, key in ctx.keys.items() if w not in gone},
            )
            for name, ctx in self._rounds.items()
        }

    def _context(self, family: str) -> RoundContext:
        if not self._rounds:
            raise RuntimeError("setup() must be called before rounds")
        try:
            return self._rounds[family]
        except KeyError:
            raise ValueError(f"unknown family {family!r}") from None

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

    @staticmethod
    def _strip(blocks: np.ndarray, true_len: int) -> np.ndarray:
        """Concatenate decoded blocks and strip zero padding."""
        return unpartition_rows(blocks)[:true_len]

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
        """Stage 1: coalesce ``operands`` (same-family jobs, reduced
        residues — the session reduces each at submission, the
        blocking helpers on entry) into one plan. A single operand
        stays a plain vector round; several are written into one
        zero-padded ``(len, B)`` batch served by one broadcast."""
        ops = list(operands)
        if not ops:
            raise ValueError("plan_round needs at least one operand")
        if len(ops) == 1:
            raw = ops[0]
        else:
            raw = self._context(family).st.stack_operands(ops)
        return self._plan_raw(family, raw, n_jobs=len(ops))

    def dispatch_plan(self, plan: RoundPlan) -> RoundHandle:
        """Stage 2: hand the planned job to the backend. Non-blocking on
        every backend — the returned handle is the in-flight round."""
        return self.backend.dispatch_round(plan.job, participants=list(plan.participants))

    def complete_round(self, plan: RoundPlan, handle: RoundHandle):
        """Stages 3+4: consume the arrival stream (per-arrival verify
        where the policy has one), decode, trace. Returns one
        :class:`~repro.core.results.RoundOutcome` per planned job, in
        submission order; they share the round's record."""
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
        ops = [self.field.asarray(op) for op in operands]
        if not ops:
            return []
        plan = self.plan_round(family, ops)
        return self.complete_round(plan, self.dispatch_plan(plan))

    def _round(self, family: str, operand):
        """Blocking raw round (operand may be a pre-stacked batch)."""
        plan = self._plan_raw(family, self.field.asarray(operand))
        return self._complete_raw(plan, self.dispatch_plan(plan))

    def _plan_raw(self, family: str, operand: np.ndarray, n_jobs: int = 0) -> RoundPlan:
        """Pad the reduced operand, build the broadcast job and take the
        family's current context."""
        ctx = self._context(family)
        st = ctx.st
        operand = st.pad_operand(self.field, operand)
        return RoundPlan(
            family=family,
            job=RoundJob(op="matvec", payload_key=st.name, operand=operand),
            participants=tuple(self.active),
            width=1 if operand.ndim == 1 else int(operand.shape[1]),
            n_jobs=n_jobs,
            context=ctx,
        )

    def _complete_raw(self, plan: RoundPlan, handle: RoundHandle) -> RoundOutcome:
        """Stages 3+4 for every master: collect under the master's
        policy, refuse below the recovery threshold, finish."""
        used, rejected, verify_time, t_ready = self._collect(plan, handle)
        rr = handle.result()
        need = plan.context.need
        if len(used) < need:
            what = "verified" if self.verify_each else "collected"
            raise InsufficientResultsError(
                f"{plan.family} round: {len(used)} {what} results, need {need}"
            )
        return self._finish(plan, handle, rr, used, rejected, verify_time, t_ready)

    def _collect(
        self, plan: RoundPlan, handle: RoundHandle
    ) -> tuple[list[Arrival], list[int], float, float]:
        """Consume arrivals in time order until the policy has enough,
        then cancel the round so no backend waits on the remaining
        stragglers.

        A worker may send anything (paper Sec. III-A): an arrival that is
        not an integer array of residues in ``[0, q)`` of the shape the
        plan implies is rejected before any policy sees it (the range
        half of that test is the verifier's own, on a verifying master),
        so it never counts toward ``need`` or the wait count. A
        verifying master checks each other arrival's claimed product
        against the round's broadcast operand on the master core,
        serialized — a check starts once the result landed and the
        previous check finished — until ``need`` pass. The operand side
        of every participant's key is computed once for the round
        (:meth:`~repro.verify.freivalds.FreivaldsVerifier.prepare`).
        Returns ``(used, rejected_ids, verify_time, t_ready)``,
        ``t_ready`` being when the master core holds everything it
        decodes from.
        """
        ctx = plan.context
        shape = ctx.st.result_shape(plan.job.operand)
        used: list[Arrival] = []
        rejected: list[int] = []
        if not self.verify_each:
            wait = self._wait_count(plan)
            for a in handle:
                if not _well_formed(a.value, shape, self.field):
                    rejected.append(a.worker_id)
                    continue
                used.append(a)
                if len(used) == wait:
                    handle.cancel()
                    break
            t_ready = max(used[-1].t_arrival, self._master_free_at(handle)) if used else math.inf
            return used, rejected, 0.0, t_ready
        master_free = self._master_free_at(handle)
        verify_time = 0.0
        operand = self.verifier.prepare(plan.job.operand, ctx.keys.values())
        for a in handle:
            if not _well_formed(a.value, shape):
                rejected.append(a.worker_id)
                continue
            key = ctx.keys[a.worker_id]
            vt = self.cost_model.master_compute_time(
                self.verifier.check_cost_ops(key, plan.width)
            )
            start = max(a.t_arrival, master_free)
            master_free = start + vt
            verify_time += vt
            if self.verifier.check(key, operand, a.value):
                used.append(a)
            else:
                rejected.append(a.worker_id)
            if len(used) == ctx.need:
                handle.cancel()
                break
        return used, rejected, verify_time, master_free

    def _wait_count(self, plan: RoundPlan) -> int:
        """How many results an unverifying master waits for: every
        participant, unless the master has slack to spare."""
        return len(plan.participants)

    def _decode(
        self, plan: RoundPlan, used: list[Arrival], positions: np.ndarray
    ) -> tuple[np.ndarray, float, Sequence[int], bool]:  # pragma: no cover - abstract
        """Recover the round's output from ``used`` (the arrivals the
        collect policy kept, at code ``positions``). Returns ``(output,
        decode_time, faulty, trusted)``: ``faulty`` lists workers the
        decode itself caught lying (LCC's error locator), ``trusted``
        is ``False`` when nothing vouches for the output. A decode may
        reorder ``used`` into the order the record should report."""
        raise NotImplementedError

    def _finish(
        self,
        plan: RoundPlan,
        handle: RoundHandle,
        rr: RoundResult,
        used: list[Arrival],
        rejected: list[int],
        verify_time: float,
        t_ready: float,
    ) -> RoundOutcome:
        """Decode and close the round — the one finish path: note
        rejections, then stragglers, build the record, commit it to the
        audit chain when one is armed, and advance the clock."""
        ctx = plan.context
        last = used[-1]  # the result that gated the round, in time order
        n_collected = len(used) + len(rejected)
        positions = np.asarray([ctx.code_pos[a.worker_id] for a in used])
        output, decode_time, faulty, trusted = self._decode(plan, used, positions)
        verify_ok = trusted and not rejected
        rejected = [*rejected, *faulty]
        used_ids = [a.worker_id for a in used]
        t_end = t_ready + decode_time

        self._iter_rejected.update(rejected)
        self._note_stragglers(rr, used=used_ids)
        bcast_done = rr.t_start + rr.broadcast_time
        record = RoundRecord(
            iteration=self._iteration,
            round_name=plan.family,
            t_start=rr.t_start,
            t_end=t_end,
            compute_wait=max(0.0, last.t_arrival - bcast_done - last.comm_time),
            comm_time=rr.broadcast_time + last.comm_time,
            verify_time=verify_time,
            decode_time=decode_time,
            n_collected=n_collected,
            n_verified=n_collected - len(rejected),
            n_rejected=len(rejected),
            rejected_workers=tuple(rejected),
            used_workers=tuple(used_ids),
            worker_latencies=tuple(
                (a.worker_id, max(0.0, a.t_arrival - bcast_done))
                for a in rr.arrivals
                if math.isfinite(a.t_arrival)
            ),
        )
        if self.audit is not None:
            # every *received* result is digested — rejected workers
            # included, so the evidence of a Byzantine share survives
            # verification — and checked against any digest the daemon
            # countersigned (socket backends): the matching workers are
            # the commitment's ``attested`` set
            digests = {
                int(a.worker_id): digest_array(a.value)
                for a in rr.arrived()
                if a.value is not None
            }
            shipped = getattr(handle, "worker_digests", None) or {}
            self.audit.commit(
                family=plan.family,
                scheme=(*self.scheme_now, *self._budget),
                operand_digest=digest_array(plan.job.operand),
                output_digest=digest_array(output),
                workers=plan.participants,
                worker_digests=sorted(digests.items()),
                attested=sorted(w for w, d in digests.items() if shipped.get(w) == d),
                accepted=[w for w in used_ids if w not in faulty],
                rejected=record.rejected_workers,
                verify_ok=verify_ok,
                t_end=t_end,
            )
        self.backend.advance_to(t_end)
        return RoundOutcome(vector=output, record=record)

    def _reset_iteration_observations(self) -> None:
        self._iteration += 1
        self._iter_rejected = set()
        self._iter_stragglers = set()
        self._iter_rounds = 0

    def end_iteration(self):
        """Default: advance the iteration counter, no adaptation."""
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
