"""Generalized AVCC: a degree-2 (gramian) coded computation.

The matvec masters serve ``deg f = 1`` rounds. This master demonstrates
the paper's generalization claim (Sec. IV-B: "in principle, AVCC can be
applied to any polynomial f") on the canonical degree-2 workload:

    g = X^T X w = sum_j X_j^T X_j w,      f(X_j) = X_j^T X_j w.

Workers hold a single coded share ``X~_i`` and return both the
intermediate ``z~_i = X~_i w`` and the gramian product
``g~_i = X~_i^T z~_i``. Because ``f`` has degree 2 in the share, the
master needs ``(K + T - 1)·2 + 1`` *verified* evaluations (Eq. 14) —
which is exactly what :class:`~repro.coding.scheme.SchemeParams` with
``deg_f = 2`` accounts for — and verification uses the two-stage
Freivalds protocol (both stages are linear, soundness ``2/q``).

One-round linear regression: ``∇ = (X^T X w − X^T y)/m`` where the
constant ``X^T y`` is computed once at setup.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace as dc_replace
from typing import Sequence

import numpy as np

from repro.coding.lcc import LagrangeCode
from repro.coding.scheme import SchemeParams
from repro.core.base import MatvecMasterBase, RoundPlan, encode_padded_rows
from repro.core.results import InsufficientResultsError, RoundOutcome
from repro.runtime.backend import Backend, RoundHandle, RoundJob
from repro.verify.twostage import TwoStageVerifier

__all__ = ["GramianAVCCMaster"]


@dataclass(frozen=True)
class _GramianRoundContext:
    """Verification/decoding snapshot taken at plan time."""

    keys: dict[int, object]
    code_pos: dict[int, int]
    code: LagrangeCode
    need: int
    b: int
    d: int


class GramianAVCCMaster(MatvecMasterBase):
    """AVCC master for the degree-2 computation ``g = X^T X w``."""

    name = "gramian_avcc"

    def __init__(
        self,
        cluster: Backend,
        scheme: SchemeParams,
        probes: int = 1,
        rng: np.random.Generator | None = None,
    ):
        super().__init__(cluster, rng)
        if scheme.n != cluster.n:
            raise ValueError(f"scheme.n={scheme.n} != cluster.n={cluster.n}")
        if scheme.deg_f != 2:
            raise ValueError("GramianAVCCMaster requires deg_f=2 in the scheme")
        scheme.validate_for("avcc")
        self.scheme = scheme
        self.verifier = TwoStageVerifier(self.field, probes=probes)
        self._code: LagrangeCode | None = None
        self._keys = None
        self._code_pos: dict[int, int] = {}
        self._m = 0
        self._m_pad = 0
        self._d = 0

    # ------------------------------------------------------------------
    def setup(self, x_field: np.ndarray) -> float:
        t0 = self.backend.now
        x = self.field.ensure_reduced(x_field)
        if x.ndim != 2:
            raise ValueError("dataset must be a matrix")
        self._m, self._d = x.shape
        k = self.scheme.k
        self._code = LagrangeCode(
            self.field, n=self.scheme.n, k=k, t=self.scheme.t
        )
        shares = encode_padded_rows(
            self._code, x, self._d, self.rng if self.scheme.t else None
        )
        self._m_pad = k * shares.shape[1]
        self.backend.distribute("gram", shares, participants=self.active)
        self._keys = {
            wid: self.verifier.keygen_single(shares[slot], self.rng)
            for slot, wid in enumerate(self.active)
        }
        # code position (alpha index) of each worker, frozen at encoding
        # time — stays valid when workers are later dropped
        self._code_pos = {wid: slot for slot, wid in enumerate(self.active)}
        return self.backend.now - t0

    def drop_workers(self, worker_ids) -> None:
        """Stop dispatching to ``worker_ids`` (e.g. Byzantine workers the
        matvec master evicted): their redundancy is spent, the code is
        unchanged. The backend pool itself is managed by the caller."""
        dead = set(int(w) for w in worker_ids)
        self.active = [w for w in self.active if w not in dead]
        if self._keys is not None:
            self._keys = {w: k for w, k in self._keys.items() if w not in dead}
        self._code_pos = {
            w: p for w, p in getattr(self, "_code_pos", {}).items() if w not in dead
        }

    @property
    def scheme_now(self) -> tuple[int, int]:
        return (len(self.active), self.scheme.k)

    # ------------------------------------------------------------------
    def plan_round(self, family: str, operands: Sequence[np.ndarray]) -> RoundPlan:
        """Stage 1 for the degree-2 family: stack the operands into a
        ``(d, B)`` batch (no padding — operands are full-length) and
        snapshot keys/code/positions."""
        ops = [self.field.asarray(w) for w in operands]
        if not ops:
            raise ValueError("plan_round needs at least one operand")
        raw = ops[0] if len(ops) == 1 else np.stack(ops, axis=1)
        return dc_replace(self._plan_raw(family, raw), n_jobs=len(ops))

    def _plan_raw(self, family: str, operand) -> RoundPlan:
        if self._code is None:
            raise RuntimeError("setup() must be called before rounds")
        w = self.field.asarray(operand)
        if w.ndim not in (1, 2) or w.shape[0] != self._d:
            raise ValueError(f"operand must have length {self._d}, got {w.shape}")
        ctx = _GramianRoundContext(
            keys=dict(self._keys),
            code_pos=dict(self._code_pos),
            code=self._code,
            need=self._code.recovery_threshold(deg_f=2),
            b=self._m_pad // self.scheme.k,
            d=self._d,
        )
        return RoundPlan(
            family="gram",
            round_name="gramian",
            job=RoundJob(op="gramian", payload_key="gram", operand=w),
            participants=tuple(self.active),
            width=1 if w.ndim == 1 else int(w.shape[1]),
            context=ctx,
        )

    def _complete_raw(self, plan: RoundPlan, handle: RoundHandle) -> RoundOutcome:
        ctx: _GramianRoundContext = plan.context
        field = self.field
        w = plan.job.operand
        need, b, d = ctx.need, ctx.b, ctx.d

        master_free = self._master_free_at(handle)
        verified, rejected, verify_time = [], [], 0.0
        t_done = math.inf
        for a in handle:
            key = ctx.keys[a.worker_id]
            vt = self.cost_model.master_compute_time(
                self.verifier.check_cost_ops(key, plan.width)
            )
            start = max(a.t_arrival, master_free)
            master_free = start + vt
            verify_time += vt
            z_i, g_i = a.value[:b], a.value[b:]
            if self.verifier.check(key, w, z_i, g_i):
                verified.append(a)
            else:
                rejected.append(a.worker_id)
            if len(verified) == need:
                t_done = master_free
                handle.cancel()
                break
        rr = handle.result()
        if len(verified) < need:
            raise InsufficientResultsError(
                f"gramian round: {len(verified)} verified results, need {need}"
            )

        positions = np.asarray([ctx.code_pos[a.worker_id] for a in verified])
        g_vals = np.stack([a.value[b:] for a in verified])
        decode_time = self.cost_model.master_compute_time(
            self.lagrange_decode_macs(need, self.scheme.k, d * plan.width)
        )
        blocks = ctx.code.decode(positions, g_vals, deg_f=2)   # (k, d[, B])
        g = blocks.sum(axis=0) % field.q

        t_end = t_done + decode_time
        self._iter_rejected.update(rejected)
        self._note_stragglers(rr, used=[a.worker_id for a in verified])
        record = self._mk_record(
            round_name=plan.round_name,
            rr=rr,
            last_used=verified[-1],
            t_end=t_end,
            verify_time=verify_time,
            decode_time=decode_time,
            n_collected=len(verified) + len(rejected),
            n_verified=len(verified),
            rejected=rejected,
            used=[a.worker_id for a in verified],
        )
        self._audit_commit(
            plan, record, output=g,
            accepted=[a.worker_id for a in verified],
            verify_ok=not rejected,
            arrivals=rr.arrived(), handle=handle,
        )
        self.backend.advance_to(t_end)
        return RoundOutcome(vector=g, record=record)

    def gramian_round_many(self, operands) -> list[RoundOutcome]:
        """Serve many gramian jobs in one blocking broadcast round (the
        batched analogue of :meth:`MatvecMasterBase.round_many`):
        operands are stacked into a ``(d, B)`` batch, each worker
        returns its ``concat(z, g)`` for all columns, and one decode
        recovers every job. Outcomes share the round's record."""
        ops = list(operands)
        if not ops:
            return []
        plan = self.plan_round("gram", ops)
        return self.complete_round(plan, self.dispatch_plan(plan))

    def gramian_round(self, w) -> RoundOutcome:
        """One blocking coded round computing ``X^T X w``.

        Accepts a single length-``d`` operand or a ``(d, B)`` batch."""
        return self._round("gram", w)
