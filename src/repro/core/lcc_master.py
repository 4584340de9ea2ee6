"""The LCC baseline master (paper Sec. II / Sec. V).

Differences from AVCC, exactly as the paper characterizes them:

* **No per-worker verification.** Byzantine detection is coupled to
  decoding: the master waits for ``N − S`` results (it "has to wait for
  the results of a sufficient number of workers before identifying the
  Byzantine workers", Remark 1) and runs Reed–Solomon error correction.
* **2M worker overhead.** With the experimental ``(12, 9, S=1, M=1)``
  deployment, 11 received results give slack 2 → exactly one
  correctable error. A second simultaneous attacker exceeds capacity:
  Berlekamp–Welch fails and the baseline falls back to erasure-decoding
  the fastest ``K`` results, silently ingesting poison — which is how
  the paper's Fig. 3(b)/(d) accuracy degradation arises.
* **Static.** The worker pool and code never change.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.coding.scheme import SchemeParams
from repro.core.base import FamilyState, MatvecMasterBase, RoundPlan
from repro.core.dynamic import EncodingCache
from repro.core.results import InsufficientResultsError, RoundOutcome
from repro.ff.rs import DecodingError
from repro.runtime.backend import Backend, RoundHandle

__all__ = ["LCCMaster"]


@dataclass(frozen=True)
class _LccRoundContext:
    """Decoding snapshot taken at plan time (LCC is static, but the
    snapshot keeps in-flight rounds self-contained all the same)."""

    st: FamilyState
    code_pos: dict[int, int]
    code: object
    k: int
    need: int
    wait_count: int


class LCCMaster(MatvecMasterBase):
    """Lagrange coded computing with Reed–Solomon Byzantine tolerance."""

    name = "lcc"

    def __init__(
        self,
        cluster: Backend,
        scheme: SchemeParams,
        rng: np.random.Generator | None = None,
    ):
        super().__init__(cluster, rng)
        if scheme.n != cluster.n:
            raise ValueError(f"scheme.n={scheme.n} != cluster.n={cluster.n}")
        scheme.validate_for("lcc")
        if scheme.deg_f != 1:
            raise ValueError("the matvec master serves deg_f=1 rounds")
        self.scheme = scheme
        self._cfg = None

    # ------------------------------------------------------------------
    def setup(self, x_field: np.ndarray) -> float:
        t0 = self.backend.now
        cache = EncodingCache(
            self.field, x_field, t=self.scheme.t, rng=self.rng, build_keys=False
        )
        cfg, fwd, bwd = cache.shares(self.scheme.n, self.scheme.k)
        self.backend.distribute("fwd", fwd, participants=self.active)
        self.backend.distribute("bwd", bwd, participants=self.active)
        self._cfg = cfg
        k = self.scheme.k
        self._families = {
            "fwd": FamilyState(
                name="fwd", true_len=cfg.m, padded_len=cfg.m_pad,
                operand_len=cfg.d, operand_true_len=cfg.d,
                block_rows=cfg.m_pad // k, block_cols=cfg.d,
            ),
            "bwd": FamilyState(
                name="bwd", true_len=cfg.d, padded_len=cfg.d_pad,
                operand_len=cfg.m_pad, operand_true_len=cfg.m,
                block_rows=cfg.d_pad // k, block_cols=cfg.m_pad,
            ),
        }
        return self.backend.now - t0

    @property
    def scheme_now(self) -> tuple[int, int]:
        return (self.scheme.n, self.scheme.k)

    def release(self) -> None:
        self._cfg = None

    # ------------------------------------------------------------------
    def _plan_raw(self, family: str, operand) -> RoundPlan:
        if self._cfg is None:
            raise RuntimeError("setup() must be called before rounds")
        ctx = _LccRoundContext(
            st=self._family(family),
            code_pos={wid: slot for slot, wid in enumerate(self.active)},
            code=self._cfg.code,
            k=self._cfg.k,
            need=self._cfg.code.recovery_threshold(),
            wait_count=self.scheme.n - self.scheme.s,
        )
        return self._plan_family_round(family, operand, context=ctx)

    def _complete_raw(self, plan: RoundPlan, handle: RoundHandle) -> RoundOutcome:
        ctx: _LccRoundContext = plan.context
        need = ctx.need
        # LCC must wait for N - S results before it can even *detect*
        # errors (Remark 1) — but not for the stragglers beyond that.
        collected = []
        for a in handle:
            collected.append(a)
            if len(collected) == ctx.wait_count:
                handle.cancel()
                break
        rr = handle.result()
        if len(collected) < need:
            raise InsufficientResultsError(
                f"{plan.family} round: {len(collected)} results < threshold {need}"
            )
        t_wait = max(collected[-1].t_arrival, self._master_free_at(handle))

        positions = np.asarray([ctx.code_pos[a.worker_id] for a in collected])
        values = np.stack([a.value for a in collected])
        degree = ctx.k + self.scheme.t - 1
        budget = min(self.scheme.m, (len(collected) - need) // 2)
        decode_macs = self.bw_decode_macs(
            len(collected), degree, budget, ctx.st.block_rows * plan.width
        ) + self.lagrange_decode_macs(need, ctx.k, ctx.st.block_rows * plan.width)
        decode_time = self.cost_model.master_compute_time(decode_macs)

        rejected: list[int] = []
        corrected = True
        try:
            blocks, err_pos = ctx.code.decode_corrected(
                positions, values, max_errors=self.scheme.m, rng=self.rng
            )
            rejected = [collected[int(i)].worker_id for i in err_pos]
        except DecodingError:
            # Error volume beyond design capacity: decode the fastest
            # K results without correction (poisoned, but the master
            # cannot know — exactly the paper's degradation mode).
            blocks = ctx.code.decode(positions[:need], values[:need])
            corrected = False

        vec = self._strip(blocks, ctx.st.true_len)
        t_end = t_wait + decode_time
        self._iter_rejected.update(rejected)
        self._note_stragglers(rr, used=[a.worker_id for a in collected])
        record = self._mk_record(
            round_name=plan.round_name,
            rr=rr,
            last_used=collected[-1],
            t_end=t_end,
            verify_time=0.0,  # detection is inside decoding for LCC
            decode_time=decode_time,
            n_collected=len(collected),
            n_verified=len(collected) - len(rejected),
            rejected=rejected,
            used=[a.worker_id for a in collected],
        )
        self._audit_commit(
            plan, record, output=vec,
            accepted=[a.worker_id for a in collected if a.worker_id not in rejected],
            verify_ok=corrected,
            arrivals=rr.arrived(), handle=handle,
        )
        self.backend.advance_to(t_end)
        return RoundOutcome(vector=vec, record=record)
