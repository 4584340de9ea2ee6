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

import numpy as np

from repro.coding.scheme import SchemeParams
from repro.core.base import MatvecMasterBase, RoundPlan, matvec_families
from repro.core.dynamic import EncodingCache
from repro.ff.rs import DecodingError
from repro.runtime.backend import Arrival, Backend

__all__ = ["LCCMaster"]


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
        self._budget = (scheme.s, scheme.m)

    # ------------------------------------------------------------------
    def setup(self, x_field: np.ndarray) -> float:
        t0 = self.backend.now
        cache = EncodingCache(
            self.field, x_field, t=self.scheme.t, rng=self.rng, build_keys=False
        )
        cfg, fwd, bwd = cache.shares(self.scheme.n, self.scheme.k)
        self.backend.distribute("fwd", fwd, participants=self.active)
        self.backend.distribute("bwd", bwd, participants=self.active)
        self._install_rounds(
            matvec_families(cfg.m, cfg.d, cfg.k),
            cfg.code,
            cfg.code.recovery_threshold(),
            self.active,
        )
        return self.backend.now - t0

    @property
    def scheme_now(self) -> tuple[int, int]:
        return (self.scheme.n, self.scheme.k)

    # ------------------------------------------------------------------
    def _wait_count(self, plan: RoundPlan) -> int:
        # LCC must wait for N - S results before it can even *detect*
        # errors (Remark 1) — but not for the stragglers beyond that.
        return self.scheme.n - self.scheme.s

    def _decode(self, plan: RoundPlan, used: list[Arrival], positions: np.ndarray):
        """Berlekamp–Welch error correction over everything collected;
        detection is inside decoding, so nothing is verified before."""
        ctx = plan.context
        need, k = ctx.need, ctx.code.k
        values = np.stack([a.value for a in used])
        block_elems = ctx.st.block_rows * plan.width
        budget = min(self.scheme.m, (len(used) - need) // 2)
        decode_macs = self.bw_decode_macs(
            len(used), k + self.scheme.t - 1, budget, block_elems
        ) + self.lagrange_decode_macs(need, k, block_elems)
        decode_time = self.cost_model.master_compute_time(decode_macs)
        try:
            blocks, err_pos = ctx.code.decode_corrected(
                positions, values, max_errors=self.scheme.m, rng=self.rng
            )
        except DecodingError:
            # Error volume beyond design capacity: decode the fastest
            # K results without correction (poisoned, but the master
            # cannot know — exactly the paper's degradation mode).
            blocks = ctx.code.decode(positions[:need], values[:need])
            return self._strip(blocks, ctx.st.true_len), decode_time, (), False
        faulty = [used[int(i)].worker_id for i in err_pos]
        return self._strip(blocks, ctx.st.true_len), decode_time, faulty, True
