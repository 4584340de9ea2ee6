"""The AVCC master (paper Sec. IV).

Per round, the master:

1. broadcasts the operand and lets workers compute over their shares;
2. **verifies each arrival independently** with its Freivalds key the
   moment it lands (serialized on the master core — verification of a
   result can start only when the previous check finished);
3. stops as soon as the recovery threshold of *verified* results is
   reached — the round is cancelled so no backend waits on unneeded
   stragglers, and Byzantine workers are rejected and "effectively
   treated as stragglers" (Sec. IV-A step 4);
4. decodes by Lagrange interpolation over the verified subset.

**What early stopping guarantees.** A result that is *used* was
verified; a result that fails verification is never used, and its
worker is reported (``detected_byzantine``) and dropped at
``end_iteration``. But the master cancels the round at the recovery
threshold, so a Byzantine worker whose result never lands before the
cancel is neither used *nor detected* that round — on a wall-clock
backend that depends on arrival order, and it is fine: the decode is
exact either way. Tests assert this invariant, not the schedule
(``tests/runtime/test_backends.py``); the full adversarial contract is
ROADMAP direction 8.

``end_iteration`` runs the dynamic-coding policy: detected Byzantine
workers are dropped from the pool (their redundancy is spent), and if
the straggler population has eaten the code's slack the master switches
to a pre-encoded smaller configuration, paying only the share re-ship
time (Fig. 5's one-time bump). With ``adaptive=False`` the step is off:
that is Static VCC, the Fig. 5 ablation ("the verification mechanism is
still available to mitigate Byzantine nodes, but the dynamic coding is
removed", Sec. VI), which pays the stragglers' tail once they outnumber
the scheme's slack.

The master is backend-agnostic: it runs unmodified on the simulator
and the socket fleet.
"""

from __future__ import annotations

import numpy as np

from repro.coding.scheme import SchemeParams
from repro.core.base import MatvecMasterBase, RoundPlan, matvec_families
from repro.core.dynamic import AdaptivePolicy, EncodingCache
from repro.core.results import AdaptationOutcome
from repro.runtime.backend import Arrival, Backend
from repro.verify.freivalds import FreivaldsVerifier

__all__ = ["AVCCMaster"]


class AVCCMaster(MatvecMasterBase):
    """Adaptive verifiable coded computing master.

    Parameters
    ----------
    cluster:
        Any execution backend (``backend.n`` must equal ``scheme.n``).
    scheme:
        Deployment parameters; validated against Eq. (2).
    probes:
        Freivalds probes per check (1 in the paper).
    adaptive:
        ``False`` gives Static VCC, the Fig. 5 ablation: verification
        without re-coding, so the master still rejects Byzantine
        results per worker but never drops workers nor re-encodes
        (its :attr:`name` reads ``"static_vcc"``).
    """

    name = "avcc"
    verify_each = True

    def __init__(
        self,
        cluster: Backend,
        scheme: SchemeParams,
        probes: int = 1,
        adaptive: bool = True,
        rng: np.random.Generator | None = None,
    ):
        super().__init__(cluster, rng)
        if scheme.n != cluster.n:
            raise ValueError(f"scheme.n={scheme.n} != cluster.n={cluster.n}")
        scheme.validate_for("avcc")
        if scheme.deg_f != 1:
            raise ValueError("the matvec master serves deg_f=1 rounds")
        if not adaptive:
            self.name = "static_vcc"
        self.scheme = scheme
        self._budget = (scheme.s, scheme.m)
        self.probes = probes
        self.adaptive = adaptive
        self.policy = AdaptivePolicy(mode="mds", deg_f=1)
        self.verifier = FreivaldsVerifier(self.field, probes=probes)
        self._cache: EncodingCache | None = None
        self._cfg = None
        self._k_now = scheme.k

    # ------------------------------------------------------------------
    def setup(self, x_field: np.ndarray) -> float:
        """Encode, distribute and key both families. Returns the
        backend-clock seconds spent shipping shares.

        The master keeps ``x_field``, the codes and the keys, not the
        shares: they are shipped and dropped, and re-encoded bit for
        bit from ``x_field`` whenever a configuration is installed
        again. ``x_field`` is kept by reference when it already holds
        reduced ``int64`` residues, behind a read-only view (see
        :class:`~repro.core.dynamic.EncodingCache`), so the master
        never writes into it. A caller that writes into it after
        ``setup`` gets re-encoded shares that disagree with the keys —
        the rounds that need them raise ``InsufficientResultsError``,
        they never decode wrong bytes — so such a caller passes a copy,
        as ``Session.load`` does."""
        t0 = self.backend.now
        self._cache = EncodingCache(
            self.field, x_field, t=self.scheme.t, probes=self.probes, rng=self.rng
        )
        self._install_config(self.scheme.n, self.scheme.k, self.active)
        return self.backend.now - t0

    def _install_config(self, n: int, k: int, participants: list[int]) -> float:
        """Ship config ``(n, k)`` shares to ``participants`` and let
        them go; returns the transfer time charged to the clock."""
        assert self._cache is not None
        cfg, fwd, bwd = self._cache.shares(n, k)
        t0 = self.backend.now
        self.backend.distribute("fwd", fwd, participants=participants)
        self.backend.distribute("bwd", bwd, participants=participants)
        self._cfg = cfg
        self._k_now = k
        self._install_rounds(
            matvec_families(cfg.m, cfg.d, k),
            cfg.code,
            cfg.code.recovery_threshold(),
            participants,
            keys={"fwd": cfg.fwd_keys, "bwd": cfg.bwd_keys},
        )
        return self.backend.now - t0

    # ------------------------------------------------------------------
    @property
    def scheme_now(self) -> tuple[int, int]:
        return (len(self.active), self._k_now)

    def release(self) -> None:
        super().release()
        self._cache = None
        self._cfg = None

    def _decode(self, plan: RoundPlan, used: list[Arrival], positions: np.ndarray):
        """Lagrange interpolation over the verified subset."""
        ctx = plan.context
        decode_time = self.cost_model.master_compute_time(
            self.lagrange_decode_macs(ctx.need, ctx.code.k, ctx.st.block_rows * plan.width)
        )
        blocks = ctx.code.decode(positions, [a.value for a in used])
        return self._strip(blocks, ctx.st.true_len), decode_time, (), True

    # ------------------------------------------------------------------
    def end_iteration(self) -> AdaptationOutcome:
        m_t_ids = tuple(sorted(self._iter_rejected & set(self.active)))
        s_t_ids = tuple(
            sorted((self._iter_stragglers - self._iter_rejected) & set(self.active))
        )
        reencode_time = 0.0
        dropped: tuple[int, ...] = ()

        if self.adaptive and (m_t_ids or s_t_ids):
            n_t = len(self.active)
            k_t = self._cfg.k
            decision = self.policy.decide(
                n_t, k_t, m_t=len(m_t_ids), s_t=len(s_t_ids), t_t=self.scheme.t
            )
            if m_t_ids:
                dropped = m_t_ids
                self._drop_workers(self._iter_rejected)
                self.backend.drop_workers(dropped)
            if decision.reencode:
                reencode_time = self._install_config(
                    decision.new_n, decision.new_k, self.active
                )

        out = AdaptationOutcome(
            reencode_time=reencode_time,
            scheme=self.scheme_now,
            dropped_workers=dropped,
            observed_stragglers=s_t_ids,
            detected_byzantine=m_t_ids,
        )
        self._reset_iteration_observations()
        return out

    # ------------------------------------------------------------------
    def adopt_membership(
        self,
        joined: tuple[int, ...] | list[int] = (),
        departed: tuple[int, ...] | list[int] = (),
    ) -> float:
        """Reconcile the coding roster with a fleet membership change.

        ``joined`` are workers admitted at this quiesce point (rejoins
        and brand-new capacity alike); ``departed`` are workers gone
        for non-Byzantine reasons (heartbeat-declared deaths, explicit
        releases). Where ``end_iteration`` can only *shrink* K over
        the survivors, this can also **grow** N when capacity arrives:
        the roster is recomputed, K is re-derived from the static
        provisioning target ``K = min(scheme.k, N - (S+M+T))`` (floored
        at the policy minimum) and, whenever any worker joined or K
        changed, a full config for the new ``(N, K)`` is installed —
        re-shipping shares to *every* participant, because a rejoined
        daemon restarts with empty storage. A pure departure at
        unchanged K only prunes positions/keys: the surviving shares
        of the old code remain valid, so nothing is re-shipped.

        Returns the backend-clock seconds spent re-shipping shares
        (0.0 when nothing was shipped).
        """
        if self._cfg is None:
            raise RuntimeError("setup() must be called before membership changes")
        joined = tuple(int(w) for w in joined)
        gone = set(int(w) for w in departed) - set(joined)
        new_active = sorted((set(self.active) - gone) | set(joined))
        if not new_active:
            raise ValueError("membership change would leave no live workers")
        n_new = len(new_active)
        k_now = self._cfg.k
        if self.adaptive:
            budget = self.scheme.s + self.scheme.m + self.scheme.t
            k_new = min(self.scheme.k, n_new - budget, n_new)
            k_new = max(k_new, self.policy.min_k)
        else:
            k_new = k_now
        if joined or k_new != k_now:
            self.active = new_active
            return self._install_config(n_new, k_new, self.active)
        # pure departure at unchanged K: surviving positions stay valid
        self._drop_workers(gone)
        return 0.0
