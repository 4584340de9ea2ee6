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
ROADMAP direction 3.

``end_iteration`` runs the dynamic-coding policy: detected Byzantine
workers are dropped from the pool (their redundancy is spent), and if
the straggler population has eaten the code's slack the master switches
to a pre-encoded smaller configuration, paying only the share re-ship
time (Fig. 5's one-time bump).

The master is backend-agnostic: it runs unmodified on the simulator,
the thread pool, and the process pool.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.coding.scheme import SchemeParams
from repro.core.base import FamilyState, MatvecMasterBase, RoundPlan
from repro.core.dynamic import AdaptivePolicy, EncodingCache
from repro.core.results import AdaptationOutcome, InsufficientResultsError, RoundOutcome
from repro.runtime.backend import Backend, RoundHandle
from repro.verify.freivalds import FreivaldsVerifier, MatvecKey

__all__ = ["AVCCMaster"]


@dataclass(frozen=True)
class _AvccRoundContext:
    """Verification/decoding snapshot taken at plan time.

    ``keys`` and ``code_pos`` are dict copies; ``st`` and ``code`` are
    references into the :class:`EncodedConfig` current at plan time.
    That is enough for re-entrancy because a dynamic re-code
    (``end_iteration`` → ``_install_config``) *replaces*
    ``self._families`` / ``self._cfg`` wholesale — existing
    ``FamilyState`` and code objects are never mutated in place, so a
    round planned under the old configuration keeps decoding against
    exactly the objects it was planned with. Any future change that
    mutates these objects in place instead of replacing them would
    break this contract.
    """

    st: FamilyState
    keys: dict[int, MatvecKey]
    code_pos: dict[int, int]
    code: object
    k: int
    need: int


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
        ``False`` gives Static VCC (verification without re-coding).
    """

    name = "avcc"

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
            raise ValueError(
                "the matvec master serves deg_f=1 rounds; higher degrees use "
                "the generalized verifier directly"
            )
        self.scheme = scheme
        self.probes = probes
        self.adaptive = adaptive
        self.policy = AdaptivePolicy(mode="mds", deg_f=1)
        self.verifier = FreivaldsVerifier(self.field, probes=probes)
        self._cache: EncodingCache | None = None
        self._cfg = None
        self._k_now = scheme.k
        self._code_pos: dict[int, int] = {}
        self._keys: dict[str, dict[int, MatvecKey]] = {}

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
        self._code_pos = {wid: slot for slot, wid in enumerate(participants)}
        self._keys = {
            "fwd": {wid: cfg.fwd_keys[slot] for slot, wid in enumerate(participants)},
            "bwd": {wid: cfg.bwd_keys[slot] for slot, wid in enumerate(participants)},
        }
        self._families = {
            "fwd": FamilyState(
                name="fwd",
                true_len=cfg.m,
                padded_len=cfg.m_pad,
                operand_len=cfg.d,
                operand_true_len=cfg.d,
                block_rows=cfg.m_pad // k,
                block_cols=cfg.d,
            ),
            "bwd": FamilyState(
                name="bwd",
                true_len=cfg.d,
                padded_len=cfg.d_pad,
                operand_len=cfg.m_pad,
                operand_true_len=cfg.m,
                block_rows=cfg.d_pad // k,
                block_cols=cfg.m_pad,
            ),
        }
        return self.backend.now - t0

    # ------------------------------------------------------------------
    @property
    def scheme_now(self) -> tuple[int, int]:
        return (len(self.active), self._k_now)

    def release(self) -> None:
        self._cache = None
        self._cfg = None
        self._keys = {}

    def _plan_raw(self, family: str, operand) -> RoundPlan:
        """Stage 1: pad the operand, build the broadcast job, snapshot
        the verification context (keys/code/positions frozen here)."""
        if self._cfg is None:
            raise RuntimeError("setup() must be called before rounds")
        ctx = _AvccRoundContext(
            st=self._family(family),
            keys=dict(self._keys[family]),
            code_pos=dict(self._code_pos),
            code=self._cfg.code,
            k=self._cfg.k,
            need=self._cfg.code.recovery_threshold(),
        )
        return self._plan_family_round(family, operand, context=ctx)

    def _complete_raw(self, plan: RoundPlan, handle: RoundHandle) -> RoundOutcome:
        """Stages 3+4: verify each arrival as it lands, stop at the
        recovery threshold, decode over the verified subset."""
        ctx: _AvccRoundContext = plan.context
        operand = plan.job.operand
        need = ctx.need

        verified, rejected, verify_time, t_verified = self._collect_verified(
            handle, ctx.keys, operand, need, width=plan.width
        )
        rr = handle.result()
        if len(verified) < need:
            raise InsufficientResultsError(
                f"{plan.family} round: only {len(verified)} verified results, "
                f"need {need}"
            )

        positions = [ctx.code_pos[a.worker_id] for a in verified]
        values = np.stack([a.value for a in verified])
        block_elems = ctx.st.block_rows * plan.width
        decode_time = self.cost_model.master_compute_time(
            self.lagrange_decode_macs(need, ctx.k, block_elems)
        )
        blocks = ctx.code.decode(np.asarray(positions), values)
        vec = self._strip(blocks, ctx.st.true_len)

        t_end = t_verified + decode_time
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
            plan,
            record,
            output=vec,
            accepted=[a.worker_id for a in verified],
            verify_ok=not rejected,
            arrivals=rr.arrived(),
            handle=handle,
        )
        self.backend.advance_to(t_end)
        return RoundOutcome(vector=vec, record=record)

    def _collect_verified(
        self, handle: RoundHandle, keys, operand, need: int, width: int = 1
    ):
        """Consume arrivals in time order, verifying each on the master
        core, until ``need`` results pass — then cancel the round so no
        backend waits on the remaining stragglers. Returns
        ``(verified_arrivals, rejected_ids, verify_work_time, t_done)``.
        """
        master_free = self._master_free_at(handle)
        verified = []
        rejected: list[int] = []
        verify_time = 0.0
        t_done = math.inf
        for a in handle:
            key = keys[a.worker_id]
            vt = self.cost_model.master_compute_time(
                self.verifier.check_cost_ops(key, width)
            )
            start = max(a.t_arrival, master_free)
            master_free = start + vt
            verify_time += vt
            if self.verifier.check(key, operand, a.value):
                verified.append(a)
            else:
                rejected.append(a.worker_id)
            if len(verified) == need:
                t_done = master_free
                handle.cancel()
                break
        return verified, rejected, verify_time, t_done

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
                self.active = [w for w in self.active if w not in self._iter_rejected]
                self._code_pos = {
                    w: p for w, p in self._code_pos.items() if w in self.active
                }
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
        self.active = new_active
        if joined or k_new != k_now:
            return self._install_config(n_new, k_new, self.active)
        # pure departure at unchanged K: surviving positions stay valid
        live = set(self.active)
        self._code_pos = {w: p for w, p in self._code_pos.items() if w in live}
        self._keys = {
            fam: {w: key for w, key in keys.items() if w in live}
            for fam, keys in self._keys.items()
        }
        return 0.0
