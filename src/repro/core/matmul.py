"""AVCC for coded matrix–matrix multiplication.

The second full instantiation of the paper's decoupling principle
(after the matvec masters): **polynomial codes** (Yu et al. [17])
provide straggler resilience for ``C = A @ B``, while per-worker
Freivalds matmul checks provide Byzantine security at one extra worker
per attacker. The resource bound mirrors Eq. (2)::

    N >= p·q + S + M        (AVCC-style)
    N >= p·q + S + 2M       (RS-error-correction style)

Workers hold coded factor pairs ``(A~_i, B~_i)`` and return
``C~_i = A~_i @ B~_i``; the master verifies each arrival against its
stored ``B~_i`` and the precomputed left probe, collects ``pq``
verified evaluations, and interpolates all ``A_j @ B_k`` blocks.
"""

from __future__ import annotations

import itertools
from typing import Sequence

import numpy as np

from repro.coding.base import partition_rows
from repro.coding.polynomial import PolynomialCode
from repro.core.base import MatvecMasterBase, RoundPlan
from repro.core.results import RoundOutcome
from repro.runtime.backend import Arrival, Backend, RoundJob
from repro.verify.matmul import MatmulVerifier

__all__ = ["CodedMatmulAVCCMaster"]


class CodedMatmulAVCCMaster(MatvecMasterBase):
    """Verified, straggler-resilient distributed ``A @ B``.

    Each master instance ships its factor shares under unique payload
    keys (``A#<uid>`` / ``B#<uid>``): a session serves every
    ``submit_matmul`` through a fresh master, and with rounds
    pipelined a later job's ``setup`` must never overwrite factors a
    still-in-flight round is computing on. The factors are fixed at
    ``setup``; a round verifies against the stored ``B~_i``.
    """

    name = "matmul_avcc"
    verify_each = True

    #: per-instance uid source for the unique payload keys
    _uids = itertools.count()

    def __init__(
        self,
        cluster: Backend,
        p: int,
        q: int,
        s: int = 0,
        m: int = 0,
        probes: int = 1,
        rng: np.random.Generator | None = None,
    ):
        super().__init__(cluster, rng)
        required = p * q + s + m
        if cluster.n < required:
            raise ValueError(
                f"need N >= p*q + S + M = {required} workers, cluster has {cluster.n}"
            )
        self.p = p
        self.q = q
        self._budget = (s, m)
        uid = next(CodedMatmulAVCCMaster._uids)
        self._key_a = f"A#{uid}"
        self._key_b = f"B#{uid}"
        self.verifier = MatmulVerifier(self.field, probes=probes)
        self._b_shares = None

    # ------------------------------------------------------------------
    def setup(self, a: np.ndarray, b: np.ndarray) -> float:
        """Encode and distribute both factors; precompute probe keys."""
        t0 = self.backend.now
        field = self.field
        a = field.asarray(a)
        b = field.asarray(b)
        if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
            raise ValueError(f"incompatible factors {a.shape} @ {b.shape}")
        if a.shape[0] % self.p or b.shape[1] % self.q:
            raise ValueError(
                f"p={self.p} must divide A's rows and q={self.q} B's columns"
            )
        a_blocks = partition_rows(a, self.p)
        b_blocks = partition_rows(np.ascontiguousarray(b.T), self.q)
        b_blocks = b_blocks.transpose(0, 2, 1)  # (q, n, r/q) column blocks

        code = PolynomialCode(field, self.backend.n, self.p, self.q)
        a_shares = code.encode_a(a_blocks)
        b_shares = code.encode_b(b_blocks)
        self.backend.distribute(self._key_a, a_shares, participants=self.active)
        self.backend.distribute(self._key_b, b_shares, participants=self.active)
        self._b_shares = b_shares
        keys = [
            self.verifier.keygen_single(a_shares[slot], self.rng)
            for slot in range(len(self.active))
        ]
        self._install_rounds(
            {"matmul": None}, code, code.recovery_threshold, self.active,
            keys={"matmul": keys},
        )
        return self.backend.now - t0

    @property
    def scheme_now(self) -> tuple[int, int]:
        return (len(self.active), self.p * self.q)

    # ------------------------------------------------------------------
    def multiply(self) -> RoundOutcome:
        """One blocking coded round computing the full ``A @ B``."""
        plan = self.plan_round("matmul", ())
        return self._complete_raw(plan, self.dispatch_plan(plan))

    def plan_round(self, family: str, operands: Sequence) -> RoundPlan:
        """Stage 1: the factors are pre-shipped, so the planned round is
        a pure trigger and both arguments are ignored."""
        ctx = self._context("matmul")
        return RoundPlan(
            family="matmul",
            round_name="matmul",
            job=RoundJob(op="matmul", payload_key=self._key_a, rhs_key=self._key_b),
            participants=tuple(self.active),
            width=int(self._b_shares.shape[2]),
            context=ctx,
        )

    def _check(self, plan: RoundPlan, key, arrival: Arrival) -> bool:
        slot = plan.context.code_pos[arrival.worker_id]
        return self.verifier.check(key, self._b_shares[slot], arrival.value)

    def _decode(self, plan: RoundPlan, used: list[Arrival], positions: np.ndarray):
        """Interpolate every ``A_j @ B_k`` block from ``pq`` products."""
        need = plan.context.need
        products = np.stack([a.value for a in used])
        decode_time = self.cost_model.master_compute_time(
            need**3 // 3 + need * need * int(products[0].size)
        )
        blocks = plan.context.code.decode(positions, products)
        return PolynomialCode.assemble(blocks), decode_time, (), True
