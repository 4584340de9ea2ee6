"""The uncoded baseline (paper Sec. V).

"No redundancy and only 9 out of the 12 workers participate in the
computation, each of them storing and processing 1/9 fraction of
uncoded rows from the input matrix. The main server waits for all 9
workers to return, and does not need to perform decoding."

Consequences the experiments measure: full exposure to stragglers
(the slowest of the K workers gates every round) and to Byzantine
workers (corrupted blocks flow straight into the result).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.coding.base import partition_rows
from repro.core.base import MatvecMasterBase, RoundPlan, matvec_families, pad_rows_to_multiple
from repro.runtime.backend import Arrival, Backend

__all__ = ["UncodedMaster"]


class UncodedMaster(MatvecMasterBase):
    """Replication-free distributed matvec over ``k`` workers."""

    name = "uncoded"

    def __init__(
        self,
        cluster: Backend,
        k: int,
        participants: Sequence[int] | None = None,
        rng: np.random.Generator | None = None,
    ):
        super().__init__(cluster, rng)
        if not 1 <= k <= cluster.n:
            raise ValueError(f"k={k} out of range for cluster of {cluster.n}")
        self.k = k
        if participants is None:
            participants = list(range(k))
        participants = list(participants)
        if len(participants) != k:
            raise ValueError(f"need exactly k={k} participants")
        self.active = participants

    # ------------------------------------------------------------------
    def setup(self, x_field: np.ndarray) -> float:
        t0 = self.backend.now
        x = self.field.asarray(x_field)
        m, d = x.shape
        x_pad = pad_rows_to_multiple(x, self.k)
        xt_pad = pad_rows_to_multiple(np.ascontiguousarray(x_pad.T), self.k)
        self.backend.distribute(
            "fwd", partition_rows(x_pad, self.k), participants=self.active
        )
        self.backend.distribute(
            "bwd", partition_rows(xt_pad, self.k), participants=self.active
        )
        # participant order IS the block order for the uncoded layout;
        # no slack: the round needs every one of the k blocks
        self._install_rounds(matvec_families(m, d, self.k), None, self.k, self.active)
        return self.backend.now - t0

    @property
    def scheme_now(self) -> tuple[int, int]:
        return (self.k, self.k)

    # ------------------------------------------------------------------
    def _decode(self, plan: RoundPlan, used: list[Arrival], positions: np.ndarray):
        """No decoding: concatenate the blocks in position order. Nothing
        is ever checked, so the output is never vouched for."""
        order = plan.context.code_pos
        used.sort(key=lambda a: order[a.worker_id])
        blocks = np.stack([a.value for a in used])
        return self._strip(blocks, plan.context.st.true_len), 0.0, (), False
