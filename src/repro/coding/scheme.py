"""Resource accounting for coded-computing schemes.

Encodes the paper's two feasibility bounds:

* **LCC** (Eq. 1):  ``N >= (K + T - 1) * deg f + S + 2M + 1``
* **AVCC** (Eq. 2): ``N >= (K + T - 1) * deg f + S + M + 1``

The factor-of-two on ``M`` is the entire point of the paper: LCC pays
two workers per Byzantine node (Reed–Solomon error correction), AVCC
pays one (Freivalds verification turns Byzantine nodes into erasures).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

__all__ = ["SchemeParams"]


@dataclass(frozen=True)
class SchemeParams:
    """Parameters of a coded-computing deployment.

    Attributes
    ----------
    n:
        Number of worker nodes.
    k:
        Number of data partitions (code dimension).
    s:
        Stragglers to tolerate.
    m:
        Byzantine workers to tolerate.
    t:
        Colluding (curious) workers to stay private against.
    deg_f:
        Degree of the polynomial computed on the coded data
        (1 for matrix–vector products, 2 for ``X^T X w``, ...).
    """

    n: int
    k: int
    s: int = 0
    m: int = 0
    t: int = 0
    deg_f: int = 1

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if min(self.s, self.m, self.t) < 0:
            raise ValueError("s, m, t must be non-negative")
        if self.deg_f < 1:
            raise ValueError("deg_f must be >= 1")

    # ------------------------------------------------------------------
    # the paper's bounds
    # ------------------------------------------------------------------
    @property
    def recovery_threshold(self) -> int:
        """Verified results needed to decode: ``(K+T-1) deg f + 1``
        (paper Sec. IV-B step 4)."""
        return (self.k + self.t - 1) * self.deg_f + 1

    @property
    def lcc_required_n(self) -> int:
        """Eq. (1): minimum workers for an ``(N,K,S,M,T)`` LCC scheme."""
        return (self.k + self.t - 1) * self.deg_f + self.s + 2 * self.m + 1

    @property
    def avcc_required_n(self) -> int:
        """Eq. (2): minimum workers for the same guarantees under AVCC."""
        return (self.k + self.t - 1) * self.deg_f + self.s + self.m + 1

    @property
    def lcc_feasible(self) -> bool:
        return self.n >= self.lcc_required_n

    @property
    def avcc_feasible(self) -> bool:
        return self.n >= self.avcc_required_n

    @property
    def byzantine_worker_cost_lcc(self) -> int:
        """Extra workers LCC spends per Byzantine node: always 2."""
        return 2

    @property
    def byzantine_worker_cost_avcc(self) -> int:
        """Extra workers AVCC spends per Byzantine node: always 1."""
        return 1

    # ------------------------------------------------------------------
    # slack / adaptation helpers (used by the dynamic-coding policy)
    # ------------------------------------------------------------------
    def avcc_slack(self) -> int:
        """Spare workers beyond the AVCC bound: how many *additional*
        simultaneous stragglers-or-Byzantines the deployment absorbs."""
        return self.n - self.avcc_required_n

    def lcc_slack(self) -> int:
        return self.n - self.lcc_required_n

    def with_(self, **changes) -> "SchemeParams":
        """Functional update (frozen dataclass)."""
        return replace(self, **changes)

    def validate_for(self, framework: str) -> None:
        """Raise ``ValueError`` if the scheme is infeasible for
        ``framework`` ('avcc' or 'lcc')."""
        if framework == "avcc":
            if not self.avcc_feasible:
                raise ValueError(
                    f"AVCC infeasible: N={self.n} < {self.avcc_required_n} "
                    f"= (K+T-1)deg_f + S + M + 1 (Eq. 2)"
                )
        elif framework == "lcc":
            if not self.lcc_feasible:
                raise ValueError(
                    f"LCC infeasible: N={self.n} < {self.lcc_required_n} "
                    f"= (K+T-1)deg_f + S + 2M + 1 (Eq. 1)"
                )
        else:
            raise ValueError(f"unknown framework {framework!r}")
