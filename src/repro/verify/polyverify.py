"""Generalized AVCC verification: matrix-polynomial results.

Paper Sec. IV-B: "in principle, AVCC can be applied to any polynomial
f". For a square coded matrix ``A`` and a polynomial
``f(x) = c_0 + c_1 x + ... + c_D x^D``, a worker returns the matrix
``Y = f(A) = c_0 I + c_1 A + ... + c_D A^D``. Recomputing ``f(A)``
costs ``O(D·b³)``; the Freivalds-style probe needs only ``O(D·b²)``:

    accept  iff  Y·r == c_0 r + c_1 A r + c_2 A(A r) + ...

for a uniformly random vector ``r`` — the right-hand side is evaluated
with ``D`` matvecs by Horner's rule. Soundness is again ``q^{-p}``
per the standard rank-1 argument applied to ``Y − f(A)``.

The master keeps the coded share ``A`` (it produced it during
encoding), so no precomputed key is needed; this verifier is stateless.
"""

from __future__ import annotations

import numpy as np

from repro.ff.field import PrimeField
from repro.ff.linalg import matmul_reduced, matvec_reduced

__all__ = ["MatrixPolynomialVerifier"]


class MatrixPolynomialVerifier:
    """Probabilistic verifier for ``Y = f(A)`` matrix-polynomial claims."""

    def __init__(self, field: PrimeField, probes: int = 1):
        if probes < 1:
            raise ValueError("probes must be >= 1")
        self.field = field
        self.probes = probes

    def reference_eval(self, share: np.ndarray, coeffs) -> np.ndarray:
        """Honest worker computation ``f(A)`` by Horner (``O(D·b³)``).

        Provided for tests and for simulating honest workers.
        """
        field = self.field
        a = field.asarray(share)
        c = field.asarray(np.atleast_1d(coeffs))
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError("share must be square for matrix polynomials")
        b = a.shape[0]
        out = field.zeros((b, b))
        ident = np.eye(b, dtype=np.int64)
        for ck in c[::-1]:
            out = matmul_reduced(field, out, a)
            out = (out + int(ck) * ident) % field.q
        return out

    def check(
        self,
        share: np.ndarray,
        coeffs,
        claimed: np.ndarray,
        rng: np.random.Generator,
    ) -> bool:
        """Accept iff ``claimed @ r == f(A) @ r`` for random probes ``r``.

        Cost: ``(D + 1)·b²`` MACs per probe versus ``D·b³`` to recompute.
        """
        field = self.field
        a = field.asarray(share)
        y = field.asarray(claimed)
        c = field.asarray(np.atleast_1d(coeffs))
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError("share must be square for matrix polynomials")
        if y.shape != a.shape:
            raise ValueError(f"claimed shape {y.shape} != share shape {a.shape}")
        b = a.shape[0]
        for _ in range(self.probes):
            r = field.random(b, rng)
            # rhs = f(A) r via Horner: acc = c_D r; acc = A acc + c_k r
            acc = int(c[-1]) * r % field.q
            for ck in c[-2::-1]:
                acc = (matvec_reduced(field, a, acc) + int(ck) * r) % field.q
            lhs = matvec_reduced(field, y, r)
            if not np.array_equal(lhs, acc):
                return False
        return True

    def check_cost_ops(self, b: int, degree: int) -> int:
        """MACs per probe: one ``b²`` matvec for the claim plus
        ``degree`` matvecs for the reference side."""
        return self.probes * (degree + 1) * b * b

    def recompute_cost_ops(self, b: int, degree: int) -> int:
        """What re-doing the worker's job would cost: ``degree·b³``."""
        return max(degree, 1) * b**3
