"""Evaluation-style Reed–Solomon codec with Berlekamp–Welch decoding.

This is the decoder the **LCC baseline** depends on (paper Sec. II): a
codeword is the vector of evaluations of a message polynomial of degree
``<= D`` at distinct public points. Correcting ``e`` Byzantine errors
requires ``D + 1 + 2e`` clean evaluations — precisely the "Byzantine
workers cost twice as much as stragglers" overhead (Eq. 1) that AVCC
removes.

Berlekamp–Welch solves, over F_q::

    Q(x_i) = y_i * E(x_i)          for every received point i,

with ``E`` the monic error locator of degree ``e`` and ``Q = P * E`` of
degree ``<= D + e``. Any solution of the linear system yields the
message polynomial ``P = Q / E`` when at most ``e`` errors occurred.
The implementation tries the largest error budget first and walks down,
so callers simply get the best decodable interpretation or a
:class:`DecodingError`.

Vector-valued symbols (each evaluation is a whole coded block) are
handled by decoding column-by-column would be wasteful; instead we run
Berlekamp–Welch on a *random linear projection* of the blocks to locate
the error positions once, then erasure-decode all columns with those
positions excluded. A projection can only mask an error with
probability ``1/q`` per Byzantine worker, the same union bound as
Freivalds verification; the experiments' field makes that ~3e-8.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.ff.field import PrimeField
from repro.ff.gauss import gauss_solve_any
from repro.ff.lagrange import interpolate_eval
from repro.ff.linalg import matvec_reduced
from repro.ff.poly import Poly
from repro.ff.vandermonde import vandermonde_matrix

__all__ = ["DecodingError", "berlekamp_welch", "ReedSolomon", "RSDecodeResult"]


class DecodingError(Exception):
    """Raised when no codeword lies within the error budget."""


def berlekamp_welch(
    field: PrimeField,
    xs,
    ys,
    msg_degree: int,
    max_errors: int | None = None,
) -> tuple[Poly, np.ndarray]:
    """Decode scalar evaluations with at most ``max_errors`` corruptions.

    Parameters
    ----------
    field, xs, ys:
        Distinct evaluation points and received (possibly corrupted)
        values.
    msg_degree:
        Upper bound ``D`` on the true message polynomial degree.
    max_errors:
        Error budget ``e``; defaults to the information-theoretic
        maximum ``(n - D - 1) // 2``.

    Returns
    -------
    (poly, error_positions):
        The decoded message polynomial and the indices (into ``xs``)
        whose received values disagree with it.

    Raises
    ------
    DecodingError
        If no polynomial of degree ``<= D`` agrees with the received
        word in at least ``n - e`` positions.
    """
    xs = field.asarray(xs)
    ys = field.asarray(ys)
    if xs.ndim != 1 or xs.shape != ys.shape:
        raise ValueError("xs and ys must be equal-length 1-D arrays")
    n = xs.size
    if msg_degree < 0:
        raise ValueError("msg_degree must be >= 0")
    if n < msg_degree + 1:
        raise DecodingError(
            f"need at least {msg_degree + 1} evaluations, got {n}"
        )
    cap = (n - msg_degree - 1) // 2
    e_budget = cap if max_errors is None else min(int(max_errors), cap)

    for e in range(e_budget, -1, -1):
        poly = _bw_attempt(field, xs, ys, msg_degree, e)
        if poly is None:
            continue
        resid = (poly(xs) - ys) % field.q
        err_pos = np.nonzero(resid)[0]
        if err_pos.size <= e:
            return poly, err_pos
    raise DecodingError(
        f"no degree-{msg_degree} polynomial within {e_budget} errors of the received word"
    )


def _bw_attempt(
    field: PrimeField, xs: np.ndarray, ys: np.ndarray, d: int, e: int
) -> Poly | None:
    """One Berlekamp–Welch linear solve for a fixed error budget ``e``."""
    q = field.q
    n = xs.size
    n_q = d + e + 1                       # unknown coefficients of Q
    # System columns: [Q_0..Q_{d+e} | E_0..E_{e-1}], E monic of degree e.
    vq = vandermonde_matrix(field, xs, n_q)
    if e > 0:
        ve = vandermonde_matrix(field, xs, e)
        lhs = np.concatenate([vq, (-(ys[:, None] * ve % q)) % q], axis=1)
        x_e = pow_col(field, xs, e)
        rhs = ys * x_e % q
    else:
        lhs = vq
        rhs = ys.copy()
    if lhs.shape[1] > n:
        return None                        # under-determined beyond hope
    sol = gauss_solve_any(field, lhs, rhs)
    if sol is None:
        return None
    q_poly = Poly(field, sol[:n_q])
    e_coeffs = np.concatenate([sol[n_q:], np.ones(1, dtype=np.int64)])
    e_poly = Poly(field, e_coeffs)
    quot, rem = divmod(q_poly, e_poly)
    if not rem.is_zero() or quot.degree > d:
        return None
    return quot


def pow_col(field: PrimeField, xs: np.ndarray, e: int) -> np.ndarray:
    """``xs ** e`` element-wise (helper exposed for tests)."""
    from repro.ff.arith import mod_pow

    return mod_pow(xs, e, field.q)


@dataclass(frozen=True)
class RSDecodeResult:
    """Outcome of a block decode.

    Attributes
    ----------
    values:
        Decoded evaluations at the requested output points, one row per
        point (2-D) or a 1-D vector for scalar symbols.
    error_positions:
        Indices into the *received* list identified as corrupted.
    """

    values: np.ndarray
    error_positions: np.ndarray


class ReedSolomon:
    """Evaluation-domain RS codec over vector symbols.

    Parameters
    ----------
    field:
        Symbol field.
    eval_points:
        The ``N`` public worker points (``alpha`` in the paper).
    msg_degree:
        Degree bound ``D`` of the underlying polynomial
        (``(K + T - 1) * deg f`` for LCC).
    """

    def __init__(self, field: PrimeField, eval_points, msg_degree: int):
        self.field = field
        self.eval_points = field.asarray(eval_points)
        if len(np.unique(self.eval_points)) != self.eval_points.size:
            raise ValueError("evaluation points must be distinct")
        self.msg_degree = int(msg_degree)
        if self.msg_degree < 0:
            raise ValueError("msg_degree must be >= 0")

    # ------------------------------------------------------------------
    def encode_poly(self, poly: Poly) -> np.ndarray:
        """Evaluate a message polynomial at every worker point."""
        if poly.degree > self.msg_degree:
            raise ValueError("message degree exceeds codec bound")
        return poly(self.eval_points)

    def decode(
        self,
        received_indices,
        received_values,
        out_points,
        max_errors: int | None = None,
        rng: np.random.Generator | None = None,
    ) -> RSDecodeResult:
        """Error-correct and re-evaluate at ``out_points``.

        ``received_values`` rows are the (block) symbols returned by the
        workers listed in ``received_indices``. Erasures are implicit:
        any worker not listed is simply absent.
        """
        field = self.field
        idx = np.asarray(received_indices, dtype=np.int64)
        vals = field.asarray(received_values)
        if vals.ndim == 1:
            vals = vals[:, None]
            squeeze = True
        else:
            squeeze = False
        if idx.size != vals.shape[0]:
            raise ValueError("indices/values length mismatch")
        xs = self.eval_points[idx]
        if idx.size < self.msg_degree + 1:
            raise DecodingError(
                f"{idx.size} symbols cannot determine a degree-{self.msg_degree} polynomial"
            )

        slack = idx.size - (self.msg_degree + 1)
        budget = slack // 2 if max_errors is None else min(int(max_errors), slack // 2)

        if budget == 0:
            # Pure erasure decoding: interpolate through everything.
            out = interpolate_eval(field, xs, vals, field.asarray(out_points))
            result = out[:, 0] if squeeze else out
            return RSDecodeResult(result, np.zeros(0, dtype=np.int64))

        # Random projection to locate errors once for all columns.
        if rng is None:
            rng = np.random.default_rng(0xAC0DEC)
        r = field.random(vals.shape[1], rng)
        proj = matvec_reduced(field, vals, r)
        _, err_pos = berlekamp_welch(field, xs, proj, self.msg_degree, budget)

        keep = np.setdiff1d(np.arange(idx.size), err_pos)
        if keep.size < self.msg_degree + 1:
            raise DecodingError("too few clean symbols after error removal")
        out = interpolate_eval(
            field, xs[keep], vals[keep], field.asarray(out_points)
        )
        result = out[:, 0] if squeeze else out
        return RSDecodeResult(result, err_pos)
