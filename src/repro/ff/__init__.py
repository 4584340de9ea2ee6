"""Finite-field substrate for coded computing.

This package provides every piece of modular arithmetic the AVCC stack
needs, implemented with vectorized NumPy on ``int64`` and an explicit
overflow discipline: all products of two reduced residues fit in 50 bits
for the default 25-bit prime, and every accumulation (dot products,
matrix products, convolutions) is chunked so partial sums never exceed
``2**63 - 1``.

Public surface
--------------
``PrimeField``
    A prime field F_q with vectorized element ops.
``DEFAULT_PRIME``
    ``2**25 - 39``, the field the paper uses (largest 25-bit prime).
``Poly``
    Dense univariate polynomials over a ``PrimeField``.
``lagrange_coeff_matrix`` / ``interpolate_eval``
    Lagrange basis machinery used by both the MDS and LCC codecs.
``ReedSolomon``
    Evaluation-style RS codec with Berlekamp–Welch error decoding
    (the decoder LCC relies on for Byzantine tolerance).
"""

from repro.ff.arith import (
    batch_inverse,
    is_prime,
    mod_inverse,
    mod_pow,
)
from repro.ff.field import DEFAULT_PRIME, PrimeField, safe_chunk_len
from repro.ff.gauss import (
    SingularMatrixError,
    gauss_inverse,
    gauss_rank,
    gauss_solve,
    gauss_solve_any,
)
from repro.ff.lagrange import (
    barycentric_weights,
    eval_lagrange_basis,
    interpolate_eval,
    lagrange_coeff_matrix,
)
from repro.ff.linalg import ff_dot, ff_matmul, ff_matvec
from repro.ff.poly import Poly
from repro.ff.rs import DecodingError, ReedSolomon, berlekamp_welch
from repro.ff.vandermonde import vandermonde_matrix, vandermonde_solve

__all__ = [
    "DEFAULT_PRIME",
    "DecodingError",
    "Poly",
    "PrimeField",
    "ReedSolomon",
    "SingularMatrixError",
    "barycentric_weights",
    "batch_inverse",
    "berlekamp_welch",
    "eval_lagrange_basis",
    "ff_dot",
    "ff_matmul",
    "ff_matvec",
    "gauss_inverse",
    "gauss_rank",
    "gauss_solve",
    "gauss_solve_any",
    "interpolate_eval",
    "is_prime",
    "lagrange_coeff_matrix",
    "mod_inverse",
    "mod_pow",
    "safe_chunk_len",
    "vandermonde_matrix",
    "vandermonde_solve",
]
