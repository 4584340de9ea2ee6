"""Exact dense linear algebra over a prime field, BLAS-backed where it pays.

These functions are the hot path of the whole stack (worker compute,
encoding, decoding, verification all land here). Two kernels compute
the same residues; which one runs depends only on the operand shapes
and ``q``.

**The ``int64`` kernel** is ``a @ b % q``. NumPy integer products do not
saturate — they silently wrap — so the inner dimension is split at
``field.chunk`` (:func:`~repro.ff.field.safe_chunk_len`): at most that
many products of reduced residues, plus one reduced accumulator, stay
below ``2**63``.
For the default 25-bit prime the bound is 8192, which covers the
paper's GISETTE shapes (``d = 5000``) in one chunk. NumPy cannot hand
an integer product to BLAS, so this kernel runs a plain C loop at about
1 ns per multiply-accumulate.

**The ``float64`` kernel** hands the product to one ``dgemm``. The right
operand is split into two limbs of ``sh = ceil(bits(q-1) / 2)`` bits,
``b = b_lo + 2**sh * b_hi``, and multiplied once as ``a @ [b_lo | b_hi]``
in ``float64``; the halves are recombined in ``int64`` as
``((R_hi mod q) * (2**sh mod q) + R_lo) mod q``. It is exact, not
approximately so: every entry of ``a`` is an integer below ``q`` and
every limb an integer below ``2**sh``, so every product and — over an
inner run of at most ``field.float_chunk`` terms
(:func:`~repro.ff.field.float_chunk_len`) — every partial sum is an
integer below ``2**53``, which ``float64`` represents exactly. Nothing is ever
rounded, so the result does not depend on BLAS's summation order, FMA
contraction or thread count: same residues, same dtype, same bytes as
the ``int64`` kernel. The bound is ``(2**53 - 1) // ((q-1) * (2**sh - 1))``
— 32772 for the 25-bit prime, 64 for ``q = 2**31 - 1`` — and longer
inner dimensions are chunked and reduced between chunks, exactly as
``field.chunk`` guards ``int64``. (Tests shrink ``field.chunk`` /
``field.float_chunk`` to force either kernel's chunked path.)

**The crossover** (:func:`_use_dgemm`): ``dgemm`` pays once the inner
dimension amortises building ``float64`` copies of both operands and
converting the result back. Measured on a 2-vCPU box (OpenBLAS, 25-bit
prime, median ms of 100 calls):

==================================  =========  ===========  =====
``(n x k) . (k x m)``               ``int64``  ``float64``  rule
==================================  =========  ===========  =====
wide share     134x600 . 600x64      5.1        0.81        dgemm
GISETTE share  667x5000 . 5000x64    1210       19          dgemm
inner length   134x64 . 64x256       2.1        0.59        dgemm
inner length   134x16 . 16x256       0.44       0.44        int64
encode         12x9 . 9x80400        9.2        16          int64
few rows       4x4096 . 4096x64      4.3        1.4         int64
few columns    134x4096 . 4096x2     0.72       1.1         int64
Freivalds      1x600 . 600x64        0.038      0.081       int64
serve share    27x120 . 120x16       0.028      0.023       int64
cube           32x64 . 64x32         0.051      0.036       int64
cube           64x128 . 128x64       0.52       0.13        dgemm
==================================  =========  ===========  =====

``dgemm`` breaks even near ``n*k*m = 2**15`` with ``k >= 32`` and is
never ahead for a single row, two columns or ``k <= 16``. The rule sits
above that line with a margin: the ``float64`` kernel runs when
``n >= 8``, ``m >= 8``, one chunk's inner run is at least 64 and
``n*k*m >= 2**18`` — everything it selects is at least 1.9x faster, and
what it leaves on ``int64`` would save under 0.15 ms a call. The margin
is deliberate: ``2**18`` is also where OpenBLAS starts waking worker
threads, and the small products of a serving fleet (twelve daemons on
two cores) are better off never meeting them. For the same reason no
matrix–vector product goes to BLAS: ``a @ x`` on ``int64`` is
memory-bound (0.3 ms for a 200x2000 share) and has nothing to gain.

**Trust boundary.** :func:`ff_matmul`, :func:`ff_matvec` and
:func:`ff_dot` are the validating entry points: they reduce both
operands (a full ``% q`` pass each) and reject floats. Reducing a large
static operand costs more than the product it guards (1.4 ms of a
1.8 ms ``ff_matvec`` on a 200x2000 share), so callers whose operands
are residues *by construction* — a worker's stored share (validated
once, when it is stored), a Freivalds key, an encoding matrix, a
product just computed here — call :func:`matmul_reduced` /
:func:`matvec_reduced` and skip that pass. Anything that arrives from
outside goes through the validating functions or
:meth:`PrimeField.ensure_reduced` first.
"""

from __future__ import annotations

import numpy as np

from repro.ff.field import PrimeField, limb_bits

__all__ = [
    "ff_matmul",
    "ff_matvec",
    "ff_dot",
    "matmul_reduced",
    "matvec_reduced",
]


def _use_dgemm(n: int, k: int, m: int, chunk: int) -> bool:
    """The measured crossover (module docstring); ``chunk`` is the
    longest inner run the ``float64`` kernel may sum at once."""
    return n >= 8 and m >= 8 and min(k, chunk) >= 64 and n * k * m >= 2**18


def _check_2d(a: np.ndarray, name: str) -> None:
    if a.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {a.shape}")


def _matmul_int64(
    a: np.ndarray, b: np.ndarray, q: int, chunk: int, into: np.ndarray | None = None
) -> np.ndarray:
    """``a @ b % q`` for a matrix or a vector ``b``; with ``into``, the
    product is accumulated and reduced in that array (one chunk's
    product is the only temporary, and only when there is a second
    chunk)."""
    k = a.shape[1]
    if into is None:
        if k <= chunk:
            return a @ b % q
        into = np.empty((a.shape[0],) + b.shape[1:], dtype=np.int64)
    if k > chunk:
        a = np.ascontiguousarray(a)  # sliced once per chunk below
    np.matmul(a[:, :chunk], b[:chunk], out=into)
    into %= q
    for lo in range(chunk, k, chunk):
        into += a[:, lo : lo + chunk] @ b[lo : lo + chunk]
        into %= q
    return into


def _matmul_float64(a: np.ndarray, b: np.ndarray, q: int, chunk: int) -> np.ndarray:
    k, m = b.shape
    sh = limb_bits(q)
    a_f = a.astype(np.float64)
    limbs = np.empty((k, 2 * m), dtype=np.float64)
    np.bitwise_and(b, (1 << sh) - 1, out=limbs[:, :m], casting="unsafe")
    np.right_shift(b, sh, out=limbs[:, m:], casting="unsafe")
    radix = (1 << sh) % q
    out = None
    for lo in range(0, k, chunk):
        hi = min(lo + chunk, k)
        r = (a_f[:, lo:hi] @ limbs[lo:hi]).astype(np.int64)
        # (R_hi mod q) * radix < 2**47 and R_lo < 2**53: no int64 wrap
        part = r[:, m:] % q * radix + r[:, :m]
        out = part % q if out is None else (out + part) % q
    return out


def matmul_reduced(
    field: PrimeField, a: np.ndarray, b: np.ndarray, into: np.ndarray | None = None
) -> np.ndarray:
    """``a @ b mod q`` for ``int64`` residues the caller guarantees are
    already in ``[0, q)`` — no reduction pass, no dtype check.

    The core under :func:`ff_matmul`; see the module docstring for who
    may call it directly. ``a`` is ``(n, k)``, ``b`` is ``(k, m)``; any
    strides (a transposed view is fine).

    ``into``, when given, is the ``(n, m)`` ``int64`` array the result
    is written to (and returned): the ``int64`` kernel accumulates and
    reduces there, so a product whose inner dimension fits one
    ``field.chunk`` allocates nothing. It must not overlap ``a`` or
    ``b``.
    """
    _check_2d(a, "a")
    _check_2d(b, "b")
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"inner dims differ: {a.shape} @ {b.shape}")
    (n, k), m = a.shape, b.shape[1]
    if into is not None and (into.shape != (n, m) or into.dtype != np.int64):
        raise ValueError(
            f"destination must be int64 of shape {(n, m)}, got "
            f"{into.dtype} {into.shape}"
        )
    if _use_dgemm(n, k, m, field.float_chunk):
        res = _matmul_float64(a, b, field.q, field.float_chunk)
        if into is None:
            return res
        into[...] = res
        return into
    return _matmul_int64(a, b, field.q, field.chunk, into)


def matvec_reduced(field: PrimeField, a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``a @ x mod q`` (1-D result) for residues already in ``[0, q)``;
    the core under :func:`ff_matvec`. Always the ``int64`` kernel."""
    _check_2d(a, "a")
    if x.ndim != 1:
        raise ValueError(f"x must be 1-D, got shape {x.shape}")
    if a.shape[1] != x.shape[0]:
        raise ValueError(f"inner dims differ: {a.shape} @ {x.shape}")
    return _matmul_int64(a, x, field.q, field.chunk)


def ff_matmul(field: PrimeField, a, b) -> np.ndarray:
    """``a @ b mod q``, exact for any inner dimension.

    ``a`` is ``(n, k)``, ``b`` is ``(k, m)``; both are reduced first.
    """
    return matmul_reduced(field, field.asarray(a), field.asarray(b))


def ff_matvec(field: PrimeField, a, x) -> np.ndarray:
    """``a @ x mod q`` for a matrix and a vector (1-D result); both are
    reduced first."""
    return matvec_reduced(field, field.asarray(a), field.asarray(x))


def ff_dot(field: PrimeField, x, y) -> int:
    """Inner product of two vectors mod q (returns a Python int)."""
    x = field.asarray(x)
    y = field.asarray(y)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError(f"ff_dot needs equal-length 1-D vectors, got {x.shape}, {y.shape}")
    k = x.shape[0]
    chunk = field.chunk
    if k <= chunk:
        return int(x @ y % field.q)
    acc = 0
    for lo in range(0, k, chunk):
        hi = min(lo + chunk, k)
        acc = (acc + int(x[lo:hi] @ y[lo:hi])) % field.q
    return acc
