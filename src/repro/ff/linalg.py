"""Exact dense linear algebra over a prime field, BLAS-backed where it pays.

These functions are the hot path of the whole stack (worker compute,
encoding, decoding, verification all land here). Two kernels compute
the same residues; which one runs depends only on the operand shapes,
``q`` and whether the left operand is a ``float64`` resident share.

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
in ``float64``; the halves are recombined as
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

**The recombination** of a wide product stays in ``float64`` too, and
converts to ``int64`` once. An integer ``0 <= x < 2**53`` is reduced
exactly as ``x - floor(x / q) * q``: the quotient ``x / q`` is
correctly rounded, and the rounding can never carry it up to the next
integer (the gap, at least ``1/q``, exceeds half an ulp of any
quotient below ``2**53 / q``), so the floor is the true quotient and
the product and difference are exact integers. ``R_hi`` is reduced so,
and ``(R_hi mod q) * (2**sh mod q) + R_lo`` is reduced once more. That
sum is an integer below ``2**53`` whenever the chunk's bound on
``R_lo``, ``len * (q-1) * (2**sh - 1)``, leaves room for
``(q-1) * (2**sh mod q)``; in a chunk within a few terms of
``field.float_chunk`` it may not, and there ``R_lo`` is reduced first,
which keeps the sum below ``q * 2**sh + q < 2**49`` (``q < 2**31``,
``sh <= 16``). The high limb is copied to a contiguous array first:
its every later pass is then contiguous, as is the result. On a 2-vCPU
box (default OpenBLAS threading, 150 interleaved calls 2 ms apart, ms
p10 / median), the whole ``float64`` product over the simulated wide
round's stacks took 5.03 / 5.62 with the ``int64`` recombination (an
``int64`` copy and two ``% q`` passes at about 4 ns an element) and
4.55 / 5.03 with this one for ``(1608x600) . (600x128)``, 4.76 / 5.19
against 4.46 / 4.91 for ``(804x1206) . (1206x128)``. Recombining each
row block right after its ``dgemm`` was tried and dropped: a
column-major ``dgemm`` result, which makes either limb contiguous, slowed
the 108-row blocks of the second product by ~0.5 ms. A matvec's
``(n, 2)`` sums are so few that the count of NumPy calls is the cost,
and it keeps the five-call ``int64`` recombination.

**The crossover** (:func:`_use_dgemm`): ``dgemm`` pays once the inner
dimension amortises building ``float64`` copies of both operands and
converting the result back. Measured on a 2-vCPU box (OpenBLAS, 25-bit
prime, median ms of 100 calls; the last rows are ms per share over
twelve 200x2000 or four 667x5000 shares cycled, so none is hot in
cache, as on a fleet of daemons sharing one box, quartiles of 30 passes):

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
train share    200x2000 . 2000, cold 0.64-0.66  0.23-0.24   float
GISETTE share  667x5000 . 5000, cold 5.0-5.6    2.4-2.8     float
==================================  =========  ===========  =====

``dgemm`` breaks even near ``n*k*m = 2**15`` with ``k >= 32`` and is
never ahead for a single row, two columns or ``k <= 16``. The rule sits
above that line with a margin: the ``float64`` kernel runs when
``n >= 8``, ``m >= 8``, one chunk's inner run is at least 64 and
``n*k*m >= 2**18`` — everything it selects is at least 1.9x faster, and
what it leaves on ``int64`` would save under 0.15 ms a call. The margin
is deliberate: ``2**18`` is also where OpenBLAS starts waking worker
threads, and the small products of a serving fleet (twelve daemons on
two cores) are better off never meeting them.

**Resident shares** (:func:`resident_share`). A matrix–vector product
over ``int64`` runs NumPy's own loop, not BLAS, and on a share that is
cold in cache that loop — not memory — is the bound: keeping the share
as ``uint32`` and widening it per 32-row block reads half the bytes and
takes longer (0.71-0.77 ms against 0.64-0.66 on the train share). The
``float64`` kernel needs a ``float64`` left operand, and converting a
share on every round would cost more than the product; so a worker
converts it once, when it stores it, and every later product over it —
a matvec or a batched round — takes the ``float64`` kernel (the last
two rows above; the vector is split into a ``(k, 2)`` limb matrix). The rule is the crossover's own bound
at ``m = 1``: a 2-D share of ``n*k >= 2**18`` entries is resident,
anything smaller stays ``int64`` — the serving and width-64 batch
shares (27x120, 134x600) are below it. A matvec over a resident share
runs in row blocks of at most ``2**18`` multiply-adds (:func:`_dgemm`),
on the calling thread: one threaded ``(667x5000) . (5000x2)`` ``dgemm`` took
8.0 ms on the same box, hot in cache, and the blocked product 1.5-1.6.

**Wide row blocks.** The simulator multiplies a fleet's whole stack of
shares in one call (:mod:`repro.runtime.cluster`): twelve 134x600
shares times a 600x64 operand is one ``(1608x600) . (600x128)``
``dgemm`` over the limbs. As one call that product is bimodal under
OpenBLAS's helper thread. On the same box, 40 calls 4 ms apart ran at
a median of 8.0 ms in one pass and 2.4 ms in the next; ``batch_wide_sim``
read 3400-4600 ops/s on it, against 4300-5600 for the per-worker round.
Blocks of 218 rows ran 2.6-3.7 ms in both passes (6000-9500 ops/s),
134-row blocks 3.0-4.2 ms (6900-8700 ops/s), and 402-row blocks
2.6-2.9 ms with a 32 ms outlier; 536-row blocks were as bimodal as one
call (2100-6800 ops/s). So :func:`_dgemm` runs a wide product (more than
one limb pair) in row blocks of at most ``2**24`` multiply-adds — 218
rows of that stack — written into one output. The blocks are never
thinner than 64 rows: at GISETTE's inner length a ``2**24`` block is 26
rows, and 26-row blocks of one 667x5000 share ran 20.7-22.0 ms against
10.7-13.1 for the one call. A product whose blocks would be that thin
stays one call, as does any of at most ``2**24`` multiply-adds — one
worker's 134x600 share at width 64 is 10.3 M. What the stacked round
saves (quartiles of 40 rounds 2 ms apart; the per-worker column is
twelve ``run_job_compute`` calls, the stacked one the whole
``SimCluster.dispatch_round``):

========================================  ===========  =========
simulated round                           per worker   stacked
========================================  ===========  =========
``fwd``    12 x 134x600 . 600x64          8.4-11.4     7.5-8.4
``bwd``    12 x 67x1200 . 1200x64         10.7-11.7    5.1-5.7
width 1    12 x 134x600 . 600             1.1-1.6      0.60-0.88
========================================  ===========  =========

**Trust boundary.** :func:`ff_matmul`, :func:`ff_matvec` and
:func:`ff_dot` are the validating entry points: they reduce both
operands (a full ``% q`` pass each) and reject floats. Reducing a large
static operand costs more than the product it guards (1.4 ms of a
1.8 ms ``ff_matvec`` on a 200x2000 share), so callers whose operands
are residues *by construction* — a worker's stored share (validated
once, when it is stored, and kept resident), a Freivalds key, an
encoding matrix, a product just computed here — call :func:`matmul_reduced` /
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
    "resident_share",
]


#: the product size from which ``dgemm`` runs (module docstring): the
#: crossover's ``n*k*m`` and the size of a share kept ``float64``
_DGEMM_MIN_MACS = 2**18
#: row blocks of a wide product (module docstring): at most this many
#: multiply-adds, and never thinner than this many rows
_WIDE_BLOCK_MACS = 2**24
_WIDE_BLOCK_ROWS = 64


def _use_dgemm(n: int, k: int, m: int, chunk: int) -> bool:
    """The measured crossover (module docstring); ``chunk`` is the
    longest inner run the ``float64`` kernel may sum at once."""
    return n >= 8 and m >= 8 and min(k, chunk) >= 64 and n * k * m >= _DGEMM_MIN_MACS


def resident_share(field: PrimeField, share) -> np.ndarray:
    """A worker's share, validated once and in the dtype every later
    round multiplies it in (the residency rule, module docstring).

    Validation is :meth:`PrimeField.ensure_reduced`'s: residues pass
    after a range scan, other integers are reduced, floats raise
    ``TypeError``. Residues in an unsigned container (a ``<u4`` store
    frame) skip the ``int64`` copy and are widened once, straight to
    the resident dtype. A 2-D share of at least ``2**18`` entries is
    kept ``float64`` — its every product is then one exact ``dgemm``,
    a matvec included; anything smaller stays ``int64``, as is.
    """
    arr = np.asarray(share)
    if not (arr.dtype.kind == "u" and field.is_reduced(arr)):
        arr = field.ensure_reduced(arr)
    big = arr.ndim == 2 and arr.size >= _DGEMM_MIN_MACS
    return arr.astype(np.float64 if big else np.int64, copy=False)


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


def _dgemm(a: np.ndarray, limbs: np.ndarray) -> np.ndarray:
    """``a @ limbs`` in ``float64``, in row blocks (module docstring):
    over one limb pair (a matvec) of at most ``2**18`` multiply-adds,
    the size below which OpenBLAS keeps to the calling thread; over a
    wide operand of at most ``_WIDE_BLOCK_MACS``, unless a block would
    have fewer than ``_WIDE_BLOCK_ROWS`` rows."""
    n, k = a.shape
    cols = limbs.shape[1]
    wide = cols > 2
    rows = max(1, (_WIDE_BLOCK_MACS if wide else _DGEMM_MIN_MACS) // (k * cols))
    if n <= rows or (wide and rows < _WIDE_BLOCK_ROWS):
        return a @ limbs
    out = np.empty((n, cols), dtype=np.float64)
    for lo in range(0, n, rows):
        np.matmul(a[lo : lo + rows], limbs, out=out[lo : lo + rows])
    return out


def _reduce_float64(x: np.ndarray, q: int, scratch: np.ndarray) -> None:
    """``x %= q`` in place, exactly, for ``float64`` integers in
    ``[0, 2**53)`` (floor-multiply-subtract, module docstring);
    ``scratch`` is a temporary of ``x``'s shape."""
    np.divide(x, q, out=scratch)
    np.floor(scratch, out=scratch)
    scratch *= q
    x -= scratch


def _recombine(sums: np.ndarray, q: int, radix: int, lo_too: bool) -> np.ndarray:
    """``((hi mod q) * radix + lo) mod q`` as ``int64``, for one chunk's
    ``float64`` limb sums ``sums = [lo | hi]`` (module docstring).

    A wide product is recombined in ``float64`` and converted once:
    the ``hi`` sums are reduced, and the ``lo`` sums only when
    ``lo_too`` says their bound leaves no room below ``2**53`` for
    ``(hi mod q) * radix``. A matvec's ``(n, 2)`` sums are so few that
    the number of NumPy calls, not elements, is the cost, and the five
    calls of the ``int64`` recombination are the fewest."""
    m = sums.shape[1] // 2
    if m == 1:
        r = sums.astype(np.int64)
        return (r[:, 1:] % q * radix + r[:, :1]) % q  # < 2**47 + 2**53: no wrap
    hi = np.ascontiguousarray(sums[:, m:])
    scratch = np.empty_like(hi)
    _reduce_float64(hi, q, scratch)
    lo = sums[:, :m]
    if lo_too:
        _reduce_float64(lo, q, scratch)
    hi *= radix
    hi += lo  # an integer below 2**53
    _reduce_float64(hi, q, scratch)
    return hi.astype(np.int64)


def _matmul_float64(a: np.ndarray, b: np.ndarray, q: int, chunk: int) -> np.ndarray:
    """``a @ b % q`` in one ``dgemm`` per chunk; ``b`` is a matrix or a
    vector (split into a ``(k, 2)`` limb matrix), ``a`` is ``int64`` or
    a ``float64`` resident share, used as it is. Each chunk's limb sums
    are recombined by :func:`_recombine`."""
    k = b.shape[0]
    m = b.shape[1] if b.ndim == 2 else 1
    sh = limb_bits(q)
    a_f = a if a.dtype == np.float64 else a.astype(np.float64)
    b2 = b.reshape(k, m)
    limbs = np.empty((k, 2 * m), dtype=np.float64)
    np.bitwise_and(b2, (1 << sh) - 1, out=limbs[:, :m], casting="unsafe")
    np.right_shift(b2, sh, out=limbs[:, m:], casting="unsafe")
    radix = (1 << sh) % q
    out = None
    for c0 in range(0, k, chunk):
        c1 = min(c0 + chunk, k)
        sums = _dgemm(a_f[:, c0:c1], limbs[c0:c1])
        # the lo sums are reduced too only if, plus (hi mod q) * radix,
        # their bound could pass the last integer float64 holds exactly
        lo_too = (c1 - c0) * (q - 1) * ((1 << sh) - 1) + (q - 1) * radix > 2**53 - 1
        part = _recombine(sums, q, radix, lo_too)
        out = part if out is None else (out + part) % q
    return out if b.ndim == 2 else out.reshape(-1)


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
    if a.dtype == np.float64 or _use_dgemm(n, k, m, field.float_chunk):
        res = _matmul_float64(a, b, field.q, field.float_chunk)
        if into is None:
            return res
        into[...] = res
        return into
    return _matmul_int64(a, b, field.q, field.chunk, into)


def matvec_reduced(field: PrimeField, a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``a @ x mod q`` (1-D result) for residues already in ``[0, q)``;
    the core under :func:`ff_matvec`. The ``int64`` kernel, unless
    ``a`` is a ``float64`` resident share (:func:`resident_share`)."""
    _check_2d(a, "a")
    if x.ndim != 1:
        raise ValueError(f"x must be 1-D, got shape {x.shape}")
    if a.shape[1] != x.shape[0]:
        raise ValueError(f"inner dims differ: {a.shape} @ {x.shape}")
    if a.dtype == np.float64:
        return _matmul_float64(a, x, field.q, field.float_chunk)
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
