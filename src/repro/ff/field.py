"""Prime-field object: the single source of truth for modulus and dtype.

Every layer above (codecs, verifiers, masters) takes a
:class:`PrimeField` and calls its vectorized element ops instead of
spelling out ``% q`` everywhere. This keeps the overflow discipline in
one place and makes it trivial to run the whole stack over a small field
in tests (e.g. ``q = 97`` for statistical soundness checks) and over the
paper's 25-bit prime in experiments.
"""

from __future__ import annotations

import numpy as np

from repro.ff.arith import batch_inverse, is_prime, mod_inverse, mod_pow

__all__ = ["PrimeField", "DEFAULT_PRIME", "safe_chunk_len", "limb_bits", "float_chunk_len"]

#: The paper's field: the largest 25-bit prime, chosen so that the
#: worst-case GISETTE inner product ``d * (q-1)**2`` with ``d = 5000``
#: fits in a signed 64-bit accumulator (Sec. V, "Quantization and
#: Parameter Selection").
DEFAULT_PRIME: int = 2**25 - 39

_INT64_MAX = np.iinfo(np.int64).max

#: every integer up to this one is a ``float64``
_FLOAT64_EXACT_MAX = 2**53 - 1


def safe_chunk_len(q: int) -> int:
    """Largest inner-dimension chunk with no ``int64`` overflow risk.

    Satisfies ``chunk * (q-1)**2 + (q-1) <= 2**63 - 1`` so that the sum
    of a chunk's products plus a previously reduced accumulator fits.
    """
    return int((_INT64_MAX - (q - 1)) // ((q - 1) ** 2))


def limb_bits(q: int) -> int:
    """``ceil(bits(q-1) / 2)``: the width of each of the two limbs a
    residue is split into for the ``float64`` kernel."""
    return ((q - 1).bit_length() + 1) // 2


def float_chunk_len(q: int) -> int:
    """Largest inner-dimension chunk a ``float64`` accumulator sums exactly.

    Satisfies ``chunk * (q-1) * (2**limb_bits(q) - 1) <= 2**53 - 1``:
    that many products of a residue and a limb are integers whose every
    partial sum ``float64`` represents without rounding.
    """
    return _FLOAT64_EXACT_MAX // ((q - 1) * ((1 << limb_bits(q)) - 1))


class PrimeField:
    """The finite field ``F_q`` for a prime ``q < 2**31``.

    Parameters
    ----------
    q:
        Prime modulus. The bound ``q < 2**31`` guarantees that a product
        of two reduced residues fits in ``int64`` without wrap-around.

    Attributes
    ----------
    q:
        The modulus.
    dtype:
        Always ``numpy.int64``; all element arrays use it.
    chunk:
        Largest inner-dimension length such that ``chunk`` products of
        reduced residues plus one reduced residue still fit in ``int64``.
        :mod:`repro.ff.linalg` splits accumulations at this bound.
    float_chunk:
        The same guard for the ``float64`` (BLAS) kernel of
        :mod:`repro.ff.linalg`: :func:`float_chunk_len` of ``q``.
    """

    __slots__ = ("q", "dtype", "chunk", "float_chunk", "_half")

    def __init__(self, q: int = DEFAULT_PRIME):
        q = int(q)
        if q >= 2**31:
            raise ValueError(
                f"q={q} too large: need q < 2**31 so residue products fit int64"
            )
        if not is_prime(q):
            raise ValueError(f"q={q} is not prime")
        self.q = q
        self.dtype = np.int64
        self.chunk = safe_chunk_len(q)
        self.float_chunk = float_chunk_len(q)
        self._half = (q - 1) // 2

    # ------------------------------------------------------------------
    # construction / conversion
    # ------------------------------------------------------------------
    def asarray(self, x) -> np.ndarray:
        """Coerce to reduced ``int64`` residues in ``[0, q)``.

        Accepts Python ints, lists, or integer arrays (possibly negative
        or unreduced). Floating inputs are rejected: quantization must be
        explicit (see :mod:`repro.ml.quantize`).
        """
        arr = np.asarray(x)
        if arr.size == 0:
            # Empty containers default to float64 in NumPy; they carry no
            # actual float data, so admit them as empty residue arrays.
            return arr.astype(np.int64)
        if arr.dtype.kind == "f":
            raise TypeError(
                "float input to PrimeField.asarray; quantize explicitly first"
            )
        if arr.dtype == object:
            # Python bignums: reduce in object space, then downcast.
            arr = np.asarray(
                [int(v) % self.q for v in arr.reshape(-1)], dtype=np.int64
            ).reshape(arr.shape)
            return arr
        return arr.astype(np.int64, copy=False) % self.q

    def ensure_reduced(self, x) -> np.ndarray:
        """:meth:`asarray` for input that is usually reduced already.

        An ``int64`` array whose entries all lie in ``[0, q)`` is
        returned as is — one min/max scan instead of a ``% q`` pass,
        and no copy; anything else goes through :meth:`asarray`. This
        is how a static operand is validated once at a trust boundary
        (a worker storing a share) without paying for a second array.
        """
        if isinstance(x, np.ndarray) and x.dtype == np.int64 and x.size:
            if x.min() >= 0 and x.max() < self.q:
                return x
        return self.asarray(x)

    def zeros(self, shape) -> np.ndarray:
        return np.zeros(shape, dtype=np.int64)

    def ones(self, shape) -> np.ndarray:
        return np.ones(shape, dtype=np.int64)

    def random(self, shape, rng: np.random.Generator) -> np.ndarray:
        """Uniform field elements. ``rng`` is always explicit (no global
        seeding) so experiments stay reproducible."""
        return rng.integers(0, self.q, size=shape, dtype=np.int64)

    def to_signed(self, x: np.ndarray) -> np.ndarray:
        """Map residues to the centered representative in
        ``[-(q-1)/2, (q-1)/2]`` — the inverse of the two's-complement
        embedding of Sec. V (values above ``(q-1)/2`` are negatives)."""
        x = self.asarray(x)
        return np.where(x > self._half, x - self.q, x)

    def from_signed(self, x) -> np.ndarray:
        """Embed signed integers as residues (negatives wrap mod q)."""
        return self.asarray(x)

    # ------------------------------------------------------------------
    # element ops (all vectorized, all return reduced residues)
    # ------------------------------------------------------------------
    def add(self, a, b) -> np.ndarray:
        return (self.asarray(a) + self.asarray(b)) % self.q

    def sub(self, a, b) -> np.ndarray:
        return (self.asarray(a) - self.asarray(b)) % self.q

    def neg(self, a) -> np.ndarray:
        return (-self.asarray(a)) % self.q

    def mul(self, a, b) -> np.ndarray:
        return self.asarray(a) * self.asarray(b) % self.q

    def pow(self, a, e: int) -> np.ndarray:
        if e < 0:
            return mod_pow(self.inv(a), -e, self.q)
        return mod_pow(self.asarray(a), e, self.q)

    def inv(self, a) -> np.ndarray:
        """Vectorized Fermat inversion; raises on zero."""
        return mod_inverse(self.asarray(a), self.q)

    def batch_inv(self, a) -> np.ndarray:
        """Montgomery batch inversion; see :func:`repro.ff.arith.batch_inverse`."""
        return batch_inverse(self.asarray(a), self.q)

    def div(self, a, b) -> np.ndarray:
        return self.mul(a, self.inv(b))

    # ------------------------------------------------------------------
    # misc
    # ------------------------------------------------------------------
    def distinct_points(self, n: int, *, start: int = 1) -> np.ndarray:
        """Return ``n`` distinct field points ``start, start+1, ...``.

        Used for evaluation/interpolation point sets (the paper's
        ``alpha`` and ``beta`` sets); raises if the field is too small.
        """
        if n > self.q - start:
            raise ValueError(f"cannot pick {n} distinct points in F_{self.q}")
        return (np.arange(start, start + n, dtype=np.int64)) % self.q

    def __eq__(self, other) -> bool:
        return isinstance(other, PrimeField) and other.q == self.q

    def __hash__(self) -> int:
        return hash(("PrimeField", self.q))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"PrimeField(q={self.q})"
