"""A worker may send anything (paper Sec. III-A), malformed results too.

A result that is not an integer array of residues in ``[0, q)`` of the
shape its round implies — one row short, a float dtype, an extra axis,
an honest value shifted by a multiple of ``q``, or not an ``int64``
array at all — is rejected the way a failed Freivalds check is, on every master: it never counts toward the
recovery threshold and never raises out of the round. Within the
provisioned budget the round decodes exactly from the other workers and
names the malformed one in ``rejected_workers``; beyond it the master
refuses with ``InsufficientResultsError``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pytest

from repro.coding import SchemeParams
from repro.core import (
    AVCCMaster,
    InsufficientResultsError,
    LCCMaster,
    UncodedMaster,
)
from repro.ff import PrimeField, ff_matmul, ff_matvec
from repro.runtime import DeterministicLatency, SimCluster, SimWorker
from repro.verify import FreivaldsVerifier

F = PrimeField()
N = 12
SCHEME = SchemeParams(n=N, k=9, s=1, m=1)

#: malformed workers (ids 0, 1, ...) that leave each master fewer
#: well-formed results than its recovery threshold: N - need + 1, and
#: one for uncoded, which has no slack at all
BEYOND = {
    "avcc": 4,
    "static_vcc": 4,
    "lcc": 4,
    "uncoded": 1,
    "avcc_batched": 4,  # a (d, B) operand: every result a matrix
}


@dataclass(frozen=True)
class Malformed:
    """Sends its honest result in a form no honest worker produces."""

    kind: str
    is_byzantine = True

    def corrupt(self, result, field, rng):
        if self.kind == "short":
            return result[:-1]
        if self.kind == "float":
            return result.astype(np.float64)
        if self.kind in NON_RESIDUE:  # the right value, not a residue
            return result + NON_RESIDUE[self.kind] * field.q
        if self.kind in NOT_AN_INT64_ARRAY:  # the right value, a wrong type
            return NOT_AN_INT64_ARRAY[self.kind](result)
        return result[np.newaxis]  # wrong ndim


#: multiples of ``q`` added to an honest result: each entry is then
#: congruent to the right one but outside ``[0, q)``
NON_RESIDUE = {"plus_q": 1, "minus_q": -1, "plus_2**30_q": 2**30}

#: an honest result handed over as something other than an ndarray of
#: the round's shape whose dtype widens to ``int64`` without loss
NOT_AN_INT64_ARRAY = {
    "list": lambda r: r.tolist(),
    "scalar": lambda r: r.reshape(-1)[0],
    "empty": lambda r: r[:0],
    "object": lambda r: r.astype(object),
    "uint64": lambda r: r.astype(np.uint64),
    "complex": lambda r: r.astype(np.complex128),
}


def _round(master: str, bad: set[int], kind: str):
    """One sim round of ``master`` with workers ``bad`` malformed (and
    fastest, so every policy collects them); returns ``(outcome,
    expected output)``."""
    workers = [
        SimWorker(i, profile=DeterministicLatency(0.5), behavior=Malformed(kind))
        if i in bad
        else SimWorker(i)
        for i in range(N)
    ]
    backend = SimCluster(F, workers, rng=np.random.default_rng(1))
    rng = np.random.default_rng(0)
    x, w = F.random((36, 8), rng), F.random((8, 4) if master == "avcc_batched" else 8, rng)
    mv = {
        "avcc": lambda: AVCCMaster(backend, SCHEME, rng=rng),
        "avcc_batched": lambda: AVCCMaster(backend, SCHEME, rng=rng),
        "static_vcc": lambda: AVCCMaster(backend, SCHEME, adaptive=False, rng=rng),
        "lcc": lambda: LCCMaster(backend, SCHEME, rng=rng),
        "uncoded": lambda: UncodedMaster(backend, k=SCHEME.k, rng=rng),
    }[master]()
    mv.setup(x)
    return mv.forward_round(w), ff_matmul(F, x, w) if w.ndim == 2 else ff_matvec(F, x, w)


@pytest.mark.parametrize(
    "kind", ["short", "float", "wrong_ndim", *NON_RESIDUE, *NOT_AN_INT64_ARRAY]
)
@pytest.mark.parametrize("master", sorted(BEYOND))
def test_malformed_result_is_rejected_not_raised(master, kind):
    if BEYOND[master] > 1:  # within budget: exact, the worker named
        out, expected = _round(master, {3}, kind)
        np.testing.assert_array_equal(out.vector, expected)
        assert 3 in out.record.rejected_workers
        assert 3 not in out.record.used_workers
    with pytest.raises(InsufficientResultsError):
        _round(master, set(range(BEYOND[master])), kind)


def _verdict(check, *args):
    """A check's outcome: its verdict, or the error it raised."""
    try:
        return check(*args)
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("width", [None, 4])
@pytest.mark.parametrize(
    "kind", ["honest", "short", "float", "wrong_ndim", *NON_RESIDUE, *NOT_AN_INT64_ARRAY]
)
def test_prepared_and_unprepared_checks_agree(kind, width):
    """The round's prepared operand (the master's path) and a plain
    operand (a standalone replay) give every result the same verdict,
    or the same error when it reaches ``check`` unscreened."""
    rng = np.random.default_rng(5)
    verifier = FreivaldsVerifier(F)
    shares = F.random((3, 6, 8), rng)
    keys = verifier.keygen(shares, rng)
    w = F.random(8 if width is None else (8, width), rng)
    prepared = verifier.prepare(w, keys)
    for key, share in zip(keys, shares):
        result = ff_matmul(F, share, w.reshape(8, -1)).reshape((6, *w.shape[1:]))
        if kind != "honest":
            result = Malformed(kind).corrupt(result, F, rng)
        plain = _verdict(verifier.check, key, w, result)
        assert _verdict(verifier.check, key, prepared, result) == plain
        # a uint64 result holds the honest residues: the master's shape
        # and dtype screen (``_well_formed``) refuses it, not the check
        assert (plain is True) == (kind in ("honest", "uint64"))
