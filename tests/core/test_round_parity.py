"""Pinned bytes and timings: one seeded ``sim`` run per master.

Every master runs through a :class:`~repro.api.Session` with audit on,
over a fleet with one ``reverse`` Byzantine worker (id 1, attacking
every round) and one 5x straggler (id 0). Each run pins, as constants:

* the digest of every decoded output, in submission order;
* the digest of every field of every :class:`~repro.core.results.
  RoundRecord` (simulated timings included, floats by exact ``repr``);
* the audit chain's head;
* for the four session masters, the digest of the
  :class:`~repro.ml.trainer.TrainingHistory` of a short logistic
  training run on the same session.

A refactor of the round path must leave all of them unchanged.
"""

from __future__ import annotations

import dataclasses
import hashlib

import numpy as np
import pytest

from repro.api import Session
from repro.experiments.common import ExperimentConfig, scenario_config
from repro.ml import DistributedLogisticTrainer

CFG = ExperimentConfig(m=240, d=60, iterations=3, learning_rate=0.1, seed=7)
FAULTS = dict(n_stragglers=1, n_byzantine=1, intermittent=False)

#: method -> (outputs digest, records digest, audit head, history digest)
PINNED = {
    "avcc": (
        "2ffca16620dc84f06d4673cbc8baa2f7",
        "70156aa500704c3bf46421a33948632a",
        "8f455f371ef7e361d8ff6e3759a74af493479b57863e77534da1750dbb14bda6",
        "414140c920c1e1afea359323e8a4f0dc",
    ),
    "static_vcc": (
        "2ffca16620dc84f06d4673cbc8baa2f7",
        "5005535c9a27fae3adba1aa3a9f5371b",
        "86a1f2cb99f69a40077ef742c38dc9b8f930331fa650df4054ce70e97073defb",
        "780a6789a1c0203a92f87473c53dcdc1",
    ),
    "lcc": (
        "2ffca16620dc84f06d4673cbc8baa2f7",
        "a91a5e39ad5a5f8daea5906a38a17952",
        "f8a56df412020a22f4f01c4c7ec0d8f500aa0e671671cb428372ae53e6199f35",
        "4e70c6954d83355f968f8c981959c162",
    ),
    # the Byzantine worker sits in the uncoded fleet's K: its output differs
    "uncoded": (
        "0bebee9c1bde8900a7f646401df675b5",
        "723056f4806c31f926995e7180d17fe0",
        "3ed601f9307b764ed92fc81f1b6bc52155b76f4dedf4a7f81274cf3e39be6e63",
        "c73e95830bacc804fbde6b873dcd6c73",
    ),
}
def _sha(chunks) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk if isinstance(chunk, bytes) else repr(chunk).encode())
    return h.hexdigest()[:32]


def _outputs_digest(vectors) -> str:
    return _sha(
        chunk
        for v in vectors
        for chunk in (v.shape, np.ascontiguousarray(v, dtype=np.int64).tobytes())
    )


def _records_digest(records) -> str:
    return _sha(dataclasses.astuple(r) for r in records)


def _history_digest(history) -> str:
    fields = dataclasses.asdict(history)
    # the plaintext loss is a float64 dgemm: pin it to 9 digits, not to BLAS
    fields["train_loss"] = [float(f"{x:.9g}") for x in fields["train_loss"]]
    return _sha(sorted(fields.items()))


def _matvec_run(sess: Session, rng: np.random.Generator) -> list[np.ndarray]:
    """Single and batched rounds on both families, across an iteration
    boundary (where AVCC drops the Byzantine worker)."""
    ds = CFG.dataset()
    out = []
    for _ in range(2):
        w = sess.field.random(ds.d, rng)
        batch = [sess.submit_matvec(sess.field.random(ds.d, rng)) for _ in range(3)]
        e = sess.field.random(ds.m, rng)
        single = sess.submit_matvec(w)
        sess.flush()
        back = sess.submit_matvec(e, transpose=True)
        out += [single.result(), *(h.result() for h in batch), back.result()]
        sess.end_iteration()
    return out


@pytest.mark.parametrize("method", sorted(PINNED))
def test_session_master_pinned(method):
    config = dataclasses.replace(
        scenario_config(method, CFG, s=1, m=1, **FAULTS), audit=True, batch_window=8
    )
    ds = CFG.dataset()
    with Session.create(config) as sess:
        sess.load(ds.x_train)
        outputs = _matvec_run(sess, np.random.default_rng(5))
        history = DistributedLogisticTrainer(sess, ds, CFG.logistic_config()).train()
        got = (
            _outputs_digest(outputs),
            _records_digest(sess.stats.records),
            sess.audit.head,
            _history_digest(history),
        )
    assert history.method == method
    assert got == PINNED[method]
