"""Session-layer round batching: the heavy-traffic path.

The session coalesces concurrently submitted same-family jobs into a
single broadcast round (one ``RoundJob`` serving many jobs). This
bench quantifies the win at the experiments' calibrated scale:

* **rounds**: B batched jobs must execute in exactly 1 round (vs B
  sequential rounds), observable via ``session.stats``;
* **simulated service time**: one broadcast + one straggler exposure +
  one verification sweep + one decode, instead of B of each — the
  per-job cost collapses.

The workload is serving-shaped (many small requests against one
encoded dataset): per-round overheads — broadcast transfer, link
latency, the per-round arrival critical path — dominate there, which
is exactly what coalescing amortizes. At compute-bound figure scale
(m=1200, d=600) the protocol savings still exist but shrink to a few
percent of the round, since worker arithmetic scales with B either
way.

Results are byte-identical between the two paths (asserted here; the
full cross-check lives in ``tests/api/test_session.py``).
"""

import numpy as np
import pytest

from _metrics import record_metric
from repro.api import Session, SessionConfig, WorkerSpec
from repro.coding import SchemeParams

N, K = 12, 9
BATCH = 16
#: serving scale: GISETTE-like structure, small enough that per-round
#: overhead (not worker arithmetic) is the dominant cost
M_ROWS, D_COLS = 240, 120


def _config(cfg, seed=5):
    specs = [WorkerSpec() for _ in range(N)]
    specs[0] = WorkerSpec(straggler_factor=5.0)
    specs[1] = WorkerSpec(behavior="reverse")
    return SessionConfig(
        scheme=SchemeParams(n=N, k=K, s=1, m=1),
        master="avcc",
        backend="sim",
        seed=seed,
        workers=tuple(specs),
        batch_window=BATCH,
        cost=cfg.cost_dict(),
    )


@pytest.fixture(scope="module")
def workload():
    rng = np.random.default_rng(20220322)
    from repro.ff import DEFAULT_PRIME, PrimeField

    field = PrimeField(DEFAULT_PRIME)
    x = field.random((M_ROWS, D_COLS), rng)
    ops = [field.random(D_COLS, rng) for _ in range(BATCH)]
    return field, x, ops


def test_batching_serves_identical_bytes_in_less_service_time(cfg, workload):
    """B concurrent jobs through the round batcher run in exactly one
    round; the same B jobs with a ``result()`` barrier between each run
    in B. Pins the batched path's semantics at scale — byte-identical
    decodes and strictly less simulated service time."""
    field, x, ops = workload

    with Session.create(_config(cfg)) as batched:
        batched.load(x)
        t0 = batched.now
        handles = [batched.submit_matvec(w) for w in ops]
        batched_results = [h.result() for h in handles]
        batched_time = batched.now - t0
    stats = batched.stats
    assert stats.rounds_executed == 1
    assert stats.jobs_per_round == [BATCH]
    assert stats.batched_jobs == BATCH
    record_metric("batching_factor", stats.batching_factor)

    with Session.create(_config(cfg)) as sequential:
        sequential.load(x)
        t0 = sequential.now
        seq_results = [sequential.submit_matvec(w).result() for w in ops]
        sequential_time = sequential.now - t0
    assert sequential.stats.rounds_executed == BATCH
    assert sequential.stats.batching_factor == 1.0

    for a, b in zip(batched_results, seq_results):
        np.testing.assert_array_equal(a, b)
    record_metric("batching_speedup", sequential_time / batched_time)
    assert batched_time < sequential_time / 2, (
        f"batching should at least halve serving-scale service time at "
        f"B={BATCH}: {batched_time:.4f}s vs {sequential_time:.4f}s"
    )
