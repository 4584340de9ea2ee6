"""Pipelined round scheduler: the mixed-family serving path.

The round batcher collapses B same-family jobs into one round; this
bench quantifies the orthogonal win for rounds that **cannot** batch —
independent jobs on different encoded families (fwd vs. bwd), the
regime of serving many independent requests against one encoded
dataset. The serial scheduler (``max_inflight_rounds = 1``) pays for
each round's full broadcast → compute → collect → verify → decode
chain back to back; the pipelined scheduler overlaps them:

* the master broadcasts round *i+1* while round *i*'s workers compute;
* workers compute round *i+1* while the master verifies/decodes
  round *i* (the per-worker busy-time queues in the simulator make the
  contention real — overlapping rounds queue on the same fleet);
* the steady-state cost per round collapses from the sum of the stages
  to roughly the widest single stage.

Results are byte-identical to serial execution (asserted here; the
cross-backend property test lives in ``tests/api``). The simulated
service-time ratio is deterministic, so the CI perf gate pins it
against ``benchmarks/baselines/metrics.json``.
"""

import numpy as np
import pytest

from _metrics import record_metric
from repro.api import Session, SessionConfig, WorkerSpec
from repro.coding import SchemeParams

N, K = 12, 9
#: serving scale (cf. bench_session): per-round overhead dominates
M_ROWS, D_COLS = 240, 120
#: independent single-job requests, alternating fwd / bwd families
N_JOBS = 24
WINDOW = 8


def _config(cfg, max_inflight, seed=5):
    specs = [WorkerSpec() for _ in range(N)]
    specs[0] = WorkerSpec(straggler_factor=5.0)
    specs[1] = WorkerSpec(behavior="reverse")
    return SessionConfig(
        scheme=SchemeParams(n=N, k=K, s=1, m=1),
        master="avcc",
        backend="sim",
        seed=seed,
        workers=tuple(specs),
        batch_window=1,  # one round per job: isolate pipelining from batching
        max_inflight_rounds=max_inflight,
        cost=cfg.cost_dict(),
    )


@pytest.fixture(scope="module")
def workload():
    rng = np.random.default_rng(20220322)
    from repro.ff import DEFAULT_PRIME, PrimeField

    field = PrimeField(DEFAULT_PRIME)
    x = field.random((M_ROWS, D_COLS), rng)
    jobs = []
    for j in range(N_JOBS):
        if j % 2 == 0:
            jobs.append(("fwd", field.random(D_COLS, rng)))
        else:
            jobs.append(("bwd", field.random(M_ROWS, rng)))
    return field, x, jobs


def _serve(cfg, workload, max_inflight):
    """Run the mixed-family workload; returns (results, sim_time, stats)."""
    field, x, jobs = workload
    with Session.create(_config(cfg, max_inflight)) as sess:
        sess.load(x)
        t0 = sess.now
        handles = [
            sess.submit_matvec(op, transpose=(fam == "bwd")) for fam, op in jobs
        ]
        results = [h.result() for h in handles]
        elapsed = sess.now - t0
    return results, elapsed, sess.stats


def test_pipeline_speedup_and_identical_bytes(cfg, workload):
    """The acceptance pin: >= 1.5x simulated service time on the
    mixed-family serving workload, byte-identical decodes."""
    serial_results, serial_time, serial_stats = _serve(cfg, workload, 1)
    piped_results, piped_time, piped_stats = _serve(cfg, workload, WINDOW)

    assert serial_stats.rounds_executed == piped_stats.rounds_executed == N_JOBS
    assert serial_stats.max_inflight_depth == 1
    assert serial_stats.rounds_overlapped == 0
    assert piped_stats.max_inflight_depth >= 2
    assert piped_stats.rounds_overlapped > 0
    for a, b in zip(serial_results, piped_results):
        assert a.tobytes() == b.tobytes()

    speedup = serial_time / piped_time
    record_metric("pipeline_speedup", speedup)
    record_metric("pipeline_occupancy", piped_stats.pipeline_occupancy)
    assert speedup >= 1.5, (
        f"pipelining should cut mixed-family serving time by >= 1.5x: "
        f"serial {serial_time:.4f}s vs pipelined {piped_time:.4f}s "
        f"({speedup:.2f}x)"
    )
    # the pipeline actually filled (not just double-buffered)
    assert piped_stats.pipeline_occupancy > 2.0
