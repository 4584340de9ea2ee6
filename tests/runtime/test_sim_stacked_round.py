"""The simulator's stacked ``matvec`` round against the per-worker one.

``SimCluster.distribute`` keeps a share name as one resident stack and a
round multiplies it in one product; a worker whose share was re-stored
runs ``run_job_compute`` on its own.
The reference here is the same cluster with every worker re-stored
(each share made resident on its own, as a remote worker stores it), so
every product runs per worker. The two must agree on every value's
bytes, dtype and shape, every timestamp, and the generator's state.
"""

import numpy as np
import pytest

import repro.runtime.cluster as cluster_mod
from repro.ff import PrimeField
from repro.ff.linalg import resident_share
from repro.runtime import (
    Honest,
    IntermittentAttack,
    RandomAttack,
    ReversedValueAttack,
    RoundJob,
    SilentFailure,
    SimCluster,
    SimWorker,
)

N = 12
BEHAVIOURS = {
    2: ReversedValueAttack(),
    5: RandomAttack(),
    7: IntermittentAttack(RandomAttack(), probability=0.5),
    9: SilentFailure(),
}
#: (rows, cols) of one share: a stack below the 2**18 residency bound,
#: and batch_wide_sim's share, whose stack of twelve is above it
SHAPES = {"small": (4, 50), "wide": (134, 600)}


class _Jitter:
    """A latency profile that draws from the cluster's generator, so
    the latency draws interleave with the behaviours' in the order
    under test."""

    def __init__(self, factor):
        self.factor = factor

    def sample(self, base_time, rng):
        return base_time * self.factor * (1.0 + 0.2 * rng.random())


def _cluster(field, seed=3):
    workers = [
        SimWorker(
            i, profile=_Jitter(3.0 if i == 4 else 1.0), behavior=BEHAVIOURS.get(i, Honest())
        )
        for i in range(N)
    ]
    return SimCluster(field, workers, rng=np.random.default_rng(seed))


def _pair(field, shares, participants=None):
    """The cluster under test and its per-worker reference, both after
    the same ``distribute``; the reference's workers all re-stored."""
    stacked, reference = _cluster(field), _cluster(field)
    for c in (stacked, reference):
        c.distribute("share", shares, participants=participants)
    slots = participants if participants is not None else range(N)
    for slot, wid in enumerate(slots):
        reference.worker(wid).store(share=resident_share(field, shares[slot]))
    return stacked, reference


def _assert_same_round(field, stacked, reference, job, participants=None):
    got = stacked.dispatch_round(job, participants=participants).result()
    want = reference.dispatch_round(job, participants=participants).result()
    assert (got.t_start, got.broadcast_time) == (want.t_start, want.broadcast_time)
    assert len(got.arrivals) == len(want.arrivals)
    for a, b in zip(got.arrivals, want.arrivals):
        assert a.worker_id == b.worker_id
        assert (a.t_arrival, a.compute_time, a.comm_time) == (
            b.t_arrival,
            b.compute_time,
            b.comm_time,
        )
        assert a.truly_byzantine == b.truly_byzantine
        if b.value is None:
            assert a.value is None
            continue
        assert a.value.dtype == b.value.dtype and a.value.shape == b.value.shape
        assert a.value.tobytes() == b.value.tobytes()
    assert stacked.rng.bit_generator.state == reference.rng.bit_generator.state
    return got


@pytest.fixture
def compute_calls(monkeypatch):
    """How many products ran per worker (through ``run_job_compute``)."""
    calls = []
    real = cluster_mod.run_job_compute

    def counted(field, payload, job):
        calls.append(job.op)
        return real(field, payload, job)

    monkeypatch.setattr(cluster_mod, "run_job_compute", counted)
    return calls


@pytest.fixture
def stack_products(monkeypatch):
    """Left-operand shapes of the products the simulator runs itself
    (not through ``run_job_compute``): the stacked ones."""
    shapes = []
    for name in ("matvec_reduced", "matmul_reduced"):
        real = getattr(cluster_mod, name)

        def counted(field, a, b, _real=real):
            shapes.append(a.shape)
            return _real(field, a, b)

        monkeypatch.setattr(cluster_mod, name, counted)
    return shapes


def _operand(field, k, width, rng):
    return field.random(k if width == 1 else (k, width), rng)


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("width", [1, 64])
def test_stacked_round_is_the_per_worker_round(
    shape, width, rng, compute_calls, stack_products
):
    field = PrimeField()
    b, k = SHAPES[shape]
    shares = field.random((N, b, k), rng)
    stacked, reference = _pair(field, shares)
    resident = np.float64 if N * b * k >= 2**18 else np.int64
    for _ in range(3):  # the generator carries over from round to round
        job = RoundJob(op="matvec", operand=_operand(field, k, width, rng))
        before, stacks_before = len(compute_calls), len(stack_products)
        _assert_same_round(field, stacked, reference, job)
        # the reference ran N products; the stacked cluster none of its
        # own, and one over the whole stack
        assert len(compute_calls) - before == N
        assert stack_products[stacks_before:] == [(N * b, k)]
        assert all(w.payload["share"].dtype == resident for w in stacked.workers)


@pytest.mark.parametrize("width", [1, 64])
def test_chunked_kernels(width, rng):
    """Both kernels' chunked paths: the stacked product over the wide
    stack is chunked as the per-worker one is."""
    field = PrimeField()
    field.chunk, field.float_chunk = 100, 128
    b, k = SHAPES["wide"]
    shares = field.random((N, b, k), rng)
    stacked, reference = _pair(field, shares)
    job = RoundJob(op="matvec", operand=_operand(field, k, width, rng))
    _assert_same_round(field, stacked, reference, job)


@pytest.mark.parametrize("dropped", [[5], [0], [N - 1], [0, 6, N - 1]])
def test_participant_subset(dropped, rng):
    field = PrimeField()
    b, k = SHAPES["wide"]
    shares = field.random((N, b, k), rng)
    stacked, reference = _pair(field, shares)
    participants = [w for w in range(N) if w not in dropped]
    job = RoundJob(op="matvec", operand=_operand(field, k, 64, rng))
    got = _assert_same_round(field, stacked, reference, job, participants)
    assert {a.worker_id for a in got.arrivals} == set(participants)


def test_distributed_to_a_subset_in_any_order(rng):
    field = PrimeField()
    shares = field.random((N - 2, 4, 50), rng)
    participants = [9, 0, 3, 1, 11, 8, 2, 4, 10, 5]
    stacked, reference = _pair(field, shares, participants)
    job = RoundJob(op="matvec", operand=_operand(field, 50, 16, rng))
    _assert_same_round(field, stacked, reference, job, participants)


@pytest.mark.parametrize("width", [1, 64])
def test_restored_worker_computes_its_own_share(width, rng, compute_calls):
    field = PrimeField()
    b, k = SHAPES["wide"]
    shares = field.random((N, b, k), rng)
    stacked, reference = _pair(field, shares)
    other = resident_share(field, field.random((b, k), rng))
    for c in (stacked, reference):
        c.worker(6).store(share=other)
    job = RoundJob(op="matvec", operand=_operand(field, k, width, rng))
    before = len(compute_calls)
    _assert_same_round(field, stacked, reference, job)
    # N per-worker products in the reference, one (worker 6) in the stack's
    assert len(compute_calls) - before == N + 1


def test_results_do_not_alias_across_workers(rng):
    field = PrimeField()
    shares = field.random((N, 4, 50), rng)
    c = _cluster(field)
    for w in c.workers:
        w.behavior = Honest()
    c.distribute("share", shares)
    # worker 1 holds worker 0's very view: its product is its own array
    c.worker(1).store(share=c.worker(0).payload["share"])
    job = RoundJob(op="matvec", operand=_operand(field, 50, 8, rng))
    values = {a.worker_id: a.value for a in c.dispatch_round(job).result().arrivals}
    before = {wid: v.copy() for wid, v in values.items()}
    for wid in (0, 3):
        values[wid][...] = 0
        for other, v in values.items():
            if other not in (0, 3):
                np.testing.assert_array_equal(v, before[other])
    np.testing.assert_array_equal(values[1], before[0])


def test_stack_replaces_the_shares(rng):
    """Set-up converts nothing: each worker stores a view of the
    master's ``int64`` stack. At the stack's first round it takes its
    resident dtype — below the bound it stays the master's array; above
    it, one ``float64`` copy that every worker's share views instead."""
    field = PrimeField()
    small = field.random((N, 4, 50), rng)
    wide = field.random((N,) + SHAPES["wide"], rng)
    c = _cluster(field)
    c.distribute("small", small)
    c.distribute("wide", wide)
    for name, stack in (("small", small), ("wide", wide)):
        assert all(np.shares_memory(w.payload[name], stack) for w in c.workers)
        c.dispatch_round(
            RoundJob(op="matvec", payload_key=name, operand=field.random(stack.shape[2], rng))
        ).result()
    assert all(np.shares_memory(w.payload["small"], small) for w in c.workers)
    stack, views, _ = c._stacks["wide"]
    assert stack.dtype == np.float64 and not np.shares_memory(stack, wide)
    assert all(w.payload["wide"] is v for w, v in zip(c.workers, views))
    assert all(np.shares_memory(v, stack) for v in views)
    c.close()
    assert all(not w.payload for w in c.workers) and not c._stacks
