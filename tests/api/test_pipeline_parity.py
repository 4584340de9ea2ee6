"""Property test: pipelined execution is byte-identical to serial.

For any interleaving of concurrent submissions across the two
encoded families (fwd / bwd), any batching granularity and
any window size, the decoded results of the pipelined scheduler
(``max_inflight_rounds >= 2``) must be byte-identical to the serial
scheduler (``max_inflight_rounds = 1``) — and, on the verified AVCC
master, to the exact ground truth. This holds on both backends:
contention (sim busy-queues, socket demultiplexing by round id) may
reorder arrivals and shift which verified subset a round decodes from,
but any recovery-threshold-sized verified subset interpolates the same
exact values.

The wall-clock backend runs fewer examples (it spins up a daemon fleet
per example); the simulator carries the bulk of the search.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api import Session, SessionConfig, WorkerSpec
from repro.coding import SchemeParams
from repro.ff import PrimeField, ff_matvec

F = PrimeField()
X = F.random((12, 8), np.random.default_rng(41))
XT = np.ascontiguousarray(X.T)
SCHEME = SchemeParams(n=8, k=3, s=1, m=1)

FAMILIES = ("fwd", "bwd")

jobs_strategy = st.lists(
    st.sampled_from(FAMILIES), min_size=1, max_size=6
)


def _config(backend, window, batch_window, seed):
    specs = [WorkerSpec() for _ in range(8)]
    specs[1] = WorkerSpec(straggler_factor=6.0)
    specs[2] = WorkerSpec(behavior="reverse")
    opts = {"straggle_scale": 0.005} if backend == "tcp" else {}
    return SessionConfig(
        scheme=SCHEME,
        master="avcc",
        backend=backend,
        seed=seed,
        workers=tuple(specs),
        batch_window=batch_window,
        max_inflight_rounds=window,
        backend_options=opts,
    )


def _operands(families, data_seed):
    rng = np.random.default_rng(data_seed)
    ops = []
    for fam in families:
        length = 12 if fam == "bwd" else 8
        ops.append(F.random(length, rng))
    return ops


def _expected(fam, op):
    return ff_matvec(F, X if fam == "fwd" else XT, op)


def _serve(backend, families, ops, window, batch_window, seed):
    with Session.create(_config(backend, window, batch_window, seed)) as sess:
        sess.load(X)
        handles = []
        for fam, op in zip(families, ops):
            handles.append(sess.submit_matvec(op, transpose=fam == "bwd"))
        return [h.result() for h in handles]


def _check_parity(backend, families, window, batch_window, data_seed):
    ops = _operands(families, data_seed)
    serial = _serve(backend, families, ops, 1, batch_window, seed=data_seed)
    piped = _serve(backend, families, ops, window, batch_window, seed=data_seed)
    for fam, op, a, b in zip(families, ops, serial, piped):
        assert a.tobytes() == b.tobytes(), (backend, fam, window, batch_window)
        np.testing.assert_array_equal(b, _expected(fam, op), err_msg=str((backend, fam)))


class TestPipelinedParity:
    @settings(max_examples=25, deadline=None)
    @given(
        families=jobs_strategy,
        window=st.integers(min_value=2, max_value=4),
        batch_window=st.sampled_from([1, 2, 32]),
        data_seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_sim(self, families, window, batch_window, data_seed):
        _check_parity("sim", families, window, batch_window, data_seed)

    @settings(
        max_examples=3, deadline=None, suppress_health_check=[HealthCheck.too_slow]
    )
    @given(
        families=jobs_strategy,
        window=st.integers(min_value=2, max_value=3),
        batch_window=st.sampled_from([1, 32]),
        data_seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_tcp(self, families, window, batch_window, data_seed):
        _check_parity("tcp", families, window, batch_window, data_seed)
