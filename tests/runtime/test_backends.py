"""Cross-backend contract tests.

The point of the ``Backend`` protocol is that a master's output is a
property of the *protocol*, not of the execution substrate. These
tests pin that down:

* **parity** — for the same seed, scheme and Byzantine/straggler
  assignment, the decoded vectors of every master must be
  byte-identical across the simulator, the thread pool, the process
  pool and the TCP socket fleet (exact field arithmetic makes this a
  hard equality, regardless of real-execution arrival order);
* **early stopping** — once the verified-recovery threshold is met the
  round is cancelled, so the real backends must not pay a straggler's
  tail latency the master does not need.
"""

import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.coding import SchemeParams
from repro.core import AVCCMaster, LCCMaster, UncodedMaster
from repro.ff import PrimeField, ff_matmul, ff_matvec
from repro.runtime import (
    Backend,
    ConstantAttack,
    Honest,
    ProcessCluster,
    ReversedValueAttack,
    RoundJob,
    SilentFailure,
    SimCluster,
    SimWorker,
    TcpCluster,
    ThreadedCluster,
    make_profiles,
)

F = PrimeField()  # the paper's field: exactness must hold at full size

BACKENDS = ["sim", "threaded", "process", "tcp"]
REAL_BACKENDS = ["threaded", "process", "tcp"]

#: (straggler_factors, behaviors) — each must stay within the
#: (n=12, k=9, s=1, m=2) scheme's tolerance so decoding is exact
SCENARIOS = {
    "clean": ({}, {}),
    "stragglers": ({0: 6.0, 5: 3.0}, {}),
    "byzantine": ({}, {3: ReversedValueAttack(), 7: ConstantAttack()}),
    "mixed": ({2: 5.0}, {9: ConstantAttack(value=77)}),
}


def _fleet(n, straggler_factors, behaviors):
    profiles = make_profiles(n, straggler_factors)
    return [
        SimWorker(i, profile=profiles[i], behavior=behaviors.get(i, Honest()))
        for i in range(n)
    ]


def _make_backend(kind, n, straggler_factors, behaviors, straggle_scale=0.01):
    workers = _fleet(n, straggler_factors, behaviors)
    if kind == "sim":
        return SimCluster(F, workers, rng=np.random.default_rng(3))
    if kind == "threaded":
        return ThreadedCluster(F, workers, straggle_scale=straggle_scale)
    if kind == "process":
        return ProcessCluster(F, workers, straggle_scale=straggle_scale)
    if kind == "tcp":
        return TcpCluster(F, workers, straggle_scale=straggle_scale)
    raise ValueError(kind)


class TestProtocolConformance:
    @pytest.mark.parametrize("kind", BACKENDS)
    def test_is_backend_and_serves_matvec_jobs(self, kind, rng):
        shares = F.random((4, 3, 5), rng)
        v = F.random(5, rng)
        with _make_backend(kind, 4, {}, {}) as backend:
            assert isinstance(backend, Backend)
            backend.distribute("share", shares)
            handle = backend.dispatch_round(RoundJob(payload_key="share", operand=v))
            arrivals = list(handle)
            rr = handle.result()
        assert sorted(a.worker_id for a in arrivals) == [0, 1, 2, 3]
        for a in arrivals:
            np.testing.assert_array_equal(a.value, ff_matvec(F, shares[a.worker_id], v))
        # arrival stream and full result agree
        assert {a.worker_id for a in rr.arrived()} == {a.worker_id for a in arrivals}
        assert all(
            a.t_arrival >= rr.t_start + rr.broadcast_time for a in rr.arrived()
        )

    @pytest.mark.parametrize("kind", BACKENDS)
    def test_silent_worker_never_arrives(self, kind, rng):
        shares = F.random((3, 2, 4), rng)
        v = F.random(4, rng)
        with _make_backend(kind, 3, {}, {1: SilentFailure()}) as backend:
            backend.distribute("share", shares)
            handle = backend.dispatch_round(RoundJob(payload_key="share", operand=v))
            arrivals = list(handle)
            rr = handle.result()
        assert sorted(a.worker_id for a in arrivals) == [0, 2]
        silent = [a for a in rr.arrivals if a.worker_id == 1]
        assert len(silent) == 1 and math.isinf(silent[0].t_arrival)


class TestBackendParity:
    """Property: decoded output is substrate-independent.

    Exactness over F_q means any K verified results decode to the same
    blocks, so the real backends' nondeterministic arrival order must
    not leak into the result — byte-for-byte.
    """

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("scenario", sorted(SCENARIOS))
    def test_avcc_decodes_identically_everywhere(self, scenario, seed):
        straggler_factors, behaviors = SCENARIOS[scenario]
        data_rng = np.random.default_rng(seed)
        x = F.random((30, 8), data_rng)
        w = F.random(8, data_rng)
        e = F.random(30, data_rng)

        forward, backward = {}, {}
        for kind in BACKENDS:
            with _make_backend(kind, 12, straggler_factors, behaviors) as backend:
                master = AVCCMaster(
                    backend,
                    SchemeParams(n=12, k=9, s=1, m=2),
                    rng=np.random.default_rng(seed + 100),
                )
                master.setup(x)
                forward[kind] = master.forward_round(w).vector
                backward[kind] = master.backward_round(e).vector

        z = ff_matvec(F, x, w)
        g = ff_matvec(F, x.T.copy(), e)
        for kind in BACKENDS:
            np.testing.assert_array_equal(forward[kind], z, err_msg=kind)
            np.testing.assert_array_equal(backward[kind], g, err_msg=kind)
            assert forward[kind].tobytes() == forward["sim"].tobytes()
            assert backward[kind].tobytes() == backward["sim"].tobytes()

    @settings(max_examples=8, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        stragglers=st.dictionaries(
            st.integers(0, 11), st.floats(1.5, 8.0), max_size=2
        ),
        byzantine=st.lists(
            st.sampled_from([3, 7, 9]), unique=True, max_size=2
        ),
    )
    def test_parity_property(self, seed, stragglers, byzantine):
        """Hypothesis-driven: any seed + any in-tolerance fault
        assignment decodes byte-identically on every backend."""
        behaviors = {
            wid: (ReversedValueAttack() if i % 2 else ConstantAttack())
            for i, wid in enumerate(byzantine)
        }
        data_rng = np.random.default_rng(seed)
        x = F.random((24, 6), data_rng)
        w = F.random(6, data_rng)

        decoded = {}
        for kind in BACKENDS:
            with _make_backend(kind, 12, stragglers, behaviors) as backend:
                master = AVCCMaster(
                    backend,
                    SchemeParams(n=12, k=9, s=1, m=2),
                    rng=np.random.default_rng(seed ^ 0xA5C),
                )
                master.setup(x)
                decoded[kind] = master.forward_round(w).vector

        z = ff_matvec(F, x, w)
        for kind in BACKENDS:
            np.testing.assert_array_equal(decoded[kind], z, err_msg=kind)
            assert decoded[kind].tobytes() == decoded["sim"].tobytes()

    @pytest.mark.parametrize("seed", [0, 1])
    def test_lcc_and_uncoded_parity_clean_fleet(self, seed):
        data_rng = np.random.default_rng(seed)
        x = F.random((36, 6), data_rng)
        w = F.random(6, data_rng)

        z = ff_matvec(F, x, w)
        for kind in BACKENDS:
            with _make_backend(kind, 12, {}, {}) as backend:
                lcc = LCCMaster(
                    backend,
                    SchemeParams(n=12, k=9, s=1, m=1),
                    rng=np.random.default_rng(seed + 7),
                )
                lcc.setup(x)
                np.testing.assert_array_equal(
                    lcc.forward_round(w).vector, z, err_msg=f"lcc/{kind}"
                )
            with _make_backend(kind, 12, {}, {}) as backend:
                unc = UncodedMaster(backend, k=9)
                unc.setup(x)
                np.testing.assert_array_equal(
                    unc.forward_round(w).vector, z, err_msg=f"uncoded/{kind}"
                )

    def test_avcc_adaptation_parity_across_backends(self):
        """A full iterate -> adapt -> next iteration cycle must stay
        exact on every backend (worker-pool mutation path).

        The master stops at the recovery threshold, so on a wall-clock
        backend the Byzantine worker is only *seen* if its result lands
        before the cancel. What holds under every arrival order: the
        decode is exact, the liar's result is never used, and if it was
        collected it was rejected, reported and dropped."""
        data_rng = np.random.default_rng(9)
        x = F.random((27, 5), data_rng)
        w = F.random(5, data_rng)
        e = F.random(27, data_rng)
        z = ff_matvec(F, x, w)
        g = ff_matvec(F, x.T.copy(), e)

        for kind in BACKENDS:
            with _make_backend(kind, 12, {}, {6: ConstantAttack()}) as backend:
                master = AVCCMaster(
                    backend,
                    SchemeParams(n=12, k=9, s=1, m=2),
                    rng=np.random.default_rng(42),
                )
                master.setup(x)
                fwd = master.forward_round(w)
                bwd = master.backward_round(e)
                np.testing.assert_array_equal(fwd.vector, z, err_msg=kind)
                np.testing.assert_array_equal(bwd.vector, g, err_msg=kind)
                collected = False
                for rec in (fwd.record, bwd.record):
                    assert 6 not in rec.used_workers, kind
                    assert set(rec.rejected_workers) <= {6}, kind
                    collected |= 6 in rec.rejected_workers
                out = master.end_iteration()
                assert out.detected_byzantine == ((6,) if collected else ()), kind
                assert out.dropped_workers == out.detected_byzantine, kind
                assert (6 in master.active) == (not collected), kind
                if kind == "sim":
                    # virtual time: the constant liar always lands first
                    assert collected
                # whatever the roster now is, the next iteration is exact
                np.testing.assert_array_equal(master.forward_round(w).vector, z)
                np.testing.assert_array_equal(master.backward_round(e).vector, g)


class TestStoreTimeValidation:
    """Workers multiply a stored share as stored (no per-round ``% q``
    pass), so the store path is the trust boundary: whatever arrives is
    reduced or refused there, never multiplied raw."""

    @staticmethod
    def _round(backend, operand):
        handle = backend.dispatch_round(
            RoundJob(op="matvec", payload_key="X", operand=operand), participants=[0, 1, 2]
        )
        arrivals = list(handle)
        handle.result()
        return arrivals

    @pytest.mark.parametrize("kind", BACKENDS)
    def test_out_of_range_share_is_reduced_at_store(self, kind):
        """Entries near +-2**45 carry the right residues but would wrap
        int64 (and round in float64) if a kernel ever saw them raw. The
        width-64 round is large enough to take the dgemm kernel, in the
        forked children and the daemons too."""
        rng = np.random.default_rng(5)
        shares = F.random((3, 16, 300), rng)
        raw = shares.copy()
        raw[:, ::2, ::3] += F.q * 2**20
        raw[:, 1::2, 1::3] -= F.q * 2**20
        vec, wide = F.random(300, rng), F.random((300, 64), rng)
        with _make_backend(kind, 3, {}, {}) as backend:
            backend.distribute("X", raw)
            for operand, product in ((vec, ff_matvec), (wide, ff_matmul)):
                arrivals = self._round(backend, operand)
                assert sorted(a.worker_id for a in arrivals) == [0, 1, 2]
                for a in arrivals:
                    want = product(F, shares[a.worker_id], operand)
                    assert a.value.dtype == want.dtype and a.value.shape == want.shape
                    assert a.value.tobytes() == want.tobytes(), (kind, a.worker_id)

    @pytest.mark.parametrize("kind", BACKENDS)
    def test_float_share_is_refused_at_store(self, kind):
        """Not field data: in-process backends refuse it at
        ``distribute``; a remote worker drops the key, so later rounds
        on it fail crash-stop instead of using what was there before."""
        rng = np.random.default_rng(6)
        shares = F.random((3, 4, 10), rng)
        vec = F.random(10, rng)
        with _make_backend(kind, 3, {}, {}) as backend:
            backend.distribute("X", shares)
            assert len(self._round(backend, vec)) == 3
            if kind in ("sim", "threaded"):
                with pytest.raises(TypeError, match="float input"):
                    backend.distribute("X", shares.astype(np.float64))
            else:
                backend.distribute("X", shares.astype(np.float64))
                with pytest.raises(RuntimeError, match="KeyError"):
                    self._round(backend, vec)


class TestEarlyStopping:
    """Once the verified threshold is met the round is cancelled; a
    real backend must not pay the straggler's sleep the master skipped."""

    SLEEP = 1.5  # seconds of injected straggle, far above a round's work

    @pytest.mark.parametrize("kind", REAL_BACKENDS)
    def test_round_does_not_wait_for_cancelled_straggler(self, kind):
        data_rng = np.random.default_rng(1)
        x = F.random((30, 8), data_rng)
        w = F.random(8, data_rng)
        factor = 16.0
        scale = self.SLEEP / (factor - 1.0)
        with _make_backend(kind, 12, {0: factor}, {}, straggle_scale=scale) as backend:
            master = AVCCMaster(
                backend, SchemeParams(n=12, k=9, s=2, m=1), rng=np.random.default_rng(2)
            )
            master.setup(x)
            t0 = time.perf_counter()
            out = master.forward_round(w)
            wall = time.perf_counter() - t0
        np.testing.assert_array_equal(out.vector, ff_matvec(F, x, w))
        assert 0 not in out.record.used_workers
        # any wall < SLEEP proves the straggler's sleep was skipped;
        # 0.8 leaves slack for loaded single-core CI runners
        assert wall < self.SLEEP * 0.8, f"{kind} round waited on a cancelled straggler"

    @pytest.mark.parametrize("kind", REAL_BACKENDS)
    def test_back_to_back_rounds_after_cancellation(self, kind):
        """Stale results of a cancelled round must not bleed into the
        next one (the process backend drains them by round id)."""
        data_rng = np.random.default_rng(4)
        x = F.random((30, 8), data_rng)
        w = F.random(8, data_rng)
        e = F.random(30, data_rng)
        with _make_backend(kind, 12, {0: 9.0}, {}, straggle_scale=0.05) as backend:
            master = AVCCMaster(
                backend, SchemeParams(n=12, k=9, s=2, m=1), rng=np.random.default_rng(2)
            )
            master.setup(x)
            for _ in range(3):
                np.testing.assert_array_equal(
                    master.forward_round(w).vector, ff_matvec(F, x, w)
                )
                np.testing.assert_array_equal(
                    master.backward_round(e).vector, ff_matvec(F, x.T.copy(), e)
                )
                master.end_iteration()

    def test_threaded_cancel_wakes_sleeping_straggler(self, rng):
        """The cancellation event must interrupt the injected sleep —
        the backend's own join must not serialize on it either."""
        shares = F.random((4, 2, 3), rng)
        v = F.random(3, rng)
        with ThreadedCluster(
            F, _fleet(4, {3: 31.0}, {}), straggle_scale=0.1
        ) as backend:  # straggler sleeps 3 s uncancelled
            backend.distribute("share", shares)
            t0 = time.perf_counter()
            handle = backend.dispatch_round(RoundJob(payload_key="share", operand=v))
            seen = []
            for a in handle:
                seen.append(a.worker_id)
                if len(seen) == 3:
                    handle.cancel()
                    break
            rr = handle.result()  # joins all tasks
            wall = time.perf_counter() - t0
        assert sorted(seen) == [0, 1, 2]
        late = [a for a in rr.arrivals if a.worker_id == 3]
        assert len(late) == 1 and math.isinf(late[0].t_arrival)
        assert wall < 1.5, "result() blocked on the cancelled straggler's sleep"


class TestFaultContainment:
    """Real backends must degrade, not hang or crash, on worker faults."""

    @pytest.mark.parametrize("kind", REAL_BACKENDS)
    def test_malformed_job_raises_instead_of_hanging(self, kind, rng):
        """A job every worker fails on (bad payload key) must raise —
        the threaded backend used to deadlock in queue.get() here."""
        shares = F.random((3, 2, 3), rng)
        v = F.random(3, rng)
        with _make_backend(kind, 3, {}, {}) as backend:
            backend.distribute("share", shares)
            handle = backend.dispatch_round(RoundJob(payload_key="nope", operand=v))
            with pytest.raises(RuntimeError, match="all 3 workers failed"):
                list(handle)

    @pytest.mark.parametrize("kind", REAL_BACKENDS)
    def test_single_worker_error_degrades_to_silence(self, kind, rng):
        """One worker missing its payload behaves like a crash-stop
        node: the others still arrive and the round completes."""
        shares = F.random((3, 2, 3), rng)
        v = F.random(3, rng)
        with _make_backend(kind, 3, {}, {}) as backend:
            backend.distribute("share", shares)
            backend.distribute("extra", shares[:1], participants=[0])
            handle = backend.dispatch_round(RoundJob(payload_key="extra", operand=v))
            arrivals = list(handle)
            rr = handle.result()
        assert [a.worker_id for a in arrivals] == [0]
        assert {a.worker_id for a in rr.arrivals} == {0, 1, 2}
        assert set(handle.worker_errors) == {1, 2}

    def test_process_survives_killed_worker(self, rng):
        """A SIGKILLed worker process is marked dead and later rounds
        and re-distributions keep running without it."""
        import os
        import signal

        shares = F.random((4, 2, 3), rng)
        v = F.random(3, rng)
        with _make_backend("process", 4, {}, {}) as backend:
            backend.distribute("share", shares)
            os.kill(backend._procs[2].pid, signal.SIGKILL)
            for _ in range(2):
                handle = backend.dispatch_round(RoundJob(payload_key="share", operand=v))
                assert sorted(a.worker_id for a in handle) == [0, 1, 3]
                dead = [a for a in handle.result().arrivals if a.worker_id == 2]
                assert len(dead) == 1 and math.isinf(dead[0].t_arrival)
            backend.distribute("share", shares)  # re-encode path survives too

    def test_threaded_intermittent_attack_varies_across_rounds(self, rng):
        """The behaviour RNG lives for the worker's lifetime, so a
        per-round-random attack really is per-round random (the
        backend used to reseed per round, freezing the coin flip)."""
        from repro.runtime import IntermittentAttack

        share = F.random((1, 2, 3), rng)
        v = F.random(3, rng)
        fleet = [
            SimWorker(
                0,
                profile=make_profiles(1, {})[0],
                behavior=IntermittentAttack(ReversedValueAttack(), probability=0.5),
            )
        ]
        outputs = set()
        with ThreadedCluster(F, fleet, straggle_scale=0.0) as backend:
            backend.distribute("share", share)
            for _ in range(12):
                handle = backend.dispatch_round(RoundJob(payload_key="share", operand=v))
                arrival = next(iter(handle))
                handle.result()
                outputs.add(arrival.value.tobytes())
        assert len(outputs) == 2  # honest rounds and attacked rounds
