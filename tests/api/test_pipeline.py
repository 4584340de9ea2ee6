"""Acceptance tests for the pipelined round scheduler (PR 3 tentpole).

Pins the contract points:

(a) with ``max_inflight_rounds >= 2`` two independent-family jobs
    overlap in simulated time — the second round is dispatched before
    the first finalizes — and every result is byte-identical to
    ``max_inflight_rounds = 1``;
(b) ``flush`` is non-blocking under a wide window (dispatch only);
    ``JobHandle.result()`` finalizes rounds FIFO up to its own and no
    further;
(c) the window is bounded: at most W rounds are ever in flight;
(d) ``end_iteration`` drains the window before adapting, so a dynamic
    re-code never coexists with rounds planned under the old scheme;
(e) a closed session raises ``SessionClosedError`` (never
    ``AttributeError``) from submissions and from resolving abandoned
    handles.
"""

import numpy as np
import pytest

from repro.api import (
    Session,
    SessionClosedError,
    SessionConfig,
    WorkerSpec,
)
from repro.coding import SchemeParams
from repro.ff import PrimeField, ff_matvec

F = PrimeField()
RNG = np.random.default_rng(23)
X = F.random((12, 8), RNG)
SCHEME = SchemeParams(n=6, k=3, s=1, m=1)


def _specs(n=6, straggler=1, byzantine=2):
    specs = [WorkerSpec() for _ in range(n)]
    specs[straggler] = WorkerSpec(straggler_factor=10.0)
    specs[byzantine] = WorkerSpec(behavior="reverse")
    return tuple(specs)


def _config(**overrides):
    base = dict(
        scheme=SCHEME,
        master="avcc",
        backend="sim",
        seed=1,
        workers=_specs(),
        max_inflight_rounds=4,
    )
    base.update(overrides)
    return SessionConfig(**base)


class TestOverlapAcceptance:
    """The ISSUE's acceptance pin."""

    def _serve(self, w, e, max_inflight):
        with Session.create(_config(max_inflight_rounds=max_inflight)) as sess:
            sess.load(X)
            h_fwd = sess.submit_matvec(w)
            h_bwd = sess.submit_matvec(e, transpose=True)
            sess.flush()
            depth = sess.rounds_in_flight()
            results = (h_fwd.result(), h_bwd.result())
        return results, depth, sess.stats

    def test_two_families_overlap_and_match_serial_bytes(self):
        w = F.random(8, RNG)
        e = F.random(12, RNG)
        serial, serial_depth, serial_stats = self._serve(w, e, 1)
        piped, piped_depth, piped_stats = self._serve(w, e, 2)

        # byte identity across window sizes
        for a, b in zip(serial, piped):
            assert a.tobytes() == b.tobytes()
        np.testing.assert_array_equal(piped[0], ff_matvec(F, X, w))

        # serial: each round finalized before the next dispatches
        assert serial_depth == 0
        assert serial_stats.rounds_overlapped == 0
        r0, r1 = serial_stats.records
        assert r1.t_start >= r0.t_end

        # pipelined: the bwd round is dispatched before fwd finalizes
        assert piped_depth == 2
        assert piped_stats.rounds_overlapped == 1
        assert piped_stats.max_inflight_depth == 2
        r0, r1 = piped_stats.records
        assert r1.t_start < r0.t_end, "second round must overlap the first"
        # the overlap buys simulated time: pipeline finishes earlier
        assert r1.t_end < serial_stats.records[1].t_end

    def test_pipelined_serving_is_faster_at_scale(self):
        ops = [F.random(8, RNG) for _ in range(6)]
        times = {}
        for w_len in (1, 4):
            cfg = _config(max_inflight_rounds=w_len, batch_window=1)
            with Session.create(cfg) as sess:
                sess.load(X)
                t0 = sess.now
                handles = [sess.submit_matvec(op) for op in ops]
                results = [h.result() for h in handles]
                times[w_len] = sess.now - t0
            for op, got in zip(ops, results):
                assert np.array_equal(got, ff_matvec(F, X, op))
        assert times[4] < times[1]


class TestNonBlockingFlush:
    def test_flush_dispatches_without_finalizing(self):
        with Session.create(_config()) as sess:
            sess.load(X)
            h1 = sess.submit_matvec(F.random(8, RNG))
            h2 = sess.submit_matvec(F.random(12, RNG), transpose=True)
            assert sess.pending_jobs() == 2
            sess.flush()
            assert sess.pending_jobs() == 0
            assert sess.rounds_in_flight() == 2
            assert not h1.done() and not h2.done()
            assert sess.stats.rounds_executed == 0  # nothing finalized yet
            sess.drain()
            assert sess.rounds_in_flight() == 0
            assert h1.done() and h2.done()
            assert sess.stats.rounds_executed == 2

    def test_result_finalizes_fifo_up_to_own_round_only(self):
        with Session.create(_config(batch_window=1)) as sess:
            sess.load(X)
            h1 = sess.submit_matvec(F.random(8, RNG))
            h2 = sess.submit_matvec(F.random(8, RNG))
            h3 = sess.submit_matvec(F.random(8, RNG))
            assert sess.rounds_in_flight() == 3
            h2.result()
            # h1's round finalized first (FIFO), h3's left in flight
            assert h1.done() and h2.done()
            assert not h3.done()
            assert sess.rounds_in_flight() == 1

    def test_window_bound_is_respected(self):
        with Session.create(_config(max_inflight_rounds=2, batch_window=1)) as sess:
            sess.load(X)
            handles = [sess.submit_matvec(F.random(8, RNG)) for _ in range(6)]
            assert sess.rounds_in_flight() <= 2
            assert max(sess.stats.dispatch_depths) <= 2
            results = [h.result() for h in handles]
        assert all(r.shape == (12,) for r in results)
        # window pressure finalized the early rounds as later ones came
        assert sess.stats.rounds_executed == 6

    def test_handles_resolve_on_clean_close(self):
        w = F.random(8, RNG)
        sess = Session.create(_config())
        sess.load(X)
        h = sess.submit_matvec(w)
        sess.flush()
        assert not h.done()
        sess.close()
        assert h.done()
        assert np.array_equal(h.result(), ff_matvec(F, X, w))


class TestDrainBeforeAdaptation:
    """Satellite: a dynamic re-code with rounds still in flight must
    drain the window first — no round may mix two scheme configs."""

    def _cfg(self):
        # 2 stragglers + 1 forger against (n=6, k=4, s=1, m=1):
        # A_t = 6 - 1 - 2 - 4 = -1 < 0, so end_iteration drops the
        # forger AND shrinks the code (k: 4 -> 3) — a real re-code.
        specs = [WorkerSpec() for _ in range(6)]
        specs[0] = WorkerSpec(straggler_factor=8.0)
        specs[1] = WorkerSpec(straggler_factor=12.0)
        specs[2] = WorkerSpec(behavior="reverse")  # dropped at adaptation
        return SessionConfig(
            scheme=SchemeParams(n=6, k=4, s=1, m=1),
            master="avcc",
            backend="sim",
            seed=3,
            workers=tuple(specs),
            max_inflight_rounds=4,
            batch_window=1,
            # compute-dominated regime so the latency-ratio detector
            # actually sees the stragglers at this tiny matrix size
            cost={"worker_sec_per_mac": 1e-4, "link_latency_s": 1e-6},
        )

    def test_end_iteration_drains_window_before_recode(self):
        w = F.random(8, RNG)
        e = F.random(12, RNG)
        with Session.create(self._cfg()) as sess:
            sess.load(X)
            master = sess.master
            observed = {}
            original = master._install_config

            def spying_install(n, k, participants):
                observed["in_flight_at_recode"] = sess.rounds_in_flight()
                return original(n, k, participants)

            master._install_config = spying_install

            handles = [sess.submit_matvec(w) for _ in range(3)]
            handles.append(sess.submit_matvec(e, transpose=True))
            sess.flush()
            assert sess.rounds_in_flight() >= 2  # rounds genuinely in flight
            out = sess.end_iteration()
            assert sess.rounds_in_flight() == 0
            assert all(h.done() for h in handles)
            # the forger was detected across the in-flight rounds and
            # evicted; the code shrank; the re-ship happened with an
            # empty pipeline (no in-flight round saw two configs)
            assert 2 in out.detected_byzantine
            assert 2 in out.dropped_workers
            assert out.scheme == (5, 3)
            assert out.reencode_time > 0.0
            assert observed["in_flight_at_recode"] == 0

            # every pre-adaptation decode is exact under the old scheme
            for h in handles[:3]:
                assert np.array_equal(h.result(), ff_matvec(F, X, w))
            assert np.array_equal(
                handles[3].result(), ff_matvec(F, np.ascontiguousarray(X.T), e)
            )
            # and the service keeps running on the new configuration
            h_after = sess.submit_matvec(w)
            assert np.array_equal(h_after.result(), ff_matvec(F, X, w))
            assert 2 not in sess.master.active

    def test_plan_snapshot_keeps_inflight_rounds_exact_across_recode(self):
        """Even without the session drain, a round planned under the
        old config must finalize exactly (its keys/code/positions are
        frozen in the plan) — the master-level re-entrancy guarantee."""
        w = F.random(8, RNG)
        with Session.create(self._cfg()) as sess:
            sess.load(X)
            master = sess.master
            plan = master.plan_round("fwd", [w])
            handle = master.dispatch_plan(plan)
            # adversarial: re-code to a smaller scheme mid-flight
            master._install_config(5, 3, master.active[:5])
            out = master.complete_round(plan, handle)[0]
            assert np.array_equal(out.vector, ff_matvec(F, X, w))


class TestBothFamiliesInThePipeline:
    def test_a_transpose_job_enters_the_window_and_finalizes_fifo(self):
        w = F.random(8, RNG)
        e = F.random(12, RNG)
        with Session.create(_config(batch_window=1)) as sess:
            sess.load(X)
            h_fwd = sess.submit_matvec(w)  # dispatched, in flight
            h_bwd = sess.submit_matvec(e, transpose=True)
            assert not h_bwd.done()  # pipelined, not synchronous
            assert sess.rounds_in_flight() == 2
            # FIFO: resolving the transpose job finalizes the forward first
            assert np.array_equal(h_bwd.result(), ff_matvec(F, X.T.copy(), e))
            assert h_fwd.done()
        stats = sess.stats
        assert stats.rounds_executed == 2
        assert len(stats.dispatch_depths) == 2  # telemetry sees both
        assert stats.rounds_overlapped == 1

    @pytest.mark.parametrize("backend", ["sim", "tcp"])
    def test_concurrent_rounds_keep_their_own_operands(self, backend):
        """A second round dispatched while the first is still in flight
        must not overwrite the operand the first round's (possibly
        straggling) workers are computing on."""
        rng = np.random.default_rng(33)
        w1, w2 = F.random(8, rng), F.random(8, rng)
        e = F.random(12, rng)
        opts = {"straggle_scale": 0.2} if backend == "tcp" else {}
        cfg = _config(backend=backend, batch_window=1, backend_options=opts)
        with Session.create(cfg) as sess:
            sess.load(X)
            h1 = sess.submit_matvec(w1)
            h2 = sess.submit_matvec(w2)
            h3 = sess.submit_matvec(e, transpose=True)
            assert sess.rounds_in_flight() == 3
            assert np.array_equal(h3.result(), ff_matvec(F, X.T.copy(), e)), backend
            assert np.array_equal(h2.result(), ff_matvec(F, X, w2)), backend
            assert np.array_equal(h1.result(), ff_matvec(F, X, w1)), backend

    def test_a_job_is_synchronous_on_a_serial_window(self):
        w = F.random(8, RNG)
        with Session.create(_config(max_inflight_rounds=1, batch_window=1)) as sess:
            sess.load(X)
            h = sess.submit_matvec(w)
            assert h.done()
            assert sess.rounds_in_flight() == 0
            assert np.array_equal(h.result(), ff_matvec(F, X, w))


class TestTrainerOnPipelinedSession:
    def test_training_is_identical_at_any_window(self):
        """The trainers run on the pipelined path; their two rounds per
        iteration are data-dependent, so a wide window must change
        nothing — times, accuracies and adaptation all identical."""
        from repro.ml import (
            DistributedLogisticTrainer,
            LogisticConfig,
            make_gisette_like,
        )

        ds = make_gisette_like(m=48, d=8, rng=np.random.default_rng(2))
        histories = {}
        for window in (1, 4):
            with Session.create(_config(max_inflight_rounds=window)) as sess:
                sess.load(ds.x_train)
                trainer = DistributedLogisticTrainer(
                    sess, ds, LogisticConfig(iterations=3, learning_rate=0.1)
                )
                histories[window] = trainer.train()
            assert sess.stats.rounds_executed == 6
        assert histories[1].times == histories[4].times
        assert histories[1].test_acc == histories[4].test_acc
        assert histories[1].schemes == histories[4].schemes


class TestDefaultWindowStaysDepthOne:
    """Workloads whose every round depends on the previous one's
    result never put two rounds in flight, even though the default
    window would allow it: their dispatch depth stays 1."""

    @staticmethod
    def _default_config(**overrides):
        base = dict(scheme=SCHEME, master="avcc", seed=1, workers=_specs())
        base.update(overrides)
        return SessionConfig(**base)

    def test_default_window_is_two(self):
        assert self._default_config().max_inflight_rounds == 2

    @pytest.mark.parametrize("backend", ["sim", "tcp"])
    def test_trainer_dispatches_at_depth_one(self, backend):
        from repro.ml import (
            DistributedLogisticTrainer,
            LogisticConfig,
            make_gisette_like,
        )

        ds = make_gisette_like(m=48, d=8, rng=np.random.default_rng(2))
        opts = {"straggle_scale": 0.01} if backend == "tcp" else {}
        cfg = self._default_config(backend=backend, backend_options=opts)
        with Session.create(cfg) as sess:
            sess.load(ds.x_train)
            DistributedLogisticTrainer(
                sess, ds, LogisticConfig(iterations=3, learning_rate=0.1)
            ).train()
        assert sess.stats.rounds_executed == 6
        assert max(sess.stats.dispatch_depths) == 1

    def test_closed_loop_of_full_batches_dispatches_at_depth_one(self):
        """64 submissions fill the batch window (one round), then
        ``result()`` waits for it before the next 64 are issued."""
        rng = np.random.default_rng(64)
        with Session.create(self._default_config(batch_window=64)) as sess:
            sess.load(X)
            for transpose in (False, False, True, False):
                ops = F.random((64, 12 if transpose else 8), rng)
                handles = [sess.submit_matvec(op, transpose=transpose) for op in ops]
                want = X.T if transpose else X
                for op, h in zip(ops, handles):
                    assert np.array_equal(h.result(), ff_matvec(F, want, op))
        assert sess.stats.jobs_per_round == [64] * 4
        assert max(sess.stats.dispatch_depths) == 1


class TestFailurePropagation:
    def test_window_pressure_failure_fails_the_new_jobs_too(self):
        """If finalizing an older round under window pressure raises,
        the just-submitted jobs must fail with that exception — never
        be silently lost (regression: the pressure loop used to run
        outside the handle-failing guard)."""
        from repro.core.results import InsufficientResultsError

        # 4 forgers against (n=6, k=3, s=1, m=1): every round collects
        # fewer than k verified results and finalization raises
        specs = tuple(
            WorkerSpec(behavior="reverse") if i < 4 else WorkerSpec()
            for i in range(6)
        )
        cfg = _config(workers=specs, max_inflight_rounds=2, batch_window=1)
        sess = Session.create(cfg)
        try:
            sess.load(X)
            h1 = sess.submit_matvec(F.random(8, RNG))
            h2 = sess.submit_matvec(F.random(8, RNG))
            assert sess.rounds_in_flight() == 2
            with pytest.raises(InsufficientResultsError):
                sess.submit_matvec(F.random(8, RNG))  # pressure -> finalize h1
            # the oldest round's failure landed on its own handle...
            assert h1.done()
            with pytest.raises(InsufficientResultsError):
                h1.result()
            # ...and the still-in-flight round resolves deterministically
            # too (its own round's failure, never "handle lost")
            with pytest.raises(InsufficientResultsError):
                h2.result()
        finally:
            sess.close(flush=False)

    def test_failed_drain_on_close_fails_all_inflight_handles(self):
        """When a round fails while close() drains, the remaining
        in-flight/pending handles must be failed too — not left
        unresolved behind a closed session."""
        from repro.core.results import InsufficientResultsError

        specs = tuple(
            WorkerSpec(behavior="reverse") if i < 4 else WorkerSpec()
            for i in range(6)
        )
        cfg = _config(workers=specs, max_inflight_rounds=3, batch_window=1)
        sess = Session.create(cfg)
        sess.load(X)
        h1 = sess.submit_matvec(F.random(8, RNG))
        h2 = sess.submit_matvec(F.random(8, RNG))
        assert sess.rounds_in_flight() == 2
        with pytest.raises(InsufficientResultsError):
            sess.close()
        assert h1.done() and h2.done()
        with pytest.raises(InsufficientResultsError):
            h1.result()
        with pytest.raises(InsufficientResultsError):
            h2.result()


class TestSessionClosedErrors:
    def test_submit_after_close_raises_session_closed(self):
        sess = Session.create(_config())
        sess.close()
        with pytest.raises(SessionClosedError, match="closed"):
            sess.submit_matvec(F.random(8, RNG))

    def test_result_on_abandoned_handle_raises_session_closed(self):
        sess = Session.create(_config())
        sess.load(X)
        h = sess.submit_matvec(F.random(8, RNG))
        sess.close(flush=False)
        with pytest.raises(SessionClosedError, match="pending"):
            h.result()

    def test_result_on_abandoned_inflight_round_raises_session_closed(self):
        sess = Session.create(_config())
        sess.load(X)
        h = sess.submit_matvec(F.random(8, RNG))
        sess.flush()  # dispatched, in flight
        sess.close(flush=False)
        with pytest.raises(SessionClosedError):
            h.result()

    def test_session_closed_error_is_runtime_error(self):
        # backwards compatibility: existing except RuntimeError paths
        assert issubclass(SessionClosedError, RuntimeError)

    def test_no_attribute_error_from_closed_session(self):
        sess = Session.create(_config())
        sess.load(X)
        h = sess.submit_matvec(F.random(8, RNG))
        sess.close(flush=False)
        try:
            h.result()
        except AttributeError as exc:  # pragma: no cover - the regression
            pytest.fail(f"closed session leaked AttributeError: {exc}")
        except SessionClosedError:
            pass
