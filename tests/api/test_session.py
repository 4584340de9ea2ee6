"""Acceptance tests for the session API (the PR's tentpole).

Pins the three contract points:

(a) a config dict round-trips through ``SessionConfig`` and builds
    every registered backend × master combination;
(b) N concurrently submitted matvec jobs against one family execute in
    fewer rounds than N (observable via ``session.stats``), with
    byte-identical results vs sequential submission;
(c) the examples and trainers run through ``Session`` — no direct
    ``SimCluster``/``AVCCMaster``-style construction survives outside
    ``core``/``runtime`` internals and their dedicated tests.
"""

import re
from pathlib import Path

import numpy as np
import pytest

from repro.api import (
    JobHandle,
    Session,
    SessionConfig,
    WorkerSpec,
    backend_names,
    master_names,
    register_backend,
    register_master,
)
from repro.coding import SchemeParams
from repro.ff import PrimeField, ff_matvec
from repro.ff.linalg import ff_matmul

F = PrimeField()
RNG = np.random.default_rng(11)
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
        backend_options={},
    )
    base.update(overrides)
    if base["backend"] in ("threaded", "process") and not base["backend_options"]:
        base["backend_options"] = {"straggle_scale": 0.01}
    return SessionConfig(**base)


class TestConfigRoundTrip:
    def test_dict_round_trip_identity(self):
        cfg = _config(cost={"worker_sec_per_mac": 5e-8}, batch_window=7)
        d = cfg.to_dict()
        assert isinstance(d["scheme"], dict)
        assert isinstance(d["workers"][0], dict)
        assert SessionConfig.from_dict(d) == cfg

    def test_dict_is_json_serializable(self):
        import json

        blob = json.dumps(_config().to_dict())
        assert SessionConfig.from_dict(json.loads(blob)) == _config()

    def test_unknown_keys_rejected(self):
        d = _config().to_dict()
        d["bogus"] = 1
        with pytest.raises(ValueError, match="bogus"):
            SessionConfig.from_dict(d)

    def test_net_tunables_round_trip_from_mapping(self):
        from repro.runtime import NetTunables

        cfg = _config(net=NetTunables(heartbeat_interval=0.1, heartbeat_timeout=2.0))
        d = cfg.to_dict()
        assert isinstance(d["net"], dict)  # asdict recurses into the nested dataclass
        assert SessionConfig.from_dict(d) == cfg

    def test_net_tunables_validation(self):
        from repro.runtime import NetTunables

        with pytest.raises(ValueError, match="heartbeat_interval"):
            NetTunables(heartbeat_interval=0.0)
        with pytest.raises(ValueError, match="must exceed"):
            NetTunables(heartbeat_interval=1.0, heartbeat_timeout=0.5)
        with pytest.raises(ValueError, match="io_timeout"):
            NetTunables(io_timeout=-1.0)
        with pytest.raises(ValueError, match="round_timeout"):
            NetTunables(round_timeout=0.0)
        with pytest.raises(ValueError, match="unknown NetTunables"):
            NetTunables.from_dict({"heartbeat_interval": 0.1, "bogus": 1})
        with pytest.raises(TypeError, match="net must be NetTunables"):
            _config(net={"heartbeat_interval": 0.1})
        # io_timeout=None inherits the dead-worker threshold
        assert NetTunables(heartbeat_timeout=3.0).effective_io_timeout == 3.0
        assert NetTunables(io_timeout=1.5).effective_io_timeout == 1.5

    def test_worker_count_must_match_scheme(self):
        with pytest.raises(ValueError, match="worker specs"):
            SessionConfig(scheme=SCHEME, workers=(WorkerSpec(),) * 4)

    def test_worker_spec_validation(self):
        with pytest.raises(ValueError, match="behavior"):
            WorkerSpec(behavior="bogus")
        with pytest.raises(ValueError, match="straggler_factor"):
            WorkerSpec(straggler_factor=0.5)
        with pytest.raises(ValueError, match="probability"):
            WorkerSpec(probability=0.0)

    def test_registry_names_the_builtin_backends_and_masters(self):
        assert set(backend_names()) >= {"sim", "threaded", "process", "tcp"}
        assert set(master_names()) >= {"avcc", "lcc", "static_vcc", "uncoded"}

    @pytest.mark.parametrize("master", master_names())
    @pytest.mark.parametrize("backend", backend_names())
    def test_builds_every_backend_master_combination(self, backend, master):
        w = F.random(8, np.random.default_rng(11))
        expected = ff_matvec(F, X, w)
        cfg = _config(backend=backend, master=master)
        with Session.create(cfg) as sess:
            assert type(sess.backend).__name__ != "object"
            sess.load(X)
            got = sess.submit_matvec(w).result()
            if master != "uncoded":
                # uncoded ingests the injected forgery by design
                assert np.array_equal(got, expected), (backend, master)
            assert got.shape == expected.shape


class TestRegistryExtension:
    def test_custom_names_resolve(self):
        calls = {}

        def my_backend(config, field, workers, rng):
            from repro.runtime import SimCluster

            calls["backend"] = True
            return SimCluster(field, workers, cost_model=config.cost_model(), rng=rng)

        def my_master(config, backend, rng):
            from repro.core import AVCCMaster

            calls["master"] = True
            return AVCCMaster(backend, config.scheme, rng=rng)

        register_backend("test_sim_clone", my_backend, overwrite=True)
        register_master("test_avcc_clone", my_master, overwrite=True)
        cfg = _config(backend="test_sim_clone", master="test_avcc_clone")
        w = F.random(8, RNG)
        with Session.create(cfg) as sess:
            sess.load(X)
            assert np.array_equal(sess.submit_matvec(w).result(), ff_matvec(F, X, w))
        assert calls == {"backend": True, "master": True}

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_backend("sim", lambda *a: None)
        with pytest.raises(ValueError, match="already registered"):
            register_master("avcc", lambda *a: None)

    def test_unknown_names_listed_in_error(self):
        with pytest.raises(ValueError, match="registered"):
            Session.create(_config(backend="warp_drive"))


class TestRoundBatching:
    N_JOBS = 6

    def _ops(self):
        rng = np.random.default_rng(77)
        return [F.random(8, rng) for _ in range(self.N_JOBS)]

    def test_concurrent_jobs_execute_in_fewer_rounds_than_jobs(self):
        ops = self._ops()
        with Session.create(_config()) as sess:
            sess.load(X)
            handles = [sess.submit_matvec(w) for w in ops]
            assert sess.pending_jobs() == self.N_JOBS
            results = [h.result() for h in handles]
        stats = sess.stats
        assert stats.jobs_submitted == self.N_JOBS
        assert stats.rounds_executed < self.N_JOBS
        assert stats.rounds_executed == 1
        assert stats.jobs_per_round == [self.N_JOBS]
        assert stats.batched_jobs == self.N_JOBS
        assert stats.batching_factor == pytest.approx(self.N_JOBS)
        for w, got in zip(ops, results):
            assert np.array_equal(got, ff_matvec(F, X, w))

    def test_batched_results_byte_identical_to_sequential(self):
        ops = self._ops()
        with Session.create(_config()) as batched:
            batched.load(X)
            batched_results = [
                h.result() for h in [batched.submit_matvec(w) for w in ops]
            ]
        with Session.create(_config()) as sequential:
            sequential.load(X)
            seq_results = [sequential.submit_matvec(w).result() for w in ops]
        assert sequential.stats.rounds_executed == self.N_JOBS
        for a, b in zip(batched_results, seq_results):
            assert a.tobytes() == b.tobytes()

    def test_batching_works_on_every_master(self):
        ops = self._ops()
        for master in ("avcc", "static_vcc", "lcc", "uncoded"):
            with Session.create(_config(master=master)) as sess:
                sess.load(X)
                handles = [sess.submit_matvec(w) for w in ops]
                results = [h.result() for h in handles]
            assert sess.stats.rounds_executed == 1, master
            if master != "uncoded":
                for w, got in zip(ops, results):
                    assert np.array_equal(got, ff_matvec(F, X, w)), master

    def test_fwd_and_bwd_families_batch_separately(self):
        rng = np.random.default_rng(5)
        ws = [F.random(8, rng) for _ in range(3)]
        es = [F.random(12, rng) for _ in range(2)]
        xt = np.ascontiguousarray(X.T)
        with Session.create(_config()) as sess:
            sess.load(X)
            fwd = [sess.submit_matvec(w) for w in ws]
            bwd = [sess.submit_matvec(e, transpose=True) for e in es]
            for w, h in zip(ws, fwd):
                assert np.array_equal(h.result(), ff_matvec(F, X, w))
            for e, h in zip(es, bwd):
                assert np.array_equal(h.result(), ff_matvec(F, xt, e))
        assert sess.stats.rounds_executed == 2
        assert sorted(sess.stats.jobs_per_round) == [2, 3]

    def test_batch_window_auto_flushes(self):
        ops = self._ops()
        with Session.create(_config(batch_window=2)) as sess:
            sess.load(X)
            handles = [sess.submit_matvec(w) for w in ops]
            # every pair flushed eagerly; nothing left pending
            assert sess.pending_jobs() == 0
            assert all(h.done() for h in handles)
        assert sess.stats.rounds_executed == self.N_JOBS // 2
        assert sess.stats.jobs_per_round == [2, 2, 2]

    def test_flush_on_close(self):
        with Session.create(_config()) as sess:
            sess.load(X)
            h = sess.submit_matvec(self._ops()[0])
        assert h.done()
        assert np.array_equal(h.result(), ff_matvec(F, X, self._ops()[0]))

    def test_stats_surface_verification_telemetry(self):
        with Session.create(_config()) as sess:
            sess.load(X)
            [sess.submit_matvec(w) for w in self._ops()]
            sess.flush()
            sess.end_iteration()
        stats = sess.stats
        assert stats.verify_time > 0.0
        assert stats.decode_time > 0.0
        # the injected forger (worker 2) must be observable
        assert 2 in stats.rejected_workers
        assert len(stats.adaptations) == 1
        assert 2 in stats.adaptations[0].detected_byzantine
        assert "jobs served" in stats.summary()

    def test_batched_round_on_wall_clock_backends(self):
        ops = self._ops()
        for backend in ("threaded", "process"):
            with Session.create(_config(backend=backend)) as sess:
                sess.load(X)
                handles = [sess.submit_matvec(w) for w in ops]
                results = [h.result() for h in handles]
            assert sess.stats.rounds_executed == 1, backend
            for w, got in zip(ops, results):
                assert np.array_equal(got, ff_matvec(F, X, w)), backend


class TestOperandReducedOnce:
    """An operand is reduced ``% q`` once, where it enters — at
    ``submit`` on the session path, at the blocking helper on the bare
    master — and every plan stage after that takes it reduced."""

    #: a scheme feasible at deg_f = 1 and 2, so gramian jobs run too
    SCHEME2 = SchemeParams(n=6, k=2, s=1, m=1)

    @pytest.fixture
    def calls(self, monkeypatch):
        """Callers in the session and master layers of
        ``PrimeField.asarray``, one entry per call."""
        import sys

        seen: list[str] = []
        original = PrimeField.asarray

        def counting(field, x):
            caller = sys._getframe(1).f_globals.get("__name__", "")
            if caller.startswith(("repro.api", "repro.core")):
                seen.append(caller)
            return original(field, x)

        monkeypatch.setattr(PrimeField, "asarray", counting)
        return seen

    @pytest.mark.parametrize("width", [1, 4])
    @pytest.mark.parametrize("family", ["fwd", "bwd", "gram"])
    def test_session_submission(self, calls, family, width):
        rng = np.random.default_rng(3)
        length = {"fwd": 8, "bwd": 12, "gram": 8}[family]
        ops = [F.random(length, rng) for _ in range(width)]
        with Session.create(_config(scheme=self.SCHEME2)) as sess:
            sess.load(X)
            if family == "gram":
                sess.submit_gramian(ops[0]).result()  # builds the gramian master
            del calls[:]
            if family == "gram":
                handles = [sess.submit_gramian(w) for w in ops]
            else:
                handles = [sess.submit_matvec(w, transpose=family == "bwd") for w in ops]
            sess.flush()
            [h.result() for h in handles]
        assert sess.stats.jobs_per_round[-1] == width
        assert calls == ["repro.api.session"] * width

    def test_bare_master_entry_points(self, calls):
        rng = np.random.default_rng(4)
        with Session.create(_config(scheme=self.SCHEME2)) as sess:
            sess.load(X)
            master = sess.master
            del calls[:]
            master.forward_round(F.random(8, rng))
            assert len(calls) == 1
            master.round_many("bwd", [F.random(12, rng) for _ in range(3)])
            assert len(calls) == 1 + 3
            assert set(calls) == {"repro.core.base"}


class TestOtherWorkloads:
    def test_gramian_jobs_batch(self):
        cfg = _config(scheme=SchemeParams(n=8, k=3, s=1, m=1), workers=())
        rng = np.random.default_rng(9)
        ws = [F.random(8, rng) for _ in range(3)]
        xt = np.ascontiguousarray(X.T)
        with Session.create(cfg) as sess:
            sess.load(X)
            handles = [sess.submit_gramian(w) for w in ws]
            for w, h in zip(ws, handles):
                expect = ff_matvec(F, xt, ff_matvec(F, X, w))
                assert np.array_equal(h.result(), expect)
        assert sess.stats.rounds_executed == 1
        assert sess.stats.jobs_per_round == [3]

    def test_gramian_requires_load(self):
        with Session.create(_config(workers=())) as sess:
            with pytest.raises(RuntimeError, match="load"):
                sess.submit_gramian(F.random(8, RNG))

    def test_matmul_executes_immediately(self):
        rng = np.random.default_rng(21)
        a = F.random((8, 6), rng)
        b = F.random((6, 4), rng)
        with Session.create(_config(workers=())) as sess:
            h = sess.submit_matmul(a, b, p=2, q=2)
            assert h.done()
            assert np.array_equal(h.result(), ff_matmul(F, a, b))

    def test_submit_after_close_raises(self):
        sess = Session.create(_config())
        sess.close()
        with pytest.raises(RuntimeError, match="closed"):
            sess.submit_matvec(F.random(8, RNG))


class TestTrainerThroughSession:
    def test_trainer_accepts_session_and_batches_nothing_silently(self):
        from repro.ml import (
            DistributedLogisticTrainer,
            LogisticConfig,
            make_gisette_like,
        )

        ds = make_gisette_like(m=48, d=8, rng=np.random.default_rng(2))
        cfg = _config(scheme=SchemeParams(n=6, k=3, s=1, m=1))
        with Session.create(cfg) as sess:
            sess.load(ds.x_train)
            trainer = DistributedLogisticTrainer(
                sess, ds, LogisticConfig(iterations=3, learning_rate=0.1)
            )
            hist = trainer.train()
        assert hist.iterations() == 3
        # 2 rounds per iteration (fwd + bwd), sequential by data dependency
        assert sess.stats.rounds_executed == 6
        assert len(sess.stats.adaptations) == 3

    def test_trainer_wraps_bare_master_in_session(self):
        from repro.core import AVCCMaster
        from repro.ml import (
            DistributedLogisticTrainer,
            LogisticConfig,
            make_gisette_like,
        )
        from repro.runtime import Honest, SimCluster, SimWorker, make_profiles

        ds = make_gisette_like(m=48, d=8, rng=np.random.default_rng(2))
        workers = [
            SimWorker(i, profile=make_profiles(6)[i], behavior=Honest())
            for i in range(6)
        ]
        cluster = SimCluster(F, workers, rng=np.random.default_rng(0))
        master = AVCCMaster(cluster, SchemeParams(n=6, k=3, s=1, m=1))
        master.setup(ds.x_train)
        trainer = DistributedLogisticTrainer(
            master, ds, LogisticConfig(iterations=2, learning_rate=0.1)
        )
        hist = trainer.train()
        assert hist.iterations() == 2
        assert isinstance(trainer.session, Session)


class TestNoBespokeConstructionOutsideCore:
    """The session layer is the only sanctioned construction path:
    examples, trainers and the experiment harness must not instantiate
    clusters or masters directly."""

    FORBIDDEN = re.compile(
        r"\b(SimCluster|ThreadedCluster|ProcessCluster|AVCCMaster|"
        r"LCCMaster|UncodedMaster|GramianAVCCMaster|"
        r"CodedMatmulAVCCMaster)\s*\("
    )

    def _offenders(self, paths):
        hits = []
        for path in paths:
            text = path.read_text()
            for lineno, line in enumerate(text.splitlines(), 1):
                if self.FORBIDDEN.search(line):
                    hits.append(f"{path.name}:{lineno}: {line.strip()}")
        return hits

    def test_examples_are_session_only(self):
        root = Path(__file__).resolve().parents[2]
        examples = sorted((root / "examples").glob("*.py"))
        assert examples, "examples directory went missing"
        assert self._offenders(examples) == []

    def test_trainers_and_experiments_are_session_only(self):
        root = Path(__file__).resolve().parents[2]
        paths = sorted((root / "src" / "repro" / "ml").glob("*.py")) + sorted(
            (root / "src" / "repro" / "experiments").glob("*.py")
        )
        assert paths
        assert self._offenders(paths) == []


class TestJobHandle:
    def test_handle_exposes_record_after_result(self):
        with Session.create(_config()) as sess:
            sess.load(X)
            h = sess.submit_matvec(F.random(8, RNG))
            assert isinstance(h, JobHandle)
            assert not h.done()
            h.result()
            assert h.done()
            assert h.record.n_verified >= SCHEME.k
            assert h.record.round_name == "fwd"

    def test_batched_handles_share_one_record(self):
        with Session.create(_config()) as sess:
            sess.load(X)
            h1 = sess.submit_matvec(F.random(8, RNG))
            h2 = sess.submit_matvec(F.random(8, RNG))
            assert h1.record is h2.record


class TestGramianSurvivesDynamicRecoding:
    """The lazily-built gramian master shares the backend pool with the
    matvec master; when dynamic re-coding evicts a Byzantine worker the
    gramian master must stop dispatching to it too (on wall-clock
    backends a dispatch to a dropped worker raises)."""

    def _cfg(self, backend):
        specs = [WorkerSpec() for _ in range(8)]
        specs[2] = WorkerSpec(behavior="reverse")
        opts = {"straggle_scale": 0.01} if backend == "threaded" else {}
        return SessionConfig(
            scheme=SchemeParams(n=8, k=3, s=1, m=1),
            master="avcc",
            backend=backend,
            seed=1,
            workers=tuple(specs),
            backend_options=opts,
        )

    @pytest.mark.parametrize("backend", ["sim", "threaded"])
    def test_gramian_round_after_byzantine_eviction(self, backend):
        rng = np.random.default_rng(3)
        w = F.random(8, rng)
        xt = np.ascontiguousarray(X.T)
        expect = ff_matvec(F, xt, ff_matvec(F, X, w))
        with Session.create(self._cfg(backend)) as sess:
            sess.load(X)
            # round 1 exposes the forger to both masters
            assert np.array_equal(sess.submit_matvec(w).result(), ff_matvec(F, X, w))
            assert np.array_equal(sess.submit_gramian(w).result(), expect)
            out = sess.end_iteration()
            if 2 in out.dropped_workers:
                assert 2 not in sess._gramian_master.active
            # the gramian service must keep working on the reduced pool
            assert np.array_equal(sess.submit_gramian(w).result(), expect)
            assert np.array_equal(sess.submit_matvec(w).result(), ff_matvec(F, X, w))


class TestCloseDuringUnwind:
    def test_exception_in_body_skips_flush_and_propagates(self):
        with pytest.raises(KeyError, match="user bug"):
            with Session.create(_config()) as sess:
                sess.load(X)
                h = sess.submit_matvec(F.random(8, RNG))
                raise KeyError("user bug")
        # the pending job was abandoned, not executed
        assert sess.stats.rounds_executed == 0
        with pytest.raises(RuntimeError, match="pending"):
            h.result()

    def test_clean_exit_still_flushes(self):
        with Session.create(_config()) as sess:
            sess.load(X)
            h = sess.submit_matvec(F.random(8, RNG))
        assert h.done()
        assert sess.stats.rounds_executed == 1


def _share_stack_refs(backend):
    """A weak reference to every ``(n, rows, cols)`` share stack
    ``backend`` is handed to distribute, appended as it ships."""
    import weakref

    refs = []
    real = backend.distribute

    def recording(name, shares, participants=None):
        assert shares.ndim == 3 and shares.shape[0] == len(participants)
        refs.append(weakref.ref(shares))
        return real(name, shares, participants=participants)

    backend.distribute = recording
    return refs


class TestClosedSessionLetsGo:
    """Results outlive their session; the dataset and its shares must
    not. A caller that keeps every handle (a benchmark, a notebook)
    used to keep every closed session's master, cache and shares."""

    @pytest.mark.parametrize("backend", ["sim", "tcp"])
    def test_no_array_of_the_dataset_survives_close(self, backend):
        import gc
        import weakref

        rng = np.random.default_rng(8)
        x = F.random((12, 8), rng)
        w, e = F.random(8, rng), F.random(12, rng)
        scheme = SchemeParams(n=8, k=3, s=1, m=1)  # room for the degree-2 family
        sess = Session.create(
            _config(backend=backend, scheme=scheme, workers=(), audit=True)
        )
        stacks = _share_stack_refs(sess.backend)
        with sess:
            sess.load(x)
            assert not np.shares_memory(sess._x, x)
            handles = [
                sess.submit_matvec(w),
                sess.submit_matvec(e, transpose=True),
                sess.submit_gramian(w),
            ]
            results = [h.result().copy() for h in handles]
            sess.end_iteration()
            refs = [*stacks, weakref.ref(sess._x)]
            now, summary, head = sess.scheme_now, sess.stats.summary(), sess.audit.head
        gc.collect()
        assert [r() is None for r in refs] == [True] * 4
        # the closed session and its resolved handles are all still here
        assert (sess.scheme_now, sess.stats.summary(), sess.audit.head) == (now, summary, head)
        assert sess.audit.verify_chain() == len(sess.audit) == 3
        for h, want in zip(handles, results):
            np.testing.assert_array_equal(h.result(), want)
            assert h.record.n_verified >= scheme.k

    def test_socket_master_holds_no_share_stack_after_load(self):
        """The daemons own copies of their shares, so once ``load`` has
        shipped them the master keeps the dataset, codes and keys only."""
        import gc

        rng = np.random.default_rng(8)
        x = F.random((12, 8), rng)
        w = F.random(8, rng)
        with Session.create(_config(backend="tcp", workers=())) as sess:
            refs = _share_stack_refs(sess.backend)
            sess.load(x)
            gc.collect()
            assert [r() is None for r in refs] == [True, True]
            np.testing.assert_array_equal(sess.submit_matvec(w).result(), ff_matvec(F, x, w))

    def test_the_callers_array_is_never_aliased(self):
        """``load`` owns a reduced copy: what the caller does to its
        array afterwards reaches neither a round nor a later re-code."""
        x = X.copy()
        w = F.random(8, RNG)
        with Session.create(_config(workers=())) as sess:
            sess.load(x)
            x[...] = 0
            np.testing.assert_array_equal(sess.submit_matvec(w).result(), ff_matvec(F, X, w))
            sess.release_workers((5,))  # re-code from the session's copy
            assert sess.scheme_now[0] == 5
            np.testing.assert_array_equal(sess.submit_matvec(w).result(), ff_matvec(F, X, w))

    def test_abandoned_handle_still_reports_the_closed_session(self):
        from repro.api.scheduler import SessionClosedError

        sess = Session.create(_config())
        sess.load(X)
        h = sess.submit_matvec(F.random(8, RNG))
        sess.close(flush=False)
        for _ in range(2):
            with pytest.raises(SessionClosedError):
                h.result()

    def test_borrowed_master_keeps_serving_after_its_session_closes(self):
        """``from_master`` borrows: closing that session releases its
        own copy of nothing the master needs."""
        from repro.core import AVCCMaster
        from repro.runtime import SimCluster, SimWorker

        backend = SimCluster(F, [SimWorker(i) for i in range(6)], rng=np.random.default_rng(3))
        master = AVCCMaster(backend, SCHEME)
        master.setup(X)
        w = F.random(8, RNG)
        with Session.from_master(master) as sess:
            np.testing.assert_array_equal(sess.submit_matvec(w).result(), ff_matvec(F, X, w))
        np.testing.assert_array_equal(master.forward_round(w).vector, ff_matvec(F, X, w))
