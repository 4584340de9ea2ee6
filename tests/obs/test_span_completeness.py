"""Span-completeness across every backend: one served job must leave a
single closed, gap-free trace tree — parents resolve, children nest
inside their parents, worker spans never orphan — including under
worker death and round-timeout expiry on the tcp backend."""

import os
import signal
import time

import numpy as np
import pytest

from repro.api import Session, SessionConfig
from repro.api.config import WorkerSpec
from repro.coding import SchemeParams

BACKENDS = ["sim", "tcp"]

EPS = 1e-6


def _config(backend, **overrides):
    kw = dict(
        scheme=SchemeParams(n=6, k=3, s=1, m=1),
        backend=backend,
        seed=3,
        observability=True,
    )
    if backend not in ("sim",):
        kw["backend_options"] = {"straggle_scale": 0.002}
    kw.update(overrides)
    return SessionConfig(**kw)


def _assert_closed_tree(spans):
    """One root, every span closed, every parent resolvable, every
    child inside its parent's interval."""
    assert spans, "empty trace"
    by_id = {s.span_id: s for s in spans}
    roots = [s for s in spans if s.parent_id is None]
    assert len(roots) == 1, [s.name for s in roots]
    for s in spans:
        assert s.t_end is not None, f"unclosed span {s.name}"
        assert s.t_end >= s.t_start - EPS, s.name
        if s.parent_id is not None:
            parent = by_id.get(s.parent_id)
            assert parent is not None, f"orphan span {s.name}"
            assert s.t_start >= parent.t_start - EPS, (s.name, parent.name)
            assert s.t_end <= parent.t_end + EPS, (s.name, parent.name)
    return roots[0]


def _serve_one(sess):
    rng = np.random.default_rng(0)
    x = sess.field.random((12, 8), rng)
    w = sess.field.random(8, rng)
    sess.load(x)
    return sess.submit_matvec(w).result()


def _request_traces(sess):
    tracer = sess.obs.tracer
    return [
        t
        for t in tracer.trace_ids()
        if not t.startswith("round-")
    ]


class TestSpanCompleteness:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_single_job_leaves_one_closed_tree(self, backend):
        with Session.create(_config(backend)) as sess:
            _serve_one(sess)
            tids = _request_traces(sess)
            assert len(tids) == 1
            spans = sess.obs.tracer.resolved(tids[0])
            root = _assert_closed_tree(spans)
            assert root.name == "request"
            names = [s.name for s in spans]
            for need in (
                "session",
                "round",
                "round.broadcast",
                "round.collect",
                "round.verify",
                "round.decode",
            ):
                assert need in names, (backend, need, names)
            assert any(n.startswith("worker:") for n in names)

    def test_tcp_carries_daemon_sub_spans(self):
        with Session.create(_config("tcp")) as sess:
            _serve_one(sess)
            spans = sess.obs.tracer.resolved(_request_traces(sess)[0])
            by_id = {s.span_id: s for s in spans}
            compute = [s for s in spans if s.name == "worker.compute"]
            assert compute, "daemons shipped no sub-spans"
            for s in compute:
                # nested under a worker:<id> span, never orphaned
                parent = by_id[s.parent_id]
                assert parent.name.startswith("worker:")

    @pytest.mark.usefixtures("host_per_worker")
    def test_worker_death_still_closes_the_tree(self):
        cfg = _config("tcp")
        with Session.create(cfg) as sess:
            rng = np.random.default_rng(0)
            x = sess.field.random((12, 8), rng)
            w = sess.field.random(8, rng)
            sess.load(x)
            os.kill(sess.backend.worker_pids()[5], signal.SIGKILL)
            time.sleep(0.05)
            got = sess.submit_matvec(w).result()
            assert got is not None
            for tid in _request_traces(sess):
                _assert_closed_tree(sess.obs.tracer.resolved(tid))

    def test_round_timeout_still_closes_the_tree(self):
        # one unbounded straggler + a tight collect deadline: the round
        # finishes by expiry, and the trace must still close gap-free
        specs = tuple(
            WorkerSpec(straggler_factor=200.0 if i == 5 else 1.0)
            for i in range(6)
        )
        cfg = _config(
            "tcp",
            workers=specs,
            backend_options={
                "straggle_scale": 0.05,
                "round_timeout": 0.35,
            },
        )
        with Session.create(cfg) as sess:
            got = _serve_one(sess)
            assert got is not None
            tids = _request_traces(sess)
            assert tids
            for tid in tids:
                _assert_closed_tree(sess.obs.tracer.resolved(tid))

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_batched_jobs_share_one_round_trace(self, backend):
        cfg = _config(backend, batch_window=4)
        with Session.create(cfg) as sess:
            rng = np.random.default_rng(0)
            x = sess.field.random((12, 8), rng)
            sess.load(x)
            handles = [
                sess.submit_matvec(sess.field.random(8, rng))
                for _ in range(4)
            ]
            for h in handles:
                h.result()
            tids = _request_traces(sess)
            assert len(tids) == 4
            round_tids = [
                t
                for t in sess.obs.tracer.trace_ids()
                if t.startswith("round-")
            ]
            # one coalesced round: recorded once, linked four times
            assert len(round_tids) == 1
            for tid in tids:
                spans = sess.obs.tracer.resolved(tid)
                _assert_closed_tree(spans)
                assert "round" in [s.name for s in spans]
