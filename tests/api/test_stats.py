"""SessionStats telemetry: summary(), the PR 3 pipeline fields, and
the serving-layer round-time/submit hooks.

The pipeline fields (``pipeline_occupancy``, ``max_inflight_depth``,
``rounds_overlapped``) and ``summary()`` were previously only
exercised incidentally through the benches; here they are pinned
directly — both on synthetic stats (exact arithmetic) and through real
pipelined sessions.
"""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.api import Session, SessionConfig, SessionStats
from repro.coding import SchemeParams
from repro.ff import DEFAULT_PRIME, PrimeField

F = PrimeField(DEFAULT_PRIME)
SCHEME = SchemeParams(n=8, k=4, s=1, m=1)
RNG = np.random.default_rng(0)
X = F.random((16, 8), RNG)


def _config(**kw):
    base = dict(scheme=SCHEME, backend="sim", seed=3, batch_window=64)
    base.update(kw)
    return SessionConfig(**base)


def _run_jobs(max_inflight, n_jobs=6):
    with Session.create(_config(max_inflight_rounds=max_inflight, batch_window=1)) as sess:
        sess.load(X)
        handles = [
            sess.submit_matvec(F.random(8, RNG), transpose=False)
            if j % 2 == 0
            else sess.submit_matvec(F.random(16, RNG), transpose=True)
            for j in range(n_jobs)
        ]
        for h in handles:
            h.result()
    return sess.stats


class TestPipelineTelemetryFields:
    def test_synthetic_depths_arithmetic(self):
        stats = SessionStats(dispatch_depths=[1, 2, 3, 1, 2])
        assert stats.max_inflight_depth == 3
        assert stats.pipeline_occupancy == pytest.approx(9 / 5)
        assert stats.rounds_overlapped == 3

    def test_empty_stats_degenerate_values(self):
        stats = SessionStats()
        assert stats.max_inflight_depth == 0
        assert stats.pipeline_occupancy == 0.0
        assert stats.rounds_overlapped == 0
        assert stats.batching_factor == 0.0
        assert stats.recent_round_time() == 0.0

    def test_serial_session_never_overlaps(self):
        stats = _run_jobs(max_inflight=1)
        assert stats.max_inflight_depth == 1
        assert stats.pipeline_occupancy == 1.0
        assert stats.rounds_overlapped == 0
        assert stats.dispatch_depths == [1] * stats.rounds_executed

    def test_pipelined_session_reports_overlap(self):
        stats = _run_jobs(max_inflight=4)
        assert stats.max_inflight_depth >= 2
        assert stats.pipeline_occupancy > 1.0
        assert stats.rounds_overlapped >= 1
        assert len(stats.dispatch_depths) == stats.rounds_executed


class TestSummary:
    def test_summary_contains_all_headline_numbers(self):
        stats = _run_jobs(max_inflight=2)
        text = stats.summary()
        assert f"{stats.jobs_served}/{stats.jobs_submitted} jobs served" in text
        assert f"{stats.rounds_executed} rounds" in text
        assert f"batching x{stats.batching_factor:.2f}" in text
        assert f"pipeline depth {stats.pipeline_occupancy:.2f}" in text
        assert "verify" in text and "decode" in text and "re-encode" in text

    def test_summary_on_fresh_stats(self):
        text = SessionStats().summary()
        assert "0/0 jobs served in 0 rounds" in text


class _Round:
    """The two fields ``recent_round_time`` reads, with reads counted."""

    touched = 0

    def __init__(self, round_name, duration):
        self._round_name = round_name
        self.duration = duration

    @property
    def round_name(self):
        _Round.touched += 1
        return self._round_name


def _recent_round_time_by_full_scan(records, window, family):
    """The definition ``recent_round_time`` had before it walked the
    log from the tail: filter the whole log, then take the window."""
    if family is not None:
        records = [r for r in records if r.round_name == family]
    durations = [r.duration for r in records[-window:]]
    return float(sum(durations)) / len(durations) if durations else 0.0


class TestRecentRoundTimeWalksFromTheTail:
    @given(
        log=st.lists(
            st.tuples(
                st.sampled_from(["fwd", "bwd", "gram"]),
                st.floats(min_value=0.0, max_value=10.0),
            ),
            max_size=60,
        ),
        window=st.integers(min_value=1, max_value=12),
        family=st.sampled_from([None, "fwd", "bwd", "gram", "conv"]),
    )
    def test_equals_the_full_scan_definition(self, log, window, family):
        stats = SessionStats(records=[_Round(n, d) for n, d in log])
        got = stats.recent_round_time(window=window, family=family)
        # == on floats: the durations must also be summed in log order
        assert got == _recent_round_time_by_full_scan(stats.records, window, family)

    def test_long_log_reads_only_the_window_and_the_tail_between(self):
        records = [_Round("fwd" if i % 2 else "bwd", 1e-3 * i) for i in range(50_000)]
        records += [_Round("bwd", 1.0)] * 5  # a non-matching tail
        stats = SessionStats(records=records)
        _Round.touched = 0
        got = stats.recent_round_time(window=8, family="fwd")
        # 8 matches alternate with 7 "bwd" rounds, behind the tail of 5
        assert _Round.touched == 8 + 7 + 5
        assert got == pytest.approx(1e-3 * sum(range(49_985, 50_000, 2)) / 8)


class TestRoundTimeTelemetry:
    def test_recent_round_time_windows(self):
        stats = SessionStats()
        assert stats.recent_round_time() == 0.0
        with pytest.raises(ValueError, match="window"):
            stats.recent_round_time(window=0)
        full = _run_jobs(max_inflight=1, n_jobs=6)
        assert full.recent_round_time(window=2) == pytest.approx(
            sum(r.duration for r in full.records[-2:]) / 2
        )

    def test_recent_round_time_family_filter(self):
        stats = _run_jobs(max_inflight=1, n_jobs=6)  # alternating fwd/bwd
        fwd = [r.duration for r in stats.records if r.round_name == "fwd"]
        assert stats.recent_round_time(family="fwd") == pytest.approx(
            sum(fwd) / len(fwd)
        )
        assert stats.recent_round_time(family="gram") == 0.0  # never ran

    def test_estimate_prefers_same_family_observations(self):
        with Session.create(_config(batch_window=1)) as sess:
            sess.load(X)
            # run only bwd rounds; a fwd estimate must not blend them in
            for _ in range(3):
                sess.submit_matvec(F.random(16, RNG), transpose=True).result()
            prior_fwd = sess._prior_round_time("fwd", 1)
            bwd_observed = sess.stats.recent_round_time(family="bwd")
            # fwd never ran: cold-start falls back to the overall mean
            assert sess.estimate_round_time("fwd") == pytest.approx(
                0.5 * (prior_fwd + bwd_observed)
            )
            # after a fwd round, only fwd durations feed the fwd blend
            sess.submit_matvec(F.random(8, RNG)).result()
            fwd_observed = sess.stats.recent_round_time(family="fwd")
            assert sess.estimate_round_time("fwd") == pytest.approx(
                0.5 * (prior_fwd + fwd_observed)
            )


class TestServingHooks:
    def test_estimate_round_time_prior_then_blend(self):
        with Session.create(_config()) as sess:
            assert sess.estimate_round_time("fwd") == 0.0  # nothing loaded
            sess.load(X)
            prior = sess.estimate_round_time("fwd", width=1)
            assert prior > 0.0
            assert sess.estimate_round_time("fwd", width=8) > prior
            assert sess.estimate_round_time("bwd") > 0.0
            sess.submit_matvec(F.random(8, RNG)).result()
            blended = sess.estimate_round_time("fwd", width=1)
            observed = sess.stats.recent_round_time()
            assert blended == pytest.approx(0.5 * (prior + observed))

    def test_estimate_round_time_validation_and_fallback(self):
        with Session.create(_config()) as sess:
            sess.load(X)
            with pytest.raises(ValueError, match="width"):
                sess.estimate_round_time("fwd", width=0)
            # unknown family: falls back to the observed signal (none yet)
            assert sess.estimate_round_time("conv") == 0.0

    def test_submit_routes_by_family(self):
        class _Req:
            def __init__(self, family, operand, transpose=False):
                self.family = family
                self.operand = operand
                self.transpose = transpose

        from repro.ff import ff_matvec

        with Session.create(_config()) as sess:
            sess.load(X)
            w = F.random(8, RNG)
            got = sess.submit(_Req("matvec", w)).result()
            assert got.tobytes() == ff_matvec(F, X, w).tobytes()
            e = F.random(16, RNG)
            got_t = sess.submit(_Req("matvec", e, transpose=True)).result()
            assert got_t.tobytes() == ff_matvec(F, X.T.copy(), e).tobytes()
            for family in ("fft", "matmul"):
                with pytest.raises(ValueError, match="unknown request family"):
                    sess.submit(_Req(family, w))

    def test_estimate_is_finite_and_sane(self):
        with Session.create(_config()) as sess:
            sess.load(X)
            est = sess.estimate_round_time("fwd", width=4)
            assert math.isfinite(est)
            assert est < 1.0  # sim costs at this scale are milliseconds
