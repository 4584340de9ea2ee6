"""Tests for execution trace records and aggregation."""

import pytest

from repro.runtime import RoundRecord, TraceRecorder


def _round(it, name, t0, t1, **kw):
    defaults = dict(
        compute_wait=1.0,
        comm_time=0.5,
        verify_time=0.1,
        decode_time=0.2,
        n_collected=9,
        n_verified=9,
        n_rejected=0,
    )
    defaults.update(kw)
    return RoundRecord(iteration=it, round_name=name, t_start=t0, t_end=t1, **defaults)


class TestRecords:
    def test_round_duration(self):
        r = _round(0, "z", 1.0, 3.5)
        assert r.duration == 2.5

    def test_iteration_breakdown_sums_rounds(self):
        it = TraceRecorder.merge_rounds(
            0, [_round(0, "z", 0, 2), _round(0, "g", 2, 4, verify_time=0.3)]
        )
        b = it.breakdown()
        assert b["compute"] == 2.0
        assert b["communication"] == 1.0
        assert b["verification"] == pytest.approx(0.4)
        assert b["decoding"] == pytest.approx(0.4)

    def test_merge_requires_rounds(self):
        with pytest.raises(ValueError):
            TraceRecorder.merge_rounds(0, [])

    def test_merge_adds_reencode_to_end(self):
        it = TraceRecorder.merge_rounds(
            1, [_round(1, "z", 10, 12)], reencode_time=41.0, scheme=(11, 8)
        )
        assert it.t_end == 53.0
        assert it.reencode_time == 41.0
        assert it.scheme == (11, 8)

    def test_iteration_duration_spans_rounds_and_reencode(self):
        it = TraceRecorder.merge_rounds(
            2, [_round(2, "z", 10, 12), _round(2, "g", 12, 15)], reencode_time=4.0
        )
        assert it.t_start == 10
        assert it.duration == 9.0


class TestRecorder:
    def _recorder(self):
        tr = TraceRecorder()
        tr.add(TraceRecorder.merge_rounds(0, [_round(0, "z", 0, 2)], scheme=(12, 9)))
        tr.add(
            TraceRecorder.merge_rounds(
                1,
                [_round(1, "z", 2, 5, rejected_workers=(3,), n_rejected=1)],
                reencode_time=4.0,
                scheme=(11, 8),
            )
        )
        return tr

    def test_total_time(self):
        assert self._recorder().total_time() == 9.0

    def test_cumulative(self):
        assert self._recorder().cumulative_times() == [2.0, 9.0]

    def test_mean_breakdown(self):
        b = self._recorder().mean_breakdown()
        assert b["compute"] == 1.0
        assert b["communication"] == 0.5

    def test_empty_recorder(self):
        tr = TraceRecorder()
        assert tr.total_time() == 0.0
        assert tr.mean_breakdown()["compute"] == 0.0

    def test_reencode_total_and_schemes(self):
        tr = self._recorder()
        assert tr.total_reencode_time() == 4.0
        assert tr.schemes() == [(12, 9), (11, 8)]

    def test_rejected_by_iteration(self):
        assert self._recorder().rejected_by_iteration() == [set(), {3}]
