"""Self-tests of the benchmark harness.

Not part of tier-1 (``testpaths`` is ``tests``); run them explicitly:

    PYTHONPATH=src python -m pytest benchmarks/e2e/test_harness.py -q
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from e2e import compare, measure
from e2e.spans import Recorder, TracedHandle, covered, self_times
from e2e.stats import latency_samples, percentile, samples_beyond, supported_tail
from e2e.workloads import WORKLOADS, Timed
from repro.api import Session


# ----------------------------------------------------------------------
# span self-time arithmetic
# ----------------------------------------------------------------------
def test_self_time_subtracts_the_union_of_overlapping_children():
    spans = [
        ("root", "unattributed", 0.0, 10.0, -1, None),
        ("a", "core", 1.0, 5.0, 0, None),
        ("b", "core", 4.0, 7.0, 0, None),  # overlaps a on [4, 5]
        ("c", "verify", 4.5, 6.0, 2, None),  # grandchild: only b's business
        ("d", "core", 9.0, 12.0, 0, None),  # sticks out of the root
    ]
    selfs = self_times(spans)
    assert selfs[0] == pytest.approx(10.0 - (6.0 + 1.0))  # [1,7] and [9,10]
    assert selfs[1] == pytest.approx(4.0)
    assert selfs[2] == pytest.approx(3.0 - 1.5)
    assert selfs[3] == pytest.approx(1.5)


def test_covered_clips_and_merges():
    assert covered([(0.0, 2.0), (1.0, 3.0), (5.0, 9.0)], 0.5, 6.0) == pytest.approx(3.5)
    assert covered([], 0.0, 1.0) == 0.0


def test_recorder_nests_wraps_and_restores():
    class Thing:
        def work(self, x):
            return x + 1

    rec, thing = Recorder(), Thing()
    rec.wrap(thing, "work", "Thing.work", "core", after=lambda out, x: out * 10)
    with rec.span("outer", "api", tag="t1"):
        assert thing.work(1) == 20
    rec.unwrap_all()
    assert thing.work(1) == 2 and "work" not in vars(thing)
    outer, inner = rec.finished()
    assert (inner[0], inner[4], inner[5]) == ("Thing.work", 0, "t1")  # parent, inherited tag
    assert outer[2] <= inner[2] <= inner[3] <= outer[3]


def test_traced_handle_attributes_waits_up_to_the_kernel_budget():
    class Arrival:
        compute_time = 1.0

    rec = Recorder()
    handle = TracedHandle([Arrival(), Arrival()], rec, "runtime.net", kernel_s=lambda: 0.0)
    assert len(list(handle)) == 2
    names = [s[0] for s in rec.finished()]
    # a zero kernel budget attributes nothing; three waits (the last ends the stream)
    assert names == ["backend.collect"] * 3


# ----------------------------------------------------------------------
# percentiles and failures
# ----------------------------------------------------------------------
def test_tail_percentile_needs_ten_samples_beyond_it():
    assert samples_beyond(1000, 99.0) == 10
    assert samples_beyond(999, 99.0) == 9
    assert supported_tail(20000, 99.0) == 99.0
    assert supported_tail(999, 99.0) == 95.0
    assert supported_tail(160, 90.0) == 90.0
    assert supported_tail(99, 90.0) == 75.0
    assert supported_tail(12, 99.0) == 50.0  # nothing but the median is supported
    assert supported_tail(10**6, 90.0) == 90.0  # never above what was asked for


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert percentile(values, 50.0) == 50
    assert percentile(values, 99.0) == 99
    assert percentile(values, 100.0) == 100
    assert percentile([7.0], 99.0) == 7.0


def test_a_failed_op_counts_as_missing_the_latency():
    samples = latency_samples([0.001] * 98, failed=2)
    assert len(samples) == 100
    assert percentile(samples, 50.0) == 0.001
    assert percentile(samples, 98.0) == 0.001
    assert math.isinf(percentile(samples, 99.0))  # the failures reach into p99


def _rep(wall_s, latency_s, failed=0, wrong_bytes=0, setup_s=0.5):
    timed = Timed(
        t_begin=0.0, t_end=wall_s, units=96,
        ops_per_unit=1, latencies=[latency_s] * 96, attempted=96 + failed, failed=failed,
        rounds=96,
    )
    return measure.Rep(setup_s, timed, wrong_bytes, cpu_s=wall_s, peak_rss_mb=1.0)


def test_failed_and_shed_ops_enter_fail_frac_and_the_tail():
    reps = [_rep(1.0, 0.01, failed=3, wrong_bytes=1), _rep(1.0, 0.01)]
    metrics, how = measure.end_to_end(WORKLOADS["serve_small_tcp"], reps)
    assert how["fail_frac"] == pytest.approx(4 / 195)
    assert how["latency_samples"] == 195  # the 3 shed ops are latency samples too
    # the sample of 195 supports p90; the 3 failures reach into the first
    # repetition's p99 but not its p90, and the clean repetition is the best
    assert how["tail_percentile"] == 90.0
    assert metrics["lat_tail_ms"] == pytest.approx(10.0)
    only_failed = measure.end_to_end(WORKLOADS["serve_small_tcp"], [_rep(1.0, 0.01, failed=40)])
    assert math.isinf(only_failed[0]["lat_tail_ms"])


def test_metrics_come_from_the_best_repetition_and_the_median_setup():
    reps = [
        _rep(2.0, 0.02, setup_s=3.0), _rep(1.0, 0.01, setup_s=1.0), _rep(4.0, 0.04, setup_s=2.0)
    ]
    metrics, how = measure.end_to_end(WORKLOADS["batch_wide_sim"], reps)
    assert metrics["ops_per_s"] == pytest.approx(96.0)
    assert metrics["lat_p50_ms"] == pytest.approx(10.0)
    assert metrics["cpu_ms_per_op"] == pytest.approx(1000.0 / 96)
    assert metrics["setup_s"] == 2.0
    assert how["repetitions"] == 3 and how["ops"] == 288


# ----------------------------------------------------------------------
# inputs and the correctness check
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", list(WORKLOADS))
def test_same_seed_same_bytes_other_seed_other_bytes(name):
    wl = WORKLOADS[name]
    size = wl.size(1.0, quick=True)
    assert wl.digest(wl.inputs(7, size)) == wl.digest(wl.inputs(7, size))
    assert wl.digest(wl.inputs(7, size)) != wl.digest(wl.inputs(8, size))


def test_a_corrupted_output_is_caught():
    wl = WORKLOADS["batch_wide_sim"]
    size = wl.size(1.0, quick=True)
    inp = wl.inputs(3, size)
    with Session.create(wl.config(3)) as sess:
        sess.load(inp["x"])
        timed = wl.timed(sess, inp, size, Recorder())
        assert timed.failed == 0 and wl.check(sess, inp, timed) == 0
        flipped = timed.outputs[2][5].copy()
        flipped[0] = (flipped[0] + 1) % sess.field.q
        timed.outputs[2][5] = flipped
        assert wl.check(sess, inp, timed) == 1
        # same values, other bytes: not byte-for-byte equal either
        timed.outputs[2][5] = timed.outputs[2][6].astype(np.int32)
        assert wl.check(sess, inp, timed) == 1


# ----------------------------------------------------------------------
# compare.py verdicts
# ----------------------------------------------------------------------
def _result(ops_per_s, q1, q3, fail_frac=0.0):
    spec = json.loads((Path(compare.ROOT) / "BENCHMARK.json").read_text())
    rows = {
        m["name"]: {"median": 1.0, "q1": 1.0, "q3": 1.0, "unit": m["unit"]}
        for m in spec["end_to_end"]
    }
    rows["ops_per_s"] = {"median": ops_per_s, "q1": q1, "q3": q3, "unit": "1/s"}
    return spec, {"workloads": {"w": {"end_to_end": rows, "fail_frac": fail_frac}}}


def _verdicts(a, b, spec):
    return {r["metric"]: r["verdict"] for r in compare.compare(a, b, spec)}


def test_compare_separates_regression_unresolved_and_ok():
    spec, base = _result(100.0, 99.0, 101.0)
    bound = next(m["bound"] for m in spec["end_to_end"] if m["name"] == "ops_per_s")
    inside, outside = 100.0 * (1 - bound / 2), 100.0 * (1 - 2 * bound)
    wide = 100.0 * bound

    def after(median, half_width, fail_frac=0.0):
        return _result(median, median - half_width, median + half_width, fail_frac)[1]

    assert _verdicts(base, after(inside, 1.0), spec)["ops_per_s"] == "ok"
    assert _verdicts(base, after(outside, 1.0), spec)["ops_per_s"] == "regression"
    # a spread wider than the bound decides nothing, even with equal medians
    assert _verdicts(base, after(100.0, wide), spec)["ops_per_s"] == "unresolved"
    assert _verdicts(base, after(100.0, 1.0, 0.01), spec)["fail_frac"] == "regression"
