"""Unit tests for the metrics registry: labeled series, fixed-ladder
histograms (mergeable snapshots, window drains), Prometheus/JSON
rendering, and registry get-or-create semantics."""

import json
import math

import pytest

from repro.obs.metrics import (
    LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    HistogramSnapshot,
    MetricsRegistry,
    snapshot_from_values,
)


class TestCounter:
    def test_labeled_series_accumulate_independently(self):
        c = Counter("requests_total")
        c.inc(status="served")
        c.inc(status="served")
        c.inc(3, status="shed")
        assert c.value(status="served") == 2
        assert c.value(status="shed") == 3
        assert c.total() == 5

    def test_label_order_is_canonical(self):
        c = Counter("x")
        c.inc(a=1, b=2)
        c.inc(b=2, a=1)
        assert c.value(a=1, b=2) == 2
        assert len(list(c.series())) == 1

    def test_negative_increment_rejected(self):
        c = Counter("x")
        with pytest.raises(ValueError):
            c.inc(-1)


class TestGauge:
    def test_set_and_add(self):
        g = Gauge("depth")
        g.set(4, queue="a")
        g.add(-1, queue="a")
        assert g.value(queue="a") == 3


class TestHistogram:
    def test_fixed_ladder_is_log_spaced(self):
        assert LATENCY_BUCKETS[0] == pytest.approx(32e-6)
        ratios = [
            LATENCY_BUCKETS[i + 1] / LATENCY_BUCKETS[i]
            for i in range(len(LATENCY_BUCKETS) - 1)
        ]
        assert all(r == pytest.approx(2.0) for r in ratios)

    def test_snapshot_counts_and_overflow(self):
        h = Histogram("lat", buckets=(0.1, 1.0))
        for v in (0.05, 0.5, 2.0, 3.0):
            h.observe(v)
        snap = h.merged()
        assert snap.counts == (1, 1, 2)  # <=0.1, <=1.0, +Inf
        assert snap.count == 4
        assert snap.sum == pytest.approx(5.55)

    def test_value_on_a_bound_counts_in_that_bucket(self):
        # Prometheus ``le`` semantics: a bucket includes its upper bound
        h = Histogram("lat", buckets=(0.1, 1.0))
        h.observe(0.1)
        h.observe(1.0)
        assert h.merged().counts == (1, 1, 0)

    def test_observe_key_feeds_the_labelled_series(self):
        h = Histogram("lat", buckets=(0.1, 1.0))
        h.observe(0.05, tenant="a")
        h.observe_key((("tenant", "a"),), 2.0)
        h.observe_key((("tenant", "b"),), 0.5)
        a = h.snapshot_of(tenant="a")
        assert a.counts == (1, 0, 1)
        assert a.sum == pytest.approx(2.05)
        assert h.snapshot_of(tenant="b").counts == (0, 1, 0)

    def test_snapshots_merge_losslessly(self):
        a = snapshot_from_values([0.001, 0.01], bounds=(0.005, 0.05))
        b = snapshot_from_values([0.02, 0.1], bounds=(0.005, 0.05))
        m = a.merge(b)
        assert m.count == 4
        assert m.counts == tuple(
            x + y for x, y in zip(a.counts, b.counts)
        )
        assert m.sum == pytest.approx(a.sum + b.sum)

    def test_merge_rejects_mismatched_ladders(self):
        a = snapshot_from_values([1.0], bounds=(0.5,))
        b = snapshot_from_values([1.0], bounds=(0.25,))
        with pytest.raises(ValueError):
            a.merge(b)

    def test_percentile_interpolates_within_bucket(self):
        snap = snapshot_from_values([0.3] * 100, bounds=(0.25, 0.5, 1.0))
        # all mass in the (0.25, 0.5] bucket: estimates interpolate
        # linearly across that bucket and never leave it
        assert snap.percentile(50.0) == pytest.approx(0.375)
        assert snap.percentile(99.0) == pytest.approx(0.4975)

    def test_empty_percentile_is_nan(self):
        snap = snapshot_from_values([], bounds=(1.0,))
        assert math.isnan(snap.percentile(99.0))

    def test_mean_is_sum_over_count_and_nan_when_empty(self):
        snap = snapshot_from_values([0.1, 0.9, 5.0], bounds=(0.5, 1.0))
        assert snap.mean() == pytest.approx(2.0)
        assert math.isnan(snapshot_from_values([], bounds=(1.0,)).mean())

    def test_snapshot_dict_roundtrip(self):
        snap = snapshot_from_values([0.1, 0.9, 5.0], bounds=(0.5, 1.0))
        back = HistogramSnapshot.from_dict(
            json.loads(json.dumps(snap.to_dict()))
        )
        assert back == snap


class TestRegistry:
    def test_get_or_create_returns_same_instance(self):
        reg = MetricsRegistry()
        assert reg.counter("a") is reg.counter("a")

    def test_kind_conflict_raises(self):
        reg = MetricsRegistry()
        reg.counter("a")
        with pytest.raises(ValueError):
            reg.gauge("a")

    def test_prometheus_rendering(self):
        reg = MetricsRegistry()
        reg.counter("req_total", "requests").inc(status="ok")
        reg.gauge("depth").set(3)
        reg.histogram("lat", buckets=(0.5, 1.0)).observe(0.7, tenant="t")
        text = reg.render_prometheus()
        assert "# HELP req_total requests" in text
        assert "# TYPE req_total counter" in text
        assert 'req_total{status="ok"} 1' in text
        assert "depth 3" in text
        # histogram: cumulative buckets, +Inf, sum and count series
        assert 'lat_bucket{tenant="t",le="0.5"} 0' in text
        assert 'lat_bucket{tenant="t",le="1"} 1' in text
        assert 'lat_bucket{tenant="t",le="+Inf"} 1' in text
        assert 'lat_sum{tenant="t"} 0.7' in text
        assert 'lat_count{tenant="t"} 1' in text

    @pytest.mark.parametrize("name", ["bad-label", "0tenant", "ten ant", ""])
    @pytest.mark.parametrize(
        "record",
        [
            lambda reg, labels: reg.counter("req_total").inc(**labels),
            lambda reg, labels: reg.gauge("depth").set(1, **labels),
            lambda reg, labels: reg.histogram("lat").observe(0.1, **labels),
        ],
        ids=["counter", "gauge", "histogram"],
    )
    def test_forbidden_label_name_raises(self, record, name):
        """A label name Prometheus cannot parse never reaches the page,
        and raises again on a second try (a rejected set is not
        memoized)."""
        reg = MetricsRegistry()
        for _ in range(2):
            with pytest.raises(ValueError, match="invalid label name"):
                record(reg, {name: "x"})
        assert '"x"' not in reg.render_prometheus()

    def test_valid_label_names_render(self):
        reg = MetricsRegistry()
        reg.counter("req_total").inc(_tenant="a", status_2="ok")
        reg.gauge("depth").set(2, Queue="q")
        reg.histogram("lat", buckets=(1.0,)).observe(0.5, worker_id="3")
        text = reg.render_prometheus()
        assert 'req_total{_tenant="a",status_2="ok"} 1' in text
        assert 'depth{Queue="q"} 2' in text
        assert 'lat_count{worker_id="3"} 1' in text

    def test_collectors_run_at_render_time(self):
        reg = MetricsRegistry()
        state = {"v": 1.0}
        reg.register_collector(
            lambda r: r.gauge("mirrored").set(state["v"])
        )
        assert "mirrored 1" in reg.render_prometheus()
        state["v"] = 2.0
        assert "mirrored 2" in reg.render_prometheus()

    def test_json_snapshot_is_serializable(self):
        reg = MetricsRegistry()
        reg.counter("c").inc(k="v")
        reg.histogram("h", buckets=(1.0,)).observe(0.5)
        doc = json.loads(reg.to_json())
        assert "c" in doc and "h" in doc
