"""Unit tests for the metrics registry: labeled series, fixed-ladder
histograms, Prometheus/JSON rendering, registry get-or-create
semantics, and collectors folded before every read."""

import json
import sys
import threading

import pytest

from repro.obs.metrics import (
    LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
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
        snap = h.snapshot_of()
        assert snap.counts == (1, 1, 2)  # <=0.1, <=1.0, +Inf
        assert snap.count == 4
        assert snap.sum == pytest.approx(5.55)

    def test_value_on_a_bound_counts_in_that_bucket(self):
        # Prometheus ``le`` semantics: a bucket includes its upper bound
        h = Histogram("lat", buckets=(0.1, 1.0))
        h.observe(0.1)
        h.observe(1.0)
        assert h.snapshot_of().counts == (1, 1, 0)

    def test_labelled_series_bucket_independently(self):
        h = Histogram("lat", buckets=(0.1, 1.0))
        h.observe(0.05, tenant="a")
        h.observe(2.0, tenant="a")
        h.observe(0.5, tenant="b")
        a = h.snapshot_of(tenant="a")
        assert a.counts == (1, 0, 1)
        assert a.sum == pytest.approx(2.05)
        assert h.snapshot_of(tenant="b").counts == (0, 1, 0)
        assert h.snapshot_of(tenant="c").count == 0


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

    def test_every_read_runs_the_collectors_first(self):
        reg = MetricsRegistry()
        log = [1.0, 2.0]
        folded = [0]

        def fold(r):
            total = r.counter("log_total")
            for v in log[folded[0]:]:
                total.inc(v)
            folded[0] = len(log)

        reg.register_collector(fold)
        assert reg.get("log_total").total() == 3.0
        log.append(4.0)
        assert "log_total 7" in reg.render_prometheus()
        log.append(8.0)
        assert reg.snapshot()["log_total"]["series"] == [{"labels": {}, "value": 15.0}]

    def test_concurrent_reads_run_one_collector_at_a_time(self):
        """The collect lock: a second reader waits for the first
        reader's fold instead of folding the same entries again."""
        reg = MetricsRegistry()
        inside = threading.Event()
        release = threading.Event()
        running = []

        def fold(r):
            running.append(1)
            assert len(running) == 1
            r.counter("folds_total").inc()  # get-or-create inside a fold
            inside.set()
            release.wait(timeout=10.0)
            running.pop()

        reg.register_collector(fold)
        first = threading.Thread(target=reg.render_prometheus)
        first.start()
        assert inside.wait(timeout=10.0)
        second = threading.Thread(target=reg.snapshot)
        second.start()
        second.join(timeout=0.2)
        assert second.is_alive()  # blocked on the first reader's fold
        release.set()
        first.join(timeout=10.0)
        second.join(timeout=10.0)
        assert not first.is_alive() and not second.is_alive()
        assert reg.get("folds_total").total() == 3.0

    def test_stress_readers_fold_each_entry_once(self):
        """Six reader threads, switching every microsecond, while this
        thread appends to the log: every entry is counted once."""
        reg = MetricsRegistry()
        log: list[float] = []
        folded = [0]

        def fold(r):
            total = r.counter("log_total")
            n = len(log)
            for v in log[folded[0]:n]:
                total.inc(v)
            folded[0] = n

        reg.register_collector(fold)
        done = threading.Event()

        def read(fn):
            while not done.is_set():
                fn()

        reads = (reg.render_prometheus, reg.snapshot, lambda: reg.get("log_total"))
        threads = [threading.Thread(target=read, args=(fn,)) for fn in reads * 2]
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for _ in range(3000):
                log.append(1.0)
        finally:
            done.set()
            for t in threads:
                t.join(timeout=30.0)
            sys.setswitchinterval(switch)
        assert not any(t.is_alive() for t in threads)
        assert reg.get("log_total").total() == len(log)

    def test_json_snapshot_is_serializable(self):
        reg = MetricsRegistry()
        reg.counter("c").inc(k="v")
        reg.histogram("h", buckets=(1.0,)).observe(0.5)
        doc = json.loads(reg.to_json())
        assert "c" in doc and "h" in doc
