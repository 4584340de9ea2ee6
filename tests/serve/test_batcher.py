"""Batch policies, their name table, and the micro-batcher."""

import math

import numpy as np
import pytest

from repro.ff import DEFAULT_PRIME, PrimeField
from repro.serve import (
    CountPolicy,
    HybridPolicy,
    MicroBatcher,
    PendingBatch,
    Request,
    make_batch_policy,
)

#: the pure deadline trigger: a window no test batch fills, no linger
DEADLINE_ONLY = {"window": 100, "linger": math.inf}

F = PrimeField(DEFAULT_PRIME)
_OPERAND = F.random(4, np.random.default_rng(0))
_NEXT_ID = iter(range(10_000))


def _req(deadline=math.inf, arrival=0.0):
    return Request(
        request_id=next(_NEXT_ID),
        tenant="t",
        family="matvec",
        arrival=arrival,
        deadline=deadline,
        operand=_OPERAND,
    )


def _batch(*deadlines, opened_at=0.0):
    b = PendingBatch(family="fwd", opened_at=opened_at)
    for d in deadlines:
        b.add(_req(deadline=d))
    return b


def _flat_estimator(seconds):
    return lambda family, width: seconds


class TestPolicies:
    def test_count_due_only_when_full(self):
        p = CountPolicy(window=3)
        est = _flat_estimator(0.01)
        assert p.due_at(_batch(math.inf, math.inf), est) == math.inf
        assert p.due_at(_batch(math.inf, math.inf, math.inf), est) == -math.inf

    def test_count_window_one_is_serial(self):
        p = CountPolicy(window=1)
        assert p.due_at(_batch(math.inf), _flat_estimator(0.01)) == -math.inf

    def test_deadline_due_tracks_earliest_deadline_and_estimate(self):
        p = HybridPolicy(safety=2.0, **DEADLINE_ONLY)
        b = _batch(5.0, 3.0, 9.0)
        assert b.earliest_deadline == 3.0
        assert p.due_at(b, _flat_estimator(0.5)) == pytest.approx(3.0 - 2.0 * 0.5)

    def test_deadline_ignores_slo_free_batches(self):
        p = HybridPolicy(**DEADLINE_ONLY)
        assert p.due_at(_batch(math.inf, math.inf), _flat_estimator(0.5)) == math.inf

    def test_hybrid_takes_the_earliest_trigger(self):
        est = _flat_estimator(0.5)
        p = HybridPolicy(window=2, safety=2.0, linger=math.inf)
        assert p.due_at(_batch(8.0), est) == pytest.approx(7.0)  # deadline wins
        assert p.due_at(_batch(8.0, 8.0), est) == -math.inf  # count wins

    def test_hybrid_linger_caps_waiting(self):
        p = HybridPolicy(window=100, safety=1.0, linger=0.25)
        b = _batch(math.inf, opened_at=2.0)
        assert p.due_at(b, _flat_estimator(0.01)) == pytest.approx(2.25)

    def test_validation(self):
        with pytest.raises(ValueError):
            CountPolicy(window=0)
        with pytest.raises(ValueError):
            HybridPolicy(safety=0.0)
        with pytest.raises(ValueError):
            HybridPolicy(linger=0.0)
        # hybrid must reject bad sub-policy knobs at construction, not
        # on the first due_at call mid-event-loop
        with pytest.raises(ValueError):
            HybridPolicy(window=0)
        with pytest.raises(ValueError):
            HybridPolicy(safety=-1.0)


class TestNames:
    def test_builtins_present(self):
        assert isinstance(make_batch_policy("count"), CountPolicy)
        assert isinstance(make_batch_policy("hybrid"), HybridPolicy)

    def test_make_by_name_with_options(self):
        p = make_batch_policy("count", window=5)
        assert isinstance(p, CountPolicy) and p.window == 5

    def test_unknown_name_lists_registered(self):
        with pytest.raises(ValueError, match="registered"):
            make_batch_policy("nope")


class TestMicroBatcher:
    def _batcher(self, policy=None, est=0.01, max_batch=32):
        return MicroBatcher(
            policy or HybridPolicy(window=4, linger=math.inf),
            _flat_estimator(est),
            max_batch=max_batch,
        )

    def test_accumulates_per_family(self):
        mb = self._batcher()
        mb.add("fwd", _req(), 0.0)
        mb.add("bwd", _req(), 0.0)
        mb.add("fwd", _req(), 0.0)
        assert mb.pending == 3
        assert mb.open_families() == ("bwd", "fwd")

    def test_take_due_pops_only_due_batches(self):
        mb = self._batcher()
        for _ in range(4):
            mb.add("fwd", _req(), 0.0)  # full window -> due
        mb.add("bwd", _req(), 0.0)  # no deadline, not full -> not due
        due = mb.take_due(now=0.0)
        assert [b.family for b in due] == ["fwd"]
        assert mb.pending == 1

    def test_next_due_is_event_timer(self):
        mb = self._batcher(policy=HybridPolicy(safety=1.0, **DEADLINE_ONLY), est=0.1)
        assert mb.next_due() == math.inf
        mb.add("fwd", _req(deadline=2.0), 0.0)
        assert mb.next_due() == pytest.approx(1.9)
        assert not mb.due_now("fwd", 1.0)
        assert mb.due_now("fwd", 1.95)

    def test_max_batch_overrides_policy(self):
        mb = self._batcher(policy=CountPolicy(window=100), max_batch=2)
        mb.add("fwd", _req(), 0.0)
        assert not mb.due_now("fwd", 0.0)
        mb.add("fwd", _req(), 0.0)
        assert mb.due_now("fwd", 0.0)

    def test_drain_empties_everything(self):
        mb = self._batcher()
        mb.add("fwd", _req(), 0.0)
        mb.add("gram", _req(), 0.0)
        batches = mb.drain()
        assert sorted(b.family for b in batches) == ["fwd", "gram"]
        assert mb.pending == 0
        assert mb.drain() == []

    def test_pop_family(self):
        mb = self._batcher()
        mb.add("fwd", _req(), 0.5)
        batch = mb.pop_family("fwd")
        assert batch.width == 1 and batch.opened_at == 0.5
        assert mb.pop_family("fwd") is None

    def test_validation(self):
        with pytest.raises(ValueError, match="max_batch"):
            self._batcher(max_batch=0)
