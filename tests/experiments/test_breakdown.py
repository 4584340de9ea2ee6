"""Fig. 4's per-iteration cost breakdown, computed from the round
records a session keeps (``SessionStats.records``)."""

import pytest

from repro.core import RoundRecord
from repro.experiments import ExperimentConfig
from repro.experiments.common import make_session
from repro.experiments.fig4 import CATEGORIES, mean_breakdown
from repro.ml import DistributedLogisticTrainer


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


def test_round_duration():
    assert _round(0, "fwd", 1.0, 3.5).duration == 2.5


def test_sums_the_rounds_of_an_iteration_then_averages_over_iterations():
    records = [
        _round(0, "fwd", 0, 2),
        _round(0, "bwd", 2, 4, verify_time=0.3),
        _round(1, "fwd", 4, 5, compute_wait=4.0, decode_time=0.0),
    ]
    b = mean_breakdown(records)
    assert list(b) == list(CATEGORIES)
    assert b["compute"] == (2.0 + 4.0) / 2
    assert b["communication"] == (1.0 + 0.5) / 2
    assert b["verification"] == pytest.approx((0.4 + 0.1) / 2)
    assert b["decoding"] == pytest.approx((0.4 + 0.0) / 2)


def test_no_records_read_zero():
    assert mean_breakdown([]) == dict.fromkeys(CATEGORIES, 0.0)


def test_sums_in_record_order():
    """Within an iteration the rounds are summed in record order, so
    the floats equal the figure's published ones: any other order
    would read 1.0 here, not 0.0."""
    records = [
        _round(0, "fwd", 0, 1, compute_wait=1.0),
        _round(0, "bwd", 1, 2, compute_wait=1e16),
        _round(0, "fwd", 2, 3, compute_wait=-1e16),
    ]
    assert mean_breakdown(records)["compute"] == 0.0


def test_session_records_with_a_recode_iteration():
    """The Fig. 5 scenario re-codes once; the re-ship time is the
    adaptation's, not a round's, so it stays out of the breakdown."""
    cfg = ExperimentConfig(m=240, d=60, iterations=4, learning_rate=0.1, seed=7)
    cfg = cfg.with_(straggler_factors=(8.0, 6.0, 7.0))
    dataset = cfg.dataset()
    with make_session(
        "avcc", cfg, s=2, m=1, n_stragglers=3, n_byzantine=1,
        attack="constant", intermittent=False,
    ) as session:
        session.load(dataset.x_train)
        DistributedLogisticTrainer(session, dataset, cfg.logistic_config()).train()
    stats = session.stats
    assert any(a.reencode_time > 0 for a in stats.adaptations)
    records = stats.records
    assert [r.iteration for r in records] == [0, 0, 1, 1, 2, 2, 3, 3]

    expected = dict.fromkeys(CATEGORIES, 0.0)
    for it in range(cfg.iterations):
        fwd, bwd = records[2 * it : 2 * it + 2]
        expected["compute"] += fwd.compute_wait + bwd.compute_wait
        expected["communication"] += fwd.comm_time + bwd.comm_time
        expected["verification"] += fwd.verify_time + bwd.verify_time
        expected["decoding"] += fwd.decode_time + bwd.decode_time
    assert mean_breakdown(records) == {
        c: v / cfg.iterations for c, v in expected.items()
    }
