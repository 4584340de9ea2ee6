"""Fast wiring tests for the experiment harness (shape assertions live
in the benchmark suite, which runs at full experiment scale)."""

import math

import numpy as np
import pytest

from repro.experiments import (
    ExperimentConfig,
    FIG3_SETTINGS,
    format_table,
    run_fig3,
    run_fig4,
    run_fig5,
    run_training,
)
from repro.experiments.common import make_session, scenario_config
from repro.experiments.fig4 import FIG4_SETTINGS
from repro.experiments.table1 import PAPER_TABLE1, speedup_over

# A deliberately tiny config: exercises every code path in ~seconds.
TINY = ExperimentConfig(
    m=240,
    d=60,
    iterations=4,
    learning_rate=0.1,
    seed=7,
)


class TestConfig:
    def test_cost_model_construction(self):
        cm = TINY.cost_model()
        assert cm.worker_sec_per_mac == TINY.worker_sec_per_mac

    def test_dataset_cached_shape(self):
        ds = TINY.dataset()
        assert ds.m + ds.x_test.shape[0] == 240
        assert ds.d == 60

    def test_with_override(self):
        assert TINY.with_(iterations=9).iterations == 9
        assert TINY.iterations == 4

    def test_settings_tables_match_paper(self):
        assert FIG3_SETTINGS["a"] == ("reverse", 2, 1)
        assert FIG3_SETTINGS["d"] == ("constant", 1, 2)
        assert FIG4_SETTINGS["a"] == (0, 0)
        assert set(PAPER_TABLE1) == {
            ("reverse", 1, 2),
            ("reverse", 2, 1),
            ("constant", 1, 2),
            ("constant", 2, 1),
        }


class TestScenarioConfig:
    """Scenario descriptions materialize through the api registries —
    the pre-1.0 ``build_cluster``/``make_master`` shims are gone."""

    def test_placement_defaults(self):
        config = scenario_config(
            "avcc", TINY, s=2, m=1, n_stragglers=2, n_byzantine=1
        )
        workers = config.build_workers()
        # stragglers at 0,1; byzantine at 2 — inside uncoded's range
        assert workers[2].is_byzantine
        assert not workers[0].is_byzantine
        assert workers[0].profile.factor == TINY.straggler_factors[0]

    def test_explicit_placement(self):
        config = scenario_config(
            "avcc",
            TINY,
            s=1,
            m=1,
            n_stragglers=1,
            n_byzantine=1,
            straggler_ids=(5,),
            byzantine_ids=(9,),
        )
        workers = config.build_workers()
        assert workers[9].is_byzantine
        assert workers[5].profile.factor == TINY.straggler_factors[0]

    def test_overlap_rejected(self):
        with pytest.raises(ValueError, match="both"):
            scenario_config(
                "avcc",
                TINY,
                s=1,
                m=1,
                n_stragglers=1,
                n_byzantine=1,
                straggler_ids=(3,),
                byzantine_ids=(3,),
            )

    def test_too_many_stragglers(self):
        with pytest.raises(ValueError, match="factors"):
            scenario_config("avcc", TINY, s=2, m=0, n_stragglers=5, n_byzantine=0)

    def test_bad_attack_kind(self):
        with pytest.raises(ValueError, match="unknown attack"):
            scenario_config(
                "avcc", TINY, s=0, m=1, n_stragglers=0, n_byzantine=1, attack="bogus"
            )

    def test_persistent_attack_mode(self):
        config = scenario_config(
            "avcc",
            TINY,
            s=0,
            m=1,
            n_stragglers=0,
            n_byzantine=1,
            intermittent=False,
        )
        from repro.runtime import IntermittentAttack

        workers = config.build_workers()
        assert not any(
            isinstance(w.behavior, IntermittentAttack) for w in workers
        )


class TestMakeSession:
    def test_all_methods(self):
        for method in ("avcc", "static_vcc", "lcc", "uncoded"):
            with make_session(
                method, TINY, s=1, m=1, n_stragglers=1, n_byzantine=1
            ) as sess:
                assert sess.master.name == method

    def test_unknown_method(self):
        with pytest.raises(ValueError, match="unknown method"):
            scenario_config("bogus", TINY, s=0, m=0)


class TestRunners:
    def test_run_training_returns_history_and_trace(self):
        ds = TINY.dataset()
        hist, rec = run_training("avcc", TINY, ds, s=1, m=1)
        assert hist.iterations() == TINY.iterations
        assert len(rec.iterations) == TINY.iterations
        assert all(np.isfinite(t) for t in hist.times)

    def test_fig3_tiny(self):
        res = run_fig3("a", TINY)
        assert set(res.histories) == {"avcc", "lcc", "uncoded"}
        assert "Fig. 3(a)" in res.render()

    def test_fig3_bad_panel(self):
        with pytest.raises(ValueError):
            run_fig3("z", TINY)

    def test_fig4_tiny(self):
        res = run_fig4("a", TINY)
        assert res.total("avcc") > 0
        assert res.breakdown["lcc"]["verification"] == 0.0
        assert res.breakdown["uncoded"]["decoding"] == 0.0
        assert "Fig. 4(a)" in res.render()

    def test_fig4_bad_panel(self):
        with pytest.raises(ValueError):
            run_fig4("x", TINY)

    def test_fig5_tiny(self):
        res = run_fig5(TINY)
        assert res.avcc.iterations() == TINY.iterations
        assert res.reencode_iteration >= 0
        assert res.reencode_cost > 0
        assert "dynamic coding" in res.render()

    def test_speedup_metric(self):
        res = run_fig3("a", TINY)
        s = speedup_over(res, "uncoded")
        assert s > 0 and math.isfinite(s)


class TestReport:
    def test_format_table(self):
        out = format_table(["a", "bb"], [[1, 22], [333, 4]], title="T")
        lines = out.splitlines()
        assert lines[0] == "T"
        assert "333" in out

    def test_format_series_empty(self):
        from repro.experiments.report import format_series

        assert "(empty)" in format_series("x", [], [])
