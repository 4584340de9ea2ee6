"""The CI perf-regression checker (``benchmarks/check_perf_regression.py``)
on tiny baseline and measured files: what passes, and each way it
fails, named."""

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "benchmarks" / "check_perf_regression.py"
_spec = importlib.util.spec_from_file_location("check_perf_regression", _PATH)
checker = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(checker)

BASELINE = {
    "_comment": "not a metric",
    "batching_factor": {"value": 16.0, "tolerance": 0.0},
    "pipeline_speedup": {"value": 2.0, "tolerance": 0.25},
    "tcp_decode_success_rate": 1.0,  # bare: DEFAULT_TOLERANCE
}


def _check(tmp_path, measured, select=None, baseline=BASELINE):
    m, b = tmp_path / "measured.json", tmp_path / "baseline.json"
    m.write_text(json.dumps(measured))
    b.write_text(json.dumps(baseline))
    args = [str(m), str(b)]
    for pat in select or ():
        args += ["--select", pat]
    return checker.main(args)


@pytest.mark.parametrize(
    "select",
    [None, ["batching_*"], ["pipeline_*", "tcp_*"], ["*"]],
    ids=["all", "one", "two", "star"],
)
def test_patterns_that_match_pass(tmp_path, capsys, select):
    measured = {"batching_factor": 16.0, "pipeline_speedup": 1.5,
                "tcp_decode_success_rate": 0.9}
    assert _check(tmp_path, measured, select) == 0
    assert "gate passed" in capsys.readouterr().out


@pytest.mark.parametrize(
    "select", [["ff_*"], ["batching_*", "ff_*"]], ids=["alone", "beside_a_match"]
)
def test_a_pattern_that_matches_nothing_fails_by_name(tmp_path, capsys, select):
    measured = {"batching_factor": 16.0}
    assert _check(tmp_path, measured, select) == 1
    assert "--select 'ff_*' matches no baseline key" in capsys.readouterr().err


def test_a_missing_metric_fails_by_name(tmp_path, capsys):
    assert _check(tmp_path, {"batching_factor": 16.0}, ["batching_*", "pipeline_*"]) == 1
    err = capsys.readouterr().err
    assert "pipeline_speedup: baseline metric missing" in err
    assert "batching_factor" not in err


@pytest.mark.parametrize(
    "measured, name",
    [
        ({"batching_factor": 15.9}, "batching_factor"),  # tolerance 0
        ({"pipeline_speedup": 1.49}, "pipeline_speedup"),  # floor 1.5
        ({"tcp_decode_success_rate": 0.8}, "tcp_decode_success_rate"),  # floor 0.85
    ],
)
def test_a_regression_fails_by_name(tmp_path, capsys, measured, name):
    select = [name]
    assert _check(tmp_path, measured, select) == 1
    assert f"{name}: " in capsys.readouterr().err


def test_a_malformed_entry_and_a_non_number_fail_by_name(tmp_path, capsys):
    baseline = {"batching_factor": {"value": 16.0}, "pipeline_speedup": 2.0}
    measured = {"batching_factor": 16.0, "pipeline_speedup": "fast"}
    assert _check(tmp_path, measured, baseline=baseline) == 1
    err = capsys.readouterr().err
    assert "batching_factor: malformed baseline entry" in err
    assert "pipeline_speedup: measured value 'fast' is not a number" in err


def test_the_committed_baseline_has_no_timing_ratio():
    """Every committed key is one of the families that no host timing
    decides (the baseline's ``_comment``)."""
    keys = [k for k in json.loads((_PATH.parent / "baselines" / "metrics.json").read_text())
            if not k.startswith("_")]
    families = ("batching_", "pipeline_", "serving_", "tcp_", "obs_report_parity",
                "obs_endpoint_ok", "audit_chain_verified", "audit_tamper_detected",
                "coding_setup_alloc_headroom", "setup_retained_headroom")
    assert keys and all(k.startswith(families) for k in keys)
