"""The surface that no figure, workload or example ran is gone, and
what is left of every package's exports resolves.

Deleted: the explicit-generator MDS wrapper, the matrix-polynomial and
two-stage verifiers, the polynomial sigmoid, the gateway trace
recorder with the trace-replay arrival and latency models, the
coefficient-form Vandermonde solve, the degree-2 ``gramian`` job
family end to end (master, session entry point, round op, request
family), the SLO control plane (autoscaler policy, fleet
controller, window signals) with the gateway's control windows, the
per-iteration trace recorder and the round-record/span bridge (the
session's round records are the run's one log), the tcp backend's
second knob surface (``SessionConfig.net``; the knobs travel in
``backend_options``), the ``elastic_membership`` switch (membership
is reconciled at every iteration boundary), the backend, master and
batch-policy plug-in registries (name tables remain), the
``deadline`` batch policy (``hybrid`` with a large window and no
linger has its due times), the trainer's ``check_overflow`` switch
(both rounds are always checked), the tcp backend's
``"subprocess"`` spawn mode (the loopback fleet always forks), the
session's and the gateway's per-round and per-request metric writes
with their pre-keyed fast paths (the series are folded from the
run's logs when the registry is read), the report's second bucketing
of its latencies with the histogram-snapshot arithmetic only it used,
the tracer's raw-forest event and three test-only stat accessors, the
two-factor ``A @ B`` job family end to end (polynomial code, matmul
verifier and master, session entry point and request family, round op
and its wire code and flag), and the latency profiles no worker
sampled (shifted-exponential, Gaussian jitter).
"""

import inspect

import importlib
import pkgutil
from functools import partial

import numpy as np
import pytest

import repro
from repro.api import JobRequest, Session, SessionConfig, SessionStats
from repro.coding import SchemeParams
from repro.ff import PrimeField
from repro.ml import (
    DistributedLinearRegressionTrainer,
    DistributedLogisticTrainer,
    LogisticConfig,
)
from repro.obs.metrics import Counter, Histogram, HistogramSnapshot
from repro.obs.trace import Tracer
from repro.runtime import RoundJob, SimWorker, TcpCluster
from repro.runtime.net.fleet import LocalFleet
from repro.serve import Gateway, OpenLoopSource, ServeReport, TenantSpec, make_batch_policy

#: package -> names it exported before the deletion
DELETED_EXPORTS = {
    "repro": [
        "GramianAVCCMaster",
        "MDSCode",
        "MatrixPolynomialVerifier",
        "TraceRecorder",
        "TwoStageVerifier",
        "CodedMatmulAVCCMaster",
    ],
    "repro.coding": ["MDSCode", "PolynomialCode"],
    "repro.core": ["GramianAVCCMaster", "CodedMatmulAVCCMaster"],
    "repro.verify": [
        "MatrixPolynomialVerifier",
        "TwoStageKey",
        "TwoStageVerifier",
        "MatmulKey",
        "MatmulVerifier",
    ],
    "repro.ml": ["PolynomialSigmoid", "fit_sigmoid_poly"],
    "repro.runtime": [
        "IterationRecord",
        "NetTunables",
        "RoundRecord",
        "TraceLatency",
        "TraceRecorder",
        "ShiftedExponentialLatency",
        "GaussianJitterLatency",
    ],
    "repro.runtime.net": ["NetTunables"],
    "repro.ff": ["vandermonde_solve"],
    "repro.serve.gateway": ["WindowSignals", "record_outcome", "outcome_recorder"],
    "repro.api": ["register_backend", "register_master"],
    "repro.api.registry": ["register_backend", "register_master"],
    "repro.serve": [
        "GatewayRecorder",
        "RecordedTrace",
        "TraceArrivals",
        "DeadlinePolicy",
        "batch_policy_names",
        "register_batch_policy",
    ],
    "repro.serve.batcher": [
        "DeadlinePolicy",
        "batch_policy_names",
        "register_batch_policy",
    ],
}
#: the two-factor family's names, which no package may export
MATMUL_SURFACE = {
    "CodedMatmulAVCCMaster",
    "MatmulKey",
    "MatmulVerifier",
    "PolynomialCode",
    "ShiftedExponentialLatency",
    "GaussianJitterLatency",
}
#: plug-in surface that no package may export under any name
PLUG_IN_SURFACE = {
    "DeadlinePolicy",
    "batch_policy_names",
    "register_backend",
    "register_batch_policy",
    "register_master",
}
DELETED_MODULES = [
    "repro.coding.mds",
    "repro.control",
    "repro.control.autoscaler",
    "repro.control.controller",
    "repro.control.signals",
    "repro.core.gramian",
    "repro.core.matmul",
    "repro.coding.polynomial",
    "repro.verify.matmul",
    "repro.ml.polyapprox",
    "repro.obs.bridge",
    "repro.runtime.net.tunables",
    "repro.runtime.trace",
    "repro.serve.recorder",
    "repro.verify.polyverify",
    "repro.verify.twostage",
]


def _no_submit_gramian():
    assert not hasattr(Session, "submit_gramian")


def _refuse_gramian_job_request():
    with pytest.raises(ValueError, match=r"expected matvec$"):
        JobRequest(family="gramian", operand=None)


def _refuse_gramian_tenant():
    with pytest.raises(TypeError, match="family_mix"):
        TenantSpec("t", family_mix={"gramian": 1.0})


def _refuse_gramian_round_job():
    with pytest.raises(ValueError, match="unknown round op 'gramian'"):
        RoundJob(op="gramian", operand=None)


def _no_submit_matmul():
    assert not hasattr(Session, "submit_matmul")


def _refuse_matmul_job_request():
    with pytest.raises(ValueError, match=r"unknown request family 'matmul'; expected matvec$"):
        JobRequest(family="matmul", operand=np.zeros(2, dtype=np.int64))
    with pytest.raises(TypeError, match="operand_b"):
        JobRequest(family="matvec", operand=np.zeros(2, dtype=np.int64), operand_b=None)


def _refuse_matmul_round_job():
    with pytest.raises(ValueError, match="unknown round op 'matmul'"):
        RoundJob(op="matmul", operand=np.zeros(2, dtype=np.int64))
    with pytest.raises(TypeError, match="rhs_key"):
        RoundJob(operand=np.zeros(2, dtype=np.int64), rhs_key="b")


def _refuse_tenant_family_mix():
    with pytest.raises(TypeError, match="family_mix"):
        TenantSpec("t", family_mix={"matvec": 1.0})


def _matmul_surface_exported_nowhere():
    for package in _packages():
        exported = set(getattr(importlib.import_module(package), "__all__", ()))
        assert not exported & MATMUL_SURFACE, package


def _no_gramian_round_time_prior():
    """``gramian`` is an unknown family to the round-time estimate: it
    has no cost-model prior, so before any round has run it reads 0."""
    field = PrimeField()
    cfg = SessionConfig(scheme=SchemeParams(n=8, k=3, s=1, m=1), seed=0)
    with Session.create(cfg) as sess:
        sess.load(field.random((12, 8), np.random.default_rng(0)))
        assert sess.estimate_round_time("fwd") > 0.0
        assert sess.estimate_round_time("gramian") == 0.0


def _gateway_has_no_control_windows():
    cfg = SessionConfig(scheme=SchemeParams(n=4, k=2, s=1, m=0), seed=0)
    with Session.create(cfg) as sess:
        for keyword in ("control_interval", "controller"):
            with pytest.raises(TypeError, match=keyword):
                Gateway(sess, OpenLoopSource([]), **{keyword: 0.25})
        assert not hasattr(Gateway(sess, OpenLoopSource([])), "window_history")


def _train_takes_no_recorder():
    for trainer in (DistributedLogisticTrainer, DistributedLinearRegressionTrainer):
        assert list(inspect.signature(trainer.train).parameters) == ["self"]


def _recorder_types_exported_nowhere():
    for package in _packages():
        exported = set(getattr(importlib.import_module(package), "__all__", ()))
        assert not exported & {"TraceRecorder", "IterationRecord", "NetTunables"}, package


def _plug_in_surface_exported_nowhere():
    for package in _packages():
        exported = set(getattr(importlib.import_module(package), "__all__", ()))
        assert not exported & PLUG_IN_SURFACE, package


def _logistic_config_has_no_overflow_switch():
    with pytest.raises(TypeError, match="check_overflow"):
        LogisticConfig(check_overflow=True)


def _tcp_cluster_has_no_spawn_mode():
    from repro.runtime.net import client

    def refuse(*args, **kw):
        raise AssertionError("an unknown keyword must fail before sockets and forks")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(client.socket, "create_server", refuse)
        mp.setattr(client, "spawn_local_workers", refuse)
        with pytest.raises(TypeError, match="spawn_mode"):
            TcpCluster(PrimeField(), [SimWorker(i) for i in range(3)], spawn_mode="fork")


def _deadline_policy_is_an_unknown_name():
    with pytest.raises(ValueError, match="unknown batch policy 'deadline'") as err:
        make_batch_policy("deadline")
    assert "('count', 'hybrid')" in str(err.value)


def _config_field_refused(name, value):
    scheme = SchemeParams(n=4, k=2, s=1, m=0)
    with pytest.raises(TypeError, match=name):
        SessionConfig(scheme=scheme, **{name: value})
    d = SessionConfig(scheme=scheme).to_dict()
    d[name] = value
    with pytest.raises(ValueError, match=f"unknown SessionConfig keys: \\['{name}'\\]"):
        SessionConfig.from_dict(d)


#: owner -> attributes it had before the deletion (methods, module
#: privates, the gateway's label-key memos)
DELETED_ATTRIBUTES = {
    Counter: ["inc_key"],
    Histogram: ["observe_key", "merged"],
    HistogramSnapshot: ["merge", "percentile", "mean", "from_dict"],
    ServeReport: ["latency_histogram", "tenant_latency_histograms"],
    Tracer: ["record_forest"],
    SessionStats: ["round_durations", "mean_round_time"],
    Session: ["queue_depths", "submit_matmul", "_aux_scheme", "_aux_probes"],
    Gateway: ["_record_outcome", "_dispatch_single"],
    "repro.serve.gateway": [
        "_gateway_handles",
        "_REQ_KEYS",
        "_TENANT_KEYS",
        "_MET_KEYS",
        "_NO_LABELS",
    ],
    "repro.obs.trace": ["_FOREST"],
}


def _attribute_absent(owner, name: str) -> None:
    if isinstance(owner, str):
        owner = importlib.import_module(owner)
    assert not hasattr(owner, name)


def _owner_id(owner) -> str:
    return owner if isinstance(owner, str) else owner.__name__


def _serve_report_to_dict_has_no_histograms():
    report = ServeReport(outcomes=(), t_start=0.0, t_end=1.0)
    with pytest.raises(TypeError, match="include_histograms"):
        report.to_dict(include_histograms=True)
    assert "histograms" not in report.to_dict()


def _sessions_record_no_metric_handles():
    """An observed session and gateway hold no metric handle: the
    registry's collectors are their only link to it."""
    cfg = SessionConfig(
        scheme=SchemeParams(n=4, k=2, s=1, m=0), seed=0, observability=True
    )
    with Session.create(cfg) as sess:
        gateway = Gateway(sess, OpenLoopSource([]))
        for obj in (sess, gateway):
            assert not [k for k in vars(obj) if k.startswith("_obs_")], obj
        assert not hasattr(sess.obs.registry, "_outcome_recorder")
        assert not hasattr(sess.obs.registry, "_gateway_handles")


def _local_fleet_needs_the_master_address():
    with pytest.raises(TypeError, match="host"):
        LocalFleet({})
    with pytest.raises(TypeError, match="port"):
        LocalFleet({}, host="127.0.0.1")


def _export_absent(package: str, name: str) -> None:
    mod = importlib.import_module(package)
    assert name not in mod.__all__
    assert not hasattr(mod, name)


def _module_gone(module: str) -> None:
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module(module)


CASES = [
    pytest.param(check, id=check.__name__.lstrip("_"))
    for check in (
        _no_submit_gramian,
        _refuse_gramian_job_request,
        _refuse_gramian_tenant,
        _refuse_gramian_round_job,
        _no_submit_matmul,
        _refuse_matmul_job_request,
        _refuse_matmul_round_job,
        _refuse_tenant_family_mix,
        _matmul_surface_exported_nowhere,
        _no_gramian_round_time_prior,
        _gateway_has_no_control_windows,
        _train_takes_no_recorder,
        _recorder_types_exported_nowhere,
        _plug_in_surface_exported_nowhere,
        _logistic_config_has_no_overflow_switch,
        _tcp_cluster_has_no_spawn_mode,
        _deadline_policy_is_an_unknown_name,
        _serve_report_to_dict_has_no_histograms,
        _sessions_record_no_metric_handles,
        _local_fleet_needs_the_master_address,
    )
]
CASES += [
    pytest.param(partial(_config_field_refused, name, value), id=f"SessionConfig.{name}")
    for name, value in (("elastic_membership", True), ("net", {"heartbeat_interval": 0.1}))
]
CASES += [
    pytest.param(partial(_export_absent, package, name), id=f"{package}.{name}")
    for package, names in DELETED_EXPORTS.items()
    for name in names
]
CASES += [
    pytest.param(partial(_attribute_absent, owner, name), id=f"{_owner_id(owner)}.{name}")
    for owner, names in DELETED_ATTRIBUTES.items()
    for name in names
]
CASES += [pytest.param(partial(_module_gone, module), id=module) for module in DELETED_MODULES]


@pytest.mark.parametrize("check", CASES)
def test_removed_surface_is_refused_or_absent(check):
    check()


def _packages():
    yield "repro"
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.ispkg:
            yield info.name


@pytest.mark.parametrize("package", sorted(_packages()))
def test_every_exported_name_resolves(package):
    mod = importlib.import_module(package)
    missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert missing == []
