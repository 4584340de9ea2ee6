"""Shared fixtures for the benchmark suite.

The paper-reproduction benches run the experiment harness at the
calibrated default scale (m=1200, d=600, 12 workers) with 40 training
iterations — enough for every plateau/crossover the paper reports while
keeping the full suite in the minutes range. Each experiment runs once
per bench (``pedantic`` with one round): the simulated clock inside is
deterministic, so repetition adds wall time without adding information.
"""

import dataclasses

import numpy as np
import pytest

from repro.api import Session
from repro.experiments import ExperimentConfig
from repro.experiments.common import (
    SERVING_SCALE,
    make_serving_workload,
    serving_config,
)
from repro.ff import DEFAULT_PRIME, PrimeField
from repro.serve import Gateway, GatewayConfig, OpenLoopSource

#: the deadline-batched gateway's policy: fill to 16, dispatch earlier
#: when the tightest deadline's slack runs out, 20 ms linger cap
HYBRID = {"window": 16, "safety": 2.0, "linger": 0.02}


@pytest.fixture(scope="session")
def cfg():
    return ExperimentConfig(iterations=40)


@pytest.fixture(scope="session")
def field():
    return PrimeField(DEFAULT_PRIME)


@pytest.fixture
def rng():
    return np.random.default_rng(20220322)


def run_once(benchmark, fn, *args, **kwargs):
    """Run ``fn`` exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)


def serve_trace(
    cfg,
    *,
    policy="hybrid",
    options=HYBRID,
    n_requests=240,
    observability=False,
    audit=False,
    **serving,
):
    """Replay the canonical mixed Poisson+burst trace through one
    gateway on the serving scenario's session (``serving`` goes to
    :func:`serving_config`). Returns ``(report, gateway, session)``;
    the session is closed, its ``stats`` and ``audit`` log stay
    readable."""
    session_cfg = dataclasses.replace(
        serving_config(cfg, **serving), observability=observability, audit=audit
    )
    with Session.create(session_cfg) as sess:
        sess.load(sess.field.random(SERVING_SCALE, np.random.default_rng(0)))
        generator, requests = make_serving_workload(
            sess.field, SERVING_SCALE, n_requests=n_requests
        )
        gateway = Gateway(
            sess,
            OpenLoopSource(requests),
            GatewayConfig(
                batch_policy=policy,
                policy_options=options,
                tenant_weights=generator.tenant_weights,
            ),
        )
        report = gateway.run()
    return report, gateway, sess
