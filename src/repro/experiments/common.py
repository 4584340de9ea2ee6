"""Shared experiment configuration and run drivers.

All cluster/master construction goes through the session API
(:mod:`repro.api`): scenarios are described as
:class:`~repro.api.config.SessionConfig` objects (worker fault specs,
scheme, cost constants) and materialized by the name registries —
compose :func:`scenario_config` with ``config.build_workers()`` /
``resolve_backend`` / ``resolve_master`` when a test or notebook wants
the layers separately. (The pre-1.0 ``build_cluster`` /
``make_master`` shims are gone; see the README migration note.)

Calibration
-----------
The simulated cost constants are fitted to the paper's testbed regime
(13 Atom-class Minnow nodes, 1 GbE), *as the protocol actually ran
there*: per-iteration times in Fig. 4/5 imply an effective field-MAC
rate of a few hundred nanoseconds (interpreted arithmetic on Atom
cores) and an effective transfer rate of ~10 MB/s once serialization
is included (the 41 s re-encode shipment of Fig. 5 at GISETTE scale).
With those two constants fixed, every headline ratio of the paper —
uncoded ~5–7x slower than AVCC under stragglers, LCC within ~1.1x of
AVCC when only time (not accuracy) separates them, re-encoding repaid
within a few iterations — emerges from the protocol structure rather
than from per-figure tuning.

Scale
-----
Default experiment scale is (m=1200, d=600): same structure as GISETTE
(6000x5000), ~25x less arithmetic, so the benchmark suite replays all
four figures in seconds. ``ExperimentConfig(full_scale=True)`` restores
the paper's exact shape for the example scripts.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.api import Session, SessionConfig, WorkerSpec
from repro.coding import SchemeParams
from repro.core import RoundRecord
from repro.ff import DEFAULT_PRIME
from repro.ml import Dataset, DistributedLogisticTrainer, LogisticConfig, make_gisette_like
from repro.ml.trainer import TrainingHistory
from repro.runtime import CostModel

__all__ = [
    "ExperimentConfig",
    "SERVING_SCALE",
    "make_serving_workload",
    "make_session",
    "run_training",
    "scenario_config",
    "serving_config",
]


@dataclass(frozen=True)
class ExperimentConfig:
    """Knobs shared by all paper experiments."""

    # workload
    m: int = 1200
    d: int = 600
    iterations: int = 50
    learning_rate: float = 0.03
    l_w: int = 8
    l_e: int = 6
    grad_clip: float = 2.0
    seed: int = 2022

    # fleet
    n_workers: int = 12
    k: int = 9
    #: heterogeneous straggler slowdowns, slowest first (the paper's
    #: "faster of the two stragglers" narrative needs distinct factors)
    straggler_factors: tuple[float, ...] = (5.0, 1.3, 4.0)
    #: per-round probability that a Byzantine worker actually attacks
    attack_probability: float = 0.7

    # calibrated cost constants (see module docstring)
    worker_sec_per_mac: float = 300e-9
    master_sec_per_mac: float = 30e-9
    bandwidth_bytes_per_s: float = 10e6
    link_latency_s: float = 1e-3

    full_scale: bool = False

    def cost_model(self) -> CostModel:
        return CostModel(**self.cost_dict())

    def cost_dict(self) -> dict[str, float]:
        """The cost constants as :class:`SessionConfig` overrides."""
        return {
            "worker_sec_per_mac": self.worker_sec_per_mac,
            "master_sec_per_mac": self.master_sec_per_mac,
            "bandwidth_bytes_per_s": self.bandwidth_bytes_per_s,
            "link_latency_s": self.link_latency_s,
        }

    def dataset(self) -> Dataset:
        if self.full_scale:
            return make_gisette_like(
                m=6000, d=5000, rng=np.random.default_rng(self.seed)
            )
        return make_gisette_like(
            m=self.m, d=self.d, rng=np.random.default_rng(self.seed)
        )

    def logistic_config(self) -> LogisticConfig:
        return LogisticConfig(
            iterations=self.iterations,
            learning_rate=self.learning_rate,
            l_w=self.l_w,
            l_e=self.l_e,
            grad_clip=self.grad_clip,
        )

    def with_(self, **changes) -> "ExperimentConfig":
        return replace(self, **changes)


_ATTACKS = ("reverse", "constant")


def _worker_specs(
    cfg: ExperimentConfig,
    n_stragglers: int,
    n_byzantine: int,
    attack: str,
    intermittent: bool,
    straggler_ids: tuple[int, ...] | None,
    byzantine_ids: tuple[int, ...] | None,
) -> tuple[WorkerSpec, ...]:
    """Fault placement for one scenario.

    Straggler and Byzantine workers sit inside the first 9 worker slots
    by default so the uncoded baseline (workers ``0..8``) is exposed to
    them, as in the paper's deployment.
    """
    n = cfg.n_workers
    if attack not in _ATTACKS:
        raise ValueError(f"unknown attack kind {attack!r} (use 'reverse' or 'constant')")
    if n_stragglers > len(cfg.straggler_factors):
        raise ValueError(
            f"need {n_stragglers} straggler factors, have {len(cfg.straggler_factors)}"
        )
    straggler_ids = straggler_ids or tuple(range(n_stragglers))
    byzantine_ids = byzantine_ids or tuple(
        range(n_stragglers, n_stragglers + n_byzantine)
    )
    if set(straggler_ids) & set(byzantine_ids):
        raise ValueError("a worker cannot be both straggler and Byzantine here")

    factors = {wid: cfg.straggler_factors[i] for i, wid in enumerate(straggler_ids)}
    attack_value = 1 if attack == "reverse" else 30_000
    probability = cfg.attack_probability if intermittent else 1.0
    specs = []
    for wid in range(n):
        if wid in byzantine_ids:
            specs.append(
                WorkerSpec(
                    straggler_factor=factors.get(wid, 1.0),
                    behavior=attack,
                    attack_value=attack_value,
                    probability=probability,
                )
            )
        else:
            specs.append(WorkerSpec(straggler_factor=factors.get(wid, 1.0)))
    return tuple(specs)


def _scheme(method: str, cfg: ExperimentConfig, s: int, m: int) -> SchemeParams:
    """The paper's deployments, by method.

    LCC always uses the paper's baseline design ``(12, 9, S=1, M=1)``
    regardless of the actual fault injection — that mismatch is the
    point of Fig. 3(b)/(d).
    """
    if method in ("avcc", "static_vcc"):
        return SchemeParams(n=cfg.n_workers, k=cfg.k, s=s, m=m)
    if method == "lcc":
        return SchemeParams(n=cfg.n_workers, k=cfg.k, s=1, m=1)
    if method == "uncoded":
        return SchemeParams(n=cfg.n_workers, k=cfg.k)
    raise ValueError(f"unknown method {method!r}")


def scenario_config(
    method: str,
    cfg: ExperimentConfig,
    *,
    s: int,
    m: int,
    n_stragglers: int | None = None,
    n_byzantine: int | None = None,
    attack: str = "reverse",
    intermittent: bool = True,
    straggler_ids: tuple[int, ...] | None = None,
    byzantine_ids: tuple[int, ...] | None = None,
    seed_offset: int = 0,
    max_inflight_rounds: int = 1,
) -> SessionConfig:
    """One scenario as a declarative :class:`SessionConfig`.

    ``s``/``m`` parameterize the deployed scheme; ``n_stragglers`` /
    ``n_byzantine`` the *actual* fault injection (defaulting to the
    scheme's design point — Fig. 5 deliberately exceeds it).

    ``max_inflight_rounds`` widens the session's pipelined round
    scheduler; the paper experiments keep the serial window of 1
    here, not the session's default of 2 (their two rounds per
    iteration are data-dependent), while the serving benches
    (``bench_pipeline.py``) widen it.
    """
    specs = _worker_specs(
        cfg,
        n_stragglers if n_stragglers is not None else s,
        n_byzantine if n_byzantine is not None else m,
        attack,
        intermittent,
        straggler_ids,
        byzantine_ids,
    )
    return SessionConfig(
        scheme=_scheme(method, cfg, s, m),
        master=method,
        backend="sim",
        prime=DEFAULT_PRIME,
        seed=cfg.seed + seed_offset,
        workers=specs,
        cost=cfg.cost_dict(),
        max_inflight_rounds=max_inflight_rounds,
    )


def make_session(method: str, cfg: ExperimentConfig, **scenario) -> Session:
    """Stand up a ready session for one scenario (shares not yet
    loaded — call ``session.load(x)``)."""
    return Session.create(scenario_config(method, cfg, **scenario))


# ----------------------------------------------------------------------
# the serving scenario (gateway traffic against the paper's fleet)
# ----------------------------------------------------------------------
#: canonical serving scale: GISETTE-like structure, small enough that
#: per-round overhead — what micro-batching amortizes — dominates
SERVING_SCALE = (240, 120)


def serving_config(
    cfg: ExperimentConfig,
    *,
    batch_window: int = 64,
    max_inflight_rounds: int = 1,
    seed_offset: int = 0,
    backend: str = "sim",
    backend_options: dict | None = None,
) -> SessionConfig:
    """The serving scenario's session: the paper's ``(12, 9, S=1,
    M=1)`` AVCC deployment at the calibrated cost constants, with one
    heavy (5x) straggler and one always-on Byzantine worker — the
    fleet every gateway variant (serial, pipelined, deadline-batched)
    is benchmarked against. ``batch_window`` is kept wide so the
    *gateway's* batch policy, not the session's count trigger, decides
    round boundaries. ``backend`` swaps the substrate (``"tcp"``
    serves the same trace over a real loopback socket fleet);
    wall-clock backends default to a small ``straggle_scale`` so the
    injected 5x straggler costs milliseconds, not seconds."""
    specs = _worker_specs(cfg, 1, 1, "reverse", False, None, None)
    if backend_options is None:
        backend_options = {} if backend == "sim" else {"straggle_scale": 0.002}
    return SessionConfig(
        scheme=SchemeParams(n=cfg.n_workers, k=cfg.k, s=1, m=1),
        master="avcc",
        backend=backend,
        prime=DEFAULT_PRIME,
        seed=cfg.seed + seed_offset,
        workers=specs,
        batch_window=batch_window,
        max_inflight_rounds=max_inflight_rounds,
        cost=cfg.cost_dict(),
        backend_options=backend_options,
    )


def make_serving_workload(
    field,
    shape: tuple[int, int] = SERVING_SCALE,
    *,
    n_requests: int = 240,
    seed: int = 7,
    calm_rate: float = 500.0,
    burst_rate: float = 2500.0,
):
    """The mixed Poisson+burst serving trace: two tenants (a patient
    ``free`` tier and a 3x-weighted ``pro`` tier with a tight SLO)
    over a Markov-modulated Poisson arrival process whose bursts
    exceed the serial gateway's capacity. Returns ``(generator,
    requests)``; the generator's :attr:`tenant_weights` feed the
    gateway's fair queue. Deterministic for a given seed, so every
    gateway variant replays the identical trace."""
    from repro.serve import BurstyArrivals, TenantSpec, WorkloadGenerator

    generator = WorkloadGenerator(
        field,
        shape,
        tenants=[
            TenantSpec(
                "free", weight=1.0, deadline_slack=0.6, transpose_fraction=0.3
            ),
            TenantSpec("pro", weight=3.0, deadline_slack=0.25),
        ],
        arrivals=BurstyArrivals(
            calm_rate=calm_rate, burst_rate=burst_rate, p_burst=0.08, p_calm=0.15
        ),
        seed=seed,
    )
    return generator, generator.generate(n_requests)


def run_training(
    method: str, cfg: ExperimentConfig, dataset: Dataset, **scenario
) -> tuple[TrainingHistory, list[RoundRecord]]:
    """Train one method through one scenario (the keywords of
    :func:`scenario_config`); returns the history and the session's
    round records (``stats.records``), the run's log."""
    with make_session(method, cfg, **scenario) as session:
        session.load(dataset.x_train)
        trainer = DistributedLogisticTrainer(session, dataset, cfg.logistic_config())
        history = trainer.train()
    return history, session.stats.records
