"""Named factories for execution backends and coded masters.

The session layer resolves ``SessionConfig.backend`` and
``SessionConfig.master`` strings through two name tables, so the
string names ``"sim" | "tcp"`` and
``"avcc" | "lcc" | "static_vcc" | "uncoded"`` are data, not code — a
config file can pick any combination.

The four master names are three classes: ``"static_vcc"`` builds
``AVCCMaster(adaptive=False)``, AVCC with the dynamic coding step off
(its ``name`` reads ``"static_vcc"``).

Factory contracts
-----------------
``BackendFactory(config, field, workers, rng) -> Backend``
    Receives the validated :class:`~repro.api.config.SessionConfig`,
    the constructed :class:`~repro.ff.field.PrimeField`, the worker
    fleet (:class:`~repro.runtime.worker.SimWorker` objects built from
    the config's :class:`~repro.api.config.WorkerSpec` entries) and a
    seeded generator. Returns an object implementing the
    :class:`~repro.runtime.backend.Backend` protocol.

``MasterFactory(config, backend, rng) -> master``
    Receives the config and the already-constructed backend. Returns
    a master exposing the coded matvec service (``setup`` /
    ``forward_round`` / ``backward_round`` / ``round_many`` /
    ``end_iteration``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.api.config import SessionConfig
    from repro.ff.field import PrimeField
    from repro.runtime.backend import Backend
    from repro.runtime.worker import SimWorker

__all__ = [
    "BackendFactory",
    "MasterFactory",
    "backend_names",
    "master_names",
    "resolve_backend",
    "resolve_master",
]

BackendFactory = Callable[
    ["SessionConfig", "PrimeField", Sequence["SimWorker"], np.random.Generator],
    "Backend",
]
MasterFactory = Callable[["SessionConfig", "Backend", np.random.Generator], object]


def resolve_backend(name: str) -> BackendFactory:
    try:
        return _BACKENDS[name]
    except KeyError:
        raise ValueError(
            f"unknown backend {name!r}; registered: {backend_names()}"
        ) from None


def resolve_master(name: str) -> MasterFactory:
    try:
        return _MASTERS[name]
    except KeyError:
        raise ValueError(
            f"unknown master {name!r}; registered: {master_names()}"
        ) from None


def backend_names() -> tuple[str, ...]:
    """Backend names, sorted."""
    return tuple(sorted(_BACKENDS))


def master_names() -> tuple[str, ...]:
    """Master names, sorted."""
    return tuple(sorted(_MASTERS))


# ----------------------------------------------------------------------
# the factories
# ----------------------------------------------------------------------
def _sim_backend(
    config: "SessionConfig",
    field: "PrimeField",
    workers: Sequence["SimWorker"],
    rng: np.random.Generator,
) -> "Backend":
    from repro.runtime.cluster import SimCluster

    return SimCluster(field, workers, cost_model=config.cost_model(), rng=rng)


def _tcp_backend(
    config: "SessionConfig",
    field: "PrimeField",
    workers: Sequence["SimWorker"],
    rng: np.random.Generator,
) -> "Backend":
    from repro.runtime.net import TcpCluster

    return TcpCluster(
        field,
        workers,
        rng=rng,
        cost_model=config.cost_model(),
        **config.backend_options,
    )


def _avcc_master(
    config: "SessionConfig", backend: "Backend", rng: np.random.Generator
) -> object:
    from repro.core.avcc import AVCCMaster

    return AVCCMaster(backend, config.scheme, probes=config.probes, rng=rng)


def _static_vcc_master(
    config: "SessionConfig", backend: "Backend", rng: np.random.Generator
) -> object:
    from repro.core.avcc import AVCCMaster

    return AVCCMaster(
        backend, config.scheme, probes=config.probes, adaptive=False, rng=rng
    )


def _lcc_master(
    config: "SessionConfig", backend: "Backend", rng: np.random.Generator
) -> object:
    from repro.core.lcc_master import LCCMaster

    return LCCMaster(backend, config.scheme, rng=rng)


def _uncoded_master(
    config: "SessionConfig", backend: "Backend", rng: np.random.Generator
) -> object:
    from repro.core.uncoded import UncodedMaster

    return UncodedMaster(backend, k=config.scheme.k, rng=rng)


_BACKENDS: dict[str, BackendFactory] = {"sim": _sim_backend, "tcp": _tcp_backend}
_MASTERS: dict[str, MasterFactory] = {
    "avcc": _avcc_master,
    "static_vcc": _static_vcc_master,
    "lcc": _lcc_master,
    "uncoded": _uncoded_master,
}
