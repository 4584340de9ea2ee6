"""Named factories for execution backends and coded masters.

The session layer resolves ``SessionConfig.backend`` and
``SessionConfig.master`` strings through these registries, so the
string names ``"sim" | "tcp"`` and
``"avcc" | "lcc" | "static_vcc" | "uncoded"`` are data, not code —
a config file can pick any combination, and third parties can plug in
their own substrate or waiting/verification policy without touching
``repro`` internals:

    from repro.api import register_backend, register_master

    register_backend("my_grpc", my_grpc_factory)
    register_master("my_policy", my_policy_factory)
    Session.create(SessionConfig(..., backend="my_grpc", master="my_policy"))

The four built-in master names are three classes: ``"static_vcc"``
builds ``AVCCMaster(adaptive=False)``, AVCC with the dynamic coding
step off (its ``name`` reads ``"static_vcc"``).

Factory contracts
-----------------
``BackendFactory(config, field, workers, rng) -> Backend``
    Receives the validated :class:`~repro.api.config.SessionConfig`,
    the constructed :class:`~repro.ff.field.PrimeField`, the worker
    fleet (:class:`~repro.runtime.worker.SimWorker` objects built from
    the config's :class:`~repro.api.config.WorkerSpec` entries) and a
    seeded generator. Must return an object implementing the
    :class:`~repro.runtime.backend.Backend` protocol.

``MasterFactory(config, backend, rng) -> master``
    Receives the config and the already-constructed backend. Must
    return a master exposing the coded matvec service
    (``setup`` / ``forward_round`` / ``backward_round`` /
    ``round_many`` / ``end_iteration``).

Both registries reject silent replacement: pass ``overwrite=True`` to
re-bind a name on purpose.
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
    "register_backend",
    "register_master",
    "resolve_backend",
    "resolve_master",
]

BackendFactory = Callable[
    ["SessionConfig", "PrimeField", Sequence["SimWorker"], np.random.Generator],
    "Backend",
]
MasterFactory = Callable[["SessionConfig", "Backend", np.random.Generator], object]

_BACKENDS: dict[str, BackendFactory] = {}
_MASTERS: dict[str, MasterFactory] = {}


def register_backend(
    name: str, factory: BackendFactory, *, overwrite: bool = False
) -> None:
    """Bind ``name`` to an execution-backend factory.

    Raises ``ValueError`` on a duplicate name unless ``overwrite``.
    """
    if not name or not isinstance(name, str):
        raise ValueError(f"backend name must be a non-empty string, got {name!r}")
    if name in _BACKENDS and not overwrite:
        raise ValueError(
            f"backend {name!r} is already registered (pass overwrite=True to re-bind)"
        )
    _BACKENDS[name] = factory


def register_master(
    name: str, factory: MasterFactory, *, overwrite: bool = False
) -> None:
    """Bind ``name`` to a master factory.

    Raises ``ValueError`` on a duplicate name unless ``overwrite``.
    """
    if not name or not isinstance(name, str):
        raise ValueError(f"master name must be a non-empty string, got {name!r}")
    if name in _MASTERS and not overwrite:
        raise ValueError(
            f"master {name!r} is already registered (pass overwrite=True to re-bind)"
        )
    _MASTERS[name] = factory


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
    """Registered backend names, sorted."""
    return tuple(sorted(_BACKENDS))


def master_names() -> tuple[str, ...]:
    """Registered master names, sorted."""
    return tuple(sorted(_MASTERS))


# ----------------------------------------------------------------------
# built-in bindings
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


register_backend("sim", _sim_backend)
register_backend("tcp", _tcp_backend)
register_master("avcc", _avcc_master)
register_master("static_vcc", _static_vcc_master)
register_master("lcc", _lcc_master)
register_master("uncoded", _uncoded_master)
