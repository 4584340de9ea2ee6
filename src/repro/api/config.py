"""Declarative session configuration.

One validated object captures everything needed to stand up a coded
computing service: the field, the ``(N, K, S, M, T)`` scheme, which
master policy and which execution substrate to use (by registry name),
the worker fleet's straggler/Byzantine composition, the simulated cost
constants, and the batching window. ``SessionConfig`` round-trips
through plain dicts (``to_dict`` / ``from_dict``), so deployments can
live in JSON/TOML files and travel across processes.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field as dc_field, replace
from typing import Any, Mapping, Sequence

import numpy as np

from repro.coding.scheme import SchemeParams
from repro.ff.field import DEFAULT_PRIME, PrimeField
from repro.runtime.byzantine import (
    Behavior,
    ConstantAttack,
    Honest,
    IntermittentAttack,
    RandomAttack,
    ReversedValueAttack,
    SilentFailure,
)
from repro.runtime.costmodel import CostModel
from repro.runtime.latency import make_profiles
from repro.runtime.net.tunables import NetTunables
from repro.runtime.worker import SimWorker

__all__ = ["SessionConfig", "WorkerSpec"]

#: behaviour names a WorkerSpec accepts
BEHAVIOR_KINDS = ("honest", "reverse", "constant", "random", "silent")


@dataclass(frozen=True)
class WorkerSpec:
    """Declarative description of one worker's failure profile.

    Attributes
    ----------
    straggler_factor:
        Compute-slowdown multiplier (1.0 = full speed). On the
        simulator it scales the sampled compute time; on wall-clock
        backends it becomes an injected sleep.
    behavior:
        One of ``"honest" | "reverse" | "constant" | "random" |
        "silent"`` (the paper's attack menu plus crash-stop).
    attack_value:
        ``c`` for the reversed-value attack, the constant for the
        constant attack; ignored otherwise.
    probability:
        Per-round attack probability. Below 1.0 the behaviour is
        wrapped in :class:`~repro.runtime.byzantine.IntermittentAttack`.
    """

    straggler_factor: float = 1.0
    behavior: str = "honest"
    attack_value: int = 1
    probability: float = 1.0

    def __post_init__(self) -> None:
        if self.straggler_factor < 1.0:
            raise ValueError(
                f"straggler_factor must be >= 1.0, got {self.straggler_factor}"
            )
        if self.behavior not in BEHAVIOR_KINDS:
            raise ValueError(
                f"unknown behavior {self.behavior!r}; pick one of {BEHAVIOR_KINDS}"
            )
        if not 0.0 < self.probability <= 1.0:
            raise ValueError(f"probability must be in (0, 1], got {self.probability}")

    def build_behavior(self) -> Behavior:
        """Materialize the runtime behaviour object."""
        if self.behavior == "honest":
            return Honest()
        if self.behavior == "reverse":
            inner: Behavior = ReversedValueAttack(c=self.attack_value)
        elif self.behavior == "constant":
            inner = ConstantAttack(value=self.attack_value)
        elif self.behavior == "random":
            inner = RandomAttack()
        else:
            return SilentFailure()
        if self.probability < 1.0:
            return IntermittentAttack(inner, probability=self.probability)
        return inner


@dataclass(frozen=True)
class SessionConfig:
    """Everything :meth:`repro.api.session.Session.create` needs.

    Attributes
    ----------
    scheme:
        The deployment's :class:`~repro.coding.scheme.SchemeParams`
        (``n`` fixes the fleet size). Feasibility for the chosen master
        is validated by the master's own constructor at build time.
    master:
        Registry name of the waiting/verification policy
        (``"avcc" | "lcc" | "static_vcc" | "uncoded"`` built in;
        ``"static_vcc"`` is ``AVCCMaster(adaptive=False)``).
    backend:
        Registry name of the execution substrate (``"sim" |
        "threaded" | "process" | "tcp"`` built in).
    prime:
        Field modulus (the paper's ``2**25 - 39`` by default).
    seed:
        Seeds the backend rng (latency jitter, attack randomness) and
        the master rng (key generation, privacy padding).
    probes:
        Freivalds probes per verification check.
    workers:
        One :class:`WorkerSpec` per worker. Empty means ``scheme.n``
        honest full-speed workers; otherwise the length must equal
        ``scheme.n``.
    batch_window:
        Maximum jobs the session coalesces into one broadcast round.
    max_inflight_rounds:
        Bound W of the session's pipelined round scheduler: up to W
        dispatched rounds may be awaiting finalization at once. ``1``
        (default) executes rounds strictly serially; ``>= 2`` lets
        independent rounds (different families, successive serving
        requests) overlap — workers compute round *i+1* while the
        master verifies/decodes round *i*. Results are byte-identical
        across window sizes.
    elastic_membership:
        When ``True`` (default), every ``end_iteration`` quiesce point
        also reconciles the coding roster with live fleet membership:
        pending joiners (restarted daemons, new capacity) are admitted
        and heartbeat-declared deaths evicted, with the master
        re-coding over the new roster. ``False`` freezes the roster at
        session start (pre-0.7 behaviour). Only the socket backend
        (``"tcp"``) produces membership changes; elsewhere this is inert.
    observability:
        When ``True`` the session carries an
        :class:`~repro.obs.Observability` bundle: every submitted job
        gets a span-traced request-to-round timeline (worker daemons
        ship their own sub-spans back over the wire on the socket
        backends), and a unified metrics registry feeds the live
        telemetry endpoint (``TelemetryServer(session.obs)``) and the
        ``repro obs`` CLI. ``False`` (default) instantiates
        none of it — reports, summaries and wire frames are
        byte-identical to an untraced build.
    audit:
        When ``True`` the session arms every master with one shared
        :class:`~repro.obs.audit.AuditLog`: each finalized round
        appends a hash-chained :class:`~repro.obs.audit.
        RoundCommitment` (scheme config, operand/output digests,
        per-worker result digests, verify verdicts), the socket
        backends' worker daemons countersign results with a digest in
        the result frame, and ``ServeReport`` rows carry the sequence
        number of the commitment backing each request. ``False``
        (default) instantiates none of it — reports, round results and
        wire frames are byte-identical to an unaudited build.
        Independent of ``observability`` (the live ``/audit`` endpoint
        needs both).
    cost:
        Overrides for :class:`~repro.runtime.costmodel.CostModel`
        fields (e.g. ``{"worker_sec_per_mac": 300e-9}``).
    net:
        The socket backend's liveness/deadline knob surface
        (:class:`~repro.runtime.net.tunables.NetTunables`):
        ``heartbeat_interval``/``heartbeat_timeout`` (probing cadence
        and the dead-worker threshold), ``io_timeout`` (per-socket I/O
        deadline) and ``round_timeout`` (per-round collect deadline).
        Used by ``"tcp"``; ignored by the in-process backends. Accepts
        a plain mapping in :meth:`from_dict`.
    backend_options:
        Extra keyword arguments for the backend factory (e.g.
        ``{"straggle_scale": 0.05}`` for wall-clock backends). The
        tcp backend's deployment knobs travel here too:
        ``host``/``port`` (listen address; port 0 = ephemeral),
        ``connect_timeout`` (seconds to wait for the fleet to
        register) and ``spawn_workers``/``spawn_mode`` (self-launch a
        loopback fleet vs wait for remote daemons). Entries here
        override the ``net`` field for per-run tweaks.
    """

    scheme: SchemeParams
    master: str = "avcc"
    backend: str = "sim"
    prime: int = DEFAULT_PRIME
    seed: int = 0
    probes: int = 1
    workers: tuple[WorkerSpec, ...] = ()
    batch_window: int = 32
    max_inflight_rounds: int = 1
    elastic_membership: bool = True
    observability: bool = False
    audit: bool = False
    cost: dict[str, Any] = dc_field(default_factory=dict)
    net: NetTunables = dc_field(default_factory=NetTunables)
    backend_options: dict[str, Any] = dc_field(default_factory=dict)

    def __post_init__(self) -> None:
        if not isinstance(self.scheme, SchemeParams):
            raise TypeError(f"scheme must be SchemeParams, got {type(self.scheme)}")
        if self.prime < 3:
            raise ValueError(f"prime must be >= 3, got {self.prime}")
        if self.probes < 1:
            raise ValueError("probes must be >= 1")
        if self.batch_window < 1:
            raise ValueError("batch_window must be >= 1")
        if self.max_inflight_rounds < 1:
            raise ValueError("max_inflight_rounds must be >= 1")
        object.__setattr__(self, "workers", tuple(self.workers))
        if self.workers and len(self.workers) != self.scheme.n:
            raise ValueError(
                f"got {len(self.workers)} worker specs for scheme.n={self.scheme.n}"
            )
        for spec in self.workers:
            if not isinstance(spec, WorkerSpec):
                raise TypeError(f"workers entries must be WorkerSpec, got {spec!r}")
        if not isinstance(self.net, NetTunables):
            raise TypeError(
                f"net must be NetTunables (or a mapping via from_dict), "
                f"got {type(self.net)}"
            )
        self.cost_model()  # validate the overrides eagerly

    # ------------------------------------------------------------------
    # builders
    # ------------------------------------------------------------------
    def build_field(self) -> PrimeField:
        return PrimeField(self.prime)

    def cost_model(self) -> CostModel:
        return CostModel(**self.cost)

    def worker_specs(self) -> tuple[WorkerSpec, ...]:
        """The fleet description, defaults expanded to ``scheme.n``."""
        if self.workers:
            return self.workers
        return tuple(WorkerSpec() for _ in range(self.scheme.n))

    def build_workers(self) -> list[SimWorker]:
        """Materialize the fleet from the specs."""
        specs = self.worker_specs()
        factors = {
            i: s.straggler_factor
            for i, s in enumerate(specs)
            if s.straggler_factor != 1.0
        }
        profiles = make_profiles(len(specs), factors)
        return [
            SimWorker(i, profile=profiles[i], behavior=spec.build_behavior())
            for i, spec in enumerate(specs)
        ]

    def with_(self, **changes: Any) -> "SessionConfig":
        """Functional update (frozen dataclass)."""
        return replace(self, **changes)

    # ------------------------------------------------------------------
    # dict round-trip
    # ------------------------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        """Plain-data form; ``from_dict(to_dict(c)) == c``."""
        out = asdict(self)  # recursive: scheme and worker specs become dicts
        out["workers"] = list(out["workers"])  # tuple -> list, JSON-friendly
        return out

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SessionConfig":
        """Inverse of :meth:`to_dict`; unknown keys are rejected."""
        data = dict(data)
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown SessionConfig keys: {sorted(unknown)}")
        if "scheme" not in data:
            raise ValueError("SessionConfig dict needs a 'scheme' entry")
        scheme = data["scheme"]
        if isinstance(scheme, Mapping):
            data["scheme"] = SchemeParams(**scheme)
        workers: Sequence[Any] = data.get("workers", ())
        data["workers"] = tuple(
            w if isinstance(w, WorkerSpec) else WorkerSpec(**w) for w in workers
        )
        if "cost" in data:
            data["cost"] = dict(data["cost"])
        net = data.get("net")
        if isinstance(net, Mapping):
            data["net"] = NetTunables.from_dict(net)
        if "backend_options" in data:
            data["backend_options"] = dict(data["backend_options"])
        return cls(**data)

    def build_rng(self, offset: int = 0) -> np.random.Generator:
        return np.random.default_rng(self.seed + offset)
