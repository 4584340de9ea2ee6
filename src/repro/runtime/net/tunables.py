"""Validated network tunables of the tcp backend.

:class:`NetTunables` gathers the liveness/deadline constants of
:mod:`client` and :mod:`worker_server` into one frozen, validated
object so a deployment tunes one knob surface:
:class:`~repro.api.config.SessionConfig` carries a ``net`` field, the
``"tcp"`` backend factory threads it into
:class:`~repro.runtime.net.client.TcpCluster`, and
explicit ``backend_options`` entries still win for per-run overrides.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping

__all__ = ["NetTunables"]


@dataclass(frozen=True)
class NetTunables:
    """Liveness and deadline knobs of the socket backend.

    Attributes
    ----------
    heartbeat_interval:
        Seconds between liveness probes to each worker.
    heartbeat_timeout:
        Seconds an unanswered probe may age before the worker is
        marked dead (the dead-worker threshold). Must exceed the
        interval, or every worker would flap dead between probes.
    io_timeout:
        Per-socket I/O deadline in seconds: how long one send/receive
        on a single worker's socket may stall before that worker is
        marked dead. ``None`` (default) inherits ``heartbeat_timeout``
        — a peer wedged mid-frame looks exactly like a peer that
        stopped acking probes.
    round_timeout:
        Per-round collect deadline in seconds (``None`` disables):
        workers silent past it are recorded as never-arrived for that
        round only, and stay in the pool.
    """

    heartbeat_interval: float = 0.25
    heartbeat_timeout: float = 10.0
    io_timeout: float | None = None
    round_timeout: float | None = 120.0

    def __post_init__(self) -> None:
        if self.heartbeat_interval <= 0:
            raise ValueError(
                f"heartbeat_interval must be > 0, got {self.heartbeat_interval}"
            )
        if self.heartbeat_timeout <= self.heartbeat_interval:
            raise ValueError(
                f"heartbeat_timeout ({self.heartbeat_timeout}) must exceed "
                f"heartbeat_interval ({self.heartbeat_interval})"
            )
        if self.io_timeout is not None and self.io_timeout <= 0:
            raise ValueError(f"io_timeout must be > 0 or None, got {self.io_timeout}")
        if self.round_timeout is not None and self.round_timeout <= 0:
            raise ValueError(
                f"round_timeout must be > 0 or None, got {self.round_timeout}"
            )

    @property
    def effective_io_timeout(self) -> float:
        """The per-socket deadline with the heartbeat fallback applied."""
        return self.io_timeout if self.io_timeout is not None else self.heartbeat_timeout

    def backend_kwargs(self) -> dict[str, Any]:
        """The tunables as cluster-constructor keyword arguments."""
        return {
            "heartbeat_interval": self.heartbeat_interval,
            "heartbeat_timeout": self.heartbeat_timeout,
            "io_timeout": self.io_timeout,
            "round_timeout": self.round_timeout,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "NetTunables":
        """Build from a plain mapping; unknown keys are rejected."""
        unknown = set(data) - set(cls.__dataclass_fields__)
        if unknown:
            raise ValueError(f"unknown NetTunables keys: {sorted(unknown)}")
        return cls(**data)
