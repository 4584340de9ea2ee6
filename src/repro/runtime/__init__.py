"""Execution backends for the coded-computing masters.

This package substitutes for the paper's physical testbed (13 Minnow
nodes on DCOMP, Sec. V). The protocol code paths — encoding, worker
compute, per-worker verification, decoding, dynamic re-coding — run for
real over real field arithmetic on every backend; only *where* (and
whether) time is simulated differs. All backends implement the same
:class:`Backend` protocol, so any master runs on any of them:

``SimCluster``
    Discrete-event simulator with a calibrated :class:`CostModel` and
    per-worker latency profiles: deterministic, used by the paper
    reproductions (straggler tails, Byzantine injection, verification
    and re-encoding costs all measured on a virtual clock).
``TcpCluster``
    One worker daemon process per worker over real sockets, spawned on
    loopback or living on other hosts
    (``python -m repro.runtime.net.worker``): a framed binary wire
    protocol with zero-copy numpy payloads, heartbeat-based
    dead-worker detection (a vanished worker surfaces as a straggler,
    never a hang), and per-round collect timeouts. The deployment
    model of the paper's testbed, and the only wall-clock backend.

Layout
------
``backend``     the Backend/RoundJob/RoundHandle protocol
``events``      minimal event-queue kernel
``costmodel``   seconds-per-MAC / bandwidth / RTT constants
``latency``     worker speed profiles (multiplicative slowdowns)
``byzantine``   attack behaviours (reverse-value, constant, ...)
``worker``      a worker description = payload + profile + behaviour
``cluster``     the discrete-event backend
``net``         the TCP socket backend (wire protocol, daemons, fleets)
"""

from repro.runtime.backend import (
    Arrival,
    Backend,
    RoundHandle,
    RoundJob,
    RoundResult,
    WallClockBackend,
)
from repro.runtime.byzantine import (
    Behavior,
    ConstantAttack,
    Honest,
    IntermittentAttack,
    RandomAttack,
    ReversedValueAttack,
    SilentFailure,
)
from repro.runtime.cluster import SimCluster
from repro.runtime.costmodel import CostModel
from repro.runtime.events import EventQueue
from repro.runtime.latency import (
    DeterministicLatency,
    LatencyModel,
    make_profiles,
)
from repro.runtime.net import TcpCluster
from repro.runtime.worker import SimWorker

__all__ = [
    "Arrival",
    "Backend",
    "Behavior",
    "ConstantAttack",
    "CostModel",
    "DeterministicLatency",
    "EventQueue",
    "Honest",
    "IntermittentAttack",
    "LatencyModel",
    "RandomAttack",
    "ReversedValueAttack",
    "RoundHandle",
    "RoundJob",
    "RoundResult",
    "SilentFailure",
    "SimCluster",
    "SimWorker",
    "TcpCluster",
    "WallClockBackend",
    "make_profiles",
]
