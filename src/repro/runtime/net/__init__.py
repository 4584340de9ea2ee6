"""The TCP socket runtime: wire protocol, worker daemons, fleet tools.

This package turns the reproduction into a deployable distributed
system: the master (:class:`TcpCluster`) and its workers
(:class:`WorkerServer`, ``python -m repro.runtime.net.worker``) are
separate processes — separate hosts, if you like — speaking a framed,
checksummed binary protocol (:mod:`repro.runtime.net.wire`) with
zero-copy numpy payloads. See the README's "Distributed deployment"
section for the operational guide.

``wire``           framed messages, protocol version, checksums
``tunables``       shared liveness/deadline knobs (:class:`NetTunables`)
``worker_server``  the worker daemon (two threads over one blocking socket)
``worker``         the ``python -m`` CLI entrypoint for daemons
``client``         :class:`TcpCluster` — the selector-pumped master Backend
``fleet``          loopback fleet spawning for tests/examples/benches
"""

from repro.runtime.net.client import TcpCluster, TcpRoundHandle
from repro.runtime.net.fleet import LocalFleet, free_port, spawn_local_workers
from repro.runtime.net.tunables import NetTunables
from repro.runtime.net.wire import (
    MSG_CODES,
    PROTOCOL_VERSION,
    WireError,
    behavior_from_dict,
    behavior_to_dict,
    decode_payload,
    encode_frame,
    read_frame,
    send_frame,
)
from repro.runtime.net.worker_server import WorkerServer

__all__ = [
    "LocalFleet",
    "MSG_CODES",
    "NetTunables",
    "PROTOCOL_VERSION",
    "TcpCluster",
    "TcpRoundHandle",
    "WireError",
    "WorkerServer",
    "behavior_from_dict",
    "behavior_to_dict",
    "decode_payload",
    "encode_frame",
    "free_port",
    "read_frame",
    "send_frame",
    "spawn_local_workers",
]
