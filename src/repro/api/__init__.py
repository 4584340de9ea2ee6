"""The user-facing session API — one sanctioned way in.

The lower layers of this repro (``ff`` → ``coding`` → ``verify`` →
``runtime`` → ``core``) are deliberately explicit: every experiment can
reach any seam. But *using* the system should not require hand-wiring
six layers. This package is the production-shaped front door:

    from repro.api import JobRequest, Session, SessionConfig
    from repro.coding import SchemeParams

    cfg = SessionConfig(scheme=SchemeParams(n=6, k=3, s=1, m=1))
    with Session.create(cfg) as sess:
        sess.load(x)                           # encode, ship shares + keys
        req = JobRequest(family="matvec", operand=w)
        z = sess.submit(req).result()          # verified, exact X @ w
        z = sess.submit_matvec(w).result()     # same thing, sugar

Three pieces:

``SessionConfig`` (:mod:`repro.api.config`)
    One validated, ``to_dict``/``from_dict`` round-trippable object:
    field prime, ``(N, K, S, M, T)`` scheme, master and backend *names*,
    per-worker straggler/Byzantine specs, cost-model overrides and the
    batching window. Configs are plain data — storable in JSON/TOML,
    shippable across processes.

``Session`` (:mod:`repro.api.session`)
    A context-managed service over one dataset.
    ``Session.submit(request)`` is the canonical entry point: it takes
    one typed :class:`~repro.api.session.JobRequest` (or any
    compatible object, e.g. a serve-layer ``Request``) and returns a
    :class:`~repro.api.session.JobHandle` — **the single future type
    of this API**: every submission path yields one, and
    ``handle.result()`` / ``handle.outcome()`` / ``handle.record`` are
    the only ways results come back. The ``submit_matvec`` /
    ``submit_gramian`` / ``submit_matmul`` conveniences are thin
    wrappers that build a ``JobRequest`` and call ``submit``.
    Concurrently submitted jobs against the same encoded family are
    **coalesced into a single broadcast round** (one ``RoundJob``
    serving many jobs — the heavy-traffic path), and
    ``session.stats`` surfaces per-round verify/decode/adaptation
    telemetry plus pipeline occupancy.

``RoundScheduler`` (:mod:`repro.api.scheduler`) — the pipelined path
    Rounds move through an explicit plan → dispatch → collect →
    finalize lifecycle; with ``SessionConfig.max_inflight_rounds >= 2``
    the session keeps several dispatched rounds in flight, overlapping
    master-side verify/decode with worker compute across rounds.
    ``flush`` becomes non-blocking dispatch; ``result()`` waits only
    for its own round; ``end_iteration`` drains the window before any
    dynamic re-code. Results are byte-identical to serial execution.

Registries (:mod:`repro.api.registry`) — the extension point
    ``Session.create`` resolves backends and masters **by name**
    through two registries pre-populated with the built-ins
    (backends ``"sim" | "threaded" | "process" | "tcp"``; masters
    ``"avcc" | "lcc" | "static_vcc" | "uncoded"``). Third-party code
    plugs in without touching ``repro`` internals::

        from repro.api import register_backend, register_master

        def my_backend(config, field, workers, rng):   # -> Backend
            return MyRpcCluster(field, workers, **config.backend_options)

        register_backend("my_rpc", my_backend)
        Session.create(cfg.with_(backend="my_rpc"))

    A ``BackendFactory`` receives ``(config, field, workers, rng)`` and
    returns a :class:`~repro.runtime.backend.Backend`; a
    ``MasterFactory`` receives ``(config, backend, rng)`` and returns a
    master exposing the coded matvec service. Duplicate names raise
    unless ``overwrite=True`` — re-binding a built-in is explicit.

The layer-by-layer wiring remains available and importable (the tests
pin it); this package is sugar plus policy, not a wall.

Above this package sits :mod:`repro.serve` — the multi-tenant serving
gateway (traffic generation, admission control, deadline-aware
micro-batching). It drives sessions purely through this API:
``Session.submit(request)`` routes typed requests, and its batch
policies consume the round-time telemetry
(``Session.estimate_round_time``, blending a cost-model prior with
``SessionStats.recent_round_time``); ``queue_depths`` exposes the
session-side pending-job depth for dashboards and future autoscaling.
"""

from repro.api.config import SessionConfig, WorkerSpec
from repro.api.registry import (
    backend_names,
    master_names,
    register_backend,
    register_master,
    resolve_backend,
    resolve_master,
)
from repro.api.scheduler import RoundScheduler, SessionClosedError
from repro.api.session import JobHandle, JobRequest, Session, SessionStats

__all__ = [
    "JobHandle",
    "JobRequest",
    "RoundScheduler",
    "Session",
    "SessionClosedError",
    "SessionConfig",
    "SessionStats",
    "WorkerSpec",
    "backend_names",
    "master_names",
    "register_backend",
    "register_master",
    "resolve_backend",
    "resolve_master",
]
