"""The serving gateway: multi-tenant traffic over coded computing.

Everything below the session executes *jobs*; this package serves
*requests*. It layers the missing top of the serving stack — arrival
processes, tenants, deadlines, admission control, and deadline-aware
micro-batching — on the :class:`~repro.api.session.Session` API:

    from repro.api import Session, SessionConfig
    from repro.coding import SchemeParams
    from repro.serve import (
        Gateway, GatewayConfig, OpenLoopSource, PoissonArrivals,
        TenantSpec, WorkloadGenerator,
    )

    cfg = SessionConfig(scheme=SchemeParams(n=12, k=9, s=1, m=1),
                        batch_window=64)
    with Session.create(cfg) as sess:
        sess.load(x)
        gen = WorkloadGenerator(
            sess.field, x.shape,
            tenants=[TenantSpec("free", weight=1.0, deadline_slack=0.5),
                     TenantSpec("pro", weight=3.0, deadline_slack=0.1)],
            arrivals=PoissonArrivals(rate=400.0), seed=7,
        )
        gw = Gateway(sess, OpenLoopSource(gen.generate(500)),
                     GatewayConfig(batch_policy="hybrid",
                                   policy_options={"window": 16, "safety": 1.5},
                                   tenant_weights=gen.tenant_weights))
        report = gw.run()
        print(report.summary())          # p50/p99, SLO attainment, sheds

Four modules:

:mod:`repro.serve.workload`
    Typed :class:`~repro.serve.workload.Request` objects and traffic
    generation — Poisson / bursty (Markov-modulated) / diurnal arrival
    processes, open- and closed-loop sources, tenant mixes.
:mod:`repro.serve.queueing`
    Per-tenant bounded FIFOs, weighted fair dequeue (stride
    scheduling) and admission control (queue-depth and expired-request
    shedding).
:mod:`repro.serve.batcher`
    The two :class:`~repro.serve.batcher.BatchPolicy` implementations
    (``count`` and ``hybrid``, built by name) and the per-family
    :class:`~repro.serve.batcher.MicroBatcher`.
:mod:`repro.serve.gateway`
    The event loop tying it together against sim-virtual or wall-clock
    time, and the :class:`~repro.serve.gateway.ServeReport` metrics
    surface.
"""

from repro.serve.batcher import (
    BatchPolicy,
    CountPolicy,
    HybridPolicy,
    MicroBatcher,
    PendingBatch,
    make_batch_policy,
)
from repro.serve.gateway import Gateway, GatewayConfig, RequestOutcome, ServeReport
from repro.serve.queueing import FairQueue, TenantStats
from repro.serve.workload import (
    ArrivalProcess,
    BurstyArrivals,
    ClosedLoopSource,
    DiurnalArrivals,
    OpenLoopSource,
    PoissonArrivals,
    Request,
    TenantSpec,
    WorkloadGenerator,
)

__all__ = [
    "ArrivalProcess",
    "BatchPolicy",
    "BurstyArrivals",
    "ClosedLoopSource",
    "CountPolicy",
    "DiurnalArrivals",
    "FairQueue",
    "Gateway",
    "GatewayConfig",
    "HybridPolicy",
    "MicroBatcher",
    "OpenLoopSource",
    "PendingBatch",
    "PoissonArrivals",
    "Request",
    "RequestOutcome",
    "ServeReport",
    "TenantSpec",
    "TenantStats",
    "WorkloadGenerator",
    "make_batch_policy",
]
