"""Traffic generation for the serving gateway.

The gateway consumes typed :class:`Request` objects — tenant, arrival
time, deadline, operand payload — from a *traffic
source*. Two source shapes cover the standard load-testing regimes:

* **open loop** (:class:`OpenLoopSource`): arrivals follow a pregenerated
  schedule regardless of how fast the service drains them — the regime
  that exposes queueing collapse, which is the whole point of a serving
  harness (a closed-loop client politely slows down with the server and
  hides it).
* **closed loop** (:class:`ClosedLoopSource`): a fixed population of
  clients, each issuing its next request a think-time after its previous
  one completed — the regime of interactive sessions.

Arrival *processes* are pluggable (:class:`ArrivalProcess`): Poisson
(:class:`PoissonArrivals`), bursty Markov-modulated Poisson
(:class:`BurstyArrivals`) and diurnally modulated
(:class:`DiurnalArrivals`, thinning-sampled so it is an exact
nonhomogeneous Poisson process). A
:class:`WorkloadGenerator` combines one arrival process with a tenant
mix (:class:`TenantSpec`: traffic share, transposed share, relative
deadlines) and materializes concrete operand payloads in the session's
field.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from typing import Protocol, Sequence, runtime_checkable

import numpy as np

from repro.ff.field import PrimeField

__all__ = [
    "FAMILIES",
    "ArrivalProcess",
    "BurstyArrivals",
    "ClosedLoopSource",
    "DiurnalArrivals",
    "OpenLoopSource",
    "PoissonArrivals",
    "Request",
    "TenantSpec",
    "WorkloadGenerator",
]

#: request families the gateway can serve
FAMILIES = ("matvec",)


@dataclass(frozen=True)
class Request:
    """One unit of client work, as seen by the gateway.

    Attributes
    ----------
    request_id:
        Unique id (assigned by the generator; ties broken with it in
        the gateway's arrival heap).
    tenant:
        The submitting tenant — admission and fair dequeue are
        per-tenant.
    family:
        ``"matvec"``, the one family; it labels the gateway's request
        series and trace attributes.
    arrival:
        Backend-clock arrival time (seconds).
    deadline:
        Absolute completion deadline; ``math.inf`` means no SLO.
    operand:
        The request payload: the vector.
    transpose:
        Serve ``X.T @ operand`` (the ``bwd`` family) instead of
        ``X @ operand``.
    """

    request_id: int
    tenant: str
    family: str
    arrival: float
    deadline: float = math.inf
    operand: np.ndarray | None = None
    transpose: bool = False

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}; pick one of {FAMILIES}")
        if self.arrival < 0:
            raise ValueError(f"arrival must be >= 0, got {self.arrival}")
        if self.deadline < self.arrival:
            raise ValueError(
                f"deadline {self.deadline} precedes arrival {self.arrival}"
            )
        if self.operand is None:
            raise ValueError(f"{self.family} requests need an operand")

    @property
    def payload_elements(self) -> int:
        """Field elements the request ships to the gateway."""
        return int(np.asarray(self.operand).size)

    def slack(self, now: float) -> float:
        """Seconds until the deadline (negative = already missed)."""
        return self.deadline - now

    def expired(self, now: float) -> bool:
        return now > self.deadline


# ----------------------------------------------------------------------
# arrival processes
# ----------------------------------------------------------------------
@runtime_checkable
class ArrivalProcess(Protocol):
    """Anything that can produce the gap to the next arrival."""

    def interarrival(self, now: float, rng: np.random.Generator) -> float:
        """Seconds from the arrival at ``now`` to the next one (>= 0)."""
        ...  # pragma: no cover


@dataclass
class PoissonArrivals:
    """Memoryless open-loop traffic at ``rate`` requests/second."""

    rate: float

    def __post_init__(self):
        if self.rate <= 0:
            raise ValueError("rate must be positive")

    def interarrival(self, now: float, rng: np.random.Generator) -> float:
        return float(rng.exponential(1.0 / self.rate))


@dataclass
class BurstyArrivals:
    """Two-state Markov-modulated Poisson process (calm ↔ burst).

    The state chain steps once per arrival: from calm the process
    enters a burst with probability ``p_burst``; from a burst it
    returns to calm with probability ``p_calm`` — dwell times in each
    state are geometric, giving the bursty, correlated arrival clumps
    that defeat a gateway tuned for the average rate.
    """

    calm_rate: float
    burst_rate: float
    p_burst: float = 0.05
    p_calm: float = 0.2
    _bursting: bool = dc_field(default=False, repr=False)

    def __post_init__(self):
        if self.calm_rate <= 0 or self.burst_rate <= 0:
            raise ValueError("rates must be positive")
        if not (0 <= self.p_burst <= 1 and 0 <= self.p_calm <= 1):
            raise ValueError("transition probabilities must be in [0, 1]")

    def interarrival(self, now: float, rng: np.random.Generator) -> float:
        if self._bursting:
            self._bursting = rng.random() >= self.p_calm
        else:
            self._bursting = rng.random() < self.p_burst
        rate = self.burst_rate if self._bursting else self.calm_rate
        return float(rng.exponential(1.0 / rate))


@dataclass
class DiurnalArrivals:
    """Nonhomogeneous Poisson with a sinusoidal rate profile,

    ``rate(t) = base_rate * (1 + amplitude * sin(2 pi t / period))``,

    sampled exactly by thinning against the peak rate — the classic
    day/night load curve compressed to ``period`` seconds.
    """

    base_rate: float
    amplitude: float = 0.5
    period: float = 60.0

    def __post_init__(self):
        if self.base_rate <= 0 or self.period <= 0:
            raise ValueError("base_rate and period must be positive")
        if not 0 <= self.amplitude < 1:
            raise ValueError("amplitude must be in [0, 1)")

    def rate_at(self, t: float) -> float:
        return self.base_rate * (
            1.0 + self.amplitude * math.sin(2.0 * math.pi * t / self.period)
        )

    def interarrival(self, now: float, rng: np.random.Generator) -> float:
        peak = self.base_rate * (1.0 + self.amplitude)
        t = now
        while True:
            t += float(rng.exponential(1.0 / peak))
            if rng.random() <= self.rate_at(t) / peak:
                return t - now


# ----------------------------------------------------------------------
# tenants and the generator
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class TenantSpec:
    """One tenant's traffic profile.

    Attributes
    ----------
    name:
        Tenant id (also the fair-queue key).
    weight:
        Share of generated traffic *and* the tenant's fair-dequeue
        weight at the gateway.
    transpose_fraction:
        Fraction of this tenant's requests served against the
        transposed (``bwd``) family.
    deadline_slack:
        Relative deadline (seconds after arrival); ``math.inf`` = no
        SLO for this tenant.
    """

    name: str
    weight: float = 1.0
    transpose_fraction: float = 0.0
    deadline_slack: float = math.inf

    def __post_init__(self):
        if not self.name:
            raise ValueError("tenant name must be non-empty")
        if self.weight <= 0:
            raise ValueError("weight must be positive")
        if not 0.0 <= self.transpose_fraction <= 1.0:
            raise ValueError("transpose_fraction must be in [0, 1]")
        if self.deadline_slack <= 0:
            raise ValueError("deadline_slack must be positive")


def _cdf(p) -> np.ndarray:
    """The CDF ``Generator.choice`` draws from for probabilities ``p``."""
    cdf = np.cumsum(p, dtype=np.float64)
    cdf /= cdf[-1]
    return cdf


class WorkloadGenerator:
    """Materialize typed requests from an arrival process and a tenant
    mix, with operand payloads drawn in the session's field.

    Parameters
    ----------
    field:
        The session's computation field (operands are field elements).
    shape:
        ``(m, d)`` of the dataset the session serves — fixes operand
        lengths (``d`` for ``fwd`` matvec, ``m`` for ``bwd``).
    tenants:
        The tenant population; traffic is split by ``weight``.
    arrivals:
        The arrival process shared by all tenants.
    seed:
        Seeds one generator for arrivals, tenant draws and operand
        payloads — a given seed reproduces the trace exactly.
    """

    def __init__(
        self,
        field: PrimeField,
        shape: tuple[int, int],
        tenants: Sequence[TenantSpec],
        arrivals: ArrivalProcess,
        seed: int = 0,
    ):
        if not tenants:
            raise ValueError("need at least one tenant")
        names = [t.name for t in tenants]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate tenant names: {names}")
        self.field = field
        self.m, self.d = int(shape[0]), int(shape[1])
        self.tenants = tuple(tenants)
        self.arrivals = arrivals
        self._rng = np.random.default_rng(seed)
        total = sum(t.weight for t in tenants)
        self._tenant_cdf = _cdf([t.weight / total for t in tenants])
        self._next_id = 0

    @property
    def tenant_weights(self) -> dict[str, float]:
        """``name -> weight`` map (the gateway's fair-queue weights)."""
        return {t.name: t.weight for t in self.tenants}

    # ------------------------------------------------------------------
    def make_request(self, arrival: float, tenant: TenantSpec | None = None) -> Request:
        """Draw one request arriving at ``arrival`` (tenant drawn by
        weight unless pinned).

        The tenant draw is ``Generator.choice(n, p=p)``'s own — one
        uniform double looked up in the normalised CDF of ``p`` — with
        the CDF built once, not per request, so a seed gives the same
        trace."""
        rng = self._rng
        if tenant is None:
            tenant = self.tenants[int(self._tenant_cdf.searchsorted(rng.random(), side="right"))]
        # the draw that once picked the request's family from a mix:
        # kept, unused, so every seed still yields the trace it always
        # has (the serve benchmarks digest that trace)
        rng.random()
        transpose = rng.random() < tenant.transpose_fraction
        operand = self.field.random(self.m if transpose else self.d, rng)
        req = Request(
            request_id=self._next_id,
            tenant=tenant.name,
            family="matvec",
            arrival=arrival,
            deadline=arrival + tenant.deadline_slack,
            operand=operand,
            transpose=transpose,
        )
        self._next_id += 1
        return req

    def generate(self, n_requests: int, start: float = 0.0) -> list[Request]:
        """An open-loop trace of ``n_requests`` requests, arrival-sorted."""
        if n_requests < 0:
            raise ValueError("n_requests must be >= 0")
        out: list[Request] = []
        t = start
        for _ in range(n_requests):
            t += self.arrivals.interarrival(t, self._rng)
            out.append(self.make_request(t))
        return out


# ----------------------------------------------------------------------
# traffic sources (the gateway-facing interface)
# ----------------------------------------------------------------------
class OpenLoopSource:
    """Open-loop traffic: a fixed arrival schedule, indifferent to how
    fast the gateway drains it."""

    def __init__(self, requests: Sequence[Request]):
        self._requests = sorted(requests, key=lambda r: (r.arrival, r.request_id))

    def initial(self) -> list[Request]:
        return list(self._requests)

    def on_complete(self, request: Request, now: float) -> Request | None:
        return None

    def __len__(self) -> int:
        return len(self._requests)


class ClosedLoopSource:
    """Closed-loop traffic: ``n_clients`` clients, each issuing its
    next request one exponential think-time after its previous one
    terminated (served *or* shed — a dropped request does not silence
    the client), ``requests_per_client`` times in total."""

    def __init__(
        self,
        generator: WorkloadGenerator,
        n_clients: int,
        think_time: float,
        requests_per_client: int = 1,
    ):
        if n_clients < 1 or requests_per_client < 1:
            raise ValueError("need at least one client and one request each")
        if think_time <= 0:
            raise ValueError("think_time must be positive")
        self._gen = generator
        self._think = think_time
        self._remaining = {c: requests_per_client - 1 for c in range(n_clients)}
        # each client is pinned to a tenant round-robin so per-tenant
        # metrics stay meaningful under the closed loop
        self._tenant_of = {
            c: generator.tenants[c % len(generator.tenants)] for c in range(n_clients)
        }
        self._client_of: dict[int, int] = {}

    def _spawn(self, client: int, t_base: float) -> Request:
        gap = float(self._gen._rng.exponential(self._think))
        req = self._gen.make_request(t_base + gap, tenant=self._tenant_of[client])
        self._client_of[req.request_id] = client
        return req

    def initial(self) -> list[Request]:
        out = [self._spawn(c, 0.0) for c in sorted(self._remaining)]
        return sorted(out, key=lambda r: (r.arrival, r.request_id))

    def on_complete(self, request: Request, now: float) -> Request | None:
        client = self._client_of.get(request.request_id)
        if client is None or self._remaining[client] <= 0:
            return None
        self._remaining[client] -= 1
        return self._spawn(client, now)
