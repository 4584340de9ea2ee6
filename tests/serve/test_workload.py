"""Request typing, arrival processes, and the workload generator."""

import hashlib
import math

import numpy as np
import pytest

from repro.ff import DEFAULT_PRIME, PrimeField
from repro.serve import (
    BurstyArrivals,
    ClosedLoopSource,
    DiurnalArrivals,
    OpenLoopSource,
    PoissonArrivals,
    Request,
    TenantSpec,
    WorkloadGenerator,
)

F = PrimeField(DEFAULT_PRIME)


def _req(**kw):
    base = dict(
        request_id=0,
        tenant="t",
        family="matvec",
        arrival=0.0,
        operand=F.random(4, np.random.default_rng(1)),
    )
    base.update(kw)
    return Request(**base)


class TestRequest:
    def test_valid_matvec(self):
        r = _req(deadline=1.0)
        assert r.slack(0.25) == 0.75
        assert not r.expired(1.0)
        assert r.expired(1.0 + 1e-9)
        assert r.payload_elements == 4

    @pytest.mark.parametrize("family", ["conv2d", "matmul"])
    def test_rejects_unknown_family(self, family):
        with pytest.raises(ValueError, match="unknown family"):
            _req(family=family)

    def test_rejects_deadline_before_arrival(self):
        with pytest.raises(ValueError, match="precedes arrival"):
            _req(arrival=2.0, deadline=1.0)

    def test_rejects_missing_operand(self):
        with pytest.raises(ValueError, match="need an operand"):
            _req(operand=None)

    def test_no_deadline_never_expires(self):
        r = _req()
        assert r.deadline == math.inf
        assert not r.expired(1e9)


class TestArrivalProcesses:
    def test_poisson_mean_interarrival(self):
        p = PoissonArrivals(rate=100.0)
        rng = np.random.default_rng(3)
        gaps = [p.interarrival(0.0, rng) for _ in range(4000)]
        assert np.mean(gaps) == pytest.approx(1 / 100.0, rel=0.1)

    def test_poisson_seed_reproducible(self):
        p = PoissonArrivals(rate=10.0)
        a = [p.interarrival(0.0, np.random.default_rng(5)) for _ in range(3)]
        b = [p.interarrival(0.0, np.random.default_rng(5)) for _ in range(3)]
        assert a == b

    def test_bursty_is_bimodal(self):
        p = BurstyArrivals(calm_rate=10.0, burst_rate=1000.0, p_burst=0.2, p_calm=0.2)
        rng = np.random.default_rng(7)
        gaps = np.array([p.interarrival(0.0, rng) for _ in range(5000)])
        # overall mean sits strictly between the two pure regimes
        assert 1 / 1000.0 < gaps.mean() < 1 / 10.0
        # and the short-gap cluster exists (bursts happened)
        assert (gaps < 5 / 1000.0).sum() > 100

    def test_diurnal_rate_profile_and_positivity(self):
        p = DiurnalArrivals(base_rate=50.0, amplitude=0.8, period=10.0)
        assert p.rate_at(2.5) == pytest.approx(90.0)  # peak of the sine
        assert p.rate_at(7.5) == pytest.approx(10.0)  # trough
        rng = np.random.default_rng(11)
        gaps = [p.interarrival(float(t), rng) for t in range(200)]
        assert all(g > 0 for g in gaps)

    def test_diurnal_peak_denser_than_trough(self):
        p = DiurnalArrivals(base_rate=50.0, amplitude=0.9, period=100.0)
        rng = np.random.default_rng(13)
        peak = [p.interarrival(25.0, rng) for _ in range(2000)]
        trough = [p.interarrival(75.0, rng) for _ in range(2000)]
        assert np.mean(peak) < np.mean(trough)


class TestTenantSpec:
    def test_rejects_nonpositive_weight(self):
        with pytest.raises(ValueError, match="weight"):
            TenantSpec("t", weight=0.0)


def _generator(seed=7, **tenant_kw):
    tenants = [
        TenantSpec("a", weight=1.0, deadline_slack=0.5, **tenant_kw),
        TenantSpec("b", weight=3.0),
    ]
    return WorkloadGenerator(
        F, (24, 12), tenants, PoissonArrivals(rate=100.0), seed=seed
    )


class TestWorkloadGenerator:
    def test_generates_sorted_unique_ids(self):
        reqs = _generator().generate(50)
        assert len(reqs) == 50
        assert [r.request_id for r in reqs] == list(range(50))
        arrivals = [r.arrival for r in reqs]
        assert arrivals == sorted(arrivals)

    def test_deterministic_given_seed(self):
        a = _generator(seed=9).generate(20)
        b = _generator(seed=9).generate(20)
        for ra, rb in zip(a, b):
            assert ra.arrival == rb.arrival
            assert ra.tenant == rb.tenant
            assert ra.operand.tobytes() == rb.operand.tobytes()

    def test_weighted_tenant_split(self):
        reqs = _generator().generate(400)
        share_b = sum(1 for r in reqs if r.tenant == "b") / len(reqs)
        assert share_b == pytest.approx(0.75, abs=0.08)

    def test_operand_shapes_per_side(self):
        gen = WorkloadGenerator(
            F,
            (24, 12),
            [TenantSpec("mix", transpose_fraction=0.5)],
            PoissonArrivals(rate=10.0),
            seed=3,
        )
        reqs = gen.generate(200)
        for r in reqs:
            assert r.family == "matvec"
            assert r.operand.shape == ((24,) if r.transpose else (12,))
        assert {r.transpose for r in reqs} == {True, False}

    def test_deadlines_follow_tenant_slack(self):
        reqs = _generator().generate(60)
        for r in reqs:
            if r.tenant == "a":
                assert r.deadline == pytest.approx(r.arrival + 0.5)
            else:
                assert r.deadline == math.inf

    def test_tenant_weights_surface(self):
        assert _generator().tenant_weights == {"a": 1.0, "b": 3.0}

    @pytest.mark.parametrize("seed", [0, 1, 7, 2024])
    @pytest.mark.parametrize("pinned", [False, True])
    def test_stream_equals_generator_choice(self, seed, pinned):
        """Every draw is the one ``Generator.choice(n, p=p)`` makes, so a
        seed gives the trace it gave when each request called
        ``choice``, the one-family draw included: same tenants,
        transposes and operands."""
        tenants = [
            TenantSpec("one", weight=2.0),
            TenantSpec("mix", weight=1.0, transpose_fraction=0.3),
            TenantSpec("three", weight=0.5, transpose_fraction=0.75),
        ]
        gen = WorkloadGenerator(F, (24, 12), tenants, PoissonArrivals(10.0), seed=seed)
        rng = np.random.default_rng(seed)
        p = np.array([t.weight for t in tenants]) / sum(t.weight for t in tenants)
        for i in range(300):
            pin = tenants[i % len(tenants)] if pinned else None
            got = gen.make_request(float(i), tenant=pin)
            tenant = pin or tenants[int(rng.choice(len(tenants), p=p))]
            assert rng.choice(1, p=[1.0]) == 0  # the family, from a mix of one
            transpose = rng.random() < tenant.transpose_fraction
            operand = F.random(24 if transpose else 12, rng)
            assert (got.tenant, got.family, got.transpose) == (tenant.name, "matvec", transpose)
            assert got.operand.tobytes() == operand.tobytes()

    #: seed -> digest of the 48-request trace below, as the generator
    #: drew it when a tenant could still mix families
    PINNED_TRACES = {0: "9debc13d5de05281", 1: "575f8b2052eb46a9", 7: "a213fe95ddb4dada"}

    @pytest.mark.parametrize("seed", sorted(PINNED_TRACES))
    def test_seeded_trace_is_pinned(self, seed):
        """The serve benchmarks' tenants (two, 30 % transposed) draw
        the trace a seed has always drawn: every arrival, tenant,
        deadline, side and operand byte."""
        tenants = [
            TenantSpec("free", 1.0, transpose_fraction=0.3, deadline_slack=60.0),
            TenantSpec("pro", 3.0, transpose_fraction=0.3, deadline_slack=60.0),
        ]
        gen = WorkloadGenerator(F, (24, 12), tenants, PoissonArrivals(1.0), seed=seed)
        h = hashlib.sha256()
        for r in gen.generate(48):
            h.update(
                repr((r.request_id, r.tenant, r.family, r.arrival, r.deadline, r.transpose))
                .encode()
            )
            h.update(np.ascontiguousarray(r.operand, dtype=np.int64).tobytes())
        assert h.hexdigest()[:16] == self.PINNED_TRACES[seed]


class TestSources:
    def test_open_loop_sorted_and_terminal(self):
        reqs = _generator().generate(10)
        src = OpenLoopSource(reversed(reqs))
        init = src.initial()
        assert [r.request_id for r in init] == list(range(10))
        assert src.on_complete(init[0], 1.0) is None

    def test_open_loop_length_is_the_trace_length(self):
        reqs = _generator().generate(7)
        src = OpenLoopSource(reqs)
        assert len(src) == 7
        src.initial().clear()  # the schedule handed out is a copy
        assert len(src) == 7 and len(src.initial()) == 7

    def test_closed_loop_issues_next_after_completion(self):
        gen = _generator()
        src = ClosedLoopSource(gen, n_clients=3, think_time=0.01, requests_per_client=2)
        init = src.initial()
        assert len(init) == 3
        follow = src.on_complete(init[0], now=5.0)
        assert follow is not None
        assert follow.arrival > 5.0
        # budget exhausted for that client
        assert src.on_complete(follow, now=6.0) is None

    def test_closed_loop_pins_clients_to_tenants(self):
        gen = _generator()
        src = ClosedLoopSource(gen, n_clients=2, think_time=0.01, requests_per_client=3)
        init = src.initial()
        tenants = {src._client_of[r.request_id]: r.tenant for r in init}
        for req in init:
            nxt = src.on_complete(req, now=1.0)
            assert nxt.tenant == tenants[src._client_of[nxt.request_id]]
