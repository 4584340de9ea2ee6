"""Shared fixtures: fields of several sizes and deterministic RNGs.

Tests default to a small prime field (fast, and makes soundness
probabilities like ``1/q`` large enough to observe statistically) but
key integration tests also run over the paper's 25-bit field.
"""

import numpy as np
import pytest
from hypothesis import settings

from repro.ff import DEFAULT_PRIME, PrimeField

#: the wire fuzz (tests/runtime/test_wire_fuzz.py) at 20x its tier-1
#: 150 examples, under a random seed: ``pytest
#: tests/runtime/test_wire_fuzz.py --hypothesis-profile=wire-fuzz``
settings.register_profile("wire-fuzz", max_examples=3000, derandomize=False, deadline=None)


@pytest.fixture
def rng():
    return np.random.default_rng(20220322)  # arXiv v2 date


@pytest.fixture
def small_field():
    """F_97: tiny field for statistical/adversarial tests."""
    return PrimeField(97)


@pytest.fixture
def mid_field():
    """F_7919: roomy enough for coding tests, still fast."""
    return PrimeField(7919)


@pytest.fixture
def paper_field():
    """The paper's field, q = 2**25 - 39."""
    return PrimeField(DEFAULT_PRIME)


@pytest.fixture
def host_per_worker(monkeypatch):
    """Loopback fleets fork one host per worker whatever the CPU count,
    so a test that SIGKILLs a worker through its host's pid kills that
    worker alone (co-hosted workers share their host's pid)."""
    from repro.runtime.net import fleet

    monkeypatch.setattr(fleet, "host_size", lambda n: 1)
