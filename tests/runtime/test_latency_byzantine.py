"""Tests for latency profiles and Byzantine behaviours."""

import numpy as np
import pytest

from repro.ff import PrimeField
from repro.runtime import (
    ConstantAttack,
    DeterministicLatency,
    Honest,
    IntermittentAttack,
    RandomAttack,
    ReversedValueAttack,
    SilentFailure,
    make_profiles,
)

F = PrimeField(7919)


class TestLatencyModels:
    def test_deterministic(self, rng):
        assert DeterministicLatency(3.0).sample(2.0, rng) == 6.0

    def test_validation(self):
        with pytest.raises(ValueError):
            DeterministicLatency(0)

    def test_make_profiles(self, rng):
        profiles = make_profiles(5, {1: 8.0, 3: 1.4})
        assert profiles[0].sample(1.0, rng) == 1.0
        assert profiles[1].sample(1.0, rng) == 8.0
        assert profiles[3].sample(1.0, rng) == pytest.approx(1.4)

    def test_make_profiles_bad_id(self):
        with pytest.raises(ValueError, match="out of range"):
            make_profiles(3, {5: 2.0})


class TestBehaviors:
    def test_honest_identity(self, rng):
        z = F.random(6, rng)
        np.testing.assert_array_equal(Honest().corrupt(z, F, rng), z)
        assert not Honest().is_byzantine

    def test_reversed_value_is_negation(self, rng):
        """Paper: send -c*z with c=1: corrupt(z) == -z in the field."""
        z = F.random(6, rng)
        got = ReversedValueAttack(c=1).corrupt(z, F, rng)
        np.testing.assert_array_equal((got + z) % F.q, np.zeros(6, dtype=np.int64))

    def test_reversed_value_scaled(self, rng):
        z = F.asarray([1, 2, 3])
        got = ReversedValueAttack(c=2).corrupt(z, F, rng)
        np.testing.assert_array_equal(got, F.neg(F.mul(z, 2)))

    def test_reversed_value_validation(self):
        with pytest.raises(ValueError):
            ReversedValueAttack(c=0)

    def test_constant_attack(self, rng):
        z = F.random((2, 3), rng)
        got = ConstantAttack(value=-7).corrupt(z, F, rng)
        assert got.shape == z.shape
        assert np.all(got == F.from_signed(np.array([-7]))[0])

    def test_random_attack_changes_and_shapes(self, rng):
        z = F.random(50, rng)
        got = RandomAttack().corrupt(z, F, rng)
        assert got.shape == z.shape
        assert not np.array_equal(got, z)  # w.h.p.

    def test_silent_failure(self, rng):
        assert SilentFailure().corrupt(F.random(3, rng), F, rng) is None
        assert not SilentFailure().is_byzantine  # it's a straggler, not a liar

    def test_byzantine_flags(self):
        assert ReversedValueAttack().is_byzantine
        assert ConstantAttack().is_byzantine
        assert RandomAttack().is_byzantine


class TestIntermittentAttack:
    def test_rate_approximates_probability(self, rng):
        attack = IntermittentAttack(ReversedValueAttack(), probability=0.3)
        z = F.asarray([1, 2, 3])
        fired = sum(
            not np.array_equal(attack.corrupt(z, F, rng), z) for _ in range(2000)
        )
        assert 0.25 < fired / 2000 < 0.35

    def test_probability_bounds(self, rng):
        z = F.asarray([5])
        always = IntermittentAttack(ReversedValueAttack(), probability=1.0)
        never = IntermittentAttack(ReversedValueAttack(), probability=0.0)
        assert not np.array_equal(always.corrupt(z, F, rng), z)
        np.testing.assert_array_equal(never.corrupt(z, F, rng), z)

    def test_validation(self):
        with pytest.raises(ValueError):
            IntermittentAttack(ReversedValueAttack(), probability=1.5)
        with pytest.raises(ValueError, match="attack"):
            IntermittentAttack(Honest(), probability=0.5)

    def test_flagged_byzantine(self):
        assert IntermittentAttack(ConstantAttack()).is_byzantine
