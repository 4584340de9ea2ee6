"""Tests pinning the paper's feasibility equations (Eq. 1 and Eq. 2)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.coding import SchemeParams


class TestPaperNumbers:
    def test_lcc_experimental_config(self):
        """Sec. V: (N,K,S,M) = (12, 9, 1, 1) is exactly LCC-feasible."""
        p = SchemeParams(n=12, k=9, s=1, m=1, t=0, deg_f=1)
        assert p.lcc_required_n == 12
        assert p.lcc_feasible
        p.validate_for("lcc")

    def test_avcc_experimental_configs(self):
        """Sec. V: AVCC runs (12, 9, S+M=3): both (S=1,M=2) and (S=2,M=1)."""
        for s, m in [(1, 2), (2, 1), (3, 0), (0, 3)]:
            p = SchemeParams(n=12, k=9, s=s, m=m)
            assert p.avcc_required_n == (9 - 1) * 1 + s + m + 1
            assert p.avcc_feasible

    def test_lcc_cannot_do_two_byzantine_at_n12_k9(self):
        """Sec. VI: 'LCC is able to handle only one Byzantine node with
        N=12, K=9 and S=1 by design'; two Byzantine needs N=14 or K=7."""
        assert not SchemeParams(n=12, k=9, s=1, m=2).lcc_feasible
        assert SchemeParams(n=14, k=9, s=1, m=2).lcc_feasible
        assert SchemeParams(n=12, k=7, s=1, m=2).lcc_feasible

    def test_byzantine_cost_intro_example(self):
        """Intro: 'tolerating two Byzantine workers requires an additional
        four workers while tolerating two stragglers only requires two.'"""
        base = SchemeParams(n=1, k=5).lcc_required_n
        two_byz = SchemeParams(n=1, k=5, m=2).lcc_required_n
        two_str = SchemeParams(n=1, k=5, s=2).lcc_required_n
        assert two_byz - base == 4
        assert two_str - base == 2
        # AVCC: both cost the same (Eq. 2)
        assert SchemeParams(n=1, k=5, m=2).avcc_required_n - SchemeParams(n=1, k=5).avcc_required_n == 2
        assert SchemeParams(n=1, k=5, s=2).avcc_required_n - SchemeParams(n=1, k=5).avcc_required_n == 2

    def test_recovery_threshold_examples(self):
        assert SchemeParams(n=12, k=9).recovery_threshold == 9  # MDS: K results
        assert SchemeParams(n=12, k=9, deg_f=2).recovery_threshold == 17
        assert SchemeParams(n=20, k=5, t=2, deg_f=2).recovery_threshold == 13


class TestValidation:
    def test_bad_params(self):
        with pytest.raises(ValueError):
            SchemeParams(n=0, k=1)
        with pytest.raises(ValueError):
            SchemeParams(n=5, k=0)
        with pytest.raises(ValueError):
            SchemeParams(n=5, k=2, s=-1)
        with pytest.raises(ValueError):
            SchemeParams(n=5, k=2, deg_f=0)

    def test_validate_raises_with_equation_reference(self):
        with pytest.raises(ValueError, match="Eq. 2"):
            SchemeParams(n=10, k=9, s=1, m=1).validate_for("avcc")
        with pytest.raises(ValueError, match="Eq. 1"):
            SchemeParams(n=12, k=9, s=1, m=2).validate_for("lcc")
        with pytest.raises(ValueError, match="unknown framework"):
            SchemeParams(n=12, k=9).validate_for("mds")

    def test_with_(self):
        p = SchemeParams(n=12, k=9, s=1, m=1)
        p2 = p.with_(n=11, k=8)
        assert (p2.n, p2.k, p2.s, p2.m) == (11, 8, 1, 1)
        assert (p.n, p.k) == (12, 9)  # original untouched


class TestSlack:
    def test_slack_values(self):
        p = SchemeParams(n=12, k=9, s=1, m=1)
        assert p.avcc_slack() == 12 - 11 == 1
        assert p.lcc_slack() == 0

    @given(
        k=st.integers(1, 10),
        s=st.integers(0, 4),
        m=st.integers(0, 4),
        t=st.integers(0, 3),
        deg=st.integers(1, 3),
    )
    @settings(max_examples=80, deadline=None)
    def test_property_avcc_saves_m_workers(self, k, s, m, t, deg):
        """Eq. (1) - Eq. (2) = M, always."""
        p = SchemeParams(n=1000, k=k, s=s, m=m, t=t, deg_f=deg)
        assert p.lcc_required_n - p.avcc_required_n == m
        assert p.byzantine_worker_cost_lcc == 2
        assert p.byzantine_worker_cost_avcc == 1


class TestBoundaryEquality:
    """Eq. (1)/(2) at exact feasibility: N == required_n must pass,
    N == required_n - 1 must fail — the bounds are tight."""

    def test_avcc_exactly_feasible(self):
        # (K+T-1)deg_f + S + M + 1 = 8 + 2 + 1 + 1 = 12
        p = SchemeParams(n=12, k=9, s=2, m=1)
        assert p.avcc_required_n == 12
        assert p.avcc_feasible
        assert p.avcc_slack() == 0
        p.validate_for("avcc")  # must not raise at equality

    def test_avcc_one_below_boundary(self):
        p = SchemeParams(n=11, k=9, s=2, m=1)
        assert not p.avcc_feasible
        with pytest.raises(ValueError, match="Eq. 2"):
            p.validate_for("avcc")

    def test_lcc_exactly_feasible(self):
        # (K+T-1)deg_f + S + 2M + 1 = 8 + 1 + 2 + 1 = 12
        p = SchemeParams(n=12, k=9, s=1, m=1)
        assert p.lcc_required_n == 12
        assert p.lcc_feasible
        assert p.lcc_slack() == 0
        p.validate_for("lcc")

    def test_lcc_one_below_boundary(self):
        p = SchemeParams(n=11, k=9, s=1, m=1)
        assert not p.lcc_feasible
        with pytest.raises(ValueError, match="Eq. 1"):
            p.validate_for("lcc")

    def test_boundary_with_privacy_padding(self):
        # T enters the bound through (K+T-1)deg_f:
        # (9+1-1)*1 + S + M + 1 = 9 + 1 + 1 + 1 = 12
        p = SchemeParams(n=12, k=9, s=1, m=1, t=1)
        assert p.avcc_required_n == 12
        p.validate_for("avcc")
        with pytest.raises(ValueError, match="Eq. 2"):
            SchemeParams(n=11, k=9, s=1, m=1, t=1).validate_for("avcc")


class TestDegreeTwoBounds:
    """deg_f = 2: thresholds and feasibility double the K-dependent
    term, per Eq. (14)."""

    def test_recovery_threshold_doubles_degree_term(self):
        p1 = SchemeParams(n=20, k=3, deg_f=1)
        p2 = SchemeParams(n=20, k=3, deg_f=2)
        assert p1.recovery_threshold == 3
        assert p2.recovery_threshold == 5  # (3-1)*2 + 1

    def test_degree_two_exact_feasibility(self):
        # (K+T-1)*2 + S + M + 1 = 4 + 1 + 1 + 1 = 7
        p = SchemeParams(n=7, k=3, s=1, m=1, deg_f=2)
        assert p.avcc_required_n == 7
        p.validate_for("avcc")
        with pytest.raises(ValueError, match="Eq. 2"):
            SchemeParams(n=6, k=3, s=1, m=1, deg_f=2).validate_for("avcc")

    def test_degree_two_lcc_still_pays_double_m(self):
        p = SchemeParams(n=20, k=3, s=1, m=2, deg_f=2)
        assert p.lcc_required_n - p.avcc_required_n == p.m

    def test_experimental_degree_two_shape(self):
        # the paper's (12, 9) matvec shape is NOT deg-2 feasible
        p = SchemeParams(n=12, k=9, s=1, m=1).with_(deg_f=2)
        assert p.recovery_threshold == 17
        assert not p.avcc_feasible


class TestValidateForErrorPaths:
    def test_error_message_carries_numbers(self):
        with pytest.raises(ValueError, match=r"N=10 < 11"):
            SchemeParams(n=10, k=9, s=1, m=1).validate_for("avcc")
        with pytest.raises(ValueError, match=r"N=10 < 12"):
            SchemeParams(n=10, k=9, s=1, m=1).validate_for("lcc")

    def test_unknown_framework_variants(self):
        p = SchemeParams(n=12, k=9)
        for bogus in ("", "AVCC", "rs", None):
            with pytest.raises(ValueError, match="unknown framework"):
                p.validate_for(bogus)

    def test_zero_tolerance_always_feasible_at_k_plus_one_minus(self):
        # with S=M=T=0 and deg_f=1 both bounds reduce to N >= K
        p = SchemeParams(n=9, k=9)
        assert p.avcc_required_n == p.lcc_required_n == 9
        p.validate_for("avcc")
        p.validate_for("lcc")
