"""Integration tests for the four masters over the simulated cluster.

The central correctness property: in F_q, every master's
``forward_round``/``backward_round`` must return **bit-exactly**
``X·w`` / ``X^T·e`` when its tolerance assumptions hold.
"""

import numpy as np
import pytest

from repro.coding import SchemeParams
from repro.core import (
    AVCCMaster,
    InsufficientResultsError,
    LCCMaster,
    UncodedMaster,
)
from repro.ff import PrimeField, ff_matvec
from repro.runtime import (
    ConstantAttack,
    CostModel,
    Honest,
    ReversedValueAttack,
    SilentFailure,
    SimCluster,
    SimWorker,
    make_profiles,
)

F = PrimeField(2**25 - 39)


def make_cluster(
    n=12,
    straggler_factors=None,
    behaviors=None,
    seed=3,
    cost_model=None,
):
    profiles = make_profiles(n, straggler_factors or {})
    behaviors = behaviors or {}
    workers = [
        SimWorker(i, profile=profiles[i], behavior=behaviors.get(i, Honest()))
        for i in range(n)
    ]
    return SimCluster(
        F, workers, cost_model=cost_model or CostModel(), rng=np.random.default_rng(seed)
    )


@pytest.fixture
def data(rng):
    x = F.random((36, 10), rng)
    w = F.random(10, rng)
    e = F.random(36, rng)
    return x, w, e


def _exact(x, w, e):
    return ff_matvec(F, x, w), ff_matvec(F, x.T.copy(), e)


class TestExactness:
    """All masters, attack-free: results equal the direct computation."""

    def test_avcc(self, data):
        x, w, e = data
        cluster = make_cluster()
        master = AVCCMaster(cluster, SchemeParams(n=12, k=9, s=2, m=1))
        master.setup(x)
        z, g = _exact(x, w, e)
        np.testing.assert_array_equal(master.forward_round(w).vector, z)
        np.testing.assert_array_equal(master.backward_round(e).vector, g)

    def test_lcc(self, data):
        x, w, e = data
        cluster = make_cluster()
        master = LCCMaster(cluster, SchemeParams(n=12, k=9, s=1, m=1))
        master.setup(x)
        z, g = _exact(x, w, e)
        np.testing.assert_array_equal(master.forward_round(w).vector, z)
        np.testing.assert_array_equal(master.backward_round(e).vector, g)

    def test_uncoded(self, data):
        x, w, e = data
        cluster = make_cluster()
        master = UncodedMaster(cluster, k=9)
        master.setup(x)
        z, g = _exact(x, w, e)
        np.testing.assert_array_equal(master.forward_round(w).vector, z)
        np.testing.assert_array_equal(master.backward_round(e).vector, g)

    def test_static_vcc(self, data):
        x, w, e = data
        cluster = make_cluster()
        master = AVCCMaster(cluster, SchemeParams(n=12, k=9, s=2, m=1), adaptive=False)
        master.setup(x)
        z, _ = _exact(x, w, e)
        np.testing.assert_array_equal(master.forward_round(w).vector, z)

    def test_avcc_with_privacy_padding(self, data):
        x, w, e = data
        cluster = make_cluster(n=13)
        master = AVCCMaster(cluster, SchemeParams(n=13, k=9, s=1, m=1, t=1))
        master.setup(x)
        z, g = _exact(x, w, e)
        np.testing.assert_array_equal(master.forward_round(w).vector, z)
        np.testing.assert_array_equal(master.backward_round(e).vector, g)


class TestByzantineTolerance:
    def test_avcc_rejects_byzantine_and_stays_exact(self, data):
        x, w, e = data
        cluster = make_cluster(behaviors={3: ReversedValueAttack(), 7: ConstantAttack()})
        master = AVCCMaster(cluster, SchemeParams(n=12, k=9, s=1, m=2))
        master.setup(x)
        z, g = _exact(x, w, e)
        out_f = master.forward_round(w)
        np.testing.assert_array_equal(out_f.vector, z)
        assert set(out_f.record.rejected_workers) == {3, 7}
        out_b = master.backward_round(e)
        np.testing.assert_array_equal(out_b.vector, g)

    def test_lcc_corrects_one_byzantine(self, data):
        x, w, e = data
        cluster = make_cluster(behaviors={5: ConstantAttack()})
        master = LCCMaster(cluster, SchemeParams(n=12, k=9, s=1, m=1))
        master.setup(x)
        z, _ = _exact(x, w, e)
        out = master.forward_round(w)
        np.testing.assert_array_equal(out.vector, z)
        assert 5 in out.record.rejected_workers

    def test_lcc_poisoned_by_two_byzantine(self, data):
        """(12,9,S=1,M=1) LCC + 2 attackers: decode capacity exceeded,
        fallback silently returns a wrong vector (Fig. 3b/3d mechanism)."""
        x, w, e = data
        cluster = make_cluster(
            behaviors={2: ConstantAttack(), 8: ConstantAttack()}
        )
        master = LCCMaster(cluster, SchemeParams(n=12, k=9, s=1, m=1))
        master.setup(x)
        z, _ = _exact(x, w, e)
        out = master.forward_round(w)
        assert not np.array_equal(out.vector, z)

    def test_uncoded_ingests_corruption(self, data):
        x, w, e = data
        cluster = make_cluster(behaviors={4: ConstantAttack()})
        master = UncodedMaster(cluster, k=9)
        master.setup(x)
        z, _ = _exact(x, w, e)
        out = master.forward_round(w)
        assert not np.array_equal(out.vector, z)
        # corruption is confined to worker 4's block
        b = x.shape[0] // 9  # 36/9 = 4 rows per block
        got = out.vector
        np.testing.assert_array_equal(got[: 4 * b], z[: 4 * b])
        assert not np.array_equal(got[4 * b : 5 * b], z[4 * b : 5 * b])
        np.testing.assert_array_equal(got[5 * b :], z[5 * b :])

    def test_avcc_insufficient_verified_raises(self, data):
        """More Byzantine + silent workers than the fleet can absorb."""
        x, w, _ = data
        behaviors = {i: ConstantAttack() for i in range(3)}
        behaviors[3] = SilentFailure()
        cluster = make_cluster(behaviors=behaviors)
        master = AVCCMaster(cluster, SchemeParams(n=12, k=9, s=1, m=2))
        master.setup(x)
        with pytest.raises(InsufficientResultsError):
            master.forward_round(w)


class TestStragglerTiming:
    def test_avcc_never_waits_for_stragglers_with_slack(self, data):
        x, w, _ = data
        slow = make_cluster(straggler_factors={0: 50.0, 1: 40.0, 2: 30.0})
        fast = make_cluster()
        for cluster in (slow, fast):
            master = AVCCMaster(cluster, SchemeParams(n=12, k=9, s=3, m=0))
            master.setup(x)
            master.forward_round(w)
        # identical round time despite three heavy stragglers
        assert slow.now == pytest.approx(fast.now, rel=1e-9)

    def test_lcc_pays_faster_of_two_stragglers(self, data):
        """Design S=1 but two stragglers present: LCC must wait for the
        less-slow straggler (Fig. 3a discussion)."""
        x, w, _ = data
        cluster = make_cluster(straggler_factors={0: 8.0, 1: 1.4})
        master = LCCMaster(cluster, SchemeParams(n=12, k=9, s=1, m=1))
        master.setup(x)
        out = master.forward_round(w)
        assert 1 in out.record.used_workers     # mild straggler waited on
        assert 0 not in out.record.used_workers  # heavy straggler skipped

    def test_uncoded_pays_slowest_worker(self, data):
        x, w, _ = data
        c_slow = make_cluster(straggler_factors={4: 8.0})
        c_fast = make_cluster()
        for cluster, factor in ((c_slow, 8.0), (c_fast, 1.0)):
            master = UncodedMaster(cluster, k=9)
            master.setup(x)
            master.forward_round(w)
        assert c_slow.now > c_fast.now

    def test_ordering_avcc_faster_than_lcc_faster_than_uncoded(self, rng):
        """The paper's headline timing ordering under (S=2, M=1)-style
        conditions with heterogeneous stragglers. Uses data large
        enough that compute dominates master-side bookkeeping, as in
        the paper's GISETTE regime."""
        x = F.random((1800, 100), rng)
        w = F.random(100, rng)
        stragglers = {0: 8.0, 1: 1.4}
        byz = {11: ReversedValueAttack()}

        c_avcc = make_cluster(straggler_factors=stragglers, behaviors=byz)
        avcc = AVCCMaster(c_avcc, SchemeParams(n=12, k=9, s=2, m=1))
        avcc.setup(x)
        t0 = c_avcc.now
        avcc.forward_round(w)
        t_avcc = c_avcc.now - t0

        c_lcc = make_cluster(straggler_factors=stragglers, behaviors=byz)
        lcc = LCCMaster(c_lcc, SchemeParams(n=12, k=9, s=1, m=1))
        lcc.setup(x)
        t0 = c_lcc.now
        lcc.forward_round(w)
        t_lcc = c_lcc.now - t0

        c_unc = make_cluster(straggler_factors=stragglers, behaviors=byz)
        unc = UncodedMaster(c_unc, k=9)
        unc.setup(x)
        t0 = c_unc.now
        unc.forward_round(w)
        t_unc = c_unc.now - t0

        assert t_avcc < t_lcc < t_unc


class TestDynamicAdaptation:
    def test_byzantine_worker_dropped_after_iteration(self, data):
        x, w, e = data
        cluster = make_cluster(behaviors={6: ConstantAttack()})
        master = AVCCMaster(cluster, SchemeParams(n=12, k=9, s=1, m=2))
        master.setup(x)
        master.forward_round(w)
        master.backward_round(e)
        out = master.end_iteration()
        assert out.detected_byzantine == (6,)
        assert out.dropped_workers == (6,)
        assert 6 not in master.active
        assert master.scheme_now == (11, 9)
        # next iteration still exact without the dropped worker
        z, _ = _exact(x, w, e)
        np.testing.assert_array_equal(master.forward_round(w).vector, z)

    def test_fig5_recode_to_11_8(self, rng):
        """3 stragglers + 1 Byzantine at (12,9) -> re-encode to (11,8)."""
        x = F.random((1800, 100), rng)
        w = F.random(100, rng)
        e = F.random(1800, rng)
        cluster = make_cluster(
            straggler_factors={0: 20.0, 1: 28.0, 2: 36.0},
            behaviors={3: ConstantAttack()},
        )
        master = AVCCMaster(cluster, SchemeParams(n=12, k=9, s=2, m=1))
        master.setup(x)
        master.forward_round(w)
        master.backward_round(e)
        out = master.end_iteration()
        assert out.detected_byzantine == (3,)
        assert set(out.observed_stragglers) == {0, 1, 2}
        assert out.reencode_time > 0
        assert master.scheme_now == (11, 8)
        # exactness preserved after the re-encode
        z, g = _exact(x, w, e)
        np.testing.assert_array_equal(master.forward_round(w).vector, z)
        np.testing.assert_array_equal(master.backward_round(e).vector, g)

    def test_static_vcc_never_adapts(self, data):
        x, w, e = data
        cluster = make_cluster(
            straggler_factors={0: 20.0, 1: 20.0, 2: 20.0},
            behaviors={3: ConstantAttack()},
        )
        master = AVCCMaster(cluster, SchemeParams(n=12, k=9, s=2, m=1), adaptive=False)
        assert master.name == "static_vcc"
        master.setup(x)
        master.forward_round(w)
        master.backward_round(e)
        out = master.end_iteration()
        assert out.reencode_time == 0.0
        assert master.scheme_now == (12, 9)
        assert 3 in master.active  # nobody dropped

    def test_adaptation_outcome_counts_reset(self, data):
        x, w, e = data
        cluster = make_cluster(behaviors={6: ConstantAttack()})
        master = AVCCMaster(cluster, SchemeParams(n=12, k=9, s=1, m=2))
        master.setup(x)
        master.forward_round(w)
        master.end_iteration()
        out2 = master.end_iteration()  # nothing new observed
        assert out2.detected_byzantine == ()
        assert out2.reencode_time == 0.0


class TestValidation:
    def test_scheme_cluster_mismatch(self):
        cluster = make_cluster(n=8)
        with pytest.raises(ValueError, match="cluster.n"):
            AVCCMaster(cluster, SchemeParams(n=12, k=9, s=1, m=1))

    def test_infeasible_scheme_rejected(self):
        cluster = make_cluster(n=12)
        with pytest.raises(ValueError, match="Eq. 2"):
            AVCCMaster(cluster, SchemeParams(n=12, k=9, s=2, m=2))
        with pytest.raises(ValueError, match="Eq. 1"):
            LCCMaster(cluster, SchemeParams(n=12, k=9, s=2, m=1))

    def test_round_before_setup(self, data):
        _, w, _ = data
        master = AVCCMaster(make_cluster(), SchemeParams(n=12, k=9, s=2, m=1))
        with pytest.raises(RuntimeError, match="setup"):
            master.forward_round(w)

    def test_uncoded_validation(self):
        cluster = make_cluster(n=4)
        with pytest.raises(ValueError):
            UncodedMaster(cluster, k=5)
        with pytest.raises(ValueError, match="participants"):
            UncodedMaster(cluster, k=2, participants=[0, 1, 2])

    def test_operand_length_validation(self, data):
        x, _, _ = data
        master = AVCCMaster(make_cluster(), SchemeParams(n=12, k=9, s=2, m=1))
        master.setup(x)
        with pytest.raises(ValueError, match="operand"):
            master.forward_round(F.zeros(5))


class TestClusterAliasRemoved:
    """`master.cluster` predated the Backend protocol; deprecated in
    0.3, it is now gone — `backend` is the one attribute."""

    def test_alias_is_gone(self):
        cluster = make_cluster(n=6)
        master = AVCCMaster(cluster, SchemeParams(n=6, k=3, s=1, m=1))
        with pytest.raises(AttributeError):
            master.cluster

    def test_backend_attribute_is_silent(self):
        import warnings

        cluster = make_cluster(n=6)
        master = UncodedMaster(cluster, k=3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert master.backend is cluster


class TestWallClockStragglerObservation:
    """On wall-clock backends a straggler is a worker left unused in
    every round of the iteration. A serving session never ends one."""

    def test_ten_thousand_rounds_without_end_iteration_hold_constant_state(self):
        import math

        from repro.runtime.backend import Arrival, RoundResult

        cluster = make_cluster(n=6)
        cluster.timing_is_exact = False  # observe as the wall-clock backends do
        master = AVCCMaster(cluster, SchemeParams(n=6, k=3, s=1, m=1))
        rng = np.random.default_rng(0)
        master.setup(F.random((12, 4), rng))

        def containers():
            return {
                name: len(v) for name, v in vars(master).items()
                if isinstance(v, (list, set, dict, tuple))
            }

        flagged_by_round = []  # the old book: one set per round, intersected whole
        for r in range(1, 10_001):
            # worker 5 is never used; of the others, three of five are
            silent = {int(rng.integers(6))} if r % 7 == 0 else set()
            used = [int(w) for w in rng.permutation(5)[:3] if w not in silent]
            arrivals = tuple(
                Arrival(w, None, math.inf if w in silent else 1.0, 0.0, 0.0, False)
                for w in range(6)
            )
            master._note_stragglers(RoundResult(0.0, 0.0, arrivals), used=used)
            flagged_by_round.append({w for w in range(6) if w not in used})
            if r in (1, 2, 3, 10, 10_000):
                assert master._iter_stragglers == set.intersection(*flagged_by_round)
            if r == 10:
                at_ten = containers()
        assert master._iter_stragglers == {5}
        assert containers() == at_ten
        assert master.end_iteration().observed_stragglers == (5,)
        assert master._iter_stragglers == set() and master._iter_rounds == 0
