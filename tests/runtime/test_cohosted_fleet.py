"""A co-hosted loopback fleet, seen from the master.

The fleet forks hosts of ``host_size(n)`` consecutive worker ids, each
one ``WorkerServer`` loop. Every test here forces W = 3 by patching the
fleet's CPU count, so a runner with many CPUs co-hosts too. What must
hold: a host is W workers to the master in everything but the crash
domain — a killed host is W simultaneous erasures, decoded through when
the code's slack covers them and raised on by the round deadline when
it does not — and no worker's straggle, drop or hostile frame reaches a
sibling.
"""

import os
import signal
import time

import numpy as np
import pytest
from test_backends import _fleet

from repro.coding import SchemeParams
from repro.core import AVCCMaster
from repro.core.results import InsufficientResultsError
from repro.ff import PrimeField, ff_matvec
from repro.runtime import RoundJob, TcpCluster
from repro.runtime.net import fleet

F = PrimeField()


@pytest.fixture
def cohost(monkeypatch):
    """Patch the usable CPU count so that a fleet of ``n`` runs in
    hosts of three."""

    def force(n):
        monkeypatch.setattr(fleet, "usable_cpus", lambda: n // 6)
        assert fleet.host_size(n) == 3

    return force


@pytest.mark.parametrize(
    "cpus, n, w", [(2, 12, 3), (2, 7, 1), (2, 8, 2), (1, 4, 2), (1, 12, 3), (4, 64, 3), (1, 1, 1)]
)
def test_host_size_is_two_hosts_per_cpu_and_at_most_three(monkeypatch, cpus, n, w):
    monkeypatch.setattr(fleet, "usable_cpus", lambda: cpus)
    assert fleet.host_size(n) == w


def _hosts(backend):
    """worker ids grouped by the pid of their host."""
    groups = {}
    for wid, pid in sorted(backend.worker_pids().items()):
        groups.setdefault(pid, []).append(wid)
    return list(groups.values())


def _alive(pid):
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


class TestCrashDomain:
    def test_a_killed_host_is_three_erasures_the_code_absorbs(self, cohost):
        """n - W = 9 >= the recovery threshold 9: every round after the
        kill decodes exactly from the other three hosts."""
        cohost(12)
        rng = np.random.default_rng(5)
        x = F.random((27, 6), rng)
        w = F.random(6, rng)
        with TcpCluster(F, _fleet(12, {}, {}), straggle_scale=0.01) as backend:
            assert _hosts(backend) == [[0, 1, 2], [3, 4, 5], [6, 7, 8], [9, 10, 11]]
            master = AVCCMaster(
                backend, SchemeParams(n=12, k=9, s=1, m=2), rng=np.random.default_rng(1)
            )
            master.setup(x)
            np.testing.assert_array_equal(master.forward_round(w).vector, ff_matvec(F, x, w))
            os.kill(backend.worker_pids()[4], signal.SIGKILL)
            # a round that early-stops on nine results may end before
            # the EOFs are read: serve until all three are seen dead
            deadline = time.monotonic() + 10.0
            rounds = 0
            while rounds < 2 or backend.membership().dead != (3, 4, 5):
                assert time.monotonic() < deadline, backend.membership()
                out = master.forward_round(w)
                np.testing.assert_array_equal(out.vector, ff_matvec(F, x, w))
                assert not {3, 4, 5} & set(out.record.used_workers)
                rounds += 1

    def test_a_killed_host_past_the_slack_raises_by_the_round_deadline(self, cohost):
        """k = 10 at n = 12: nine survivors cannot decode, and the master
        says so instead of waiting past ``round_timeout``."""
        cohost(12)
        rng = np.random.default_rng(6)
        x = F.random((30, 6), rng)
        w = F.random(6, rng)
        round_timeout = 5.0
        with TcpCluster(
            F, _fleet(12, {}, {}), straggle_scale=0.01, round_timeout=round_timeout
        ) as backend:
            master = AVCCMaster(
                backend, SchemeParams(n=12, k=10, s=1, m=1), rng=np.random.default_rng(1)
            )
            master.setup(x)
            os.kill(backend.worker_pids()[7], signal.SIGKILL)
            t0 = time.monotonic()
            with pytest.raises(InsufficientResultsError):
                master.forward_round(w)
            assert time.monotonic() - t0 < round_timeout + 1.0


class TestSiblings:
    def test_siblings_answer_while_a_straggle_is_held(self, cohost, rng):
        """Worker 1 holds its round for 20 s; a sibling that waited for
        it would miss the 3 s round deadline. Both siblings answer."""
        cohost(6)
        shares = F.random((6, 3, 5), rng)
        v = F.random(5, rng)
        with TcpCluster(
            F, _fleet(6, {1: 2.0}, {}), straggle_scale=20.0, round_timeout=3.0
        ) as backend:
            assert _hosts(backend) == [[0, 1, 2], [3, 4, 5]]
            backend.distribute("share", shares)
            t0 = time.monotonic()
            handle = backend.dispatch_round(RoundJob(payload_key="share", operand=v))
            got = {}
            for a in handle:
                got[a.worker_id] = a.value
                if len(got) == 5:
                    break
            assert time.monotonic() - t0 < 3.0
            handle.cancel()
        assert sorted(got) == [0, 2, 3, 4, 5]
        for wid, value in got.items():
            np.testing.assert_array_equal(value, ff_matvec(F, shares[wid], v))

    def test_heartbeats_are_acked_through_a_held_straggle(self, cohost, rng):
        """A straggle of 1 s against a 0.4 s heartbeat timeout: the
        held worker and its siblings all stay alive and all answer."""
        cohost(6)
        shares = F.random((6, 3, 5), rng)
        v = F.random(5, rng)
        with TcpCluster(
            F, _fleet(6, {1: 2.0}, {}), straggle_scale=1.0,
            heartbeat_interval=0.05, heartbeat_timeout=0.4,
        ) as backend:
            backend.distribute("share", shares)
            handle = backend.dispatch_round(RoundJob(payload_key="share", operand=v))
            order = [a.worker_id for a in handle]
            assert backend.membership().dead == ()
        assert sorted(order) == list(range(6)) and order[-1] == 1

    def test_dropping_a_worker_leaves_its_siblings_live_and_used(self, cohost, rng):
        cohost(6)
        shares = F.random((6, 3, 5), rng)
        v = F.random(5, rng)
        with TcpCluster(F, _fleet(6, {}, {}), straggle_scale=0.01) as backend:
            pid = backend.worker_pids()[1]
            backend.distribute("share", shares)
            backend.drop_workers([1])
            assert _alive(pid)
            view = backend.membership()
            assert view.live == (0, 2, 3, 4, 5) and view.dropped == (1,)
            handle = backend.dispatch_round(RoundJob(payload_key="share", operand=v))
            got = {a.worker_id: a.value for a in handle}
            assert sorted(got) == [0, 2, 3, 4, 5]
            assert backend.worker_pids()[0] == pid
        for wid, value in got.items():
            np.testing.assert_array_equal(value, ff_matvec(F, shares[wid], v))

    def test_a_hostile_frame_ends_only_the_worker_it_reaches(self, cohost, rng):
        """Garbage down worker 4's socket ends worker 4: the master sees
        its EOF, and 3 and 5, on the same host, serve the next round."""
        cohost(6)
        shares = F.random((6, 3, 5), rng)
        v = F.random(5, rng)
        with TcpCluster(F, _fleet(6, {}, {}), straggle_scale=0.01) as backend:
            backend.distribute("share", shares)
            backend._conns[4].sendall(b"GET / HTTP/1.1\r\n\r\n")
            deadline = time.monotonic() + 10.0
            while 4 not in backend.membership().dead:
                assert time.monotonic() < deadline, "the worker never hung up"
                handle = backend.dispatch_round(RoundJob(payload_key="share", operand=v))
                list(handle)
                handle.result()
            handle = backend.dispatch_round(RoundJob(payload_key="share", operand=v))
            got = {a.worker_id: a.value for a in handle}
            assert backend.membership().dead == (4,)
        assert sorted(got) == [0, 1, 2, 3, 5]
        for wid, value in got.items():
            np.testing.assert_array_equal(value, ff_matvec(F, shares[wid], v))
