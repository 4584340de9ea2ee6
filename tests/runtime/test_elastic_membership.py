"""Elastic membership on the tcp backend: worker join/rejoin.

Covers what PR 7 added to the runtime layer — a restarted or brand-new
worker daemon can dial a *running* cluster, handshake, park as a
pending join, and be admitted at a quiesce point (never mid-round);
``drop_workers`` is reversible; the hello-level protocol negotiation
turns mismatched daemons away with a descriptive error. The
session-level reconciliation (``end_iteration`` growing N, byte-exact
results across membership changes) is exercised at the bottom.
"""

import os
import signal
import socket
import time

import numpy as np
import pytest

from repro.api import Session, SessionConfig
from repro.coding import SchemeParams
from repro.ff import PrimeField, ff_matvec
from repro.runtime import RoundJob, SimWorker, TcpCluster, make_profiles
from repro.runtime.net import (
    PROTOCOL_VERSION,
    WireError,
    read_frame,
    send_frame,
)
from repro.runtime.net.wire import check_hello

F = PrimeField()


def _cluster(n, straggler_factors=None, **kw):
    profiles = make_profiles(n, straggler_factors or {})
    workers = [SimWorker(i, profile=profiles[i]) for i in range(n)]
    kw.setdefault("straggle_scale", 0.002)
    kw.setdefault("heartbeat_interval", 0.05)
    kw.setdefault("heartbeat_timeout", 0.5)
    return TcpCluster(F, workers, **kw)


def _await(pred, timeout=20.0, interval=0.05):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if pred():
            return True
        time.sleep(interval)
    return pred()


def _round(backend, shares, v, participants=None):
    """Distribute fresh shares and run one matvec round; returns the
    arrivals' worker ids (sorted) after checking values are exact."""
    roster = list(participants) if participants is not None else None
    backend.distribute("share", shares, participants=participants)
    handle = backend.dispatch_round(
        RoundJob(payload_key="share", operand=v), participants=participants
    )
    arrivals = list(handle)
    handle.result()  # harvest: deregisters the round from the cluster
    for a in arrivals:
        # share i ships to participants[i] (identity when unrestricted)
        row = roster.index(a.worker_id) if roster is not None else a.worker_id
        np.testing.assert_array_equal(a.value, ff_matvec(F, shares[row], v))
    return sorted(a.worker_id for a in arrivals)


# ----------------------------------------------------------------------
# backend-level join / rejoin / drop
# ----------------------------------------------------------------------
class TestElasticJoin:
    def test_sigkill_restart_rejoin_and_serve(self, rng):
        """The ISSUE's acceptance choreography: SIGKILL a worker
        mid-run, restart its daemon, admit it at a quiesce point, and
        serve with the full fleet again."""
        shares = F.random((4, 3, 5), rng)
        v = F.random(5, rng)
        with _cluster(4) as backend:
            assert _round(backend, shares, v) == [0, 1, 2, 3]
            os.kill(backend.worker_pids()[2], signal.SIGKILL)
            # the pump only runs while collecting — the next round
            # both detects the death and completes without the victim
            assert _round(backend, shares, v) == [0, 1, 3]
            assert 2 in backend.membership().dead

            backend.restart_worker(2)
            assert _await(lambda: 2 in backend.membership().pending)
            assert backend.admit_workers() == (2,)
            view = backend.membership()
            assert view.live == (0, 1, 2, 3) and view.dead == ()
            # the replacement daemon starts with empty storage — the
            # caller re-ships, then the full fleet serves again
            assert _round(backend, shares, v) == [0, 1, 2, 3]
            kinds = {(e.kind, e.worker_id) for e in backend.take_membership_events()}
        assert ("dead", 2) in kinds and ("rejoined", 2) in kinds

    def test_admit_mid_round_raises(self, rng):
        shares = F.random((3, 2, 4), rng)
        v = F.random(4, rng)
        # worker 1 sleeps 0.2 s, so the round is in flight whenever
        # admit_workers() runs
        with _cluster(3, {1: 101.0}) as backend:
            backend.distribute("share", shares)
            handle = backend.dispatch_round(RoundJob(payload_key="share", operand=v))
            with pytest.raises(RuntimeError, match="mid-round"):
                backend.admit_workers()
            list(handle)
            handle.result()  # drained and harvested: now admissible
            assert backend.admit_workers() == ()

    def test_spawn_worker_grows_roster(self, rng):
        with _cluster(3) as backend:
            wid = backend.spawn_worker()
            assert wid == 3
            assert _await(lambda: 3 in backend.membership().pending)
            assert backend.admit_workers() == (3,)
            view = backend.membership()
            assert view.n == 4 and view.live == (0, 1, 2, 3)
            shares = F.random((4, 3, 5), rng)
            v = F.random(5, rng)
            assert _round(backend, shares, v) == [0, 1, 2, 3]
            kinds = {(e.kind, e.worker_id) for e in backend.take_membership_events()}
        assert ("joined", 3) in kinds

    def test_drop_is_reversible(self, rng):
        shares = F.random((3, 2, 4), rng)
        v = F.random(4, rng)
        with _cluster(3) as backend:
            backend.drop_workers([1])
            assert backend.membership().dropped == (1,)
            assert _round(backend, shares, v, participants=[0, 2]) == [0, 2]
            # dropping shut the daemon down — reversal is a restart
            backend.restart_worker(1)
            assert _await(lambda: 1 in backend.membership().pending)
            assert backend.admit_workers() == (1,)
            view = backend.membership()
            assert view.dropped == () and view.live == (0, 1, 2)
            assert _round(backend, shares, v) == [0, 1, 2]

    def test_gapped_id_waits_for_dense_roster(self):
        """A joiner whose id would leave a hole in 0..n-1 parks until
        the gap fills (ids index the share arrays — they must stay
        dense)."""
        with _cluster(2) as backend:
            assert backend.spawn_worker(3) == 3
            assert _await(lambda: 3 in backend.membership().pending)
            assert backend.admit_workers() == ()  # 3 > n: stays parked
            assert 3 in backend.membership().pending
            assert backend.spawn_worker(2) == 2
            assert _await(lambda: 2 in backend.membership().pending)
            assert backend.admit_workers() == (2, 3)  # gap filled: both land
            assert backend.membership().live == (0, 1, 2, 3)


# ----------------------------------------------------------------------
# hello-level version negotiation
# ----------------------------------------------------------------------
class TestVersionNegotiation:
    def test_check_hello_accepts_current_protocol(self):
        assert check_hello({"worker_id": 7, "protocol": PROTOCOL_VERSION}) == 7

    def test_check_hello_names_both_versions(self):
        with pytest.raises(WireError, match="version mismatch") as err:
            check_hello({"worker_id": 3, "protocol": PROTOCOL_VERSION + 9})
        msg = str(err.value)
        assert str(PROTOCOL_VERSION) in msg and str(PROTOCOL_VERSION + 9) in msg

    def test_check_hello_rejects_missing_or_negative_id(self):
        with pytest.raises(WireError, match="worker_id"):
            check_hello({"protocol": PROTOCOL_VERSION})
        with pytest.raises(WireError, match=">= 0"):
            check_hello({"worker_id": -1, "protocol": PROTOCOL_VERSION})

    def test_mismatched_daemon_turned_away_at_join(self):
        """A late dialer whose hello negotiates the wrong protocol
        revision is rejected (connection closed, never parked)."""
        with _cluster(2) as backend:
            fresh = 2  # would be a valid new id if the hello were sane
            with socket.create_connection(
                (backend.host, backend.port), timeout=5.0
            ) as conn:
                send_frame(
                    conn,
                    "hello",
                    {"worker_id": fresh, "protocol": PROTOCOL_VERSION + 1},
                )
                conn.settimeout(5.0)
                deadline = time.monotonic() + 10.0
                while time.monotonic() < deadline:
                    backend.membership()  # sweeps the accept backlog
                    try:
                        read_frame(conn)
                    except WireError:
                        break  # master hung up without a config frame
                else:  # pragma: no cover - timing failure
                    pytest.fail("master never closed the mismatched dialer")
            assert fresh not in backend.membership().pending


# ----------------------------------------------------------------------
# session-level reconciliation: grow N, keep results byte-exact
# ----------------------------------------------------------------------
def _session_config():
    return SessionConfig(
        scheme=SchemeParams(n=4, k=2, s=1, m=0),
        master="avcc",
        backend="tcp",
        backend_options={
            "straggle_scale": 0.002,
            "heartbeat_interval": 0.05,
            "heartbeat_timeout": 0.5,
        },
    )


class TestElasticSession:
    def test_membership_changes_keep_results_exact(self, rng):
        """Kill → evict → rejoin → grow → release across quiesce
        points; every matvec answer must equal the plain-field
        reference bit for bit, and the stats must narrate the
        membership story."""
        x = F.random((6, 5), rng)
        vs = [F.random(5, rng) for _ in range(5)]
        expected = [ff_matvec(F, x, v) for v in vs]

        with Session.create(_session_config()) as sess:
            sess.load(x)
            results = [sess.submit_matvec(vs[0]).result()]

            os.kill(sess.backend.worker_pids()[3], signal.SIGKILL)
            # s=1 absorbs the death mid-round, but rounds early-stop
            # faster than the heartbeat timeout — keep serving until
            # the liveness machinery has actually declared it dead
            deadline = time.monotonic() + 30.0
            while 3 not in sess.backend.membership().dead:
                assert time.monotonic() < deadline, "death never detected"
                sess.submit_matvec(vs[1]).result()
            results.append(sess.submit_matvec(vs[1]).result())
            out = sess.end_iteration()
            assert out.departed_workers == (3,)
            assert sess.master.scheme_now[0] == 3

            sess.backend.restart_worker(3)
            assert _await(lambda: 3 in sess.backend.membership().pending)
            out = sess.end_iteration()
            assert out.joined_workers == (3,)
            assert out.reencode_time > 0.0  # rejoin re-ships shares
            assert sess.master.scheme_now[0] == 4
            results.append(sess.submit_matvec(vs[2]).result())

            sess.backend.spawn_worker()
            assert _await(lambda: 4 in sess.backend.membership().pending)
            out = sess.end_iteration()
            assert out.joined_workers == (4,)
            assert sess.master.scheme_now[0] == 5
            results.append(sess.submit_matvec(vs[3]).result())

            out = sess.release_workers([4])
            assert out.departed_workers == (4,)
            assert sess.master.scheme_now[0] == 4
            results.append(sess.submit_matvec(vs[4]).result())

            stats = sess.stats
        assert stats.dead_workers == (3,)
        assert stats.rejoined_workers == (3,)
        assert stats.joined_workers == (4,)
        assert stats.membership_changes >= 3
        assert "membership:" in stats.summary()
        for got, want in zip(results, expected):
            np.testing.assert_array_equal(got, want)

    def test_release_workers_validates_roster(self, rng):
        x = F.random((4, 3), rng)
        with Session.create(_session_config()) as sess:
            sess.load(x)
            with pytest.raises(ValueError, match="not in the roster"):
                sess.release_workers([17])
            with pytest.raises(ValueError, match="at least one"):
                sess.release_workers([])
