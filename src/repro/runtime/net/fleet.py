"""Fleet launching: real socket workers on loopback, in one line.

Tests, examples and benchmarks need a genuine TCP fleet without a
deployment step. The fleet is a few forked :mod:`multiprocessing`
processes (POSIX), each a *host*:
:class:`~repro.runtime.net.worker_server.WorkerServer` serving
:func:`host_size` consecutive worker ids — millisecond startup, no
re-import of numpy, but same-host only. W, the ids per host, is
n // (2 × usable CPUs) bounded to 1..3: two hosts per core, 4 hosts of
3 for n = 12 on two CPUs, a host per worker below n = 8 there. A
remote host runs the same server for one id through the
``python -m repro.runtime.net.worker`` CLI instead. The master sees n
workers either way; only the crash domain is shared: a killed host is
W simultaneous erasures.

Workers dial the master with retries, so the launch order is
flexible: either create the (listening) :class:`TcpCluster` first and
point a fleet at its ephemeral port, or grab a port with
:func:`free_port`, spawn the fleet, then construct the cluster with
``spawn_workers=False`` — the workers wait for the master to appear.

:class:`LocalFleet` is a context manager; leaving the block terminates
every host. It is also *elastic*: :meth:`LocalFleet.spawn_worker`
launches an additional daemon (a host of one) into the live cluster
and :meth:`LocalFleet.restart_worker` replaces a dead one — the new
process dials the same master address and is admitted at the next
between-rounds quiesce point. The
:class:`~repro.runtime.net.client.TcpCluster` spawns (and owns) one
internally when ``spawn_workers=True``, so
``SessionConfig(backend="tcp")`` needs no launcher at all.
"""

from __future__ import annotations

import multiprocessing
import os
import socket
import threading
from collections import deque
from contextlib import suppress
from multiprocessing.process import BaseProcess
from typing import Iterable, Sequence

__all__ = ["LocalFleet", "free_port", "host_size", "spawn_local_workers", "usable_cpus"]

#: ports handed out recently but possibly not yet bound by their taker.
#: ``free_port`` binds port 0, reads the assignment and *closes* the
#: socket — between that close and the caller's own bind the OS may
#: hand the same port to another ``free_port`` call (test processes
#: grab several in quick succession). Remembering the last few issued
#: ports and skipping them closes that reuse race.
_RECENT_PORTS: deque[int] = deque(maxlen=128)
_RECENT_LOCK = threading.Lock()

#: the largest host: W = 3 is the one co-hosted size measured to win
#: (two 2-vCPU hosts of 3 at n = 12); six products back to back in one
#: host lost on the training workload
_MAX_HOST_SIZE = 3


def free_port(host: str = "127.0.0.1") -> int:
    """An OS-assigned free TCP port (for spawn-fleet-first flows).

    Guarded against back-to-back reuse: a port issued by a recent call
    in this process is never handed out again until 128 further ports
    have been issued — by then its taker has long since bound it (or
    abandoned it)."""
    for _ in range(32):
        with socket.socket() as sock:
            sock.bind((host, 0))
            port = sock.getsockname()[1]
        with _RECENT_LOCK:
            if port not in _RECENT_PORTS:
                _RECENT_PORTS.append(port)
                return port
    # the OS insists on recycling: accept the collision risk rather
    # than spin forever (practically unreachable)
    return port  # pragma: no cover


def usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask where the OS
    keeps one (a container's cpuset), else the machine's count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - no affinity API (macOS)
        return os.cpu_count() or 1


def host_size(n: int) -> int:
    """W, the logical workers one host process serves in a loopback
    fleet of ``n``: two hosts per usable CPU, so the hosts' Python runs
    beside the master's instead of in 2n interpreters fighting for the
    same cores, and at most three (:data:`_MAX_HOST_SIZE`), so a host's W
    back-to-back products stay short."""
    return min(_MAX_HOST_SIZE, max(1, n // (2 * usable_cpus())))


def _host_entry(host: str, port: int, worker_ids: list[int], connect_timeout: float) -> None:
    from repro.runtime.net.worker_server import WorkerServer

    WorkerServer(host, port, *worker_ids, connect_timeout=connect_timeout).run()


class LocalFleet:
    """A group of locally spawned host processes (context manager).

    ``host``/``port``/``connect_timeout`` record the master address the
    fleet dials; they are what let :meth:`spawn_worker` and
    :meth:`restart_worker` launch replacements into a live cluster.
    """

    def __init__(
        self,
        procs: dict[int, BaseProcess],
        *,
        host: str,
        port: int,
        connect_timeout: float = 30.0,
    ):
        #: worker_id -> the forked host process serving it (co-hosted
        #: ids share one)
        self.procs = procs
        self.host = host
        self.port = port
        self.connect_timeout = connect_timeout

    def pids(self) -> dict[int, int]:
        """worker_id -> pid of its host: co-hosted ids share a pid."""
        return {wid: int(p.pid) for wid, p in self.procs.items()}

    # ------------------------------------------------------------------
    # elastic spawning
    # ------------------------------------------------------------------
    def spawn_worker(self, worker_id: int) -> None:
        """Launch one additional daemon (a host of one) dialing the
        fleet's master.

        The process registers with ``hello`` like any other worker; a
        running cluster parks it as a pending join until its next
        ``admit_workers()``. Raises if ``worker_id`` already has a
        live process (use :meth:`restart_worker` for replacements).
        """
        wid = int(worker_id)
        proc = self.procs.get(wid)
        if proc is not None and proc.is_alive():
            raise ValueError(
                f"worker {wid} already has a live process (pid {proc.pid}); "
                "use restart_worker to replace it"
            )
        self.procs[wid] = _spawn_host(self.host, self.port, [wid], self.connect_timeout)

    def restart_worker(self, worker_id: int) -> None:
        """Replace ``worker_id``'s process with a fresh daemon (a host
        of one), stopping the old host first unless it serves another
        id. The restarted daemon re-dials the master — a rejoin is a
        fresh registration, admitted between rounds."""
        wid = int(worker_id)
        self.release(wid, grace=0.0)
        self.procs[wid] = _spawn_host(self.host, self.port, [wid], self.connect_timeout)

    def release(self, worker_id: int, grace: float = 0.5) -> None:
        """Forget ``worker_id`` once its master has shut it down. Its
        host, given ``grace`` seconds to exit by itself, is stopped only
        when it serves no other id: co-hosted siblings serve on."""
        proc = self.procs.pop(int(worker_id), None)
        if proc is not None and proc not in self.procs.values():
            _stop([proc], grace)

    def terminate(self) -> None:
        """Stop every still-running host, each once (idempotent)."""
        _stop(set(self.procs.values()))

    def __enter__(self) -> "LocalFleet":
        return self

    def __exit__(self, *exc: object) -> bool:
        self.terminate()
        return False


def _stop(procs: Iterable[BaseProcess], grace: float = 0.0, timeout: float = 2.0) -> None:
    """Give each process ``grace`` seconds to exit by itself, terminate
    the rest together, and reap them, killing one still stuck after
    ``timeout`` (best-effort throughout)."""
    procs = list(procs)
    for proc in procs:
        with suppress(OSError, ValueError):
            proc.join(grace)
            if proc.is_alive():
                proc.terminate()
    for proc in procs:
        with suppress(OSError, ValueError):
            proc.join(timeout)
            if proc.is_alive():  # pragma: no cover - stuck host
                proc.kill()
                proc.join(timeout)


def _spawn_host(
    host: str, port: int, worker_ids: list[int], connect_timeout: float
) -> BaseProcess:
    """Fork one host process serving ``worker_ids``."""
    try:
        ctx = multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX fallback
        ctx = multiprocessing.get_context()
    proc = ctx.Process(
        target=_host_entry,
        args=(host, port, worker_ids, connect_timeout),
        daemon=True,
    )
    proc.start()
    return proc


def spawn_local_workers(
    host: str,
    port: int,
    worker_ids: Sequence[int],
    *,
    connect_timeout: float = 30.0,
) -> LocalFleet:
    """Spawn hosts of :func:`host_size` consecutive ids each, all
    dialing ``host:port``."""
    ids = [int(wid) for wid in worker_ids]
    size = host_size(len(ids))
    procs: dict[int, BaseProcess] = {}
    for i in range(0, len(ids), size):
        group = ids[i:i + size]
        proc = _spawn_host(host, port, group, connect_timeout)
        procs.update(dict.fromkeys(group, proc))
    return LocalFleet(procs, host=host, port=port, connect_timeout=connect_timeout)
