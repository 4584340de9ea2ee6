"""Fleet launching: real socket workers on loopback, in one line.

Tests, examples and benchmarks need a genuine TCP fleet without a
deployment step. Each worker is a forked :mod:`multiprocessing`
process (POSIX) running
:class:`~repro.runtime.net.worker_server.WorkerServer` directly —
millisecond startup, no re-import of numpy, but same-host only. A
remote host runs the same server through the
``python -m repro.runtime.net.worker`` CLI instead.

Workers dial the master with retries, so the launch order is
flexible: either create the (listening) :class:`TcpCluster` first and
point a fleet at its ephemeral port, or grab a port with
:func:`free_port`, spawn the fleet, then construct the cluster with
``spawn_workers=False`` — the workers wait for the master to appear.

:class:`LocalFleet` is a context manager; leaving the block terminates
every worker process. It is also *elastic*: :meth:`LocalFleet.
spawn_worker` launches an additional daemon into the live cluster and
:meth:`LocalFleet.restart_worker` replaces a dead one — the new
process dials the same master address and is admitted at the next
between-rounds quiesce point. The
:class:`~repro.runtime.net.client.TcpCluster` spawns (and owns) one
internally when ``spawn_workers=True``, so
``SessionConfig(backend="tcp")`` needs no launcher at all.
"""

from __future__ import annotations

import multiprocessing
import threading
from collections import deque
from multiprocessing.process import BaseProcess
from typing import Sequence

__all__ = ["LocalFleet", "free_port", "spawn_local_workers"]

#: ports handed out recently but possibly not yet bound by their taker.
#: ``free_port`` binds port 0, reads the assignment and *closes* the
#: socket — between that close and the caller's own bind the OS may
#: hand the same port to another ``free_port`` call (test processes
#: grab several in quick succession). Remembering the last few issued
#: ports and skipping them closes that reuse race.
_RECENT_PORTS: deque[int] = deque(maxlen=128)
_RECENT_LOCK = threading.Lock()


def free_port(host: str = "127.0.0.1") -> int:
    """An OS-assigned free TCP port (for spawn-fleet-first flows).

    Guarded against back-to-back reuse: a port issued by a recent call
    in this process is never handed out again until 128 further ports
    have been issued — by then its taker has long since bound it (or
    abandoned it)."""
    import socket

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


def _worker_entry(host: str, port: int, worker_id: int, connect_timeout: float) -> None:
    from repro.runtime.net.worker_server import WorkerServer

    WorkerServer(host, port, worker_id, connect_timeout=connect_timeout).run()


class LocalFleet:
    """A group of locally spawned worker processes (context manager).

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
        #: worker_id -> forked worker process
        self.procs = procs
        self.host = host
        self.port = port
        self.connect_timeout = connect_timeout

    def pids(self) -> dict[int, int]:
        return {wid: int(p.pid) for wid, p in self.procs.items()}

    # ------------------------------------------------------------------
    # elastic spawning
    # ------------------------------------------------------------------
    def spawn_worker(self, worker_id: int) -> None:
        """Launch one additional daemon dialing the fleet's master.

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
        self.procs[wid] = _spawn_one(self.host, self.port, wid, self.connect_timeout)

    def restart_worker(self, worker_id: int) -> None:
        """Replace ``worker_id``'s process with a fresh daemon
        (terminating the old one first if it is somehow still alive).
        The restarted daemon re-dials the master — a rejoin is a fresh
        registration, admitted between rounds."""
        wid = int(worker_id)
        proc = self.procs.pop(wid, None)
        if proc is not None:
            self._stop_one(proc)
        self.procs[wid] = _spawn_one(self.host, self.port, wid, self.connect_timeout)

    def _stop_one(self, proc: BaseProcess, timeout: float = 2.0) -> None:
        try:
            proc.terminate()
        except (OSError, ValueError):  # pragma: no cover - already gone
            pass
        _reap(proc, timeout)

    def terminate(self, timeout: float = 2.0) -> None:
        """Stop every still-running worker (idempotent)."""
        for proc in self.procs.values():
            try:
                proc.terminate()
            except (OSError, ValueError):  # pragma: no cover - already gone
                pass
        for proc in self.procs.values():
            _reap(proc, timeout)

    def __enter__(self) -> "LocalFleet":
        return self

    def __exit__(self, *exc: object) -> bool:
        self.terminate()
        return False


def _reap(proc: BaseProcess, timeout: float) -> None:
    """Join a terminated worker, killing it if it is stuck."""
    try:
        proc.join(timeout)
        if proc.is_alive():  # pragma: no cover - stuck worker
            proc.kill()
            proc.join(timeout)
    except (OSError, ValueError):
        pass  # pragma: no cover - reaping is best-effort


def _spawn_one(
    host: str, port: int, worker_id: int, connect_timeout: float
) -> BaseProcess:
    """Fork one worker daemon process."""
    try:
        ctx = multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX fallback
        ctx = multiprocessing.get_context()
    proc = ctx.Process(
        target=_worker_entry,
        args=(host, port, int(worker_id), connect_timeout),
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
    """Spawn one worker daemon per id, all dialing ``host:port``."""
    procs = {
        int(wid): _spawn_one(host, port, int(wid), connect_timeout)
        for wid in worker_ids
    }
    return LocalFleet(procs, host=host, port=port, connect_timeout=connect_timeout)
