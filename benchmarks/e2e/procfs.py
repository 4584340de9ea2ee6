"""Process accounting read from ``/proc``: CPU seconds and peak
resident memory of the master and every fleet pid, host load."""

from __future__ import annotations

import os
import time
from typing import Iterable

import numpy as np

__all__ = ["alive", "calib_matmul_ms", "cpu_delta", "cpu_seconds", "host_info", "peak_rss_mb"]

_TICK = os.sysconf("SC_CLK_TCK")


def _stat_fields(pid: int) -> list[str] | None:
    """``/proc/<pid>/stat`` from the state field on (``None`` once the
    process is gone)."""
    try:
        with open(f"/proc/{pid}/stat") as fp:
            # the command name may contain spaces: split after its ")"
            return fp.read().rsplit(")", 1)[1].split()
    except (OSError, IndexError):
        return None


def alive(pid: int) -> bool:
    """Whether ``pid`` still runs (an unreaped zombie does not)."""
    fields = _stat_fields(pid)
    return fields is not None and fields[0] != "Z"


def _pid_cpu(pid: int) -> float | None:
    """user+sys CPU seconds of ``pid`` (``None`` once it is gone)."""
    fields = _stat_fields(pid)
    return None if fields is None else (int(fields[11]) + int(fields[12])) / _TICK


def cpu_seconds(pids: Iterable[int]) -> dict[int, float]:
    """CPU seconds consumed so far by this process and each of ``pids``
    that is still alive."""
    # this process reads its own clock (nanoseconds, where /proc has ticks)
    out = {os.getpid(): time.process_time()}
    for pid in pids:
        used = _pid_cpu(pid)
        if used is not None:
            out[pid] = used
    return out


def cpu_delta(before: dict[int, float], after: dict[int, float]) -> float:
    """CPU seconds spent between two snapshots, over the pids alive in
    both (a worker dropped in between contributes nothing)."""
    return sum(after[pid] - before[pid] for pid in before if pid in after)


def peak_rss_mb(pids: Iterable[int]) -> float:
    """Largest peak resident set (``VmHWM``) among this process and
    ``pids``, in MiB."""
    peak = 0
    for pid in {os.getpid(), *pids}:
        try:
            with open(f"/proc/{pid}/status") as fp:
                for line in fp:
                    if line.startswith("VmHWM:"):
                        peak = max(peak, int(line.split()[1]))
                        break
        except OSError:
            continue
    return peak / 1024.0


def calib_matmul_ms(calls: int = 30) -> float:
    """Median time of a fixed int64 matmul: a yardstick that tells a
    slower machine apart from slower code."""
    rng = np.random.default_rng(0)
    a = rng.integers(0, 1 << 25, size=(192, 192), dtype=np.int64)
    b = rng.integers(0, 1 << 25, size=(192, 192), dtype=np.int64)
    times = []
    for _ in range(calls):
        t0 = time.perf_counter()
        _ = (a @ b) % 33554393
        times.append(time.perf_counter() - t0)
    return float(np.median(times)) * 1e3


def host_info() -> dict[str, float]:
    return {"nproc": float(os.cpu_count() or 1), "loadavg_1m": os.getloadavg()[0]}
