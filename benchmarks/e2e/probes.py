"""Replay probes: layers the spans cannot reach from outside.

The worker kernel runs inside the daemons and the ``ff`` and wire
functions sit behind module-level imports, so the traced pass cannot
wrap them. A probe calls the public function directly on operands the
traced pass captured from the workload and reports the median of 30
calls (of as many as fit in half a second, at least 3, for the
second-scale set-up kernels).
"""

from __future__ import annotations

import statistics
import time
from typing import Any, Callable

import numpy as np

from e2e.layers import Capture
from repro.api import Session, SessionConfig, backend_names
from repro.ff.lagrange import eval_lagrange_basis
from repro.ff.linalg import ff_matmul, ff_matvec
from repro.obs.audit import AuditLog
from repro.obs.trace import Tracer
from repro.runtime.backend import run_job_compute
from repro.runtime.net.wire import encode_frame, read_frame

__all__ = [
    "estimate_round_time_us",
    "median_time",
    "recode_cycles",
    "replay",
    "worker_kernel_s",
]

_now = time.perf_counter

#: a slow probe stops repeating once it has used this much time
BUDGET_S = 0.5

#: deadline for a restarted daemon to be admitted back into the roster
REJOIN_DEADLINE_S = 20.0


def median_time(fn: Callable[[], Any], calls: int) -> float:
    """Median seconds of ``fn()`` over ``calls`` calls, cut short (but
    never below 3 calls) once :data:`BUDGET_S` is spent."""
    times: list[float] = []
    spent = 0.0
    while len(times) < calls and (len(times) < 3 or spent < BUDGET_S):
        t0 = _now()
        fn()
        times.append(_now() - t0)
        spent += times[-1]
    return statistics.median(times)


def estimate_round_time_us(sess: Session, calls: int) -> float:
    """Cost of one ``Session.estimate_round_time`` call right now (it
    re-filters the round log, so it grows with the run)."""
    return median_time(lambda: sess.estimate_round_time("fwd", 8), calls) * 1e6


def worker_kernel_s(cap: Capture, field: Any, calls: int) -> float:
    """One worker's honest computation of the captured job on the
    captured share, in this process (no daemon around it)."""
    job = cap.job
    payload = {job.payload_key: cap.shares[job.payload_key]}
    return median_time(lambda: run_job_compute(field, payload, job), calls)


def recode_cycles(sess: Session) -> dict[str, float]:
    """The adaptive path, after train's timed region: release the last
    worker, restart its daemon, and run ``end_iteration`` until the
    roster is back to its size. The first cycle encodes the two
    configurations it passes through (cold); the second finds them in
    the encoding cache and only ships shares (warm)."""
    victim = max(sess.master.active)
    out = {}
    for label in ("cold", "warm"):
        n_before = sess.scheme_now[0]
        t0 = _now()
        sess.release_workers((victim,))
        sess.backend.restart_worker(victim)
        deadline = time.monotonic() + REJOIN_DEADLINE_S
        while sess.scheme_now[0] < n_before:
            if time.monotonic() > deadline:
                raise RuntimeError(f"worker {victim} did not rejoin in {REJOIN_DEADLINE_S} s")
            if not sess.end_iteration().joined_workers:
                time.sleep(0.01)
        out[f"core.recode_{label}_s"] = _now() - t0
    return out


class _Bytes:
    """Just enough of a socket for ``read_frame`` to parse a frame
    held in memory."""

    def __init__(self, data: bytes) -> None:
        self._data, self._pos = memoryview(data), 0

    def recv_into(self, view: memoryview, nbytes: int = 0) -> int:
        n = min(nbytes or len(view), len(self._data) - self._pos)
        view[:n] = self._data[self._pos : self._pos + n]
        self._pos += n
        return n


def _echo_rtt_us(cfg: SessionConfig, backend: str, calls: int, seed: int) -> float:
    """A minimal 12-worker round (one 2-row share each, no faults)
    through a session on ``backend``: the transport's floor."""
    cfg = cfg.with_(backend=backend, workers=(), observability=False, audit=False)
    rng = np.random.default_rng(seed)
    with Session.create(cfg) as sess:
        sess.load(sess.field.random((2 * cfg.scheme.k, 4), rng))
        w = sess.field.random(4, rng)
        for _ in range(5):
            sess.submit_matvec(w).result()
        return median_time(lambda: sess.submit_matvec(w).result(), calls) * 1e6


def replay(
    cap: Capture, cfg: SessionConfig, rounds: int, calls: int, seed: int
) -> dict[str, float]:
    """Every replay probe, on the operands ``cap`` holds from a timed
    region of ``rounds`` rounds."""
    field = cfg.build_field()
    job = cap.job
    share = cap.shares[job.payload_key]
    operand = job.operand
    vector = operand if operand.ndim == 1 else np.ascontiguousarray(operand[:, 0])
    wide = np.ascontiguousarray(np.resize(operand.T, (64, operand.shape[0])).T)
    u_t = np.ascontiguousarray(cap.code.encoding_matrix().T)
    flat = cap.blocks.reshape(cap.blocks.shape[0], -1)
    indices, _shares = cap.decode
    alpha, beta = cap.code.alpha, cap.code.beta[: cap.code.k]
    nodes = alpha[np.asarray(indices)[: cap.code.recovery_threshold()]]

    def t(fn: Callable[[], Any]) -> float:
        return median_time(fn, calls)

    out = {
        "ff.matvec_share_ms": t(lambda: ff_matvec(field, share, vector)) * 1e3,
        "ff.matmul_wide_ms": t(lambda: ff_matmul(field, share, wide)) * 1e3,
        "ff.matmul_encode_s": t(lambda: ff_matmul(field, u_t, flat)),
        "ff.asarray_reduce_s": t(lambda: field.asarray(cap.x)),
        "ff.lagrange_basis_us": t(lambda: eval_lagrange_basis(field, nodes, beta)) * 1e6,
        "runtime.worker_compute_ms": worker_kernel_s(cap, field, calls) * 1e3,
    }

    # -- wire: real frames of this workload, sizes computed from them ---
    fields = {"rid": 1, "op": job.op, "payload_key": job.payload_key, "rhs_key": job.rhs_key}
    _key, _operand, claimed = cap.check
    result_fields = {"rid": 1, "worker_id": 0, "compute_time": 1e-3, "ok": True, "err": None}
    round_frame = b"".join(encode_frame("round", fields, (operand,)))
    result_frame = b"".join(encode_frame("result", result_fields, (claimed,)))
    socket_backend = cap.backend_layer == "runtime.net"
    if socket_backend:
        collected = cap.results_used + cap.rejected
        out.update({
            "runtime.net.encode_frame_us": t(
                lambda: encode_frame("round", fields, (operand,))
            ) * 1e6,
            "runtime.net.decode_payload_us": t(
                lambda: read_frame(_Bytes(result_frame))
            ) * 1e6,
            "runtime.net.encode_share_ms": t(
                lambda: encode_frame("store", {"name": job.payload_key}, (share,))
            ) * 1e3,
            # computed from frame lengths, not read off a socket
            "runtime.net.round_bytes_tx": float(len(round_frame) * cap.participants),
            "runtime.net.round_bytes_rx": len(result_frame) * collected / max(1, rounds),
        })
    else:
        out.update(dict.fromkeys((
            "runtime.net.encode_frame_us",
            "runtime.net.decode_payload_us",
            "runtime.net.encode_share_ms",
            "runtime.net.round_bytes_tx",
            "runtime.net.round_bytes_rx",
        ), 0.0))
    for backend in ("tcp", "async_tcp"):
        # direction 4 may delete one of the two: report what is registered
        registered = socket_backend and backend in backend_names()
        out[f"runtime.net.echo_rtt_us.{backend}"] = (
            _echo_rtt_us(cfg, backend, calls, seed) if registered else 0.0
        )

    # -- obs: the public AuditLog and Tracer on captured round data -----
    if cap.commit is not None:
        log = AuditLog()
        out["obs.audit_commit_us"] = t(lambda: log.commit(**cap.commit)) * 1e6
        out["obs.tracer_us_per_req"] = _tracer_us_per_request(cap, calls)
    else:
        out["obs.audit_commit_us"] = out["obs.tracer_us_per_req"] = 0.0
    return out


def _tracer_us_per_request(cap: Capture, calls: int) -> float:
    """What the gateway and session record per request — admission,
    dequeue, submit, the round link and the finish — replayed through
    a fresh ``Tracer`` for one batch of the captured round's width."""
    tracer = Tracer()
    record = cap.record
    width = 8
    serial = [0]

    def one_batch() -> None:
        base = serial[0]
        serial[0] += width
        contexts, queued, roots = [], [], []
        for i in range(base, base + width):
            root, queue = tracer.begin_request(f"req-{i}", "request", "gateway.queue", 0.0)
            roots.append(root)
            queued.append(queue)
        tracer.end_many(queued, 0.0)
        for i in range(base, base + width):
            _owned, span = tracer.begin_request(f"req-{i}", "request", "session", 0.0)
            contexts.append((f"req-{i}", span, None))
        tracer.record_round(f"round-{base}", record, None)
        tracer.link_rounds(contexts, record.t_start, record.t_end, f"round-{base}", "fwd")
        for root in roots:
            tracer.end(root, record.t_end, status="served")

    return median_time(one_batch, calls) / width * 1e6
