"""Where the spans go, and the per-layer metrics derived from them.

Layers are the repo's packages: ``coding``, ``verify``, ``core``,
``runtime`` (``runtime.net`` for the socket backends, and
``runtime.worker_compute`` for the workers' kernel time), ``api``,
``serve``, ``ml``, ``obs``. ``ff`` has no boundary the benchmark can
wrap — its functions are module-level imports — so its time sits
inside the worker-compute, coding and verify rows and is measured on
its own by the replay probes (:mod:`e2e.probes`).
"""

from __future__ import annotations

import collections
import itertools
import statistics
from typing import Any

from e2e.spans import Recorder, Span, TracedHandle, self_times
from e2e.workloads import Timed
from repro.api import Session
from repro.coding.lcc import LagrangeCode
from repro.verify.freivalds import FreivaldsVerifier

__all__ = [
    "LAYERS",
    "Capture",
    "derive",
    "install_session_spans",
    "install_setup_spans",
    "phase_table",
]

#: rows of the layer table (self-time shares of the timed region)
LAYERS = (
    "coding",
    "verify",
    "core",
    "runtime",
    "runtime.worker_compute",
    "runtime.net",
    "api",
    "serve",
    "ml",
    "obs",
    "unattributed",
)


class Capture:
    """Real operands seen by the traced pass, for the replay probes,
    and the counts taken at the same boundaries as the spans."""

    def __init__(self) -> None:
        self.x: Any = None  # the dataset handed to Session.load
        self.code: Any = None  # the LagrangeCode of the installed config
        self.blocks: Any = None  # encode's (k, rows, cols) data blocks
        self.shares: dict[str, Any] = {}  # payload key -> one worker's share
        self.job: Any = None  # the latest RoundJob dispatched
        self.participants = 0
        self.check: Any = None  # (key, operand, claimed) of an accepted check
        self.decode: Any = None  # (indices, shares) of a decode
        self.commit: Any = None  # keyword arguments of an audit commit
        self.record: Any = None  # a finalized RoundRecord
        self.backend_layer = "runtime"
        #: replayed kernel time of one share (set before the timed region)
        self.kernel_s = 0.0
        self.reset_counts()

    def reset_counts(self) -> None:
        self.rejected = 0
        self.results_used = 0
        self.results_dispatched = 0


def install_setup_spans(rec: Recorder, cap: Capture) -> None:
    """Spans on the classes whose instances are built inside
    ``master.setup``, where no object exists yet to wrap."""

    def saw_encode(out: Any, code: Any, blocks: Any, *_a: Any, **_k: Any) -> Any:
        if cap.blocks is None:
            cap.code, cap.blocks = code, blocks
        return out

    rec.wrap(LagrangeCode, "encode", "LagrangeCode.encode", "coding", after=saw_encode)
    rec.wrap(FreivaldsVerifier, "keygen", "FreivaldsVerifier.keygen", "verify")


def install_session_spans(rec: Recorder, cap: Capture, sess: Session) -> None:
    """Spans around the public boundaries of a live session's objects."""
    backend, master = sess.backend, sess.master
    socket_backend = type(backend).__module__.startswith("repro.runtime.net")
    blayer = cap.backend_layer = "runtime.net" if socket_backend else "runtime"
    rounds = itertools.count(1)
    round_of: dict[int, int] = {}
    latest = [0]
    wrapped_codes: set[int] = set()

    # -- runtime --------------------------------------------------------
    def saw_distribute(out: Any, name: str, shares: Any, *_a: Any, **_k: Any) -> Any:
        cap.shares.setdefault(name, shares[0])
        return out

    def saw_dispatch(handle: Any, job: Any, *_a: Any, **kwargs: Any) -> Any:
        cap.job = job
        cap.participants = len(kwargs.get("participants") or ())
        return handle

    rec.wrap(backend, "distribute", "backend.distribute", blayer, after=saw_distribute)
    rec.wrap(backend, "dispatch_round", "backend.dispatch_round", blayer, after=saw_dispatch)
    if backend.timing_is_exact:
        # the simulator computes every worker's product in-process
        for worker in backend.workers:
            rec.wrap(worker, "execute", "worker.compute", "runtime.worker_compute")

    # -- core, coding, verify ---------------------------------------------
    def new_round(*_a: Any) -> int:
        latest[0] = next(rounds)
        return latest[0]

    def saw_plan(plan: Any, *_a: Any, **_k: Any) -> Any:
        round_of[id(plan)] = latest[0]
        code = getattr(plan.context, "code", None)
        if code is not None and id(code) not in wrapped_codes:
            wrapped_codes.add(id(code))
            rec.wrap(code, "decode", "LagrangeCode.decode", "coding", after=saw_decode)
        return plan

    def saw_decode(out: Any, indices: Any, shares: Any, *_a: Any, **_k: Any) -> Any:
        cap.decode = (indices, shares)
        return out

    def traced_handle(handle: Any, *_a: Any, **_k: Any) -> TracedHandle:
        # the simulator's workers compute in-process, under their own spans
        kernel_s = None if backend.timing_is_exact else (lambda: cap.kernel_s)
        return TracedHandle(handle, rec, blayer, kernel_s)

    def saw_complete(outcomes: Any, plan: Any, *_a: Any, **_k: Any) -> Any:
        round_of.pop(id(plan), None)
        cap.record = outcomes[0].record
        cap.results_used += len(cap.record.used_workers)
        cap.results_dispatched += len(plan.participants)
        return outcomes

    def saw_check(ok: bool, key: Any, operand: Any, claimed: Any) -> bool:
        if ok:
            cap.check = (key, operand, claimed)
        else:
            cap.rejected += 1
        return ok

    def tag_of(plan: Any, *_a: Any) -> int | None:
        return round_of.get(id(plan))

    rec.wrap(master, "plan_round", "master.plan_round", "core", tag=new_round, after=saw_plan)
    rec.wrap(
        master, "dispatch_plan", "master.dispatch_plan", "core", tag=tag_of, after=traced_handle
    )
    rec.wrap(
        master, "complete_round", "master.complete_round", "core", tag=tag_of, after=saw_complete
    )
    if hasattr(master, "verifier"):
        rec.wrap(
            master.verifier, "check", "FreivaldsVerifier.check", "verify", after=saw_check
        )

    # -- api --------------------------------------------------------------
    def request_tag(request: Any) -> str | None:
        rid = getattr(request, "request_id", None)
        return None if rid is None else f"req-{rid}"

    def traced_result(handle: Any, *_a: Any, **_k: Any) -> Any:
        rec.wrap(handle, "result", "JobHandle.result", "api")
        return handle

    rec.wrap(sess, "submit", "Session.submit", "api", tag=request_tag, after=traced_result)
    for attr in ("flush", "drain", "end_iteration"):
        rec.wrap(sess, attr, f"Session.{attr}", "api")

    # -- obs --------------------------------------------------------------
    def saw_commit(out: Any, **kwargs: Any) -> Any:
        cap.commit = kwargs
        return out

    if sess.audit is not None:
        rec.wrap(sess.audit, "commit", "AuditLog.commit", "obs", after=saw_commit)
    if sess.obs is not None:
        for attr in ("begin_request", "end", "end_many", "link_rounds", "record_round"):
            rec.wrap(sess.obs.tracer, attr, f"Tracer.{attr}", "obs")


# ----------------------------------------------------------------------
def _ms(values: list[float]) -> float:
    return statistics.median(values) * 1e3 if values else 0.0


def derive(spans: list[Span], timed: Timed, cap: Capture) -> dict[str, float]:
    """Per-layer metrics from the traced pass: set-up totals, medians
    per round inside the timed region, and each layer's share of it."""
    selfs = self_times(spans)
    root = next(i for i, s in enumerate(spans) if s[0] == "timed_region")
    t_lo, t_hi = spans[root][2], spans[root][3]
    #: span indices by name: before the timed region, and inside it
    before: dict[str, list[int]] = collections.defaultdict(list)
    inside: dict[str, list[int]] = collections.defaultdict(list)
    for i, (name, _layer, start, end, _parent, _tag) in enumerate(spans):
        if end <= t_lo:
            before[name].append(i)
        elif start >= t_lo and end <= t_hi and i != root:
            inside[name].append(i)

    def dur(i: int) -> float:
        return spans[i][3] - spans[i][2]

    def total(indices: list[int]) -> float:
        return sum(dur(i) for i in indices)

    rounds = max(1, timed.rounds)
    units = max(1, timed.units)

    # per-round sums keyed by the round tag
    waits: dict[Any, float] = {}
    last_arrival: dict[Any, float] = {}
    for i in inside["backend.collect"]:
        tag = spans[i][5]
        waits[tag] = waits.get(tag, 0.0) + dur(i)
        last_arrival[tag] = spans[i][3]
    kth = [
        last_arrival[spans[i][5]] - spans[i][2]
        for i in inside["backend.dispatch_round"]
        if spans[i][5] in last_arrival
    ]

    checks = inside["FreivaldsVerifier.check"]
    submits = inside["Session.submit"]
    resolving = inside["JobHandle.result"] + inside["Session.flush"] + inside["Session.drain"]
    socket_backend = cap.backend_layer == "runtime.net"
    out = {
        "coding.encode_s": total(before["LagrangeCode.encode"]),
        "coding.decode_ms": _ms([dur(i) for i in inside["LagrangeCode.decode"]]),
        "verify.keygen_s": total(before["FreivaldsVerifier.keygen"]),
        "verify.check_ms": _ms([dur(i) for i in checks]),
        "verify.checks_per_round": len(checks) / rounds,
        "verify.rejected_total": float(cap.rejected),
        "core.plan_ms": _ms([dur(i) for i in inside["master.plan_round"]]),
        "core.dispatch_ms": _ms([dur(i) for i in inside["master.dispatch_plan"]]),
        "core.complete_self_ms": _ms([selfs[i] for i in inside["master.complete_round"]]),
        "core.collect_wait_ms": _ms(list(waits.values())),
        "core.results_used_frac": cap.results_used / max(1, cap.results_dispatched),
        "runtime.distribute_s": total(before["backend.distribute"]),
        "runtime.kth_arrival_ms": _ms(kth),
        "runtime.net.fleet_launch_s": total(before["Session.create"]) if socket_backend else 0.0,
        "api.submit_us": _ms([selfs[i] for i in submits]) * 1e3,
        "api.result_self_ms": sum(selfs[i] for i in resolving) / rounds * 1e3,
        "api.end_iteration_self_ms": _ms([selfs[i] for i in inside["Session.end_iteration"]]),
        "api.batching_factor": len(submits) / rounds,
        "serve.gateway_self_ms_per_req": sum(selfs[i] for i in inside["Gateway.run"]) / units * 1e3,
        "serve.batch_size_mean": len(submits) / rounds if inside["Gateway.run"] else 0.0,
        "ml.master_update_ms": sum(selfs[i] for i in inside["trainer.train"]) / units * 1e3,
    }
    in_region = [i for indices in inside.values() for i in indices]
    out.update({f"share.{k}": v for k, v in _shares(spans, selfs, root, in_region).items()})
    return out


def _shares(
    spans: list[Span], selfs: list[float], root: int, inside: list[int]
) -> dict[str, float]:
    """Each layer's self time over the timed region's wall time; the
    root's own self time is the unattributed row, so the rows add up
    to one."""
    wall = spans[root][3] - spans[root][2]
    totals = dict.fromkeys(LAYERS, 0.0)
    totals["unattributed"] = selfs[root]
    for i in inside:
        totals[spans[i][1]] += selfs[i]
    return {layer: total / wall for layer, total in totals.items()}


def phase_table(per_layer: dict[str, float], timed: Timed) -> dict[str, float]:
    """The paper's Fig. 4 phases from the same numbers: one-time encode
    and ship in seconds, then worker compute / wire and wait / verify /
    decode / master other in milliseconds per op."""
    per_op_ms = (timed.t_end - timed.t_begin) / max(1, timed.units) * 1e3
    shares = {
        "worker_compute_ms": per_layer["share.runtime.worker_compute"],
        "wire_and_wait_ms": per_layer["share.runtime"] + per_layer["share.runtime.net"],
        "verify_ms": per_layer["share.verify"],
        "decode_ms": per_layer["share.coding"],
    }
    phases = {"encode_s": per_layer["coding.encode_s"], "ship_s": per_layer["runtime.distribute_s"]}
    phases.update({name: share * per_op_ms for name, share in shares.items()})
    phases["master_other_ms"] = (1.0 - sum(shares.values())) * per_op_ms
    return phases
