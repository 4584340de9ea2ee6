"""Measured repetitions of a workload, and the runs built from them.

A *repetition* sets a fresh session up (cold: a new fleet, a new
encoding), warms it, runs the workload's timed closed loop, checks
every output and closes the fleet. A run repeats the same work five
times, at least five seconds apart, and reports each metric from its
best repetition: the host this runs on slows down for tens of seconds
at a time and never speeds up, so the best of five spaced repetitions
of identical work is what the program does when the host lets it.
``setup_s`` is the median of the five cold set-ups.

An untraced run is five untraced repetitions. A traced run is two
untraced reference repetitions and two traced ones, so the tracing
overhead is measured inside the run that reports it.
"""

from __future__ import annotations

import gc
import os
import signal
import statistics
import time
from dataclasses import dataclass
from typing import Any, Callable

from e2e import layers, probes, procfs
from e2e.spans import Recorder
from e2e.stats import latency_samples, percentile, supported_tail
from e2e.workloads import WORKLOADS, Timed, Workload
from repro.api import Session

__all__ = ["REPS", "Rep", "end_to_end", "run_rep", "run_reps", "traced_run", "untraced_run"]

_now = time.perf_counter

#: repetitions of the same work in an untraced run
REPS = 5

#: repetitions start at least this far apart, so that one slow stretch
#: of the host (they last 10-30 s here) cannot cover them all
SPACING_S = 5.0

#: every fleet pid this process ever saw, for the final no-orphans sweep
_seen_pids: set[int] = set()


@dataclass
class Rep:
    """The raw outcome of one repetition."""

    setup_s: float
    timed: Timed
    wrong_bytes: int
    cpu_s: float
    peak_rss_mb: float

    @property
    def failed(self) -> int:
        return self.timed.failed + self.wrong_bytes

    @property
    def ops(self) -> int:
        return self.timed.units * self.timed.ops_per_unit

    @property
    def ops_per_s(self) -> float:
        return self.ops / (self.timed.t_end - self.timed.t_begin)


def run_rep(
    wl: Workload,
    inp: dict[str, Any],
    size: dict[str, int],
    seed: int,
    *,
    rec: Recorder | None = None,
    on_session: Callable[[Session], None] | None = None,
    before_timed: Callable[[Session], None] | None = None,
    after_timed: Callable[[Session], None] | None = None,
) -> Rep:
    """Set up, warm, run the timed region, check the outputs, close.
    ``on_session`` sees the session between ``create`` and ``load`` (a
    traced repetition installs its spans there); the other hooks
    bracket the timed region."""
    rec = rec or Recorder()
    sess = None
    try:
        t0 = _now()
        with rec.span("Session.create", "api"):
            sess = Session.create(wl.config(seed))
        pids = _fleet_pids(sess)
        if on_session:
            on_session(sess)
        with rec.span("Session.load", "api"):
            sess.load(inp["x"])
        setup_s = _now() - t0
        wl.warm(sess, inp, size)
        if before_timed:
            before_timed(sess)
        cpu0 = procfs.cpu_seconds(pids)
        with rec.span("timed_region", "unattributed"):
            timed = wl.timed(sess, inp, size, rec)
        cpu_s = procfs.cpu_delta(cpu0, procfs.cpu_seconds(pids))
        rss = procfs.peak_rss_mb(pids)
        wrong = wl.check(sess, inp, timed)
        if after_timed:
            after_timed(sess)
        return Rep(setup_s, timed, wrong, cpu_s, rss)
    finally:
        if sess is not None:
            # an interrupted repetition must not run more distributed work
            sess.close(flush=False)


def run_reps(n: int, spacing_s: float, one: Callable[[], Rep]) -> list[Rep]:
    """``n`` repetitions of ``one()``, their starts ``spacing_s`` apart."""
    reps = []
    for i in range(n):
        started = time.monotonic()
        reps.append(one())
        # a closed session is cyclic garbage holding its encoded shares:
        # free it now, or the next cold set-up pays for fresh pages
        gc.collect()
        if i + 1 < n:
            time.sleep(max(0.0, spacing_s - (time.monotonic() - started)))
    return reps


def _fleet_pids(sess: Session) -> list[int]:
    pids = list(getattr(sess.backend, "worker_pids", dict)().values())
    _seen_pids.update(pids)
    return pids


def reap_fleets(deadline_s: float = 5.0) -> int:
    """Make sure no worker daemon this process launched outlives it:
    wait (bounded) for each to be gone, kill what is left. Returns how
    many had to be killed."""
    killed = 0
    end = time.monotonic() + deadline_s
    for pid in sorted(_seen_pids):
        while procfs.alive(pid) and time.monotonic() < end:
            time.sleep(0.02)
        if procfs.alive(pid):
            try:
                os.kill(pid, signal.SIGKILL)
                killed += 1
            except OSError:
                pass
    _seen_pids.clear()
    return killed


# ----------------------------------------------------------------------
def end_to_end(wl: Workload, reps: list[Rep]) -> tuple[dict[str, float], dict[str, Any]]:
    """The six end-to-end metrics of a run's repetitions, plus how they
    were taken (sample counts, the percentile actually used). Rates,
    latencies and CPU come from the best repetition of each; a failed
    op is a latency sample of ``inf`` in its repetition."""
    samples = [
        latency_samples(r.timed.latencies, r.timed.failed // r.timed.ops_per_unit)
        for r in reps
    ]
    # the percentile the pooled sample supports, taken in each repetition
    tail_pct = supported_tail(sum(len(s) for s in samples), wl.tail_pct)
    metrics = {
        "setup_s": statistics.median(r.setup_s for r in reps),
        "ops_per_s": max(r.ops_per_s for r in reps),
        "lat_p50_ms": min(percentile(s, 50.0) for s in samples) * 1e3,
        "lat_tail_ms": min(percentile(s, tail_pct) for s in samples) * 1e3,
        "cpu_ms_per_op": min(r.cpu_s / max(1, r.ops) for r in reps) * 1e3,
        "peak_rss_mb": max(r.peak_rss_mb for r in reps),
    }
    attempted = sum(r.timed.attempted for r in reps)
    how = {
        "op": wl.op,
        "repetitions": len(reps),
        "ops": sum(r.ops for r in reps),
        "latency_samples": sum(len(s) for s in samples),
        "tail_percentile": tail_pct,
        "ops_per_s_by_repetition": [round(r.ops_per_s, 3) for r in reps],
        "setup_s_by_repetition": [round(r.setup_s, 3) for r in reps],
        "timed_wall_s": sum(r.timed.t_end - r.timed.t_begin for r in reps),
        "fail_frac": sum(r.failed for r in reps) / max(1, attempted),
    }
    return metrics, how


def _best(reps: list[Rep]) -> Rep:
    return max(reps, key=lambda r: r.ops_per_s)


def untraced_run(name: str, seed: int, seconds: float, quick: bool) -> dict[str, Any]:
    """``--trace 0``: five repetitions with tracing off."""
    wl = WORKLOADS[name]
    size = wl.size(seconds / REPS, quick)
    inp = wl.inputs(seed, size)
    reps = run_reps(
        2 if quick else REPS, 0.0 if quick else SPACING_S,
        lambda: run_rep(wl, inp, size, seed),
    )
    metrics, how = end_to_end(wl, reps)
    how["inputs_digest"] = wl.digest(inp)
    how.update(_best(reps).timed.info)
    return _result(reps, metrics, how)


def traced_run(name: str, seed: int, seconds: float, quick: bool) -> dict[str, Any]:
    """``--trace 1``: two untraced reference repetitions and two traced
    ones of the same work, then the replay probes. The per-layer
    metrics come from the better traced repetition."""
    wl = WORKLOADS[name]
    size = wl.size(seconds / REPS, quick)
    inp = wl.inputs(seed, size)
    calls = 5 if quick else 30
    n, spacing = (1, 0.0) if quick else (2, SPACING_S)

    refs = run_reps(n, spacing, lambda: run_rep(wl, inp, size, seed))
    ref_rate = _best(refs).ops_per_s

    traces: list[tuple[Recorder, layers.Capture, dict[str, float]]] = []
    recode = {"core.recode_cold_s": 0.0, "core.recode_warm_s": 0.0}

    def traced_rep() -> Rep:
        rec, cap, est = Recorder(), layers.Capture(), {}
        cap.x = inp["x"]
        traces.append((rec, cap, est))

        def before(sess: Session) -> None:
            cap.reset_counts()
            cap.kernel_s = probes.worker_kernel_s(cap, sess.field, calls)
            est["api.estimate_round_time_us.first"] = probes.estimate_round_time_us(sess, calls)

        def after(sess: Session) -> None:
            rec.unwrap_all()
            est["api.estimate_round_time_us.last"] = probes.estimate_round_time_us(sess, calls)
            if name == "train_logreg_tcp" and len(traces) == n:
                recode.update(probes.recode_cycles(sess))

        try:
            layers.install_setup_spans(rec, cap)
            return run_rep(
                wl, inp, size, seed, rec=rec,
                on_session=lambda sess: layers.install_session_spans(rec, cap, sess),
                before_timed=before, after_timed=after,
            )
        finally:
            rec.unwrap_all()

    traced = run_reps(n, spacing, traced_rep)
    best = max(range(n), key=lambda i: traced[i].ops_per_s)
    rec, cap, est = traces[best]
    spans = rec.finished()
    timed = traced[best].timed

    per_layer = layers.derive(spans, timed, cap)
    per_layer.update(probes.replay(cap, wl.config(seed), timed.rounds, calls, seed))
    per_layer.update(recode)
    per_layer.update(est)
    per_layer["ml.test_acc"] = timed.info.get("test_acc", 0.0)
    per_layer["trace.overhead_frac"] = 1.0 - traced[best].ops_per_s / ref_rate
    per_layer["host.calib_matmul_ms"] = procfs.calib_matmul_ms(calls)
    per_layer.update({f"host.{k}": v for k, v in procfs.host_info().items()})
    for key in ("queue_wait_p50_ms", "shed_frac", "sustain_ratio", "clock_skew_frac"):
        per_layer[f"serve.{key}"] = timed.info.get(key, 0.0)

    reps = refs + traced
    if name.startswith("serve_small"):
        # the same trace with the obs consumers in the other position,
        # untraced like the reference repetitions: the base is plain
        other = WORKLOADS["serve_small_tcp" if wl.audit else "serve_small_audited_tcp"]
        twins = run_reps(n, spacing, lambda: run_rep(other, inp, size, seed))
        twin_rate = _best(twins).ops_per_s
        audited, plain = (ref_rate, twin_rate) if wl.audit else (twin_rate, ref_rate)
        per_layer["obs.audited_over_plain"] = audited / plain
        reps = reps + twins
    else:
        per_layer["obs.audited_over_plain"] = 0.0

    _metrics, how = end_to_end(wl, traced)
    how["reference_ops_per_s"] = ref_rate
    how["traced_ops_per_s"] = traced[best].ops_per_s
    out = _result(reps, per_layer, how)
    out["spans"] = spans
    out["phases"] = layers.phase_table(per_layer, timed)
    return out


def _result(reps: list[Rep], metrics: dict[str, float], how: dict[str, Any]) -> dict[str, Any]:
    failed = sum(r.failed for r in reps)
    return {
        "correct": failed == 0,
        "attempted": sum(r.timed.attempted for r in reps),
        "failed": failed,
        "metrics": metrics,
        "how": how,
    }
