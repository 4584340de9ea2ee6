"""The four workloads: inputs from a seed, one timed closed loop each,
and a byte-for-byte check of every decoded output.

Every workload runs the paper's deployment — N=12 workers, K=9 — with
one always-on ``reverse`` Byzantine worker and one injected straggler,
both inside the provisioned (S, M) budget, so the exact answer is
always recoverable and no op may fail.

All loops are closed loops driven by one thread: the next op is issued
only when the previous one completed. ``WallClockBackend.advance_to``
only floors a bookkeeping clock, so an open-loop schedule would be
replayed as fast as possible on the socket backends and a rate sweep
would measure nothing.

The amount of work is fixed by ``--seconds`` (a nominal op rate times
the run length, split over the run's repetitions), never by the clock:
the serve workloads slow down as the session's round log grows, and
only a fixed op count makes that decay the same work every time.
"""

from __future__ import annotations

import contextlib
import hashlib
import time
from dataclasses import dataclass, field as dc_field
from typing import Any

import numpy as np

from e2e.spans import Recorder, patch
from repro.api import Session, SessionConfig, WorkerSpec
from repro.coding import SchemeParams
from repro.core.results import InsufficientResultsError
from repro.ff import DEFAULT_PRIME
from repro.ml.datasets import make_gisette_like
from repro.ml.logistic import DistributedLogisticTrainer, LogisticConfig
from repro.serve import (
    ClosedLoopSource,
    Gateway,
    GatewayConfig,
    PoissonArrivals,
    TenantSpec,
    WorkloadGenerator,
)

__all__ = ["WORKLOADS", "Timed", "Workload", "reference_product"]

_now = time.perf_counter

N_WORKERS, K = 12, 9
BYZANTINE_ID, STRAGGLER_ID = 3, 7


def fleet_specs() -> tuple[WorkerSpec, ...]:
    """The paper's fleet with one liar and one straggler."""
    specs = [WorkerSpec() for _ in range(N_WORKERS)]
    specs[BYZANTINE_ID] = WorkerSpec(behavior="reverse")
    specs[STRAGGLER_ID] = WorkerSpec(straggler_factor=3.0)
    return tuple(specs)


def reference_product(x: np.ndarray, operands: np.ndarray, q: int) -> np.ndarray:
    """``x @ operands mod q`` in plain int64 numpy — the arithmetic of
    today's ``ff_matvec``, kept here so the oracle is not the code
    under test. ``x`` and ``operands`` hold residues below ``q``."""
    if x.shape[1] * (q - 1) ** 2 >= 2**63:
        raise ValueError("inner dimension too long for one int64 accumulation")
    return (x @ operands) % q


def same_bytes(got: Any, want: np.ndarray) -> bool:
    """Byte-for-byte equality of a decoded output and its reference."""
    return (
        isinstance(got, np.ndarray)
        and got.dtype == want.dtype
        and got.shape == want.shape
        and got.tobytes() == want.tobytes()
    )


def _digest(*arrays: np.ndarray) -> str:
    h = hashlib.blake2b(digest_size=16)
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


@dataclass
class Timed:
    """What one timed region produced."""

    t_begin: float
    t_end: float
    #: completed units (iterations, requests, rounds)
    units: int
    #: ops per unit (64 jobs per batch round, 1 otherwise)
    ops_per_unit: int
    #: latency in seconds of each completed unit
    latencies: list[float]
    attempted: int
    #: ops shed, errored or never completed (wrong bytes are added by check)
    failed: int
    #: rounds the session executed in the region
    rounds: int
    #: workload-specific facts for the per-layer metrics
    info: dict[str, float] = dc_field(default_factory=dict)
    #: what :meth:`Workload.check` needs
    outputs: Any = None


class Workload:
    """One benchmark workload (see the subclasses' docstrings)."""

    name = ""
    why = ""
    #: what one op is
    op = ""
    backend = "tcp"
    scheme = SchemeParams(n=N_WORKERS, k=K, s=1, m=1)
    batch_window = 32
    #: the tail percentile reported as ``lat_tail_ms``
    tail_pct = 99.0
    observability = False
    audit = False

    def size(self, seconds: float, quick: bool) -> dict[str, int]:
        """How much work one repetition of ``seconds`` nominal seconds is."""
        raise NotImplementedError

    def inputs(self, seed: int, size: dict[str, int]) -> dict[str, Any]:
        """Everything the run consumes, generated from ``seed``."""
        raise NotImplementedError

    def digest(self, inp: dict[str, Any]) -> str:
        raise NotImplementedError

    def config(self, seed: int) -> SessionConfig:
        return SessionConfig(
            scheme=self.scheme,
            backend=self.backend,
            workers=fleet_specs(),
            seed=seed,
            batch_window=self.batch_window,
            observability=self.observability,
            audit=self.audit,
        )

    def warm(self, sess: Session, inp: dict[str, Any], size: dict[str, int]) -> None:
        raise NotImplementedError

    def timed(
        self, sess: Session, inp: dict[str, Any], size: dict[str, int], rec: Recorder
    ) -> Timed:
        raise NotImplementedError

    def check(self, sess: Session, inp: dict[str, Any], timed: Timed) -> int:
        """Ops whose decoded bytes differ from the reference."""
        raise NotImplementedError


# ----------------------------------------------------------------------
class TrainLogreg(Workload):
    """The paper's application: two-round logistic regression on
    GISETTE-like data, one client, strict fwd -> bwd -> end_iteration
    dependency. op = one iteration."""

    name = "train_logreg_tcp"
    why = (
        "the paper's training loop over a tcp fleet: worker kernel, encode and "
        "master-side ml work dominate, wire and gateway overhead are small"
    )
    op = "one iteration"
    scheme = SchemeParams(n=N_WORKERS, k=K, s=1, m=2)
    tail_pct = 90.0

    def size(self, seconds: float, quick: bool) -> dict[str, int]:
        if quick:
            return {"m": 400, "d": 200, "iters": 8, "warm": 2}
        return {"m": 2400, "d": 2000, "iters": max(10, round(16 * seconds)), "warm": 3}

    def inputs(self, seed: int, size: dict[str, int]) -> dict[str, Any]:
        ds = make_gisette_like(m=size["m"], d=size["d"], rng=np.random.default_rng(seed))
        return {"ds": ds, "x": ds.x_train}

    def digest(self, inp: dict[str, Any]) -> str:
        ds = inp["ds"]
        return _digest(ds.x_train, ds.y_train, ds.x_test, ds.y_test)

    def _train(self, sess: Session, inp: dict[str, Any], iters: int) -> Any:
        trainer = DistributedLogisticTrainer(
            sess, inp["ds"], LogisticConfig(iterations=iters)
        )
        return trainer.train()

    def warm(self, sess: Session, inp: dict[str, Any], size: dict[str, int]) -> None:
        # the first iterations detect the Byzantine worker and drop it
        self._train(sess, inp, size["warm"])

    def timed(
        self, sess: Session, inp: dict[str, Any], size: dict[str, int], rec: Recorder
    ) -> Timed:
        jobs: list[tuple[bool, np.ndarray, Any]] = []
        stamps: list[float] = []
        submit, end_iteration = sess.submit, sess.end_iteration

        def recording_submit(request: Any) -> Any:
            handle = submit(request)
            jobs.append((bool(request.transpose), request.operand, handle))
            return handle

        def stamped_end_iteration() -> Any:
            out = end_iteration()
            stamps.append(_now())
            return out

        rounds0 = sess.stats.rounds_executed
        history = None
        with contextlib.ExitStack() as stack:
            stack.callback(patch(sess, "submit", recording_submit))
            stack.callback(patch(sess, "end_iteration", stamped_end_iteration))
            t_begin = _now()
            try:
                with rec.span("trainer.train", "ml"):
                    history = self._train(sess, inp, size["iters"])
            except InsufficientResultsError:
                pass  # the iterations that never completed count as failed
            t_end = _now()
        edges = [t_begin] + stamps
        return Timed(
            t_begin=t_begin,
            t_end=t_end,
            units=len(stamps),
            ops_per_unit=1,
            latencies=[b - a for a, b in zip(edges, edges[1:])],
            attempted=size["iters"],
            failed=size["iters"] - len(stamps),
            rounds=sess.stats.rounds_executed - rounds0,
            info={"test_acc": float(history.final_test_acc) if history else 0.0},
            outputs=jobs,
        )

    def check(self, sess: Session, inp: dict[str, Any], timed: Timed) -> int:
        q = sess.field.q
        x = inp["x"] % q
        xt = np.ascontiguousarray(x.T)
        bad_iterations = set()
        for i, (transpose, operand, handle) in enumerate(timed.outputs):
            want = reference_product(xt if transpose else x, operand % q, q)
            if not (handle.done() and same_bytes(handle.result(), want)):
                bad_iterations.add(i // 2)
        return len(bad_iterations)


# ----------------------------------------------------------------------
class _StampedSource:
    """The load generator's own clock around a closed-loop source: it
    keeps every request it saw terminate and when."""

    def __init__(self, inner: ClosedLoopSource) -> None:
        self._inner = inner
        self.requests: list[Any] = []
        self.stamps: list[float] = []

    def initial(self) -> list[Any]:
        return self._inner.initial()

    def on_complete(self, request: Any, now: float) -> Any:
        self.requests.append(request)
        self.stamps.append(_now())
        return self._inner.on_complete(request, now)


class ServeSmall(Workload):
    """``Gateway.run`` over a tcp fleet with a tiny dataset: 16 closed-
    loop clients of two tenants, 30 % transposed requests, ``hybrid``
    batching. op = one request; latency is ``RequestOutcome.latency``."""

    name = "serve_small_tcp"
    why = (
        "tiny shares, so a round is wire, daemon, session and gateway bookkeeping and "
        "verify/decode set-up: a kernel change must not move it, a transport change must"
    )
    op = "one request"
    shape = (240, 120)
    clients = 16
    think_time = 1e-4
    #: finite deadlines make the batcher consult the session's round
    #: time estimate (whose cost grows with the round log); the linger
    #: cap keeps the bookkeeping clock within a millisecond of the wall
    deadline_slack = 60.0
    policy = {"window": 16, "linger": 1e-3}

    def size(self, seconds: float, quick: bool) -> dict[str, int]:
        if quick:
            return {"per_client": 25, "warm": 5}
        return {"per_client": max(50, round(42 * seconds)), "warm": 20}

    def inputs(self, seed: int, size: dict[str, int]) -> dict[str, Any]:
        x = np.random.default_rng(seed).integers(
            0, DEFAULT_PRIME, size=self.shape, dtype=np.int64
        )
        return {"x": x, "seed": seed}

    def _generator(self, field: Any, seed: int) -> WorkloadGenerator:
        tenants = [
            TenantSpec("free", 1.0, transpose_fraction=0.3, deadline_slack=self.deadline_slack),
            TenantSpec("pro", 3.0, transpose_fraction=0.3, deadline_slack=self.deadline_slack),
        ]
        # the arrival process is unused: a closed loop paces itself
        return WorkloadGenerator(field, self.shape, tenants, PoissonArrivals(1.0), seed=seed)

    def digest(self, inp: dict[str, Any]) -> str:
        gen = self._generator(self.config(inp["seed"]).build_field(), inp["seed"])
        requests = [gen.make_request(0.0) for _ in range(64)]
        flags = np.array([r.transpose for r in requests], dtype=np.int64)
        return _digest(inp["x"], flags, *(r.operand for r in requests))

    def _run(
        self, sess: Session, seed: int, per_client: int, rec: Recorder
    ) -> tuple[Any, _StampedSource, Gateway, float, float]:
        gen = self._generator(sess.field, seed)
        source = _StampedSource(
            ClosedLoopSource(gen, self.clients, self.think_time, per_client)
        )
        gateway = Gateway(
            sess,
            source,
            GatewayConfig(
                batch_policy="hybrid",
                policy_options=self.policy,
                tenant_weights=gen.tenant_weights,
            ),
        )
        t_begin = _now()
        with rec.span("Gateway.run", "serve"):
            report = gateway.run()
        return report, source, gateway, t_begin, _now()

    def warm(self, sess: Session, inp: dict[str, Any], size: dict[str, int]) -> None:
        self._run(sess, inp["seed"] + 1, size["warm"], Recorder())

    def timed(
        self, sess: Session, inp: dict[str, Any], size: dict[str, int], rec: Recorder
    ) -> Timed:
        rounds0 = sess.stats.rounds_executed
        report, source, gateway, t_begin, t_end = self._run(
            sess, inp["seed"], size["per_client"], rec
        )
        served = report.served
        attempted = self.clients * size["per_client"]
        stamps = source.stamps
        quarter = max(1, len(stamps) // 4)
        first = quarter / (stamps[quarter - 1] - t_begin)
        last = quarter / (stamps[-1] - stamps[-quarter - 1])
        waits = sorted(o.dispatched - o.arrival for o in served)
        return Timed(
            t_begin=t_begin,
            t_end=t_end,
            units=len(stamps),
            ops_per_unit=1,
            latencies=[o.latency for o in served],
            attempted=attempted,
            failed=attempted - len(served),
            rounds=sess.stats.rounds_executed - rounds0,
            info={
                "queue_wait_p50_ms": waits[len(waits) // 2] * 1e3 if waits else 0.0,
                "shed_frac": report.shed / max(1, report.total),
                "sustain_ratio": last / first,
                "clock_skew_frac": (report.duration - (t_end - t_begin)) / (t_end - t_begin),
            },
            outputs=(source.requests, gateway.results),
        )

    def check(self, sess: Session, inp: dict[str, Any], timed: Timed) -> int:
        requests, results = timed.outputs
        q = sess.field.q
        x = inp["x"] % q
        xt = np.ascontiguousarray(x.T)
        bad = 0
        for transpose, matrix in ((False, x), (True, xt)):
            group = [r for r in requests if r.transpose == transpose and r.request_id in results]
            if not group:
                continue
            want = reference_product(matrix, np.stack([r.operand for r in group], axis=1), q)
            for j, r in enumerate(group):
                if not same_bytes(results[r.request_id], want[:, j]):
                    bad += 1
        return bad


class ServeSmallAudited(ServeSmall):
    """The identical trace and seed with every ``obs`` consumer armed."""

    name = "serve_small_audited_tcp"
    why = (
        "the serve_small_tcp trace with observability and audit on, so the cost of the "
        "obs consumers has a workload of its own and cannot hide behind the default-off path"
    )
    observability = True
    audit = True


# ----------------------------------------------------------------------
class BatchWideSim(Workload):
    """``Session`` directly on the in-process simulator: rounds of 64
    coalesced matvec jobs, every third round transposed. Wall time is
    the benchmark's own ``perf_counter``, not the virtual clock.
    op = one job; latency is per 64-job round."""

    name = "batch_wide_sim"
    why = (
        "width-64 rounds in one process use the ff kernel, Freivalds and decode as matmul "
        "instead of matvec, bypass runtime.net and serve, and repeat within ~2 %"
    )
    op = "one job (latency per 64-job round)"
    backend = "sim"
    batch_window = 64
    tail_pct = 90.0

    def size(self, seconds: float, quick: bool) -> dict[str, int]:
        if quick:
            return {"m": 240, "d": 120, "rounds": 12, "warm": 1}
        return {"m": 1200, "d": 600, "rounds": max(10, round(10 * seconds)), "warm": 3}

    def inputs(self, seed: int, size: dict[str, int]) -> dict[str, Any]:
        rng = np.random.default_rng(seed)
        q = DEFAULT_PRIME
        m, d = size["m"], size["d"]
        x = rng.integers(0, q, size=(m, d), dtype=np.int64)
        rounds = []
        for r in range(size["warm"] + size["rounds"]):
            transpose = r % 3 == 2
            ops = rng.integers(
                0, q, size=(self.batch_window, m if transpose else d), dtype=np.int64
            )
            rounds.append((transpose, ops))
        return {"x": x, "rounds": rounds}

    def digest(self, inp: dict[str, Any]) -> str:
        return _digest(inp["x"], *(ops for _t, ops in inp["rounds"]))

    @staticmethod
    def _round(sess: Session, transpose: bool, ops: np.ndarray) -> list[np.ndarray]:
        handles = [sess.submit_matvec(op, transpose=transpose) for op in ops]
        return [h.result() for h in handles]

    def warm(self, sess: Session, inp: dict[str, Any], size: dict[str, int]) -> None:
        for transpose, ops in inp["rounds"][: size["warm"]]:
            self._round(sess, transpose, ops)

    def timed(
        self, sess: Session, inp: dict[str, Any], size: dict[str, int], rec: Recorder
    ) -> Timed:
        rounds0 = sess.stats.rounds_executed
        stamps: list[float] = []
        outputs: list[Any] = []
        failed = 0
        t_begin = _now()
        for transpose, ops in inp["rounds"][size["warm"] :]:
            try:
                outputs.append(self._round(sess, transpose, ops))
            except InsufficientResultsError:
                outputs.append(None)
                failed += self.batch_window
                continue
            stamps.append(_now())
        t_end = _now()
        edges = [t_begin] + stamps
        return Timed(
            t_begin=t_begin,
            t_end=t_end,
            units=len(stamps),
            ops_per_unit=self.batch_window,
            latencies=[b - a for a, b in zip(edges, edges[1:])],
            attempted=size["rounds"] * self.batch_window,
            failed=failed,
            rounds=sess.stats.rounds_executed - rounds0,
            outputs=outputs,
        )

    def check(self, sess: Session, inp: dict[str, Any], timed: Timed) -> int:
        q = sess.field.q
        x = inp["x"]
        xt = np.ascontiguousarray(x.T)
        bad = 0
        rounds = inp["rounds"][len(inp["rounds"]) - len(timed.outputs) :]
        for (transpose, ops), got in zip(rounds, timed.outputs):
            if got is None:
                continue  # already counted as failed
            want = reference_product(xt if transpose else x, np.ascontiguousarray(ops.T), q)
            bad += sum(not same_bytes(vec, want[:, j]) for j, vec in enumerate(got))
        return bad


WORKLOADS: dict[str, Workload] = {
    w.name: w for w in (TrainLogreg(), ServeSmall(), ServeSmallAudited(), BatchWideSim())
}
