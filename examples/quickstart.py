"""Quickstart: verified coded matrix-vector multiplication through the
high-level Session API, with stragglers and a Byzantine worker, on your
choice of execution backend.

Five lines is the whole pipeline::

    cfg = SessionConfig(scheme=SchemeParams(n=6, k=3, s=1, m=1), ...)
    with Session.create(cfg) as sess:
        sess.load(x)                        # encode + ship shares + keys
        z = sess.submit_matvec(w).result()  # verified, exact X @ w

Under the hood the session runs the paper's core protocol: Lagrange/MDS
encoding (Fig. 1), per-worker Freivalds keys (Eqs. 6-7), one
broadcast-compute-collect round, verification in arrival order with
Byzantine rejection (Eqs. 8-10), early cancellation the moment K
results pass, and exact decoding from the fastest K verified results.
The backend string is the only thing that changes between a
deterministic simulation and a real TCP socket fleet with one process
per worker (``tcp`` spawns loopback worker daemons speaking the
binary wire protocol — the same daemons you would start on other
hosts with ``python -m repro.runtime.net.worker``); the layer-by-layer
wiring remains available for study in `src/repro`.

Run:  python examples/quickstart.py [sim|tcp]
                                    [--seed S] [--n N] [--k K]
                                    [--inflight W]

``--inflight W`` (W >= 2) additionally serves a burst of mixed
fwd/bwd requests through the pipelined round scheduler: up to W
rounds stay in flight, workers compute round i+1 while the master
verifies/decodes round i, and the results stay byte-identical to
serial execution.
"""

import argparse

import numpy as np

from repro.api import Session, SessionConfig, WorkerSpec
from repro.coding import SchemeParams
from repro.ff import PrimeField, ff_matvec


def parse_args():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "backend",
        nargs="?",
        default="sim",
        choices=("sim", "tcp"),
        help="execution backend (default: sim; tcp spawns a loopback socket fleet)",
    )
    parser.add_argument("--seed", type=int, default=0, help="rng seed")
    parser.add_argument("--n", type=int, default=6, help="workers (code length)")
    parser.add_argument("--k", type=int, default=3, help="data partitions (code dim)")
    parser.add_argument(
        "--inflight",
        type=int,
        default=1,
        help="pipelined-scheduler window (>= 2 demos round pipelining)",
    )
    return parser.parse_args()


def main():
    args = parse_args()
    rng = np.random.default_rng(args.seed)
    field = PrimeField()  # the paper's q = 2**25 - 39
    print(f"backend: {args.backend}; field: F_q with q = {field.q}")

    # ---- the computation we want: z = X @ w over F_q ----------------
    m, d = 4 * args.k, 8
    x = field.random((m, d), rng)
    w = field.random(d, rng)
    expected = ff_matvec(field, x, w)

    # ---- one config describes the whole deployment ------------------
    # worker 1 straggles 10x, worker 2 sends forged results
    workers = [WorkerSpec() for _ in range(args.n)]
    workers[1] = WorkerSpec(straggler_factor=10.0)
    workers[2] = WorkerSpec(behavior="reverse")
    cfg = SessionConfig(
        scheme=SchemeParams(n=args.n, k=args.k, s=1, m=1),
        master="avcc",
        backend=args.backend,
        seed=args.seed,
        workers=tuple(workers),
        batch_window=1,  # one round per request: show pipelining, not batching
        max_inflight_rounds=max(1, args.inflight),
        # keep the injected 10x straggler's sleep short on the socket fleet
        backend_options={} if args.backend == "sim" else {"straggle_scale": 0.01},
    )
    print(f"scheme: (N={args.n}, K={args.k}, S=1, M=1) — Eq. (2) "
          f"needs N >= {cfg.scheme.avcc_required_n}")

    # ---- create the service, load data, submit ----------------------
    with Session.create(cfg) as sess:
        sess.load(x)   # encode into N shares, ship, generate Freivalds keys
        handle = sess.submit_matvec(w)
        z = handle.result()
        record = handle.record

        # ---- what the service did, from its own telemetry -----------
        print(f"\nround used workers {list(record.used_workers)} "
              f"({record.n_verified} verified of {record.n_collected} collected)")
        for wid in record.rejected_workers:
            print(f"  worker {wid} REJECTED (Byzantine) — forgery caught "
                  f"by its Freivalds key")
        unused = [
            wid for wid in range(args.n)
            if wid not in record.used_workers and wid not in record.rejected_workers
        ]
        if unused:
            print(f"  worker(s) {unused} never waited for — the round was "
                  f"cancelled at K verified results (the injected straggler, "
                  f"worker 1, is among them).")

        # ---- optional: pipeline a mixed-family burst -----------------
        if args.inflight >= 2:
            pipelined_burst(sess, field, x, rng, args.inflight)
        print(sess.stats.summary())

    assert np.array_equal(z, expected)
    print(f"\ndecoded X@w from the fastest {args.k} verified results — bit-exact.")


def pipelined_burst(sess, field, x, rng, window):
    """Serve alternating fwd/bwd requests with up to ``window`` rounds
    in flight (sess was created with max_inflight_rounds=window)."""
    m, d = x.shape
    xt = np.ascontiguousarray(x.T)
    jobs = []
    for j in range(2 * window):
        if j % 2 == 0:
            op = field.random(d, rng)
            jobs.append((op, sess.submit_matvec(op), ff_matvec(field, x, op)))
        else:
            op = field.random(m, rng)
            jobs.append(
                (op, sess.submit_matvec(op, transpose=True), ff_matvec(field, xt, op))
            )
    sess.flush()
    print(f"\npipelined burst: {len(jobs)} mixed fwd/bwd requests, "
          f"{sess.rounds_in_flight()} rounds in flight after flush")
    for _, handle, expected in jobs:
        assert np.array_equal(handle.result(), expected)
    stats = sess.stats
    print(f"  pipeline occupancy {stats.pipeline_occupancy:.2f}, "
          f"max depth {stats.max_inflight_depth}, "
          f"{stats.rounds_overlapped} rounds overlapped — all results bit-exact")


if __name__ == "__main__":
    main()
