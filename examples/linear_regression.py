"""Distributed linear regression — the session API as a generic
linear-computation service.

Trains gradient descent on squared loss with the same two-round
protocol (z = Xw, then g = X^T(z - y)) over AVCC, with one straggler
and one Byzantine worker injected, and compares against the uncoded
baseline — both described by the *same* ``SessionConfig`` with only the
``master`` name changed. Then reruns a coded round on the ``tcp``
backend: a loopback fleet of worker daemons, real wall-clock arrival
order, real early stopping — switching the ``backend`` string is the
whole swap.

Run:  python examples/linear_regression.py
"""

import time

import numpy as np

from repro.api import Session, SessionConfig, WorkerSpec
from repro.coding import SchemeParams
from repro.ff import PrimeField, ff_matvec
from repro.ml import (
    DistributedLinearRegressionTrainer,
    LinRegConfig,
    make_linreg_dataset,
)


def fault_specs(n=12):
    """One heavy straggler (worker 0) + one constant attacker (worker 5)."""
    specs = [WorkerSpec() for _ in range(n)]
    specs[0] = WorkerSpec(straggler_factor=8.0)
    specs[5] = WorkerSpec(behavior="constant", attack_value=999)
    return tuple(specs)


def main():
    ds = make_linreg_dataset(m=480, d=40, rng=np.random.default_rng(7))
    cfg = LinRegConfig(iterations=30, learning_rate=0.01)

    # compute-dominant cost constants so the straggler penalty is visible
    # at this small demo scale (see repro.experiments.common for the
    # calibration used by the paper reproductions)
    base = SessionConfig(
        scheme=SchemeParams(n=12, k=8, s=2, m=1),
        master="avcc",
        backend="sim",
        seed=4,
        workers=fault_specs(),
        cost={"worker_sec_per_mac": 2e-6, "link_latency_s": 1e-4},
    )

    print(f"dataset: {ds.name}; protocol: z = Xw, g = X^T(z - y)\n")

    histories = {}
    for method in ("avcc", "uncoded"):
        with Session.create(base.with_(master=method)) as sess:
            sess.load(ds.x_train)
            trainer = DistributedLinearRegressionTrainer(sess, ds, cfg)
            histories[method] = trainer.train()

    print(f"{'method':8s} {'train MSE':>10s} {'test MSE':>10s} {'sim time':>9s}")
    for name, h in histories.items():
        print(f"{name:8s} {h.train_loss[-1]:10.4f} {-h.test_acc[-1]:10.4f} "
              f"{h.total_time:8.2f}s")
    print("\nAVCC rejected the attacker and dodged the straggler; uncoded "
          "absorbed both (higher loss, ~8x slower).\n")

    # ---- bonus: the same service on a loopback socket fleet -------------
    field = PrimeField()
    x_q = field.asarray(ds.x_train[:400])
    w_vec = field.random(ds.d, np.random.default_rng(0))
    tcp = SessionConfig(
        scheme=SchemeParams(n=12, k=8, s=3, m=1),
        master="avcc",
        backend="tcp",
        workers=tuple(
            WorkerSpec(straggler_factor=5.0) if i == 2 else WorkerSpec()
            for i in range(12)
        ),
        backend_options={"straggle_scale": 0.1},
    )
    with Session.create(tcp) as sess:
        sess.load(x_q)
        t0 = time.perf_counter()
        handle = sess.submit_matvec(w_vec)
        z = handle.result()
        wall = time.perf_counter() - t0
    assert np.array_equal(z, ff_matvec(field, x_q, w_vec))
    print(f"tcp backend: the same avcc session used workers "
          f"{sorted(handle.record.used_workers)}")
    print(f"decoded in {wall * 1e3:.0f} ms wall — the slowed worker 2 was "
          f"cancelled, not waited for; result bit-exact.")


if __name__ == "__main__":
    main()
