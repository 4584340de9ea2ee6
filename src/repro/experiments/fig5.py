"""Fig. 5 — dynamic AVCC vs Static VCC.

The paper's exemplary scenario: start with ``(N=12, K=9, S=2, M=1)``;
at iteration 1 the system encounters **three** stragglers and **one**
Byzantine node. AVCC drops the Byzantine worker, recognizes that
``A_t = 12 − 1 − 3 − 9 = −1 < 0`` and re-encodes to
``(N=11, K=8)``, paying a one-time share-shipment cost; Static VCC
keeps ``(12, 9)`` and waits for the fastest straggler every iteration.
Over 50 iterations dynamic coding wins despite the re-encode bump
(~41 s cost vs ~54 s net saving at the paper's scale).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.common import ExperimentConfig, run_training
from repro.experiments.report import format_table
from repro.ml.trainer import TrainingHistory

__all__ = ["Fig5Result", "run_fig5"]


@dataclass(frozen=True)
class Fig5Result:
    avcc: TrainingHistory
    static: TrainingHistory
    reencode_cost: float       # the one-time bump
    reencode_iteration: int    # when it happened
    net_saving: float          # static total - avcc total

    def render(self) -> str:
        rows = [
            ["AVCC (dynamic)", f"{self.avcc.total_time:.2f}",
             str(self.avcc.schemes[-1]), f"{self.reencode_cost:.2f}"],
            ["Static VCC", f"{self.static.total_time:.2f}",
             str(self.static.schemes[-1]), "0.00"],
        ]
        table = format_table(
            ["method", "total time (s)", "final scheme", "re-encode cost (s)"],
            rows,
            title="Fig. 5: dynamic coding vs Static VCC",
        )
        return (
            f"{table}\n"
            f"one-time re-encode at iteration {self.reencode_iteration}; "
            f"net saving {self.net_saving:.2f}s over "
            f"{self.avcc.iterations()} iterations"
        )


def run_fig5(cfg: ExperimentConfig | None = None) -> Fig5Result:
    """Run the Fig. 5 scenario for both AVCC and Static VCC."""
    cfg = cfg or ExperimentConfig()
    # The scenario needs three *heavy* stragglers (the paper's narrative:
    # the scheme "is no longer able to handle 3 stragglers"); the default
    # factor set includes a mild 1.3x worker that the latency-based
    # detector rightly ignores, so override with three genuine laggards.
    cfg = cfg.with_(straggler_factors=(8.0, 6.0, 7.0))
    dataset = cfg.dataset()

    avcc, static = (
        run_training(
            method,
            cfg,
            dataset,
            s=2,
            m=1,
            n_stragglers=3,
            n_byzantine=1,
            attack="constant",
            intermittent=False,  # persistent faults, as in the paper's scenario
        )[0]
        for method in ("avcc", "static_vcc")
    )
    reencode_iter = next(
        (i for i, t in enumerate(avcc.reencode_times) if t > 0), -1
    )
    reencode_cost = sum(avcc.reencode_times)
    return Fig5Result(
        avcc=avcc,
        static=static,
        reencode_cost=reencode_cost,
        reencode_iteration=reencode_iter,
        net_saving=static.total_time - avcc.total_time,
    )


def main():  # pragma: no cover - CLI entry
    print(run_fig5().render())


if __name__ == "__main__":  # pragma: no cover
    main()
