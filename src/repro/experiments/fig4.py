"""Fig. 4 — per-iteration cost breakdown.

Three panels, each reporting the mean per-iteration time split into the
paper's four categories (compute / communication / verification /
decoding) for AVCC, LCC and uncoded:

* (a) ``S = 0, M = 0`` — clean cluster: AVCC's verification+decoding
  shows up as (small) extra latency over the baselines;
* (b) ``S = 1, M = 2`` (reverse attack) — straggler latency dwarfs the
  verification/decoding overhead;
* (c) ``S = 2, M = 1`` (reverse attack) — same story.

The paper plots these on a log y-axis precisely because the compute
bar dominates by orders of magnitude in (b)/(c).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.core import RoundRecord
from repro.experiments.common import ExperimentConfig, run_training
from repro.experiments.report import format_table

__all__ = ["FIG4_SETTINGS", "Fig4Result", "mean_breakdown", "run_fig4"]

#: panel -> (S, M)
FIG4_SETTINGS: dict[str, tuple[int, int]] = {
    "a": (0, 0),
    "b": (1, 2),
    "c": (2, 1),
}

METHODS = ("avcc", "lcc", "uncoded")
CATEGORIES = ("compute", "communication", "verification", "decoding")


def mean_breakdown(records: Iterable[RoundRecord]) -> dict[str, float]:
    """Mean per-iteration cost split (Fig. 4's bars) from a run's round
    records: sum each category over the rounds of an iteration, in
    record order, then average over iterations."""
    per_iteration: dict[int, list[float]] = {}
    for r in records:
        sums = per_iteration.setdefault(r.iteration, [0.0, 0.0, 0.0, 0.0])
        sums[0] += r.compute_wait
        sums[1] += r.comm_time
        sums[2] += r.verify_time
        sums[3] += r.decode_time
    agg = [0.0, 0.0, 0.0, 0.0]
    for sums in per_iteration.values():
        for i, v in enumerate(sums):
            agg[i] += v
    n = len(per_iteration) or 1
    return {c: v / n for c, v in zip(CATEGORIES, agg)}


@dataclass(frozen=True)
class Fig4Result:
    panel: str
    s: int
    m: int
    #: method -> category -> mean seconds per iteration
    breakdown: dict[str, dict[str, float]]
    #: method -> final test accuracy (the captions of Fig. 4b/4c)
    accuracy: dict[str, float]

    def total(self, method: str) -> float:
        return sum(self.breakdown[method].values())

    def render(self) -> str:
        rows = []
        for method in METHODS:
            b = self.breakdown[method]
            rows.append(
                [method]
                + [f"{b[c] * 1e3:.3f}" for c in CATEGORIES]
                + [f"{self.total(method) * 1e3:.3f}", f"{self.accuracy[method]:.3f}"]
            )
        return format_table(
            ["method"] + [f"{c} (ms)" for c in CATEGORIES] + ["total (ms)", "test acc"],
            rows,
            title=f"Fig. 4({self.panel}): per-iteration breakdown, S={self.s}, M={self.m}",
        )


def run_fig4(panel: str, cfg: ExperimentConfig | None = None) -> Fig4Result:
    if panel not in FIG4_SETTINGS:
        raise ValueError(f"panel must be one of {sorted(FIG4_SETTINGS)}")
    cfg = cfg or ExperimentConfig()
    s, m = FIG4_SETTINGS[panel]
    dataset = cfg.dataset()
    breakdown = {}
    accuracy = {}
    for method in METHODS:
        history, records = run_training(
            method, cfg, dataset, s=s, m=m, attack="reverse"
        )
        breakdown[method] = mean_breakdown(records)
        accuracy[method] = history.plateau_accuracy()
    return Fig4Result(panel=panel, s=s, m=m, breakdown=breakdown, accuracy=accuracy)


def main():  # pragma: no cover - CLI entry
    cfg = ExperimentConfig()
    for panel in FIG4_SETTINGS:
        print(run_fig4(panel, cfg).render())
        print()


if __name__ == "__main__":  # pragma: no cover
    main()
