"""Compare two result files of ``run.py``: ``compare.py a.json b.json``.

``a`` is the parent, ``b`` the change. Each workload is its own row.
For every end-to-end metric the medians are compared against the bound
``BENCHMARK.json`` fixes for it:

* **regression** — ``b`` is worse than ``a`` by more than the bound;
* **unresolved** — the runs' own spread (inter-quartile distance over
  the median, of either file) exceeds the bound, so the comparison
  decides nothing; this is *not* reported as unchanged;
* **ok** — neither.

A higher ``fail_frac`` is always a regression. Exit status is 1 on any
regression, 0 otherwise; unresolved rows are listed but do not fail.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parents[2]


def relative_worsening(a: float, b: float, better: str) -> float:
    """By what share of ``a`` the value ``b`` is worse (negative when
    it is better)."""
    if a == 0:
        return 0.0 if b == 0 else float("inf")
    change = (b - a) / abs(a)
    return change if better == "lower" else -change


def own_spread(row: dict[str, Any]) -> float:
    return (row["q3"] - row["q1"]) / row["median"] if row["median"] else 0.0


def compare(a: dict[str, Any], b: dict[str, Any], spec: dict[str, Any]) -> list[dict[str, Any]]:
    rows = []
    for name, wa in a["workloads"].items():
        wb = b["workloads"].get(name)
        if wb is None:
            rows.append({"workload": name, "metric": "*", "verdict": "missing in b"})
            continue
        for metric in spec["end_to_end"]:
            ra, rb = wa["end_to_end"][metric["name"]], wb["end_to_end"][metric["name"]]
            worse = relative_worsening(ra["median"], rb["median"], metric["better"])
            spread = max(own_spread(ra), own_spread(rb))
            if spread > metric["bound"]:
                verdict = "unresolved"
            elif worse > metric["bound"]:
                verdict = "regression"
            else:
                verdict = "ok"
            rows.append({
                "workload": name, "metric": metric["name"], "unit": metric["unit"],
                "a": ra["median"], "b": rb["median"], "worse": worse,
                "spread": spread, "bound": metric["bound"], "verdict": verdict,
            })
        verdict = "regression" if wb["fail_frac"] > wa["fail_frac"] else "ok"
        rows.append({
            "workload": name, "metric": "fail_frac", "unit": "1",
            "a": wa["fail_frac"], "b": wb["fail_frac"], "worse": 0.0,
            "spread": 0.0, "bound": 0.0, "verdict": verdict,
        })
    return rows


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("a", type=Path, help="result file of the parent")
    ap.add_argument("b", type=Path, help="result file of the change")
    args = ap.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    rows = compare(json.loads(args.a.read_text()), json.loads(args.b.read_text()), spec)
    print(f"{'workload':26s} {'metric':14s} {'a':>12s} {'b':>12s} {'worse':>8s} "
          f"{'spread':>8s} {'bound':>6s}  verdict")
    for r in rows:
        if "a" not in r:
            print(f"{r['workload']:26s} {r['metric']:14s} {r['verdict']}")
            continue
        print(f"{r['workload']:26s} {r['metric']:14s} {r['a']:12.4f} {r['b']:12.4f} "
              f"{r['worse'] * 100:7.1f}% {r['spread'] * 100:7.1f}% {r['bound'] * 100:5.0f}%  "
              f"{r['verdict']}")
    bad = [r for r in rows if r["verdict"] not in ("ok", "unresolved")]
    unresolved = [r for r in rows if r["verdict"] == "unresolved"]
    print(f"\n{len(bad)} regressions, {len(unresolved)} unresolved, "
          f"{len(rows) - len(bad) - len(unresolved)} ok")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
