#!/usr/bin/env python
"""Compare measured bench metrics against the committed baselines.

Usage::

    python benchmarks/check_perf_regression.py MEASURED.json [BASELINE.json]
        [--select PATTERN ...]

``MEASURED.json`` is the file the benches wrote via ``BENCH_METRICS_OUT``
(see ``benchmarks/_metrics.py``); ``BASELINE.json`` defaults to
``benchmarks/baselines/metrics.json``. Every gated baseline metric must
be present in the measured file and must not fall below
``value * (1 - tolerance)`` — all gated metrics are higher-is-better
(batching factor, simulated-clock speedups, occupancy, SLO attainment,
success fractions, byte-count headrooms). Measured metrics *above*
baseline never fail: improvements land freely.

``--select`` (repeatable, :mod:`fnmatch` patterns) restricts the gate
to matching baseline keys — how CI jobs that each run a *subset* of the
benches share one baseline file (e.g. ``--select 'tcp_*'`` in the
``bench-tcp`` job). Without it, every baseline key is gated. Every
pattern must match at least one baseline key: a pattern left behind
by a deleted metric would otherwise gate nothing, silently.

Failure modes are reported by name, never as a raw ``KeyError``:

* a ``--select`` pattern that **matches no baseline key** is named;
* baseline keys **missing** from the measured file are listed together
  (the usual cause: a bench stopped emitting a metric, or the CI job's
  ``--select`` set and the benches it runs drifted apart);
* measured keys **new** to the baseline are listed as a warning — they
  pass, but should be added to ``baselines/metrics.json`` so they
  become regression-gated;
* malformed baseline entries (a dict without ``value``/``tolerance``)
  name the offending key.

Baseline-update workflow
------------------------
Baseline entries may be written either as ``{"value": V, "tolerance":
T}`` or as a bare number (the flat format ``BENCH_METRICS_OUT`` emits);
bare numbers get ``DEFAULT_TOLERANCE``. To bump after an intentional
perf change, regenerate and commit::

    BENCH_METRICS_OUT=benchmarks/baselines/metrics.json \\
        PYTHONPATH=src python -m pytest benchmarks/bench_session.py \\
        benchmarks/bench_pipeline.py benchmarks/bench_serving.py -q

``record_metric`` merges into the existing file: the ``_comment`` entry
and any ``{value, tolerance}`` entries it does not overwrite survive;
overwritten entries become bare numbers (re-wrap them by hand to pin a
non-default tolerance). New metrics emitted by a bench must be added to
the baseline file (and, if CI gates them in a ``--select``-ed job, to
that job's patterns) in the same PR that introduces them.

Exit code 0 = within tolerance; 1 = regression, missing metric,
unmatched pattern or malformed baseline; 2 = bad invocation.
"""

from __future__ import annotations

import argparse
import json
import sys
from fnmatch import fnmatch
from pathlib import Path

DEFAULT_BASELINE = Path(__file__).parent / "baselines" / "metrics.json"
#: tolerance applied to bare-number baseline entries
DEFAULT_TOLERANCE = 0.15


def check(
    measured_path: str,
    baseline_path: str | None = None,
    select: list[str] | None = None,
) -> int:
    measured = json.loads(Path(measured_path).read_text())
    baseline = json.loads(Path(baseline_path or DEFAULT_BASELINE).read_text())

    gated = {
        name: spec
        for name, spec in baseline.items()
        if not name.startswith("_")
        and (not select or any(fnmatch(name, pat) for pat in select))
    }

    failures = [
        f"--select {pat!r} matches no baseline key"
        for pat in select or ()
        if not any(fnmatch(name, pat) for name in gated)
    ]
    missing = [name for name in gated if name not in measured]
    for name in missing:
        failures.append(f"{name}: baseline metric missing from measured metrics")
    for name, spec in gated.items():
        if name in missing:
            continue
        if isinstance(spec, dict):
            try:
                value, tolerance = float(spec["value"]), float(spec["tolerance"])
            except KeyError as exc:
                failures.append(
                    f"{name}: malformed baseline entry {spec!r} "
                    f"(missing {exc}; use {{'value': V, 'tolerance': T}} or a bare number)"
                )
                continue
        else:  # flat format, as emitted by BENCH_METRICS_OUT
            value, tolerance = float(spec), DEFAULT_TOLERANCE
        floor = value * (1.0 - tolerance)
        try:
            got = float(measured[name])
        except (TypeError, ValueError):
            failures.append(
                f"{name}: measured value {measured[name]!r} is not a number"
            )
            continue
        status = "ok" if got >= floor else "REGRESSION"
        print(
            f"{name}: measured {got:.4f}, baseline {value:.4f} "
            f"(floor {floor:.4f}, tol {tolerance:.0%}) ... {status}"
        )
        if got < floor:
            failures.append(
                f"{name}: {got:.4f} < floor {floor:.4f} "
                f"(baseline {value:.4f}, tolerance {tolerance:.0%})"
            )

    new = sorted(
        name
        for name in measured
        if not name.startswith("_") and name not in baseline
    )
    if new:
        print(
            "\nWARNING: measured metrics not in the baseline (passing, but "
            "ungated — add them to benchmarks/baselines/metrics.json):"
        )
        for name in new:
            print(f"  + {name} = {measured[name]}")

    if not gated:
        failures.append("no baseline key is gated")
    if failures:
        print("\nperf regression gate FAILED:", file=sys.stderr)
        for f in failures:
            print(f"  - {f}", file=sys.stderr)
        return 1
    print("\nperf regression gate passed")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Gate measured bench metrics against committed baselines."
    )
    parser.add_argument("measured", help="JSON written via BENCH_METRICS_OUT")
    parser.add_argument(
        "baseline",
        nargs="?",
        default=None,
        help=f"baseline JSON (default: {DEFAULT_BASELINE})",
    )
    parser.add_argument(
        "--select",
        action="append",
        default=None,
        metavar="PATTERN",
        help="gate only baseline keys matching this fnmatch pattern "
        "(repeatable; default: all keys)",
    )
    args = parser.parse_args(argv)
    return check(args.measured, args.baseline, args.select)


if __name__ == "__main__":
    sys.exit(main())
