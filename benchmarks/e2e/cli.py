"""Command line of the benchmark.

``run.py --workload W --seed N --seconds S --trace 0|1`` measures one
workload in this process and prints every metric by name with its
unit, then one JSON object on the last line (the ``BENCHMARK.json``
contract). Without ``--workload`` it runs every workload — each run in
its own fresh subprocess, untraced ``--repeat`` times on consecutive
seeds and traced once — prints the tables and writes one JSON result.
(A *run* already repeats its work five times; ``--repeat`` repeats runs.)
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any

from e2e import measure
from e2e.layers import LAYERS
from e2e.stats import quartiles
from e2e.workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]

#: deadline of one run's subprocess (a run takes 15-40 s; the contract allows 180 s)
RUN_DEADLINE_S = 170.0


def load_spec() -> dict[str, Any]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    if names != list(WORKLOADS):
        raise SystemExit(f"BENCHMARK.json lists {names}, the code has {list(WORKLOADS)}")
    return spec


def main(argv: list[str] | None = None) -> int:
    spec = load_spec()
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=list(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--repeat", type=int, default=1, help="untraced runs per workload")
    ap.add_argument("--quick", action="store_true", help="toy sizes, a smoke run in <30 s")
    ap.add_argument("--out", type=Path, help="where the all-workloads run writes its JSON")
    ap.add_argument("--dump", type=Path, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    # a terminated run unwinds like an interrupted one: sessions close,
    # and the all-workloads mode takes its child's process group down
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if args.workload:
        return run_one(spec, args)
    return run_all(spec, args)


# ----------------------------------------------------------------------
# one workload, in this process
# ----------------------------------------------------------------------
def run_one(spec: dict[str, Any], args: argparse.Namespace) -> int:
    run = measure.traced_run if args.trace else measure.untraced_run
    try:
        result = run(args.workload, args.seed, args.seconds, args.quick)
    finally:
        killed = measure.reap_fleets()
        if killed:
            print(f"killed {killed} leftover worker daemons", file=sys.stderr)
    declared = spec["per_layer" if args.trace else "end_to_end"]
    missing = {m["name"] for m in declared} ^ set(result["metrics"])
    if missing:
        raise SystemExit(f"metrics differ from BENCHMARK.json: {sorted(missing)}")
    print(f"# {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    for key, value in result["how"].items():
        print(f"#   {key}: {value}")
    metrics = {}
    for m in declared:
        value = float(result["metrics"][m["name"]])
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"{m['name']:42s} {value:16.6f} {m['unit']}")
    print(f"{'fail_frac':42s} {result['failed'] / result['attempted']:16.6f} 1")
    if args.dump:
        args.dump.write_text(json.dumps({**result, "metrics": metrics}))
    line = {k: result[k] for k in ("correct", "attempted", "failed")}
    print(json.dumps({**line, "metrics": metrics}))
    return 0


# ----------------------------------------------------------------------
# every workload, one subprocess per run
# ----------------------------------------------------------------------
def run_all(spec: dict[str, Any], args: argparse.Namespace) -> int:
    out_path = args.out or HERE / "results" / f"run-seed{args.seed}.json"
    out_path.parent.mkdir(parents=True, exist_ok=True)
    result: dict[str, Any] = {
        "schema": 1,
        "seed": args.seed,
        "seconds": args.seconds,
        "repeat": args.repeat,
        "quick": args.quick,
        "started": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "workloads": {},
    }
    with tempfile.TemporaryDirectory(dir=out_path.parent) as tmp:
        for name in WORKLOADS:
            runs = [
                _spawn(args, name, args.seed + rep, 0, Path(tmp) / "run.json")
                for rep in range(args.repeat)
            ]
            traced = _spawn(args, name, args.seed, 1, Path(tmp) / "run.json")
            spans = traced.pop("spans")
            (out_path.parent / f"{out_path.stem}.{name}.spans.json").write_text(
                json.dumps(spans)
            )
            result["workloads"][name] = _summarize(runs, traced)
            _print_workload(name, result["workloads"][name])
    out_path.write_text(json.dumps(result, indent=1))
    print(f"\nwrote {out_path}")
    bad = [n for n, w in result["workloads"].items() if w["fail_frac"] > 0 or not w["correct"]]
    if bad:
        print(f"FAILED ops or wrong bytes on: {bad}")
    return 1 if bad else 0


def _spawn(
    args: argparse.Namespace, name: str, seed: int, trace: int, dump: Path
) -> dict[str, Any]:
    """One run in a fresh interpreter, in its own process group so that
    a timeout or Ctrl-C takes its worker daemons down with it."""
    cmd = [
        sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
        "--seconds", str(args.seconds), "--trace", str(trace), "--dump", str(dump),
    ] + (["--quick"] if args.quick else [])
    print(f"\n$ run.py --workload {name} --seed {seed} --trace {trace}", flush=True)
    proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL, start_new_session=True)
    try:
        code = proc.wait(timeout=RUN_DEADLINE_S)
    except BaseException:
        _stop_group(proc)
        raise
    if code != 0:
        raise SystemExit(f"{name} (seed {seed}, trace {trace}) exited with {code}")
    return json.loads(dump.read_text())


def _stop_group(proc: subprocess.Popen) -> None:
    for sig in (signal.SIGTERM, signal.SIGKILL):
        try:
            os.killpg(proc.pid, sig)
        except OSError:
            return
        try:
            proc.wait(timeout=5.0)
            return
        except subprocess.TimeoutExpired:
            continue


def _summarize(runs: list[dict[str, Any]], traced: dict[str, Any]) -> dict[str, Any]:
    end_to_end = {}
    for name, first in runs[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in runs]
        q1, med, q3 = quartiles(values)
        end_to_end[name] = {
            "unit": first["unit"], "median": med, "q1": q1, "q3": q3, "values": values,
        }
    attempted = sum(r["attempted"] for r in runs) + traced["attempted"]
    failed = sum(r["failed"] for r in runs) + traced["failed"]
    return {
        "correct": all(r["correct"] for r in runs) and traced["correct"],
        "attempted": attempted,
        "failed": failed,
        "fail_frac": failed / attempted,
        "end_to_end": end_to_end,
        "per_layer": traced["metrics"],
        "phases": traced["phases"],
        "how": {"untraced": [r["how"] for r in runs], "traced": traced["how"]},
    }


def _print_workload(name: str, w: dict[str, Any]) -> None:
    how = w["how"]["untraced"][0]
    print(f"== {name}: {how['repetitions']} repetitions, {how['ops']} ops ({how['op']}),"
          f" {how['latency_samples']} latency samples, tail = p{how['tail_percentile']:g}")
    for metric, row in w["end_to_end"].items():
        print(f"  {metric:40s} {row['median']:14.4f} {row['unit']:6s}"
              f" [q1 {row['q1']:.4f}, q3 {row['q3']:.4f}, n={len(row['values'])}]")
    print(f"  {'fail_frac':40s} {w['fail_frac']:14.4f} 1      ({w['failed']}/{w['attempted']} ops)")
    print("  -- per layer (traced run) --")
    for metric, row in w["per_layer"].items():
        if not metric.startswith("share."):
            print(f"  {metric:40s} {row['value']:14.4f} {row['unit']}")
    print("  -- share of the traced timed region, by layer self time --")
    for layer in LAYERS:
        print(f"  {layer:40s} {w['per_layer'][f'share.{layer}']['value'] * 100:13.1f}%")
    print("  -- Fig. 4 phases: one-time seconds, then ms per op --")
    for phase, value in w["phases"].items():
        print(f"  {phase:40s} {value:14.4f}")
