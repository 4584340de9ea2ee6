"""``repro obs`` / ``repro audit`` — inspect a run's telemetry.

Two sources, one renderer:

* **Dump mode** — ``repro obs dump.json``: read an
  :meth:`Observability.snapshot` JSON file (written by
  ``examples/observability_demo.py`` or ``Observability.dump_path``)
  and render per-request / per-round span timelines plus a metrics
  digest.
* **Endpoint mode** — ``repro obs --endpoint http://host:port``: poll a
  live :class:`~repro.obs.exporter.TelemetryServer`; with ``--follow N``
  it tails the run, re-rendering the newest round timeline N times.

``--trace <id>`` narrows either mode to one trace.

``repro audit`` (:func:`audit_main`) works the dumped audit chains:
``verify log.jsonl`` walks every hash link (exit 1 names the first
tampered/reordered/deleted record), ``show`` renders the commitments,
and ``diff a.jsonl b.jsonl`` reports where two chains diverge.
"""

from __future__ import annotations

import argparse
import json
import time
import urllib.error
import urllib.request
from typing import Any, Iterable, Mapping

from .trace import Tracer

import sys

__all__ = ["audit_main", "main", "render_timeline"]


def render_timeline(
    spans: Iterable[Mapping[str, Any]], width: int = 64
) -> str:
    """ASCII timeline of one resolved trace (``repro obs`` CLI)."""
    spans = [dict(s) for s in spans]
    closed = [s for s in spans if s.get("t_end") is not None]
    if not closed:
        return "(no closed spans)"
    t_lo = min(s["t_start"] for s in closed)
    t_hi = max(s["t_end"] for s in closed)
    scale = (t_hi - t_lo) or 1.0
    by_id = {s["span_id"]: s for s in spans}

    def depth(s: Mapping[str, Any]) -> int:
        d, cur = 0, s
        while cur.get("parent_id") is not None and cur["parent_id"] in by_id:
            cur = by_id[cur["parent_id"]]
            d += 1
            if d > 32:
                break
        return d

    label_w = max(len("  " * depth(s) + s["name"]) for s in closed) + 2
    lines = [f"trace spans {t_lo:.6f}s .. {t_hi:.6f}s ({scale:.6f}s)"]
    for s in closed:
        lo = int((s["t_start"] - t_lo) / scale * width)
        hi = max(lo + 1, int((s["t_end"] - t_lo) / scale * width))
        bar = " " * lo + "#" * (hi - lo)
        label = ("  " * depth(s) + s["name"]).ljust(label_w)
        lines.append(f"{label}|{bar.ljust(width)}| {s['t_end'] - s['t_start']:.6f}s")
    return "\n".join(lines)


def _fetch(url: str) -> Any:
    with urllib.request.urlopen(url, timeout=10.0) as resp:
        return json.loads(resp.read().decode())


def _metrics_digest(metrics: dict[str, Any], limit: int = 12) -> str:
    lines = []
    for name in sorted(metrics)[:limit]:
        entry = metrics[name]
        for series in entry.get("series", [])[:4]:
            labels = series.get("labels", {})
            tag = ",".join(f"{k}={v}" for k, v in sorted(labels.items()))
            if "value" in series:
                val = f"{series['value']:g}"
            else:
                val = f"count={series.get('count', 0)} sum={series.get('sum', 0.0):g}"
            lines.append(f"  {name}{{{tag}}} {val}")
    return "\n".join(lines) if lines else "  (no metrics)"


def _render_traces(
    tracer: Tracer, trace_id: str | None, width: int, limit: int
) -> str:
    ids: list[str]
    if trace_id is not None:
        if not tracer.has(trace_id):
            return f"unknown trace {trace_id!r}; live: {list(tracer.trace_ids())[:8]}"
        ids = [trace_id]
    else:
        ids = [t for t in tracer.trace_ids() if not t.startswith("round-")][-limit:]
        if not ids:
            ids = list(tracer.trace_ids())[-limit:]
    blocks = []
    for tid in ids:
        spans = [s.to_dict() for s in tracer.resolved(tid)]
        blocks.append(f"== {tid} ==\n{render_timeline(spans, width=width)}")
    return "\n\n".join(blocks) if blocks else "(no traces)"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro obs", description="render telemetry dumps or poll a live endpoint"
    )
    parser.add_argument("dump", nargs="?", help="path to an Observability snapshot JSON")
    parser.add_argument("--endpoint", help="base URL of a live telemetry server")
    parser.add_argument("--trace", help="render only this trace id")
    parser.add_argument("--width", type=int, default=64, help="timeline width (chars)")
    parser.add_argument("--limit", type=int, default=4, help="max traces to render")
    parser.add_argument(
        "--follow", type=int, default=0, metavar="N",
        help="endpoint mode: poll and re-render N more times, 1s apart",
    )
    args = parser.parse_args(argv)

    if (args.dump is None) == (args.endpoint is None):
        parser.error("pass exactly one of: a dump file, or --endpoint URL")

    if args.dump is not None:
        with open(args.dump) as fp:
            snap = json.load(fp)
        tracer = Tracer.from_dump(snap.get("traces", {}))
        print("metrics:")
        print(_metrics_digest(snap.get("metrics", {})))
        print()
        print(_render_traces(tracer, args.trace, args.width, args.limit))
        return 0

    base = args.endpoint.rstrip("/")
    for tick in range(args.follow + 1):
        if tick:
            time.sleep(1.0)
        try:
            health = _fetch(f"{base}/healthz")
            print(f"[{tick}] {base} status={health.get('status')}")
            print(_metrics_digest(_fetch(f"{base}/metrics.json")))
            if args.trace is not None:
                ids = [args.trace]
            else:
                ids = _fetch(f"{base}/traces").get("traces", [])[-args.limit:]
            for tid in ids:
                trace = _fetch(f"{base}/trace/{tid}")
                print(f"\n== {tid} ==")
                print(render_timeline(trace.get("spans", []), width=args.width))
        except (urllib.error.URLError, ConnectionError, OSError, TimeoutError) as exc:
            # dead/refused/vanished endpoint: a clear diagnosis and a
            # nonzero exit, not a traceback — follow loops see this
            # when the serving run they tail finishes or crashes
            reason = getattr(exc, "reason", None) or exc
            print(
                f"error: telemetry endpoint {base} is unreachable ({reason})",
                file=sys.stderr,
            )
            return 1
    return 0


def _render_commitment(row: dict[str, Any]) -> str:
    scheme = tuple(row.get("scheme", ()))
    attested = row.get("attested", [])
    line = (
        f"[{row.get('seq'):>4}] {row.get('family', '?'):<8} "
        f"scheme={scheme} verify_ok={row.get('verify_ok')} "
        f"accepted={list(row.get('accepted', []))} "
        f"rejected={list(row.get('rejected', []))}"
    )
    if attested:
        line += f" attested={list(attested)}"
    line += (
        f"\n       out={str(row.get('output_digest', ''))[:16]}... "
        f"prev={str(row.get('prev', ''))[:16]}... "
        f"hash={str(row.get('hash', ''))[:16]}..."
    )
    return line


def audit_main(argv: list[str] | None = None) -> int:
    from .audit import ChainError, diff_chains, load_jsonl, verify_chain

    parser = argparse.ArgumentParser(
        prog="repro audit",
        description="verify, render and diff dumped audit chains",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p_verify = sub.add_parser("verify", help="walk every hash link of a chain")
    p_verify.add_argument("chain", help="path to an AuditLog JSONL dump")
    p_verify.add_argument(
        "--head", help="expected head hash from an independent channel "
        "(e.g. the live /audit endpoint) — also catches a truncated tail",
    )
    p_verify.add_argument(
        "--length", type=int, help="expected chain length (catches truncation)"
    )
    p_show = sub.add_parser("show", help="render a chain's commitments")
    p_show.add_argument("chain", help="path to an AuditLog JSONL dump")
    p_show.add_argument("--seq", type=int, help="show only this record")
    p_diff = sub.add_parser("diff", help="first divergence between two chains")
    p_diff.add_argument("chain_a")
    p_diff.add_argument("chain_b")
    args = parser.parse_args(argv)

    try:
        if args.command == "verify":
            rows = load_jsonl(args.chain)
            head = verify_chain(
                rows, expect_head=args.head, expect_length=args.length
            )
            print(f"chain OK: {len(rows)} records, head {head}")
            return 0
        if args.command == "show":
            rows = load_jsonl(args.chain)
            if args.seq is not None:
                if not 0 <= args.seq < len(rows):
                    print(
                        f"error: seq {args.seq} out of range "
                        f"(chain has {len(rows)} records)",
                        file=sys.stderr,
                    )
                    return 1
                rows = [rows[args.seq]]
            for row in rows:
                print(_render_commitment(row))
            return 0
        # diff
        a = load_jsonl(args.chain_a)
        b = load_jsonl(args.chain_b)
        differences = diff_chains(a, b)
        if not differences:
            print(f"chains identical: {len(a)} records")
            return 0
        for line in differences:
            print(line)
        return 1
    except ChainError as exc:
        print(f"chain BROKEN: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
