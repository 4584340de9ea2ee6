"""Observability demo: request-to-round tracing + live telemetry.

One bursty multi-tenant trace is served twice against the same
simulated AVCC fleet:

1. **observability on** — ``Gateway.run`` inside a live
   ``TelemetryServer`` (port 0 picks a free port). While the service
   runs, ``/healthz``, Prometheus ``/metrics`` and ``/trace/<id>`` are
   all queryable over plain HTTP;
   afterwards one served request's *resolved* trace — gateway
   admission → queue → session → the round it rode (broadcast /
   worker compute / verify / decode) — is rendered as a timeline, and
   the full snapshot is written to ``obs_snapshot.json`` (inspect it
   later with ``repro obs obs_snapshot.json``).
2. **observability off** (the default) — the identical replay with the
   knob left off, proving the off-switch: the ServeReport is
   byte-identical, the instrumentation simply never runs.

Usage::

    python examples/observability_demo.py [--requests N]
"""

import argparse
import json
import urllib.request

import numpy as np

from repro.api import Session
from repro.experiments.common import (
    SERVING_SCALE,
    ExperimentConfig,
    make_serving_workload,
    serving_config,
)
from repro.obs.bridge import render_timeline
from repro.obs.exporter import TelemetryServer
from repro.serve import Gateway, GatewayConfig, OpenLoopSource

HYBRID = {"window": 16, "safety": 2.0, "linger": 0.02}


def build_gateway(sess, requests, tenant_weights):
    x = sess.field.random(SERVING_SCALE, np.random.default_rng(0))
    sess.load(x)
    return Gateway(
        sess,
        OpenLoopSource(requests),
        GatewayConfig(
            batch_policy="hybrid",
            policy_options=HYBRID,
            tenant_weights=tenant_weights,
        ),
    )


def replay(cfg, n_requests, observability, snapshot_path=None):
    import dataclasses

    session_cfg = dataclasses.replace(
        serving_config(cfg), observability=observability
    )
    with Session.create(session_cfg) as sess:
        generator, requests = make_serving_workload(
            sess.field, SERVING_SCALE, n_requests=n_requests
        )
        gateway = build_gateway(sess, requests, generator.tenant_weights)

        if not observability:
            return gateway.run(), None, None

        with TelemetryServer(sess.obs) as tel:
            report = gateway.run()

            def fetch(path):
                with urllib.request.urlopen(tel.url + path, timeout=10) as resp:
                    return resp.read().decode()

            health = fetch("/healthz")
            prom = fetch("/metrics")
            doc = json.loads(fetch(f"/trace/req-{report.served[0].request_id}"))
            endpoint = (tel.url, health, prom, doc)
        sess.obs.dump_path(snapshot_path)
        return report, endpoint, sess.obs


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--requests", type=int, default=48)
    parser.add_argument("--snapshot", default="obs_snapshot.json",
                        help="where to write the Observability.snapshot JSON")
    args = parser.parse_args()
    cfg = ExperimentConfig(iterations=40)

    print("== Observability demo ==")
    report_on, (url, health, prom, doc), _ = replay(
        cfg, args.requests, True, snapshot_path=args.snapshot
    )
    print(f"served {len(report_on.served)}/{report_on.total} requests "
          f"with a live telemetry endpoint at {url}")
    print(f"healthz {health.strip()}")

    print("\n-- Prometheus /metrics (excerpt) --")
    wanted = ("gateway_requests_total", "session_rounds_total",
              "gateway_request_latency_seconds_count")
    for line in prom.splitlines():
        if line.startswith(wanted):
            print(f"  {line}")

    tid = doc["trace_id"]
    names = sorted({s["name"] for s in doc["spans"]})
    print(f"\n-- /trace/{tid} spans: {', '.join(names)} --")
    print(render_timeline(doc["spans"], width=56))

    print(f"\nsnapshot written to {args.snapshot} "
          f"(render it with: repro obs {args.snapshot})")

    report_off, _, _ = replay(cfg, args.requests, False)
    on, off = report_on.to_dict(), report_off.to_dict()
    assert json.dumps(on, sort_keys=True) == json.dumps(off, sort_keys=True)
    print("\nServeReport byte-identical with observability off: the "
          "knob adds telemetry, never behavior.")


if __name__ == "__main__":
    main()
