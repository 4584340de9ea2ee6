"""The repo's end-to-end benchmark (described by ``BENCHMARK.json``).

Four closed-loop wall-clock workloads over the public session, gateway
and trainer APIs; six bounded end-to-end metrics measured with tracing
off; a per-layer budget from a separate traced run (spans recorded by
this package around public boundaries, plus replay probes for layers
that run inside the worker daemons or behind module-level imports).
See ``README.md`` next to this file.
"""
