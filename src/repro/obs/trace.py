"""Span-based request tracing.

A *trace* is a list of spans sharing a trace id; a *span* is a named
``[t_start, t_end]`` interval with a parent pointer and an attribute
dict. Request traces are born at gateway admission (``req-<id>``) and
extended by ``Session.submit``; the per-round forest (round →
broadcast/collect/worker/verify/decode, with worker-daemon sub-spans
shipped back over the wire) is recorded **once** per round in its own
``round-<n>`` trace, and each request span that rode the round carries
a ``link`` attribute pointing at it. That keeps the hot path O(1) per
request per round; :meth:`Tracer.resolved` splices linked round trees
back under the linking span at read time, which is what the
``/trace/<id>`` endpoint and the completeness tests consume.

The write path is an **event log**: ``begin``/``end``/``add`` append
small tuples to an append-only list (span ids come eagerly from one
atomic counter) and return integer span ids; :class:`Span` objects are
materialized lazily, the first time anything *reads* the tracer. Per
recorded event the serving hot path pays one counter bump and one list
append — the bookkeeping (parent wiring, per-trace grouping, round
forests, eviction) runs at read time, off the request path. Every read
API drains the log first, so readers always see a consistent store.

Span timestamps are whatever clock the caller supplies — the backend
clock, so virtual seconds on ``sim`` and wall seconds elsewhere. The
tracer never reads a clock itself (that would break sim determinism).
"""

from __future__ import annotations

import itertools
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Iterable, Mapping, Sequence

if TYPE_CHECKING:
    from repro.core.results import RoundRecord

__all__ = ["Span", "Tracer", "round_forest"]

#: attribute key marking a span as a pointer into another trace
LINK_ATTR = "link"

# event-log opcodes (first tuple element)
_BEGIN = 0  # (_BEGIN, sid, trace_id, name, t_start, parent_id, attrs|None)
_END = 1  # (_END, sid, t_end, attrs|None)
_ADD = 2  # (_ADD, sid, trace_id, name, t0, t1, parent_id, attrs|None)
_ROUND = 4  # (_ROUND, trace_id, record, worker_spans|None)
_REQ2 = 5  # (_REQ2, root_sid, child_sid, trace_id, root_name, child_name, t, root_attrs|None, child_attrs|None)
_LINKM = 6  # (_LINKM, contexts, t0, t1, link_tid, round_name)
_ENDM = 7  # (_ENDM, span_ids, t_end)

#: pending events past this size trigger an inline (amortized) drain,
#: bounding log memory on long runs that are never read mid-flight
_DRAIN_HIGH_WATER = 65536


@dataclass
class Span:
    """One timed operation. Mutable: ``t_end`` is filled at close."""

    span_id: int
    trace_id: str
    name: str
    t_start: float
    t_end: float | None = None
    parent_id: int | None = None
    attrs: dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float | None:
        return None if self.t_end is None else self.t_end - self.t_start

    def to_dict(self) -> dict[str, Any]:
        return {
            "span_id": self.span_id,
            "trace_id": self.trace_id,
            "name": self.name,
            "t_start": self.t_start,
            "t_end": self.t_end,
            "parent_id": self.parent_id,
            "attrs": dict(self.attrs),
        }


def round_forest(
    record: RoundRecord,
    worker_spans: Mapping[int, Sequence[Sequence[Any]]] | None = None,
) -> list[dict[str, Any]]:
    """Lower one finalized round into a local-parent span forest
    (round → broadcast / collect / worker:<id> / verify / decode), the
    tree :meth:`Tracer.record_round` stores once per round. The round
    span's attrs carry the record's cost fields.

    ``worker_spans`` maps worker id → ``[[name, t0, t1], ...]`` with
    times relative to the daemon's frame-receipt instant; they are
    anchored so the last sub-span ends at the master-observed arrival,
    putting master-side wait and worker-side truth on one timeline.
    """
    t0, t3 = record.t_start, record.t_end

    def clamp(a: float, b: float) -> tuple[float, float]:
        a = min(max(a, t0), t3)
        return a, min(max(b, a), t3)

    forest: list[dict[str, Any]] = [
        {
            "name": "round",
            "t_start": t0,
            "t_end": t3,
            "parent": None,
            "attrs": {
                "round_name": record.round_name,
                "iteration": record.iteration,
                "compute_wait": record.compute_wait,
                "comm_time": record.comm_time,
                "verify_time": record.verify_time,
                "decode_time": record.decode_time,
                "n_collected": record.n_collected,
                "n_verified": record.n_verified,
                "n_rejected": record.n_rejected,
            },
        }
    ]
    b0, b_end = clamp(t0, t0 + record.comm_time)
    forest.append(
        {"name": "round.broadcast", "t_start": b0, "t_end": b_end, "parent": 0}
    )
    c0, c_end = clamp(b_end, b_end + record.compute_wait)
    collect_idx = len(forest)
    forest.append(
        {"name": "round.collect", "t_start": c0, "t_end": c_end, "parent": 0}
    )
    used = set(record.used_workers)
    for wid, latency in record.worker_latencies:
        # capped at the collect window: a straggler arriving after the
        # master stopped waiting still nests gap-free (the raw latency
        # survives in the attrs)
        w0 = min(max(b_end, t0), c_end)
        w_end = min(max(b_end + latency, w0), c_end)
        worker_idx = len(forest)
        forest.append(
            {
                "name": f"worker:{wid}",
                "t_start": w0,
                "t_end": w_end,
                "parent": collect_idx,
                "attrs": {
                    "worker_id": wid,
                    "used": wid in used,
                    "latency": latency,
                },
            }
        )
        subs = (worker_spans or {}).get(wid) or ()
        if subs:
            # anchor daemon-relative offsets so the last sub-span ends
            # at the master-observed arrival time
            anchor = w_end - float(subs[-1][2])
            for name, r0, r1 in subs:
                s0 = max(w0, anchor + float(r0))
                s1 = min(w_end, max(anchor + float(r1), s0))
                forest.append(
                    {
                        "name": str(name),
                        "t_start": s0,
                        "t_end": s1,
                        "parent": worker_idx,
                    }
                )
    v0, v_end = clamp(c_end, c_end + record.verify_time)
    forest.append({"name": "round.verify", "t_start": v0, "t_end": v_end, "parent": 0})
    d0, d_end = clamp(v_end, v_end + record.decode_time)
    forest.append({"name": "round.decode", "t_start": d0, "t_end": d_end, "parent": 0})
    return forest


class Tracer:
    """Thread-safe bounded in-memory span store.

    Bounded by ``max_traces``: when a new trace id arrives past the
    bound the oldest trace is evicted wholesale (requests age out in
    admission order under sustained load, never mid-trace truncation).
    Span ids come from one global counter, so ids are unique across
    traces — link resolution can splice foreign spans without remaps.

    Writes (``begin``/``end``/``add``/``record_round`` and the
    batched request/link events) are cheap log appends returning integer span
    ids; reads drain the log into :class:`Span` objects first.
    CPython's GIL makes the bare appends safe from any thread; the
    lock only serializes draining.
    """

    def __init__(self, max_traces: int = 4096) -> None:
        if max_traces < 1:
            raise ValueError("max_traces must be >= 1")
        self.max_traces = max_traces
        self._lock = threading.Lock()
        self._traces: "OrderedDict[str, list[Span]]" = OrderedDict()
        self._ids = itertools.count(1)
        self._log: list[tuple] = []
        self._cursor = 0
        self._roots: dict[str, int] = {}  # trace id -> root span id
        self._open: dict[int, Span] = {}  # materialized, not yet ended

    # -- recording (hot path: one id bump + one list append) -----------
    def begin(
        self,
        trace_id: str,
        name: str,
        t_start: float,
        parent_id: int | None = None,
        **attrs: Any,
    ) -> int:
        """Open a span; returns its id (parent handle for children)."""
        sid = next(self._ids)
        if parent_id is None and trace_id not in self._roots:
            self._roots[trace_id] = sid
        self._log.append((_BEGIN, sid, trace_id, name, t_start, parent_id, attrs or None))
        return sid

    def end(self, span: int, t_end: float, **attrs: Any) -> int:
        """Close a span by id. Ending an unknown (or evicted) id is a
        no-op; ending twice keeps the first close."""
        self._log.append((_END, span, t_end, attrs or None))
        return span

    def add(
        self,
        trace_id: str,
        name: str,
        t_start: float,
        t_end: float,
        parent_id: int | None = None,
        **attrs: Any,
    ) -> int:
        """begin + end in one call, for intervals known after the fact."""
        sid = next(self._ids)
        if parent_id is None and trace_id not in self._roots:
            self._roots[trace_id] = sid
        self._log.append(
            (_ADD, sid, trace_id, name, t_start, t_end, parent_id, attrs or None)
        )
        return sid

    def begin_request(
        self,
        trace_id: str,
        root_name: str,
        child_name: str,
        t_start: float,
        child_attrs: dict[str, Any] | None = None,
        root_attrs: dict[str, Any] | None = None,
    ) -> tuple[int | None, int]:
        """Open ``child_name`` under the trace's root in one event,
        creating the root (carrying ``root_attrs``) when the trace is
        new. Returns ``(owned_root, child_id)`` — ``owned_root`` is
        ``None`` when the root already existed (the caller doesn't
        close it). Attr dicts may be shared/memoized by the caller:
        the drain copies them before mutation."""
        root = self._roots.get(trace_id)
        if root is not None:
            child = next(self._ids)
            self._log.append(
                (_BEGIN, child, trace_id, child_name, t_start, root, child_attrs)
            )
            return None, child
        ids = self._ids
        root = next(ids)
        child = next(ids)
        self._roots[trace_id] = root
        self._log.append(
            (_REQ2, root, child, trace_id, root_name, child_name, t_start,
             root_attrs, child_attrs)
        )
        return root, child

    def link_rounds(
        self,
        contexts: Iterable[tuple[str, int, int | None]],
        t_start: float,
        t_end: float,
        link_tid: str,
        round_name: str,
    ) -> None:
        """One event for *all* of a round's riders. Per ``(trace_id,
        parent_sid, owned_root)`` context: add a closed ``round`` span
        under ``parent_sid`` linking ``link_tid``, close ``parent_sid``
        at ``t_end``, and close ``owned_root`` too when given (bare
        submissions whose root the session opened). Link-span ids are
        assigned at drain time."""
        log = self._log
        log.append((_LINKM, tuple(contexts), t_start, t_end, link_tid, round_name))
        if len(log) - self._cursor > _DRAIN_HIGH_WATER:
            self._drain()

    def end_many(self, span_ids: Iterable[int], t_end: float) -> None:
        """Close several spans at the same instant in one event (a
        dispatched batch's queue spans)."""
        self._log.append((_ENDM, tuple(span_ids), t_end))

    def record_round(
        self,
        trace_id: str,
        record: Any,
        worker_spans: Mapping[int, Any] | None = None,
    ) -> None:
        """Record one finalized round's span tree — the forest lowering
        (:func:`round_forest`) is deferred to drain
        time, so the round hot path pays one append."""
        log = self._log
        log.append((_ROUND, trace_id, record, worker_spans))
        if len(log) - self._cursor > _DRAIN_HIGH_WATER:
            self._drain()

    # -- event-log drain -----------------------------------------------
    def _materialize(
        self,
        sid: int,
        trace_id: str,
        name: str,
        t_start: float,
        t_end: float | None,
        parent_id: int | None,
        attrs: dict[str, Any] | None,
    ) -> Span:
        # copy: callers may pass shared (memoized) attr dicts, and
        # spans mutate theirs at close
        span = Span(
            span_id=sid,
            trace_id=trace_id,
            name=name,
            t_start=float(t_start),
            t_end=None if t_end is None else float(t_end),
            parent_id=parent_id,
            attrs=dict(attrs) if attrs else {},
        )
        spans = self._traces.get(trace_id)
        if spans is None:
            spans = self._traces[trace_id] = []
            while len(self._traces) > self.max_traces:
                _, evicted = self._traces.popitem(last=False)
                for old in evicted:
                    self._open.pop(old.span_id, None)
                if evicted:
                    self._roots.pop(evicted[0].trace_id, None)
        spans.append(span)
        return span

    def _drain(self) -> None:
        """Apply every pending event (idempotent, cheap when empty)."""
        with self._lock:
            log = self._log
            n = len(log)
            cursor = self._cursor
            while cursor < n:
                ev = log[cursor]
                cursor += 1
                op = ev[0]
                if op == _BEGIN:
                    _, sid, tid, name, t0, parent_id, attrs = ev
                    self._open[sid] = self._materialize(
                        sid, tid, name, t0, None, parent_id, attrs
                    )
                elif op == _END:
                    _, sid, t_end, attrs = ev
                    span = self._open.pop(sid, None)
                    if span is not None:
                        span.t_end = float(t_end)
                        if attrs:
                            span.attrs.update(attrs)
                elif op == _ADD:
                    _, sid, tid, name, t0, t1, parent_id, attrs = ev
                    self._materialize(sid, tid, name, t0, t1, parent_id, attrs)
                elif op == _REQ2:
                    _, root, child, tid, root_name, child_name, t0, attrs, cattrs = ev
                    self._open[root] = self._materialize(
                        root, tid, root_name, t0, None, None, attrs
                    )
                    self._open[child] = self._materialize(
                        child, tid, child_name, t0, None, root, cattrs
                    )
                elif op == _LINKM:
                    _, contexts, t0, t1, link_tid, rname = ev
                    t_close = float(t1)
                    for tid, parent_sid, owned_root in contexts:
                        self._materialize(
                            next(self._ids),
                            tid,
                            "round",
                            t0,
                            t1,
                            parent_sid,
                            {LINK_ATTR: link_tid, "round_name": rname},
                        )
                        for close_sid in (parent_sid, owned_root):
                            if close_sid is None:
                                continue
                            span = self._open.pop(close_sid, None)
                            if span is not None:
                                span.t_end = t_close
                elif op == _ENDM:
                    _, sids, t_end = ev
                    t_close = float(t_end)
                    for sid in sids:
                        span = self._open.pop(sid, None)
                        if span is not None:
                            span.t_end = t_close
                else:  # _ROUND: lower the record into its forest
                    _, tid, record, worker_spans = ev
                    created: list[Span] = []
                    for node in round_forest(record, worker_spans):
                        parent_local = node.get("parent")
                        parent_id = (
                            created[parent_local].span_id
                            if parent_local is not None
                            else None
                        )
                        sid = next(self._ids)
                        if parent_id is None and tid not in self._roots:
                            self._roots[tid] = sid
                        created.append(
                            self._materialize(
                                sid,
                                tid,
                                node["name"],
                                node["t_start"],
                                node["t_end"],
                                parent_id,
                                dict(node.get("attrs") or {}),
                            )
                        )
                n = len(log)
            self._cursor = cursor
            if cursor > _DRAIN_HIGH_WATER:
                del log[:cursor]
                self._cursor = 0

    # -- reading -------------------------------------------------------
    def root_id(self, trace_id: str) -> int | None:
        """Id of the trace's root span, O(1), without draining —
        usable on the hot path (``Session.submit`` joining a
        gateway-opened trace)."""
        return self._roots.get(trace_id)

    def has(self, trace_id: str) -> bool:
        self._drain()
        with self._lock:
            return trace_id in self._traces

    def trace_ids(self) -> tuple[str, ...]:
        self._drain()
        with self._lock:
            return tuple(self._traces)

    def spans(self, trace_id: str) -> tuple[Span, ...]:
        self._drain()
        with self._lock:
            return tuple(self._traces.get(trace_id, ()))

    def root(self, trace_id: str) -> Span | None:
        for span in self.spans(trace_id):
            if span.parent_id is None:
                return span
        return None

    def resolved(self, trace_id: str) -> list[Span]:
        """Spans of ``trace_id`` with every ``link`` attribute spliced:
        the linked trace's spans are appended (copies) with their root
        re-parented under the linking span. Cycles and dangling links
        degrade gracefully (the link attr stays, nothing is spliced)."""
        out: list[Span] = []
        seen: set[str] = set()
        self._resolve_into(trace_id, None, out, seen)
        return out

    def _resolve_into(
        self,
        trace_id: str,
        parent_override: int | None,
        out: list[Span],
        seen: set[str],
    ) -> None:
        if trace_id in seen:
            return
        seen.add(trace_id)
        for span in self.spans(trace_id):
            copy = Span(
                span_id=span.span_id,
                trace_id=span.trace_id,
                name=span.name,
                t_start=span.t_start,
                t_end=span.t_end,
                parent_id=span.parent_id
                if span.parent_id is not None
                else parent_override,
                attrs=dict(span.attrs),
            )
            out.append(copy)
            target = copy.attrs.get(LINK_ATTR)
            if target is not None and self.has(target):
                self._resolve_into(target, copy.span_id, out, seen)

    def to_dict(self, trace_id: str, resolve: bool = True) -> dict[str, Any]:
        spans = self.resolved(trace_id) if resolve else list(self.spans(trace_id))
        return {
            "trace_id": trace_id,
            "spans": [s.to_dict() for s in spans],
        }

    def dump(self) -> dict[str, Any]:
        """JSON-able dump of every live trace (unresolved)."""
        return {
            tid: self.to_dict(tid, resolve=False)
            for tid in self.trace_ids()
        }

    @classmethod
    def from_dump(cls, data: Mapping[str, Any]) -> "Tracer":
        """Rebuild a tracer from :meth:`dump` output, preserving span
        ids (so link resolution keeps working offline)."""
        tracer = cls(max_traces=max(len(data), 1))
        top = 0
        for tid, trace in data.items():
            spans = tracer._traces.setdefault(tid, [])
            for s in trace.get("spans", ()):
                span = Span(
                    span_id=int(s["span_id"]),
                    trace_id=tid,
                    name=s["name"],
                    t_start=float(s["t_start"]),
                    t_end=None if s.get("t_end") is None else float(s["t_end"]),
                    parent_id=s.get("parent_id"),
                    attrs=dict(s.get("attrs", {})),
                )
                spans.append(span)
                if span.parent_id is None and tid not in tracer._roots:
                    tracer._roots[tid] = span.span_id
                top = max(top, int(s["span_id"]))
        tracer._ids = itertools.count(top + 1)
        return tracer
