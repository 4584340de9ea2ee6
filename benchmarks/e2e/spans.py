"""Span recording from outside the program.

The benchmark wraps calls into public boundaries of objects it holds
(the session, its master and backend, the verifier, the code, the
audit log) and records one span per call: name, layer, start, end,
parent, and a tag shared by the spans of one round or request. Spans
stay in memory; the caller writes them out when the run ends.

A layer's *self time* is its spans' duration minus the part of that
interval their child spans cover, so the layers' self times add up to
the root span exactly.
"""

from __future__ import annotations

import contextlib
import os
import time
from typing import Any, Callable, Iterator

__all__ = ["Recorder", "Span", "TracedHandle", "covered", "patch", "self_times"]

_now = time.perf_counter
_CORES = len(os.sched_getaffinity(0))

#: (name, layer, start, end, parent index or -1, tag)
Span = tuple[str, str, float, float, int, Any]


def patch(owner: Any, attr: str, new: Any) -> Callable[[], None]:
    """Set ``owner.attr = new`` (on an instance or a class) and return
    the call that puts back exactly what was there before."""
    had = attr in vars(owner)
    old = vars(owner).get(attr)
    setattr(owner, attr, new)

    def undo() -> None:
        if had:
            setattr(owner, attr, old)
        else:
            delattr(owner, attr)

    return undo


class Recorder:
    """In-memory span store with a single-thread parent stack."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._undo: list[Callable[[], None]] = []

    # -- recording ------------------------------------------------------
    def begin(self, name: str, layer: str, tag: Any = None) -> int:
        parent = self._stack[-1] if self._stack else -1
        if tag is None and parent >= 0:
            tag = self.spans[parent][5]
        idx = len(self.spans)
        self.spans.append([name, layer, _now(), 0.0, parent, tag])
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][3] = _now()
        popped = self._stack.pop()
        assert popped == idx, "span ends out of order"

    def add(
        self, name: str, layer: str, start: float, end: float, parent: int | None = None
    ) -> None:
        """A closed span for an interval known after the fact, under
        ``parent`` (default: the span now open)."""
        if parent is None:
            parent = self._stack[-1] if self._stack else -1
        tag = self.spans[parent][5] if parent >= 0 else None
        self.spans.append([name, layer, start, end, parent, tag])

    @contextlib.contextmanager
    def span(self, name: str, layer: str, tag: Any = None) -> Iterator[int]:
        idx = self.begin(name, layer, tag)
        try:
            yield idx
        finally:
            self.end(idx)

    # -- wrapping -------------------------------------------------------
    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        layer: str,
        *,
        tag: Callable[..., Any] | None = None,
        after: Callable[..., Any] | None = None,
    ) -> None:
        """Replace ``owner.attr`` (an instance's bound method, or a
        class's function) by a version that records a span per call.
        ``tag(*args)`` names the round/request the call belongs to;
        ``after(result, *args, **kwargs)`` may observe or replace the result.
        :meth:`unwrap_all` restores every wrapped attribute."""
        fn = getattr(owner, attr)
        begin, end = self.begin, self.end

        def traced(*args: Any, **kwargs: Any) -> Any:
            idx = begin(name, layer, tag(*args) if tag else None)
            try:
                out = fn(*args, **kwargs)
            finally:
                end(idx)
            return after(out, *args, **kwargs) if after else out

        self._undo.append(patch(owner, attr, traced))

    def unwrap_all(self) -> None:
        while self._undo:
            self._undo.pop()()

    # -- reading --------------------------------------------------------
    def finished(self) -> list[Span]:
        """Every span, as tuples; all must have ended."""
        assert not self._stack, "spans still open"
        return [tuple(s) for s in self.spans]


class TracedHandle:
    """Stand-in for a backend round handle that times each wait for the
    next arrival (the fleet round trip as the master sees it).

    From outside, a wait cannot be split into the workers' kernel and
    the wire around it, so that split is *computed*: given ``kernel_s``
    (the replayed kernel time of one share), the round's waits are
    attributed to ``worker.compute`` child spans up to ``arrivals
    consumed x kernel_s / host cores`` — that much kernel work had to
    run on this host before the last consumed result could exist. The
    rest of the waits is wire, daemon and scheduling time.
    """

    def __init__(
        self, inner: Any, rec: Recorder, layer: str, kernel_s: Callable[[], float] | None
    ) -> None:
        self._inner, self._rec, self._layer, self._kernel_s = inner, rec, layer, kernel_s

    def __getattr__(self, name: str) -> Any:
        return getattr(self._inner, name)

    def __iter__(self) -> Iterator[Any]:
        rec, it = self._rec, iter(self._inner)
        waits: list[int] = []
        try:
            while True:
                idx = rec.begin("backend.collect", self._layer)
                try:
                    arrival = next(it, None)
                finally:
                    rec.end(idx)
                if arrival is None:
                    return
                waits.append(idx)
                yield arrival
        finally:
            # also runs when the master stops early and drops the iterator
            if self._kernel_s is not None:
                budget = len(waits) * self._kernel_s() / _CORES
                for idx in waits:
                    _n, _l, t0, t1, _p, _t = rec.spans[idx]
                    take = min(t1 - t0, budget)
                    if take > 0.0:
                        rec.add("worker.compute", "runtime.worker_compute", t1 - take, t1, idx)
                        budget -= take


def covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of ``[lo, hi]`` covered by the union of ``intervals``
    (which may overlap each other and stick out of ``[lo, hi]``)."""
    total, reach = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Per span: its duration minus the part its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for _name, _layer, start, end, parent, _tag in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    return [
        (end - start) - covered(children.get(i, []), start, end)
        for i, (_n, _l, start, end, _p, _t) in enumerate(spans)
    ]
