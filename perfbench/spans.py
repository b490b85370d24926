"""In-memory span recorder used by the traced benchmark run.

Spans are recorded from the benchmark's own files, around calls into each
layer's public functions (the program under test is never edited).  Each
span keeps its name, start, end, parent span and request id; spans stay in
memory until :meth:`SpanRecorder.write` dumps them when the run ends.

A layer's *self time* is a span's duration minus the part of it that its
child spans cover.  Children nest on the thread that opened the parent; a
span opened on another thread (a serving worker running a tile) has no
parent and inherits ``request_id`` from :attr:`SpanRecorder.request_id`,
the id of the item the closed loop is currently driving.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass


@dataclass
class Span:
    """One timed interval on one thread."""

    span_id: int
    name: str
    start: float
    end: float
    parent: "int | None"
    request_id: "str | None"
    thread: int

    @property
    def duration(self) -> float:
        """Wall seconds between start and end."""
        return self.end - self.start


def is_traced(index: int) -> bool:
    """Whether item ``index`` of a traced run is traced: every other item
    is, so the rest measure the untraced cost in the same run."""
    return index % 2 == 0


class SpanRecorder:
    """Thread-safe span collector with an on/off switch.

    ``enabled`` is read at every span boundary, so a closed loop can trace
    every other item and report tracing overhead from the same run.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.enabled = False
        self.request_id: "str | None" = None
        self._lock = threading.Lock()
        self._local = threading.local()
        self._ids = itertools.count(1)

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, request_id: "str | None" = None):
        """Record ``name`` around the ``with`` body when tracing is on."""
        if not self.enabled:
            yield None
            return
        stack = self._stack()
        parent = stack[-1] if stack else None
        if request_id is None:
            request_id = parent.request_id if parent else self.request_id
        span = Span(
            next(self._ids), name, time.perf_counter(), 0.0,
            parent.span_id if parent else None, request_id,
            threading.get_ident(),
        )
        stack.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(span)

    def wrap(self, obj, attr: str, name: str, *, before=None, after=None) -> None:
        """Replace ``obj.attr`` by a spanned call-through (instance attribute).

        ``before(args, kwargs)`` runs ahead of the span and ``after(args,
        result, span)`` after it, so counting work never lands inside the
        timed interval.  Neither runs while tracing is off.
        """
        original = getattr(obj, attr)

        def spanned(*args, **kwargs):
            if not self.enabled:
                return original(*args, **kwargs)
            if before is not None:
                before(args, kwargs)
            with self.span(name) as span:
                result = original(*args, **kwargs)
            if after is not None:
                after(args, result, span)
            return result

        setattr(obj, attr, spanned)

    def select(self, request_ids) -> "list[Span]":
        """Spans whose request id is in ``request_ids``."""
        wanted = set(request_ids)
        with self._lock:
            return [span for span in self.spans if span.request_id in wanted]

    def by_name(self, name: str) -> "list[Span]":
        """Every recorded span called ``name``."""
        with self._lock:
            return [span for span in self.spans if span.name == name]

    def write(self, path, extra: dict) -> None:
        """Dump every span plus ``extra`` as one JSON document."""
        with self._lock:
            spans = [asdict(span) for span in self.spans]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({**extra, "spans": spans}))


def self_times(spans: "list[Span]") -> dict:
    """Per-name totals of ``{"count", "total_s", "self_s"}``.

    Self time subtracts each direct child's duration from its parent; only
    parents inside ``spans`` are charged, so pass whole request trees.
    """
    child_time: dict = defaultdict(float)
    for span in spans:
        if span.parent is not None:
            child_time[span.parent] += span.duration
    totals: dict = defaultdict(lambda: {"count": 0, "total_s": 0.0, "self_s": 0.0})
    for span in spans:
        entry = totals[span.name]
        entry["count"] += 1
        entry["total_s"] += span.duration
        entry["self_s"] += span.duration - child_time.get(span.span_id, 0.0)
    return dict(totals)
