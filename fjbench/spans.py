"""In-memory spans recorded from outside the program, and self-time sums.

The traced run wraps public functions of each layer (see
``layers.install``) with :meth:`Recorder.wrap`.  Each call becomes one span:
name, start, end, and the span that was open on the same thread when it
began.  Spans stay in memory; :meth:`Recorder.dump` writes them out when
the run ends.  A layer's self time is its span's duration minus the part
of that interval its child spans cover (:func:`self_times`).
"""

from __future__ import annotations

import functools
import json
import threading
import time
from dataclasses import dataclass


@dataclass
class Span:
    ident: int
    name: str
    parent: int | None
    start: float
    end: float = 0.0
    tag: object = None


def covered(start: float, end: float, intervals) -> float:
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    total, reach = 0.0, start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the time its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(
                (span.start, span.end))
    return {span.ident: (span.end - span.start)
            - covered(span.start, span.end, children.get(span.ident, ()))
            for span in spans}


class Recorder:
    """Collects spans from wrapped calls on any thread."""

    def __init__(self):
        self.spans: list[Span] = []
        self.enabled = False
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next = 0
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> Span:
        stack = self._stack()
        with self._lock:
            ident = self._next
            self._next += 1
        span = Span(ident, name, stack[-1] if stack else None,
                    time.perf_counter())
        stack.append(ident)
        return span

    def close(self, span: Span, tag=None) -> None:
        span.end = time.perf_counter()
        span.tag = tag
        self._stack().pop()
        with self._lock:
            self.spans.append(span)

    def wrap(self, owner, attr: str, name: str, tag=None) -> None:
        """Replace ``owner.attr`` by a wrapper recording span ``name``.

        ``tag`` (optional) maps the call's result to a value kept on the
        span, such as whether a cache answered.
        """
        # a class's own attribute, so an inherited method is never wrapped
        # on a subclass
        func = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return func(*args, **kwargs)
            span = self.open(name)
            result = None
            try:
                result = func(*args, **kwargs)
                return result
            finally:
                self.close(span, tag(result) if tag and result is not None
                           else None)

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, func))

    def unwrap_all(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for span in self.spans:
                out.write(json.dumps({
                    "id": span.ident, "name": span.name,
                    "parent": span.parent, "start": span.start,
                    "end": span.end}) + "\n")


def summarize(spans) -> dict[str, dict]:
    """Per span name: call count, summed self time, summed duration, and
    the tags of its calls."""
    selfs = self_times(spans)
    out: dict[str, dict] = {}
    for span in spans:
        entry = out.setdefault(span.name, {"calls": 0, "self_s": 0.0,
                                           "total_s": 0.0, "tags": []})
        entry["calls"] += 1
        entry["self_s"] += selfs[span.ident]
        entry["total_s"] += span.end - span.start
        if span.tag is not None:
            entry["tags"].append(span.tag)
    return out
