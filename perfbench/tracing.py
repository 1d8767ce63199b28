"""In-memory spans recorded around the program's public methods.

The benchmark traces from its own files: :meth:`Tracer.wrap` replaces a
method or module function with a wrapper that records one span per call
while the tracer is enabled.  Nothing under ``src/`` knows about it.  A span
is ``(id, name, start, end, parent, request)``; the parent is the innermost
open span of the same thread and the request id is inherited from it, so
every span a line causes carries that line's id.  Spans stay in memory and
are written out when the run ends (:meth:`Tracer.dump`).

A span's *self time* is its duration minus the part of that interval its
child spans cover (:func:`self_times`).
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional


@dataclass(slots=True)
class Span:
    sid: int
    name: str
    start: float
    parent: Optional[int]
    request: object
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans; wrappers cost one flag test while disabled."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.enabled = False
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: List[tuple] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str, request=None) -> Span:
        stack = self._stack()
        parent = stack[-1] if stack else None
        if request is None and parent is not None:
            request = parent.request
        span = Span(next(self._ids), name, self.clock(),
                    parent.sid if parent is not None else None, request)
        stack.append(span)
        return span

    def end(self, span: Span, **attrs) -> None:
        span.end = self.clock()
        if attrs:
            span.attrs.update(attrs)
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        self.spans.append(span)

    def wrap(self, owner, attr: str, name: str,
             annotate: Optional[Callable] = None) -> None:
        """Record a ``name`` span around every call of ``owner.attr``.

        ``annotate(args, kwargs, result, span)`` runs after the span closed
        and may return attributes (counts such as rows or candidates) to
        store on it.  Wrap a class attribute only on the class that defines
        it, so unwrapping restores the class exactly.
        """
        original = getattr(owner, attr)
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.enabled:
                return original(*args, **kwargs)
            span = tracer.begin(name)
            try:
                result = original(*args, **kwargs)
            except BaseException:
                tracer.end(span, error=True)
                raise
            tracer.end(span)
            if annotate is not None:
                span.attrs.update(annotate(args, kwargs, result, span))
            return result

        traced.__wrapped__ = original
        self.patch(owner, attr, traced)

    def patch(self, owner, attr: str, replacement) -> None:
        """Install ``replacement`` as ``owner.attr``; :meth:`unpatch_all` undoes it."""
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def unpatch_all(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def take(self) -> List[Span]:
        """Remove and return every span finished so far."""
        spans, self.spans = self.spans, []
        return spans

    @staticmethod
    def dump(spans: List[Span], path) -> None:
        """Write spans as JSON lines (times in seconds of ``perf_counter``)."""
        with open(path, "w") as handle:
            for span in spans:
                handle.write(json.dumps({
                    "id": span.sid, "name": span.name, "start": span.start,
                    "end": span.end, "parent": span.parent,
                    "request": span.request, **span.attrs}, default=str) + "\n")


def self_times(spans: List[Span]) -> Dict[int, float]:
    """Span id → duration minus the union of its children's intervals."""
    children: Dict[int, List[Span]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    result = {}
    for span in spans:
        covered, cursor = 0.0, span.start
        for child in sorted(children.get(span.sid, ()), key=lambda s: s.start):
            start, end = max(child.start, cursor), min(child.end, span.end)
            if end > start:
                covered += end - start
                cursor = end
        result[span.sid] = span.duration - covered
    return result
