"""In-memory span tracer used by the benchmark.

A span records a name, start and end (``perf_counter_ns``, so durations are
exact integers), the index of its parent span, whether the call raised, and
optional integer counts.  Spans are appended in start order, so a parent
always precedes its children.  Self time is a span's duration minus the
durations of its children: calls are sequential on one thread, so children
never overlap and their durations sum to the part of the parent they cover.
"""

from __future__ import annotations

import time
from contextlib import contextmanager


class Span:
    __slots__ = ("name", "start", "end", "parent", "failed", "counts")

    def __init__(self, name, start, parent):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.failed = False
        self.counts = None

    def add(self, key, n=1):
        if self.counts is None:
            self.counts = {}
        self.counts[key] = self.counts.get(key, 0) + n

    def as_row(self):
        return [self.name, self.start, self.end, self.parent, self.failed, self.counts]


class Tracer:
    """Records spans around wrapped callables, kept in memory until written."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def call(self, name, fn, args=(), kwargs=None, observe=None):
        """Call ``fn(*args, **kwargs)`` inside a span named ``name``.

        ``observe(result)`` may return a dict of counts to add to the span.
        """
        span = Span(name, 0, self._stack[-1] if self._stack else -1)
        index = len(self.spans)
        self.spans.append(span)
        self._stack.append(index)
        span.start = time.perf_counter_ns()
        try:
            result = fn(*args, **(kwargs or {}))
        except BaseException:
            span.failed = True
            raise
        finally:
            span.end = time.perf_counter_ns()
            self._stack.pop()
        if observe is not None:
            for key, n in (observe(result) or {}).items():
                span.add(key, n)
        return result

    def wrap(self, name, fn, observe=None):
        """A stand-in for ``fn`` that records a span around every call."""

        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, observe)

        traced.__wrapped__ = fn
        return traced

    def counted(self, key, fn):
        """A stand-in for ``fn`` that only counts calls, on the innermost
        open span; calls made outside every span are not counted."""

        def counting(*args, **kwargs):
            if self._stack:
                self.spans[self._stack[-1]].add(key)
            return fn(*args, **kwargs)

        counting.__wrapped__ = fn
        return counting


@contextmanager
def patched(replacements):
    """Temporarily replace attributes of modules, or entries of dicts.

    ``replacements`` holds ``(container, key, make)`` triples; ``make``
    receives the current value and returns its stand-in.  Everything is
    restored on exit, in reverse order.
    """
    saved = []
    try:
        for container, key, make in replacements:
            if isinstance(container, dict):
                saved.append((container, key, container[key]))
                container[key] = make(container[key])
            else:
                saved.append((container, key, getattr(container, key)))
                setattr(container, key, make(getattr(container, key)))
        yield
    finally:
        for container, key, old in reversed(saved):
            if isinstance(container, dict):
                container[key] = old
            else:
                setattr(container, key, old)


def derived(spans):
    """Per span: duration, self time (ns) and subtree counts.

    Returns ``(durations, self_times, subtree_counts)`` as lists aligned
    with ``spans``; ``subtree_counts[i]`` sums the counts of span ``i`` and
    all its descendants.
    """
    durations = [s.end - s.start for s in spans]
    self_times = list(durations)
    subtree = [dict(s.counts or {}) for s in spans]
    for i in range(len(spans) - 1, -1, -1):
        parent = spans[i].parent
        if parent >= 0:
            self_times[parent] -= durations[i]
            for key, n in subtree[i].items():
                subtree[parent][key] = subtree[parent].get(key, 0) + n
    return durations, self_times, subtree
