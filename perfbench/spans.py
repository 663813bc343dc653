"""In-memory span recorder for the traced benchmark run.

A span is a dict with ``name``, ``start``, ``end`` (monotonic seconds) and
``parent`` (index of the enclosing span, ``None`` for the root).  Spans are
recorded from the benchmark's own code, around calls into fracwalk; nothing
inside the library is changed.  Spans stay in memory and the worker writes
them out when its repetition ends.
"""

from __future__ import annotations

import contextlib
import functools
import time
import tracemalloc


class Tracer:
    """Records nested spans, work counters and per-span peak memory.

    A disabled tracer records nothing and hands functions back unwrapped, so
    the untraced run executes exactly the library calls and nothing else.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.spans: list[dict] = []
        self.counts: dict[str, float] = {}
        self.peak_mb: dict[str, float] = {}
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, track_memory: bool = False):
        """Time the enclosed block; with ``track_memory`` also record the
        peak of Python-visible allocations (numpy included) inside it."""
        if not self.enabled:
            yield
            return
        rec = {
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "start": time.monotonic(),
            "end": None,
        }
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        if track_memory:
            tracemalloc.start()
        try:
            yield
        finally:
            if track_memory:
                peak = tracemalloc.get_traced_memory()[1] / 2**20
                tracemalloc.stop()
                self.peak_mb[name] = max(self.peak_mb.get(name, 0.0), peak)
            rec["end"] = time.monotonic()
            self._stack.pop()

    def add(self, counter: str, value: float) -> None:
        self.counts[counter] = self.counts.get(counter, 0) + value

    def wrap(self, name: str, fn, count=None, track_memory: bool = False):
        """Return ``fn`` timed as span ``name``.

        ``count(tracer, result, *args, **kwargs)`` runs after the span closes
        and records work counters.  A call made while a span of the same name
        is open (``axis_cdf`` calling ``radial_cdf``) is not split into a
        second span, so a layer's time is never counted twice.
        """
        if not self.enabled:
            return fn

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._stack and self.spans[self._stack[-1]]["name"] == name:
                return fn(*args, **kwargs)
            with self.span(name, track_memory):
                result = fn(*args, **kwargs)
            if count is not None:
                count(self, result, *args, **kwargs)
            return result

        return wrapper


def durations(spans: list[dict]) -> list[float]:
    return [s["end"] - s["start"] for s in spans]


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    total = durations(spans)
    own = list(total)
    for s, d in zip(spans, total):
        if s["parent"] is not None:
            own[s["parent"]] -= d
    return own


def check_nesting(spans: list[dict]) -> None:
    """Raise unless every span lies inside its parent and siblings are disjoint,
    which is what makes self times add up to the root's duration."""
    last_child_end: dict[int | None, float] = {}
    for i, s in enumerate(spans):
        if s["end"] is None or s["end"] < s["start"]:
            raise ValueError(f"span {i} ({s['name']}) is not closed")
        p = s["parent"]
        if p is not None:
            parent = spans[p]
            if s["start"] < parent["start"] or s["end"] > parent["end"]:
                raise ValueError(f"span {i} ({s['name']}) escapes its parent")
        if s["start"] < last_child_end.get(p, float("-inf")):
            raise ValueError(f"span {i} ({s['name']}) overlaps a sibling")
        last_child_end[p] = s["end"]
