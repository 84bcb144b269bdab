"""In-memory spans recorded from the benchmark's side of the library boundary.

A span is ``[name, start, end, parent]`` with monotonic seconds and the index
of the enclosing span (``-1`` at top level).  Spans stay in memory while a
worker runs and are written out with its result; ``self_times`` and the
helpers below turn them into per-layer numbers.
"""

from __future__ import annotations

import functools
import math
import time
from contextlib import contextmanager
from typing import Iterator, List, Sequence

now = time.monotonic  # system-wide on Linux, so parent and workers share it


class Tracer:
    """Records spans while ``enabled``; ``NullTracer`` records nothing."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.enabled = True
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        if not self.enabled:
            yield
            return
        index = len(self.spans)
        self.spans.append([name, now(), None, self._stack[-1] if self._stack else -1])
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index][2] = now()

    def wrap(self, owner, attr: str, name: str) -> None:
        """Record a span around every call of ``owner.attr``, if it exists."""
        original = getattr(owner, attr, None)
        if original is None:
            return

        @functools.wraps(original)
        def traced(*args, **kwargs):
            with self.span(name):
                return original(*args, **kwargs)

        setattr(owner, attr, traced)


class NullTracer(Tracer):
    def __init__(self) -> None:
        super().__init__()
        self.enabled = False

    def wrap(self, owner, attr: str, name: str) -> None:
        pass


def self_times(spans: Sequence[list]) -> List[float]:
    """Each span's duration minus the time its direct children cover."""
    out = [end - start for _name, start, end, _parent in spans]
    for _name, start, end, parent in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def total_self(spans: Sequence[list], prefix: str) -> float:
    """Summed self time of the spans whose name starts with ``prefix``."""
    return sum(
        t for span, t in zip(spans, self_times(spans)) if span[0].startswith(prefix)
    )


def durations(spans: Sequence[list], name: str) -> List[float]:
    """Self time of every span called ``name``, in recording order."""
    return [t for span, t in zip(spans, self_times(spans)) if span[0] == name]


def per_tree(spans: Sequence[list], tree_span: str, name: str) -> List[float]:
    """Self time of ``name`` spans summed per tree.

    A tree's bucket opens at each ``tree_span`` span and collects every
    following ``name`` span until the next tree starts.
    """
    buckets: List[float] = []
    ordered = sorted(zip(spans, self_times(spans)), key=lambda pair: pair[0][1])
    for span, t in ordered:
        if span[0] == tree_span:
            buckets.append(0.0)
        elif span[0] == name and buckets:
            buckets[-1] += t
    return buckets


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile, ``q`` in (0, 100]; 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(1, math.ceil(len(ordered) * q / 100)) - 1]

