"""In-memory span recorder used by the traced benchmark runs.

A span is one timed call from the benchmark into a layer of the package:
its name (``<module>.<what>``), start and end on ``time.perf_counter``, the
index of the enclosing span (or -1) and the operation id it belongs to (a
query, a secant row, a sweep step).  Spans stay in a list until the run ends
and are written out then, so recording costs one tuple append per span.

The untraced runs use :data:`NULL` instead, whose ``span`` returns a shared
no-op context manager.  ``with`` adds no Python frame around its body, so the
calls under a span run at the same stack depth traced or not; the
cold-recursion failures of deep queries therefore hit the same queries in
both modes.
"""

from __future__ import annotations

from collections import defaultdict
from time import perf_counter

# (name, start, end, parent, op)
Span = tuple[str, float, float, int, int]


class _Open:
    __slots__ = ("rec", "name", "op", "index")

    def __init__(self, rec: "Recorder", name: str, op: int):
        self.rec, self.name, self.op = rec, name, op

    def __enter__(self):
        rec = self.rec
        self.index = len(rec.spans)
        parent = rec.stack[-1] if rec.stack else -1
        rec.spans.append((self.name, perf_counter(), 0.0, parent, self.op))
        rec.stack.append(self.index)
        return self

    def __exit__(self, *exc):
        end = perf_counter()
        rec = self.rec
        rec.stack.pop()
        name, start, _, parent, op = rec.spans[self.index]
        rec.spans[self.index] = (name, start, end, parent, op)
        return False


class Recorder:
    """Collects spans; ``with rec.span("chains.s", op=7): ...``."""

    enabled = True

    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[int] = []

    def span(self, name: str, op: int = -1) -> _Open:
        return _Open(self, name, op)


class _Nothing:
    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


class _NullRecorder:
    enabled = False
    spans: list[Span] = []
    _nothing = _Nothing()

    def span(self, name: str, op: int = -1) -> _Nothing:
        return self._nothing


NULL = _NullRecorder()


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for name, start, end, parent, op in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for i, (name, start, end, parent, op) in enumerate(spans):
        out.append((end - start) - _covered(children.get(i, []), start, end))
    return out


def totals(spans: list[Span], self_time: bool = True) -> dict[str, float]:
    """Summed self time (or duration) per span name."""
    durations = self_times(spans) if self_time else [s[2] - s[1] for s in spans]
    out: dict[str, float] = defaultdict(float)
    for span, value in zip(spans, durations):
        out[span[0]] += value
    return dict(out)


def durations(spans: list[Span], name: str) -> list[float]:
    """Durations of every span with the given name, in recording order."""
    return [end - start for n, start, end, _, _ in spans if n == name]


def median(values: list[float]) -> float:
    values = sorted(values)
    n = len(values)
    return values[n // 2] if n % 2 else (values[n // 2 - 1] + values[n // 2]) / 2
