"""In-memory spans and the per-layer figures derived from them.

A span records ``[name, start, end, parent, request, n, error]``.  Spans
of one request live in a list until the request ends; then their self
times (duration minus the part of it that child spans cover) are added
to per-name totals, and the spans of the first requests, up to ``keep``
spans, are kept for the trace file written when the run ends.  ``n`` is the number
of calls a span covers: one span around a loop of ``depth`` doubling
steps counts ``depth`` calls.

Spans cost about a microsecond, as much as the calls they time, so the
totals are corrected by the cost of an empty span measured when the
tracer starts: ``inside`` (between its two clock reads) is taken off the
span itself and ``outside`` (the rest) off its parent, per child.
"""

from __future__ import annotations

import json
from collections import defaultdict
from time import perf_counter

NAME, START, END, PARENT, RID, N, ERR = range(7)


def self_times(spans: list[list]) -> list[float]:
    """Self time of each span: its duration minus the union of its children."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s[PARENT] >= 0:
            children[s[PARENT]].append((s[START], s[END]))
    out = []
    for i, s in enumerate(spans):
        lo, hi = s[START], s[END]
        covered = 0.0
        cur_a = cur_b = None
        for a, b in sorted(children.get(i, ())):
            a, b = max(a, lo), min(b, hi)
            if b <= a:
                continue
            if cur_b is None or a > cur_b:
                if cur_b is not None:
                    covered += cur_b - cur_a
                cur_a, cur_b = a, b
            else:
                cur_b = max(cur_b, b)
        if cur_b is not None:
            covered += cur_b - cur_a
        out.append((hi - lo) - covered)
    return out


class _Span:
    __slots__ = ("tracer", "rec")

    def __init__(self, tracer: "Tracer", rec: list):
        self.tracer = tracer
        self.rec = rec

    def __enter__(self) -> "_Span":
        self.rec[START] = perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.rec[END] = perf_counter()
        self.rec[ERR] = exc_type is not None
        self.tracer.stack.pop()


class Tracer:
    def __init__(self, keep: int = 100_000, calibrate: bool = True):
        self.keep = keep
        self.rid = -1
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.kept: list[list] = []
        # name -> [self seconds, calls covered, spans, spans that raised]
        self.totals: dict[str, list] = defaultdict(lambda: [0.0, 0, 0, 0])
        # name -> summed self time of the span and all its descendants
        self.durations: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self.inside = self.outside = 0.0
        if calibrate:
            self._calibrate()

    def _calibrate(self, n: int = 20000) -> None:
        self.begin_request()
        t0 = perf_counter()
        for _ in range(n):
            with self.span("empty"):
                pass
        total = (perf_counter() - t0) / n
        self.inside = sorted(s[END] - s[START] for s in self.spans)[n // 2]
        self.outside = max(0.0, total - self.inside)
        self.spans = []
        self.rid = -1

    def span(self, name: str, n: int = 1) -> _Span:
        rec = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1,
               self.rid, n, False]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        return _Span(self, rec)

    def count(self, name: str, value: float = 1) -> None:
        self.counts[name] += value

    def begin_request(self) -> None:
        self.rid += 1
        self.spans = []
        self.stack = []

    def end_request(self) -> None:
        spans = self.spans
        own = self_times(spans)
        for i, rec in enumerate(spans):
            own[i] -= self.inside
            if rec[PARENT] >= 0:
                own[rec[PARENT]] -= self.outside
        subtree = own[:]
        for i in range(len(spans) - 1, -1, -1):
            if spans[i][PARENT] >= 0:
                subtree[spans[i][PARENT]] += subtree[i]
        for i, rec in enumerate(spans):
            t = self.totals[rec[NAME]]
            t[0] += own[i]
            t[1] += rec[N]
            t[2] += 1
            t[3] += rec[ERR]
            self.durations[rec[NAME]] += subtree[i]
        if len(self.kept) + len(spans) <= self.keep:
            self.kept.extend(spans)
        self.spans = []

    def per_call(self, name: str, unit: float) -> float:
        """Mean self time per covered call, in seconds * unit (0 if never called)."""
        t = self.totals.get(name)
        return t[0] / t[1] * unit if t and t[1] else 0.0

    def calls(self, name: str) -> int:
        t = self.totals.get(name)
        return t[1] if t else 0

    def errors(self, prefix: str) -> int:
        return sum(t[3] for name, t in self.totals.items()
                   if name.startswith(prefix + "."))

    def write(self, path, header: dict) -> None:
        with open(path, "w") as fh:
            json.dump({"header": header,
                       "fields": ["name", "start", "end", "parent", "request",
                                  "calls", "error"],
                       "spans": self.kept}, fh)
