"""In-memory span recorder used by the traced benchmark run.

Spans are kept in parallel lists (name, parent, operation id, start, end) and
summarised when the run ends. A span opened while no other span is open
starts a new operation; its descendants share that operation's id. Calls too
frequent to record one span each (hot-key ranking, per-op execution, policy
lookups, buffer waits) go to aggregate timers instead: a call count and the
seconds spent.

Everything here wraps the kernel from outside: the benchmark either opens a
span around a call it makes itself, or replaces a public method on one
instance with a recording wrapper. No kernel source is modified.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

clock = time.perf_counter


@dataclass
class SpanTotals:
    count: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.parents: list[int] = []
        self.ops: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self._stack: list[int] = []
        self._last_op = 0
        self.timers: dict[str, list] = {}   # name -> [calls, seconds]

    def open(self, name: str) -> int:
        idx = len(self.names)
        if self._stack:
            parent = self._stack[-1]
            op = self.ops[parent]
        else:
            parent = -1
            self._last_op += 1
            op = self._last_op
        self.names.append(name)
        self.parents.append(parent)
        self.ops.append(op)
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(clock())
        return idx

    def close(self, idx: int) -> None:
        self.ends[idx] = clock()
        self._stack.pop()

    def spanned(self, fn, name: str):
        """fn wrapped so that each call records a span named `name`."""
        def wrapper(*args, **kwargs):
            idx = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(idx)
        return wrapper

    def timed(self, fn, name: str):
        cell = self.timers.setdefault(name, [0, 0.0])

        def wrapper(*args, **kwargs):
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                cell[1] += clock() - t0
                cell[0] += 1
        return wrapper

    def wrap_span(self, obj, attr: str, name: str) -> None:
        setattr(obj, attr, self.spanned(getattr(obj, attr), name))

    def wrap_timer(self, obj, attr: str, name: str) -> None:
        setattr(obj, attr, self.timed(getattr(obj, attr), name))

    def timer_calls(self, name: str) -> int:
        return self.timers.get(name, (0, 0.0))[0]

    def timer_s(self, name: str) -> float:
        return self.timers.get(name, (0, 0.0))[1]

    def summary(self) -> dict[str, SpanTotals]:
        """Per span name: count, total duration and self time.

        Self time is a span's duration minus the time its direct children
        cover; spans nest strictly because they are opened and closed on one
        thread in stack order.
        """
        if self._stack:
            raise RuntimeError("summary taken while spans are still open")
        child_s = [0.0] * len(self.names)
        for idx, parent in enumerate(self.parents):
            if parent >= 0:
                child_s[parent] += self.ends[idx] - self.starts[idx]
        out: dict[str, SpanTotals] = {}
        for idx, name in enumerate(self.names):
            dur = self.ends[idx] - self.starts[idx]
            agg = out.get(name)
            if agg is None:
                agg = out[name] = SpanTotals()
            agg.count += 1
            agg.total_s += dur
            agg.self_s += dur - child_s[idx]
        return out
