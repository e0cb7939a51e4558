"""Timing spans around gatesynth's module boundaries, taken from outside.

A Tracer swaps module attributes for timing wrappers. It patches the
names the callers look up at call time, so `app.synth` reaching
`encode` through `gatesynth.app`'s globals lands in the wrapper, while
the program's own source stays untouched. Spans stay in memory and are
written out when the run ends.

Counting work done inside a wrapper (formula sizes, kept instances) is
timed as well and subtracted from every enclosing span, so the counts do
not inflate the stage times they sit next to.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

Counter = Callable[[tuple, object], Dict[str, float]]


@dataclass
class Span:
    name: str
    index: int                       # position in Tracer.spans
    start: float
    end: float = 0.0
    parent: Optional[int] = None     # index of the enclosing span
    op: int = -1                     # operation the span belongs to
    counts: Dict[str, float] = field(default_factory=dict)
    hidden: float = 0.0              # counting time nested inside

    @property
    def net(self) -> float:
        return self.end - self.start - self.hidden


class Tracer:
    def __init__(self):
        self.spans: List[Span] = []
        self.op = -1
        self._stack: List[tuple] = []       # (span index, counting time at open)
        self._count_time = 0.0
        self._patches: List[tuple] = []

    # -- spans -----------------------------------------------------------

    def open(self, name: str) -> int:
        parent = self._stack[-1][0] if self._stack else None
        idx = len(self.spans)
        self.spans.append(Span(name, idx, time.perf_counter(), parent=parent,
                               op=self.op))
        self._stack.append((idx, self._count_time))
        return idx

    def close(self, idx: int):
        _, counted_before = self._stack.pop()
        span = self.spans[idx]
        span.end = time.perf_counter()
        span.hidden = self._count_time - counted_before

    def count(self, idx: int, counter: Counter, args: tuple, result) -> None:
        """Run a counter on a finished call; its time is charged to no stage."""
        t0 = time.perf_counter()
        for key, value in counter(args, result).items():
            self.spans[idx].counts[key] = self.spans[idx].counts.get(key, 0) + value
        self._count_time += time.perf_counter() - t0

    def call(self, name: str, fn, *args, counter: Optional[Counter] = None,
             **kwargs):
        """fn(*args, **kwargs) inside a span named `name`."""
        idx = self.open(name)
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            self.spans[idx].counts["raised:" + type(exc).__name__] = 1
            raise
        finally:
            self.close(idx)
        if counter is not None:
            self.count(idx, counter, args, result)
        return result

    # -- patching ----------------------------------------------------------

    def patch(self, module, attr: str, name: str,
              counter: Optional[Counter] = None) -> None:
        original = getattr(module, attr)

        def wrapper(*args, **kwargs):
            return self.call(name, original, *args, counter=counter, **kwargs)

        setattr(module, attr, wrapper)
        self._patches.append((module, attr, original))

    def unpatch(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    # -- output ------------------------------------------------------------

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps([s.name, s.start, s.end, s.parent, s.op,
                                     s.counts]) + "\n")
