"""Spans around the public calls into each layer, aggregated in memory.

A run makes about a million spans, so each span name keeps only its call
count, total time and time spent in child spans; self time is total minus
child time.  Because every span's total is its self time plus its direct
children's totals, the self times of all spans add up to the time spent
inside outermost spans, and

    sum(self times) + unattributed == traced wall time

holds exactly, with `unattributed` the traced time outside every span.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Any, Callable, Iterable, Iterator


class Tracer:
    def __init__(self) -> None:
        self.spans: dict[str, list] = {}   # name -> [calls, total_s, child_s]
        self.root_s = 0.0                  # time inside outermost spans
        self._stack: list[float] = []      # child time of each open span

    def wrap(self, name: str, fn: Callable) -> Callable:
        stat = self.spans.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        clock = time.perf_counter

        def span(*args: Any, **kwargs: Any) -> Any:
            stack.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stat[0] += 1
                stat[1] += dt
                stat[2] += stack.pop()
                if stack:
                    stack[-1] += dt
                else:
                    self.root_s += dt

        return span

    def reset(self) -> None:
        """Zero every count, keeping the wrappers that already hold them."""
        for stat in self.spans.values():
            stat[:] = [0, 0.0, 0.0]
        self.root_s = 0.0

    def calls(self, name: str) -> int:
        return self.spans[name][0]

    def self_s(self, name: str) -> float:
        calls, total, child = self.spans[name]
        return total - child

    def layer_calls(self, layer: str) -> int:
        return sum(self.calls(n) for n in self.spans if n.startswith(layer + "."))

    def layer_self_s(self, layer: str) -> float:
        return sum(self.self_s(n) for n in self.spans if n.startswith(layer + "."))


@contextmanager
def patched(tracer: Tracer, targets: Iterable[tuple[str, Any, str, Any]]) -> Iterator[Tracer]:
    """For each (span name, owner, attribute, inner) replace `owner.attribute`
    (a class method or a module function) by a span of that name, and restore
    the originals on exit.  `inner`, if not None, wraps the original inside
    the span.  Several targets may share a span name."""
    saved = []
    try:
        for name, owner, attr, inner in targets:
            original = owner.__dict__[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(name, inner(original) if inner else original))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
