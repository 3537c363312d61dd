"""Globally ordered event queue: (timestamp, insertion sequence) ordering
makes pops deterministic for a fixed schedule of calls."""

from __future__ import annotations

import heapq
from typing import Callable


class EventQueue:
    def __init__(self):
        self._q: list[tuple[float, int, Callable, tuple]] = []
        self._seq = 0
        self.now = 0.0
        self.processed = 0

    def schedule(self, at: float, fn: Callable, *args) -> None:
        if at < self.now:
            raise ValueError(f"cannot schedule into the past ({at} < {self.now})")
        heapq.heappush(self._q, (at, self._seq, fn, args))
        self._seq += 1

    def run(self, until: float = float("inf"),
            stop: Callable[[], bool] | None = None) -> int:
        """Pop events in order until the queue drains, `until` passes, or
        `stop()` turns true (checked between events)."""
        while self._q:
            at, _, fn, args = self._q[0]
            if at > until:
                break
            heapq.heappop(self._q)
            self.now = at
            fn(at, *args)
            self.processed += 1
            if stop is not None and stop():
                break
        return self.processed
