"""Capture a live run's LB ingress and egress, and replay the ingress into
an LB that has no network around it.

Everything the LB emits is determined by its ingress sequence, the times it
arrives at, the seed (cookie secret, backend ISNs, routing rotation) and the
housekeeping schedule (TTL sweeps and aged-rule polls).  The replay builds a
fresh engine, table, agent and offload manager through `Simulation` itself,
with no connections, feeds it the captured ingress at the captured times,
fires the housekeeping at the times the live run fired it, and collects
what the LB emits instead of delivering it.
"""

from __future__ import annotations

import dataclasses
import hashlib
import struct
import time
from types import ModuleType

REF_SNIPPET_S = 100e-6  # the snippet's time on the reference machine


class _Pair:
    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int) -> None:
        self.a, self.b = a, b


def _snippet() -> int:
    """Fixed pure-Python work (calls, small objects, dict stores) that
    does not touch the program."""
    table: dict = {}
    x = 0
    for i in range(300):
        pair = _Pair(i, i + 1)
        table[i & 63] = pair
        x += pair.a * pair.b + len(table)
    return x


def snippet_seconds(n: int = 5) -> float:
    """Mean time of `n` snippets, now."""
    t0 = time.perf_counter()
    for _ in range(n):
        _snippet()
    return (time.perf_counter() - t0) / n


class Pacer:
    """Runs `_snippet` on the first LB packet of a timed region and on
    every EVERY-th after it, and keeps the time the snippets took.

    A machine shared with other tenants can slow down by up to 1.8x for
    seconds to minutes at a time, for all code alike.  The snippets sample that speed
    at the same moments as the program runs, so `scaled` can express the
    program's time in seconds of a machine that runs the snippet in
    REF_SNIPPET_S."""

    EVERY = 200

    def __init__(self) -> None:
        self.packets = 0
        self.snippets = 0
        self.spent = 0.0

    def tick(self) -> None:
        self.packets += 1
        if self.packets % self.EVERY == 1:
            t0 = time.perf_counter()
            _snippet()
            self.spent += time.perf_counter() - t0
            self.snippets += 1

    def scaled(self, wall: float) -> float:
        """`wall` without the snippets, in reference seconds."""
        if not self.snippets:
            return wall
        return (wall - self.spent) * REF_SNIPPET_S * self.snippets / self.spent


class Capture:
    """Hooks on a live `Simulation` (instance attributes, set before `run`)
    that record LB ingress, LB egress and the housekeeping times, and tick
    a `Pacer` per LB ingress packet.  The cost is the same in every timed
    live run."""

    def __init__(self, sim) -> None:
        self.pacer = Pacer()
        self.ingress: list[tuple[float, object]] = []
        self.egress: list[tuple[float, object]] = []
        self.sweeps: list[float] = []
        self.polls: list[float] = []
        ingress, egress, tick = self.ingress.append, self.egress.append, self.pacer.tick
        process, emit = sim.engine.process, sim._emit
        sweep, poll_aged = sim.agent.sweep, sim.engine.poll_aged

        def on_ingress(pkt, now):
            tick()
            ingress((now, pkt))
            return process(pkt, now)

        def on_egress(pkt, now):
            egress((now, pkt))
            emit(pkt, now)

        def on_sweep(now):
            self.sweeps.append(now)
            return sweep(now)

        def on_poll(now):
            self.polls.append(now)
            return poll_aged(now)

        sim.engine.process = on_ingress
        sim._emit = on_egress
        sim.agent.sweep = on_sweep
        sim.engine.poll_aged = on_poll


def lb_only(sim_mod: ModuleType, params, seed: int):
    """A `Simulation` with the workload's LB and no clients, whose own
    housekeeping never fires (the replay schedules it)."""
    inf = float("inf")
    params = dataclasses.replace(
        params,
        workload=dataclasses.replace(params.workload, connections=0),
        topology=dataclasses.replace(params.topology, sweep_interval=inf,
                                     aged_poll_interval=inf))
    return sim_mod.Simulation(params, seed)


def replay(sim_mod: ModuleType, params, seed: int, cap: Capture,
           until: float) -> tuple[list, float]:
    """Feed `cap.ingress` to a fresh LB up to simulated time `until` (the
    live run's last event).  Returns the LB's egress and the replay's time
    in reference seconds (see `Pacer`)."""
    lb = lb_only(sim_mod, params, seed)
    out: list[tuple[float, object]] = []
    lb._emit = lambda pkt, now: out.append((now, pkt))
    queue, ingress, pacer = lb.queue, cap.ingress, Pacer()

    def sweep(now):
        lb.agent.sweep(now)

    def poll(now):
        # the live run's housekeeping closure, without rescheduling
        aged = lb.engine.poll_aged(now)
        if aged:
            lb.offload_mgr.on_rules_aged(aged, now)

    def feed(now, i):
        pacer.tick()
        lb._lb_ingress(now, ingress[i][1])
        if i + 1 < len(ingress):
            queue.schedule(ingress[i + 1][0], feed, i + 1)

    for t in cap.sweeps:
        queue.schedule(t, sweep)
    for t in cap.polls:
        queue.schedule(t, poll)
    if ingress:
        queue.schedule(ingress[0][0], feed, 0)
    t0 = time.perf_counter()
    queue.run(until=until)
    return out, pacer.scaled(time.perf_counter() - t0)


_FIXED = struct.Struct(">dIIHHBIIBHI")


def digest(packets: list[tuple[float, object]]) -> str:
    """Hash of emitted packets with their emit times, independent of the
    program's own codec."""
    h = hashlib.blake2b(digest_size=16)
    for now, p in packets:
        k = p.key
        h.update(_FIXED.pack(now, k.src_addr, k.dst_addr, k.src_port, k.dst_port,
                             k.proto, p.seq, p.ack, int(p.flags), p.window,
                             len(p.payload)))
        o = p.options
        h.update(repr((o.mss, o.sack_permitted, o.sack_blocks)).encode())
        h.update(p.payload)
    return h.hexdigest()


def mismatches(a: list[tuple[float, object]], b: list[tuple[float, object]]) -> int:
    """Positions where two packet sequences differ, plus the length gap."""
    return sum(x != y for x, y in zip(a, b)) + abs(len(a) - len(b))
