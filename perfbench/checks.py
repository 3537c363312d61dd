"""Correctness checks on every live run, and the ledger of attempts.

The client regenerates and compares every response byte itself; here each
backend transcript is compared with the client's request bytes plus the
`x-forwarded-for` insertions.  A request counts as verified only if both
hold.  A failed request (a reset session, say) counts against the attempts
and is never dropped; a byte that arrived wrong makes the run incorrect.
"""

from __future__ import annotations

import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Optional

import replay
from workloads import module


class NondeterminismError(RuntimeError):
    """Two live runs of the same input disagreed."""


@dataclass
class Verdict:
    attempted: int = 0
    verified: int = 0
    wrong: int = 0                     # outputs that are present but wrong
    fcts: list[float] = field(default_factory=list)  # seconds, verified requests
    notes: list[str] = field(default_factory=list)


def expected_backend_stream(session, client_addr: int) -> bytes:
    """The client's requests with the `x-forwarded-for` line spliced in
    before each head's final CRLF."""
    apps, packet = module("netsim.apps"), module("packet")
    inserted = b"x-forwarded-for: %s\r\n" % packet.addr_str(client_addr).encode()
    return b"".join(req[:-2] + inserted + req[-2:]
                    for req in (apps.request_bytes(s.path) for s in session.requests))


def check(sim) -> Verdict:
    v = Verdict()
    expected, owner = [], {}
    for i, s in enumerate(sim.sessions):
        v.attempted += len(s.requests)
        v.wrong += s.head_errors + sum(r.mismatches > 0 for r in s.records)
        expected.append(expected_backend_stream(s, s.endpoint.key.src_addr))
        if s.requests:
            owner[s.requests[0].path] = i
    received = defaultdict(list)
    for data in sim.server_received_streams().values():
        if not data:
            continue
        first = data.split(b"\r\n", 1)[0].split(b" ")
        i = owner.get(first[1]) if len(first) > 1 else None
        if i is None:
            i = next((j for j, e in enumerate(expected) if e.startswith(data)), None)
        if i is None or not expected[i].startswith(data):
            v.wrong += 1
            v.notes.append(f"backend transcript matches no client: {data[:60]!r}")
            continue
        received[i].append(data)
    for i, s in enumerate(sim.sessions):
        if s.clean and received[i] != [expected[i]]:
            v.wrong += 1
            v.notes.append(f"conn {i}: backend transcript differs from the client's")
            continue
        if not s.clean:
            v.notes.append(f"conn {i}: {'reset' if s.reset else 'unfinished'} after "
                           f"{len(s.records)} of {len(s.requests)} requests")
        if s.head_errors == 0:
            ok = [r for r in s.records if r.t_done is not None and r.mismatches == 0
                  and r.bytes_ok == r.size]
            v.verified += len(ok)
            v.fcts += [r.fct for r in ok]
    return v


def drain_leftovers(sim) -> dict[str, int]:
    """What teardown left behind, by kind."""
    now = sim.queue.now
    rules = sum(1 for r in sim.engine.rules.values()
                if r.gone_at is None or r.gone_at > now)
    return {
        "table_keys": len(sim.table),
        "engine_rules": rules,
        "pending_deletes": len(sim.offload_mgr.pending) if sim.offload_mgr else 0,
        "backend_ports": len(sim.agent._used_ports),
    }


@dataclass
class Outcome:
    """What one live run produced, kept after its simulation is freed."""
    seed: int
    verdict: Verdict
    wall: float                 # seconds of `Simulation.run()`
    ref_wall: float             # the same in reference seconds (replay.Pacer)
    events: int
    end: float                  # simulated time of the last event
    ingress: int                # LB ingress packets
    misses: int                 # engine misses: packets a worker handled
    verified_bytes: int
    leftovers: dict[str, int]
    digest: Optional[str]       # of the LB egress, when it was captured

    def fingerprint(self) -> tuple:
        """What must repeat exactly when the same input runs again."""
        v = self.verdict
        return (self.events, self.end, self.ingress, self.misses, v.attempted,
                v.verified, v.wrong, tuple(v.fcts), tuple(self.leftovers.items()))


class Ledger:
    """Every live run goes through here: it is checked, counted, and
    compared with earlier runs of the same simulation seed."""

    def __init__(self, sim_mod) -> None:
        self.sim_mod = sim_mod
        self.attempted = self.failed = self.wrong = 0
        self.in_flight = 0          # requests of a run that has not finished
        self.notes: list[str] = []
        self._first: dict[int, Outcome] = {}

    def run(self, sub, capture: bool = True, sim=None):
        """Run the simulation of sub-run `sub` (or the one given, already
        built), timing `Simulation.run()`.  Returns the outcome, the
        simulation and its capture (None without one)."""
        seed = sub.seed
        if sim is None:
            sim = self.sim_mod.Simulation(sub.params, seed)
        cap = replay.Capture(sim) if capture else None
        self.in_flight = sum(len(s.requests) for s in sim.sessions)
        t0 = time.perf_counter()
        sim.run()
        wall = time.perf_counter() - t0
        v = check(sim)
        es = sim.engine.stats
        outcome = Outcome(
            seed=seed, verdict=v, wall=wall,
            ref_wall=cap.pacer.scaled(wall) if cap else wall, events=sim.queue.processed,
            end=sim.queue.now, ingress=es.matched + es.missed + es.dropped,
            misses=es.missed,
            verified_bytes=sum(r.bytes_ok for s in sim.sessions for r in s.records),
            leftovers=drain_leftovers(sim),
            digest=replay.digest(cap.egress) if cap else None)
        self._record(outcome)
        return outcome, sim, cap

    def _record(self, o: Outcome) -> None:
        v = o.verdict
        self.in_flight = 0
        self.attempted += v.attempted
        self.failed += v.attempted - v.verified
        self.wrong += v.wrong
        first = self._first.setdefault(o.seed, o)
        if first is o:
            self.notes += v.notes
            return
        if first.fingerprint() != o.fingerprint() or \
                None not in (first.digest, o.digest) and first.digest != o.digest:
            raise NondeterminismError(f"two live runs of seed {o.seed} differ")
        if first.digest is None:
            self._first[o.seed] = o

    def first(self, seed: int) -> Outcome:
        return self._first[seed]
