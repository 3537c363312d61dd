"""Simulated match-action flow-processing engine.

Exact-match 5-tuple rules carry header rewrites (set a field, add a wrapping
constant to seq/ack) and hairpin the packet back to the wire.  There are no
range matches, payload reads, or SACK rewrites; a matched packet that
carries SACK blocks falls through to the worker path, which can rewrite
them.

Rule updates cost time.  The latency model is calibrated from measured
per-rule insert/delete costs at batch sizes 1, 2, 8 and 16, linearly
interpolated in between and clamped beyond 16.  A batch submitted at time t
becomes effective at t + per_rule(n) * n; until then matching packets miss
to the workers, which perform the identical rewrite (the race window is
correct by construction, and exercised by the differential tests).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum, auto
from typing import Iterable, Optional, Sequence, Union

from .conntable import mix64
from .packet import FlowKey, Packet, seq_add

RULE_CAPACITY_DEFAULT = 65536


class RuleConflictError(RuntimeError):
    """A live rule already matches this FlowKey."""


class EngineCapacityError(RuntimeError):
    pass


# -- actions -------------------------------------------------------------------

_SETTABLE_FIELDS = ("src_addr", "dst_addr", "src_port", "dst_port", "seq",
                    "ack", "window")
_ADDABLE_FIELDS = ("seq", "ack")


@dataclass(frozen=True)
class SetField:
    name: str
    value: int

    def __post_init__(self):
        if self.name not in _SETTABLE_FIELDS:
            raise ValueError(f"cannot set field {self.name!r}")


@dataclass(frozen=True)
class AddToField:
    name: str
    delta: int  # wraps modulo 2^32

    def __post_init__(self):
        if self.name not in _ADDABLE_FIELDS:
            raise ValueError(f"cannot add to field {self.name!r}")


@dataclass(frozen=True)
class Hairpin:
    pass


Action = Union[SetField, AddToField, Hairpin]


class RuleState(Enum):
    INSTALLING = auto()
    ACTIVE = auto()
    DELETING = auto()


@dataclass
class Rule:
    id: int
    match: FlowKey
    actions: tuple[Action, ...]
    idle_timeout: Optional[float] = None
    state: RuleState = RuleState.INSTALLING
    ready_at: float = 0.0
    gone_at: Optional[float] = None
    hit_count: int = 0
    last_hit: float = 0.0


# -- latency model --------------------------------------------------------------

TABLE_UPDATE_COSTS_US = {
    # batch size -> (per-rule insert us, per-rule delete us)
    1: (305.40, 57.49),
    2: (100.48, 24.48),
    8: (38.72, 19.42),
    16: (25.39, 18.08),
}


class LatencyModel:
    """Per-rule update latencies by batch size (microseconds)."""

    def __init__(self, costs_us: dict[int, tuple[float, float]] | None = None):
        self.anchors = sorted((costs_us or TABLE_UPDATE_COSTS_US).items())

    def _per_rule_us(self, batch_size: int, which: int) -> float:
        if batch_size < 1:
            raise ValueError("batch size must be >= 1")
        pts = [(n, cost[which]) for n, cost in self.anchors]
        if batch_size <= pts[0][0]:
            return pts[0][1]
        for (n0, c0), (n1, c1) in zip(pts, pts[1:]):
            if batch_size == n1:
                return c1
            if n0 < batch_size < n1:
                frac = (batch_size - n0) / (n1 - n0)
                return c0 + frac * (c1 - c0)
        return pts[-1][1]  # clamped beyond the largest measured batch

    def insert_per_rule_us(self, batch_size: int) -> float:
        return self._per_rule_us(batch_size, 0)

    def delete_per_rule_us(self, batch_size: int) -> float:
        return self._per_rule_us(batch_size, 1)

    def insert_batch_seconds(self, batch_size: int) -> float:
        return self.insert_per_rule_us(batch_size) * batch_size * 1e-6

    def delete_batch_seconds(self, batch_size: int) -> float:
        return self.delete_per_rule_us(batch_size) * batch_size * 1e-6


# -- steering ----------------------------------------------------------------------

_SHARD_SALT = 0x5EED0001


class PortShardSteering:
    """Custom RSS: the port space is partitioned into per-worker shards.
    Client packets steer by source port, server-side packets by destination
    port; the splice agent picks backend ports in the client's shard, so a
    connection's two directions always reach the same worker."""

    def __init__(self, n_workers: int):
        if n_workers < 1:
            raise ValueError("n_workers must be >= 1")
        self.n_workers = n_workers

    def shard_of(self, port: int) -> int:
        return mix64(port ^ _SHARD_SALT) % self.n_workers


# -- engine ----------------------------------------------------------------------


class ResultKind(Enum):
    HAIRPIN = auto()
    MISSED = auto()


@dataclass
class EngineResult:
    kind: ResultKind
    packet: Optional[Packet] = None
    worker: Optional[int] = None


@dataclass
class EngineStats:
    matched: int = 0
    missed: int = 0
    dropped: int = 0       # no rule drops; stays 0 in ingress = matched + missed + dropped
    sack_diverted: int = 0
    rules_inserted: int = 0
    rules_deleted: int = 0
    insert_batches: int = 0
    delete_batches: int = 0
    misses_per_worker: dict[int, int] = field(default_factory=dict)


class FlowEngine:
    def __init__(self, n_workers: int = 1,
                 vips: Iterable[tuple[int, int]] = (),
                 latency_model: Optional[LatencyModel] = None,
                 capacity: int = RULE_CAPACITY_DEFAULT):
        self.model = latency_model or LatencyModel()
        self.capacity = capacity
        self.vips = set(vips)
        self.steering = PortShardSteering(n_workers)
        self.rules: dict[FlowKey, Rule] = {}
        self.stats = EngineStats()
        self._next_id = 1

    # -- steering ---------------------------------------------------------------

    def shard_of(self, port: int) -> int:
        return self.steering.shard_of(port)

    def _steer(self, pkt: Packet) -> int:
        if (pkt.key.dst_addr, pkt.key.dst_port) in self.vips:
            return self.steering.shard_of(pkt.key.src_port)
        return self.steering.shard_of(pkt.key.dst_port)

    # -- rule lifecycle -----------------------------------------------------------

    def make_rule(self, match: FlowKey, actions: Sequence[Action],
                  idle_timeout: Optional[float] = None) -> Rule:
        rule = Rule(id=self._next_id, match=match, actions=tuple(actions),
                    idle_timeout=idle_timeout)
        self._next_id += 1
        return rule

    def insert_rules(self, batch: Sequence[Rule], mode: str, now: float) -> float:
        """Install a batch.  Every rule becomes matchable at the returned
        completion time; 'blocking' only changes whether the caller is
        expected to wait for it.  Duplicate live match -> RuleConflictError."""
        if not batch:
            raise ValueError("empty batch")
        if mode not in ("blocking", "nonblocking"):
            raise ValueError(f"unknown mode {mode!r}")
        if len(self.rules) + len(batch) > self.capacity:
            raise EngineCapacityError(f"rule capacity {self.capacity} exceeded")
        self._expire_deleted(now)
        for rule in batch:
            existing = self.rules.get(rule.match)
            if existing is not None and existing.state is not RuleState.DELETING:
                raise RuleConflictError(f"live rule {existing.id} matches {rule.match}")
            if existing is not None:
                raise RuleConflictError(
                    f"rule {existing.id} for {rule.match} still being deleted")
        done = now + self.model.insert_batch_seconds(len(batch))
        for rule in batch:
            rule.state = RuleState.INSTALLING
            rule.ready_at = done
            rule.last_hit = done
            self.rules[rule.match] = rule
        self.stats.rules_inserted += len(batch)
        self.stats.insert_batches += 1
        return done

    def delete_rules(self, rule_ids: Sequence[int], now: float) -> float:
        """Symmetric to insert; unknown ids are idempotent successes.  Rules
        stay matchable while the delete is in flight and vanish at the
        returned completion time."""
        if not rule_ids:
            raise ValueError("empty batch")
        done = now + self.model.delete_batch_seconds(len(rule_ids))
        wanted = set(rule_ids)
        for rule in self.rules.values():
            if rule.id in wanted:
                rule.state = RuleState.DELETING
                rule.gone_at = done
        self.stats.rules_deleted += len(rule_ids)
        self.stats.delete_batches += 1
        return done

    def _expire_deleted(self, now: float) -> None:
        gone = [k for k, r in self.rules.items()
                if r.state is RuleState.DELETING and r.gone_at is not None
                and r.gone_at <= now]
        for k in gone:
            del self.rules[k]

    # -- datapath ------------------------------------------------------------------

    def process(self, pkt: Packet, now: float) -> EngineResult:
        """Each ingress packet is exactly one of: matched-and-hairpinned, or
        missed-to-worker (no effective rule, SACK blocks, or a rule without
        a Hairpin action)."""
        rule = self.rules.get(pkt.key)
        if rule is not None:
            if rule.state is RuleState.DELETING and rule.gone_at <= now:
                del self.rules[pkt.key]
                rule = None
            elif now < rule.ready_at:
                rule = None  # not yet effective: miss to the worker
            elif rule.state is RuleState.INSTALLING:
                rule.state = RuleState.ACTIVE
        if rule is not None and pkt.options.sack_blocks:
            self.stats.sack_diverted += 1
            rule = None
        if rule is not None:
            rule.hit_count += 1
            rule.last_hit = now
            fields = {"seq": pkt.seq, "ack": pkt.ack, "window": pkt.window,
                      "src_addr": pkt.key.src_addr, "dst_addr": pkt.key.dst_addr,
                      "src_port": pkt.key.src_port, "dst_port": pkt.key.dst_port}
            for action in rule.actions:
                if isinstance(action, SetField):
                    fields[action.name] = action.value
                elif isinstance(action, AddToField):
                    fields[action.name] = seq_add(fields[action.name], action.delta)
                else:  # Hairpin
                    self.stats.matched += 1
                    return EngineResult(ResultKind.HAIRPIN, packet=pkt.with_(
                        key=FlowKey(fields["src_addr"], fields["dst_addr"],
                                    fields["src_port"], fields["dst_port"], pkt.key.proto),
                        seq=fields["seq"], ack=fields["ack"], window=fields["window"]))
        worker = self._steer(pkt)
        self.stats.missed += 1
        self.stats.misses_per_worker[worker] = \
            self.stats.misses_per_worker.get(worker, 0) + 1
        return EngineResult(ResultKind.MISSED, packet=pkt, worker=worker)

    def poll_aged(self, now: float) -> list[int]:
        """Rules idle past their idle_timeout; the caller decides deletion."""
        self._expire_deleted(now)
        out = []
        for r in self.rules.values():
            if r.state is RuleState.INSTALLING and now >= r.ready_at:
                r.state = RuleState.ACTIVE
            if (r.state is RuleState.ACTIVE and r.idle_timeout is not None
                    and now - r.last_hit > r.idle_timeout):
                out.append(r.id)
        return out

    def live_rule_for(self, key: FlowKey, now: Optional[float] = None) -> Optional[Rule]:
        if now is not None:
            self._expire_deleted(now)
        return self.rules.get(key)

    # -- reporting -----------------------------------------------------------------

    def format_stats(self) -> str:
        s = self.stats
        lines = [
            "engine statistics",
            f"{'matched':>16} {s.matched:>12}",
            f"{'missed':>16} {s.missed:>12}",
            f"{'dropped':>16} {s.dropped:>12}",
            f"{'sack_diverted':>16} {s.sack_diverted:>12}",
            f"{'rules_inserted':>16} {s.rules_inserted:>12}",
            f"{'rules_deleted':>16} {s.rules_deleted:>12}",
            "per-rule counters",
            f"{'rule_id':>8} {'state':>12} {'hits':>10}",
        ]
        for rule in sorted(self.rules.values(), key=lambda r: r.id):
            lines.append(f"{rule.id:>8} {rule.state.name:>12} {rule.hit_count:>10}")
        lines.append("misses per worker")
        for w in sorted(self.stats.misses_per_worker):
            lines.append(f"{w:>8} {self.stats.misses_per_worker[w]:>12}")
        return "\n".join(lines)
