"""Simulated match-action flow-processing engine.

Every rule has one shape.  It matches one exact 5-tuple, and on a hit it
applies its `Rewrite`: the packet gets the rule's output 5-tuple, a constant
is added modulo 2^32 to its seq and another to its ack, the ack's constant
is added to each SACK edge too, and the packet is hairpinned back to the
wire.  Flags, window, the other options and payload pass through as they
came.  There are no range matches or payload reads.  A matched packet that
carries a FIN or an RST is diverted to the worker path, which must see a
connection end to tear its entry down.  So is one with a SACK block whose
left edge lies below its ACK (a D-SACK, RFC 2883): below the server rule's
ACK lie the inserted bytes, which the worker maps block by block.

SACK edges are sequence numbers in the ACK's space (RFC 2018), and every
rule's ACK shift is exact from its ACK up: the client rule's ACKs are on
the response stream, which has no insertions, and the server rule's every
insertion lies below the exact ACK it matches (`build_offload_rule`).  So a
block at or above the ACK maps by the ACK's constant, as the worker would
map it.  The seq/ack rewrite models mlx5 modify-header, which does not
reach TCP options.  The SACK shift assumes a NIC pipeline that parses TCP
options and can add to their words, as the custom packet-processing
accelerators the paper names can (a P4 or DPA datapath).  It is an action
on the rule's one entry, not a match entry of its own, so it takes no slot
and adds nothing to a rule's price.

A rule may also match one exact TCP seq (`Rule.seq`, as mlx5 steering's
`outer_tcp_seq_num`).  Such a rule hairpins only a payload-free packet that
carries that seq; a packet with payload, or at any other seq, misses to the
worker.  The client-ACK rule of an offloaded response uses it: the client's
pure ACKs sit at the end of the request bytes the worker has forwarded, and
anything else (the next request, an ACK past bytes held back) needs the
worker.  In the same way a rule may match one exact ACK (`Rule.ack`,
`outer_tcp_ack_num`): the server rule of an offload hits only packets that
acknowledge exactly the request it was targeted at.

A rule may carry a divert (`Rule.divert_seq`): a packet with payload at
that exact seq misses to the worker, while the rule still hits every other
packet it matches.  On mlx5 that is a higher-priority entry on
`outer_tcp_seq_num`, so it takes a rule slot and is priced as one rule.
The server rule of a kept offload diverts the segment at the next
response's start, which carries the response head the worker must read.

The engine answers each packet with `(packet, worker)`: the rewritten
packet and None on a hit, which hairpins it; the packet unchanged and its
steered worker on a miss.  `EngineStats` counts each miss under one cause.

Rule updates cost time.  Per-rule insert/delete costs were measured at
batch sizes 1, 2, 8 and 16; they are linearly interpolated in between and
clamped beyond 16 (`insert_batch_seconds`, `delete_batch_seconds`).  A
batch of n rules inserted at time t becomes effective at
`ready_at` = t + n * per_rule(n); until then matching packets miss to the
workers, which perform the identical rewrite (the race window is correct
by construction, and exercised by the differential tests).  A delete sets
`gone_at` the same way; the rule keeps matching until then.  A re-target
modifies live rules in place.  No modify cost was measured, so it is
priced as an insert batch of the rules it changes, each divert counted as
one more, and the rules miss to the workers until its `ready_at`.

A rule is named by its match.  The engine holds at most one rule per
5-tuple, live or being deleted, so a re-target and a delete name the rules
they act on by their matches, and an aging poll reports matches: those of
the effective rules with no hit for `RULE_IDLE_TIMEOUT` seconds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, NamedTuple, Optional, Sequence

from .conntable import mix64
from .packet import SEQ_HALF, FlowKey, Packet, TcpFlags, TcpOptions

RULE_CAPACITY_DEFAULT = 65536
RULE_IDLE_TIMEOUT = 10.0  # seconds without a hit before the engine reports a rule aged


class RuleConflictError(RuntimeError):
    """A live rule already matches this FlowKey."""


class EngineCapacityError(RuntimeError):
    pass


class Rewrite(NamedTuple):
    """What a rule does to a packet it hits.  Rules match an exact 5-tuple,
    so the output key is the same for every packet a rule hits."""

    key: FlowKey
    seq_delta: int  # added to seq, wrapping modulo 2^32
    ack_delta: int  # added to ack, wrapping modulo 2^32


@dataclass
class Rule:
    match: FlowKey
    rewrite: Rewrite
    seq: Optional[int] = None        # when set, hit only payload-free packets at this seq
    ack: Optional[int] = None        # when set, hit only packets with this ack
    divert_seq: Optional[int] = None  # a packet with payload at this seq misses (one more slot)
    ready_at: float = 0.0            # effective from this time on
    gone_at: Optional[float] = None  # set by a delete: unmatchable from then on
    last_hit: float = 0.0

    @property
    def slots(self) -> int:
        """Engine entries the rule takes: its divert is an entry of its own."""
        return 1 if self.divert_seq is None else 2


# -- latency model --------------------------------------------------------------

TABLE_UPDATE_COSTS_US = {
    # batch size -> (per-rule insert us, per-rule delete us)
    1: (305.40, 57.49),
    2: (100.48, 24.48),
    8: (38.72, 19.42),
    16: (25.39, 18.08),
}
# (batch size, per-rule us) in batch-size order, for inserts and for deletes
_INSERT_US, _DELETE_US = (
    [(n, costs[i]) for n, costs in sorted(TABLE_UPDATE_COSTS_US.items())] for i in (0, 1))


def _per_rule_us(anchors: list[tuple[int, float]], batch_size: int) -> float:
    if batch_size < 1:
        raise ValueError("batch size must be >= 1")
    n0, c0 = anchors[0]
    if batch_size <= n0:
        return c0
    for n1, c1 in anchors[1:]:
        if batch_size == n1:
            return c1
        if batch_size < n1:
            return c0 + (batch_size - n0) / (n1 - n0) * (c1 - c0)
        n0, c0 = n1, c1
    return c0  # clamped beyond the largest measured batch


def insert_per_rule_us(batch_size: int) -> float:
    return _per_rule_us(_INSERT_US, batch_size)


def delete_per_rule_us(batch_size: int) -> float:
    return _per_rule_us(_DELETE_US, batch_size)


def insert_batch_seconds(batch_size: int) -> float:
    return insert_per_rule_us(batch_size) * batch_size * 1e-6


def delete_batch_seconds(batch_size: int) -> float:
    return delete_per_rule_us(batch_size) * batch_size * 1e-6


# -- engine ----------------------------------------------------------------------

_SHARD_SALT = 0x5EED0001  # of the port -> worker hash (FlowEngine.shard_of)
_FIN_RST = TcpFlags.FIN | TcpFlags.RST  # a connection end: every rule diverts it
_tuple_new = tuple.__new__  # builds a Packet from its fields, as Packet's own __new__ does


def _shift_sack(options: TcpOptions, ack: int, delta: int) -> Optional[TcpOptions]:
    """`options` with `delta` added to each SACK edge, modulo 2^32; None
    when a block's left edge lies below `ack`."""
    blocks = []
    for left, right in options.sack_blocks:
        if (left - ack) & 0xFFFFFFFF >= SEQ_HALF:
            return None
        blocks.append(((left + delta) & 0xFFFFFFFF, (right + delta) & 0xFFFFFFFF))
    return _tuple_new(TcpOptions, (options.mss, options.sack_permitted, tuple(blocks)))


@dataclass
class EngineStats:
    matched: int = 0
    missed: int = 0        # no_rule plus the five causes below: each miss counts once
    dropped: int = 0       # no rule drops; stays 0 in ingress = matched + missed + dropped
    not_ready: int = 0     # a rule before its ready_at: installing or re-targeting
    mismatched: int = 0    # a seq or ACK the rule does not match
    fin_rst_diverted: int = 0
    head_diverted: int = 0  # payload at the rule's divert seq
    sack_diverted: int = 0  # a SACK block's left edge below the packet's ACK
    rules_inserted: int = 0
    rules_deleted: int = 0
    rules_retargeted: int = 0  # rules modified in place, a divert counted as one more

    @property
    def no_rule(self) -> int:
        """Misses with no rule for the key, or one past its `gone_at`:
        derived, so a packet with no rule counts nothing more than `missed`."""
        return (self.missed - self.not_ready - self.mismatched - self.fin_rst_diverted
                - self.head_diverted - self.sack_diverted)


class FlowEngine:
    def __init__(self, n_workers: int = 1,
                 vips: Iterable[tuple[int, int]] = (),
                 capacity: int = RULE_CAPACITY_DEFAULT):
        self.capacity = capacity
        self.vips = set(vips)
        if n_workers < 1:
            raise ValueError("n_workers must be >= 1")
        self.n_workers = n_workers
        self.shards: dict[int, int] = {}
        self.rules: dict[FlowKey, Rule] = {}
        self.stats = EngineStats()

    # -- steering ---------------------------------------------------------------
    # Custom RSS: the port space is partitioned into per-worker shards.
    # Client packets steer by source port, server-side packets by destination
    # port; the splice agent picks backend ports in the client's shard, so a
    # connection's two directions always reach the same worker.
    #
    # A port's shard never changes, so it is remembered the first time the
    # port is seen (`shards`), as a NIC's RSS indirection table holds it.  The
    # memo fills lazily and is bounded by the port space.

    def shard_of(self, port: int) -> int:
        shard = self.shards.get(port)
        if shard is None:
            shard = self.shards[port] = mix64(port ^ _SHARD_SALT) % self.n_workers
        return shard

    def _steer(self, pkt: Packet) -> int:
        key = pkt.key
        port = key.src_port if (key.dst_addr, key.dst_port) in self.vips else key.dst_port
        shard = self.shards.get(port)
        return self.shard_of(port) if shard is None else shard

    # -- rule lifecycle -----------------------------------------------------------

    def insert_rules(self, batch: Sequence[Rule], now: float) -> float:
        """Install a batch.  Every rule becomes matchable at the returned
        completion time.  Duplicate live match -> RuleConflictError; no room
        once the rules past their `gone_at` are dropped -> EngineCapacityError.
        Either way nothing of the batch is installed."""
        if not batch:
            raise ValueError("empty batch")
        self._check_capacity(sum(r.slots for r in batch), now)
        for rule in batch:
            existing = self.rules.get(rule.match)
            if existing is not None and existing.gone_at is None:
                raise RuleConflictError(f"a live rule matches {rule.match}")
            if existing is not None:
                raise RuleConflictError(f"the rule for {rule.match} is still being deleted")
        done = now + insert_batch_seconds(len(batch))
        for rule in batch:
            rule.ready_at = done
            rule.last_hit = done
            self.rules[rule.match] = rule
        self.stats.rules_inserted += len(batch)
        return done

    def retarget_rules(self, batch: Sequence[Rule], now: float) -> float:
        """Modify live rules in one batch: each rule of `batch` takes the
        place of the live rule with its match.  Priced as an
        insert batch of its slots (see the module docstring); every packet
        the rules match misses to the worker until the returned time.  No
        live rule for a match -> KeyError; no room for the slots it adds ->
        EngineCapacityError.  Either way nothing changes."""
        if not batch:
            raise ValueError("empty batch")
        olds = [self.rules.get(rule.match) for rule in batch]
        if any(old is None or old.gone_at is not None for old in olds):
            raise KeyError("re-target of a rule that is not live")
        slots = sum(r.slots for r in batch)
        self._check_capacity(slots - sum(old.slots for old in olds), now)
        done = now + insert_batch_seconds(slots)
        for rule in batch:
            rule.ready_at = rule.last_hit = done
            self.rules[rule.match] = rule
        self.stats.rules_retargeted += slots
        return done

    def delete_rules(self, matches: Sequence[FlowKey], now: float) -> float:
        """Symmetric to insert; a match with no rule is an idempotent
        success.  Rules stay matchable while the delete is in flight and
        vanish at the returned completion time."""
        if not matches:
            raise ValueError("empty batch")
        done = now + delete_batch_seconds(len(matches))
        for match in matches:
            rule = self.rules.get(match)
            if rule is not None:
                rule.gone_at = done
        self.stats.rules_deleted += len(matches)
        return done

    def _check_capacity(self, added: int, now: float) -> None:
        """Room for `added` more slots once the rules past their `gone_at`
        are dropped, else EngineCapacityError."""
        self._expire_deleted(now)
        if sum(r.slots for r in self.rules.values()) + added > self.capacity:
            raise EngineCapacityError(f"rule capacity {self.capacity} exceeded")

    def _expire_deleted(self, now: float) -> None:
        gone = [k for k, r in self.rules.items()
                if r.gone_at is not None and r.gone_at <= now]
        for k in gone:
            del self.rules[k]

    # -- datapath ------------------------------------------------------------------

    def process(self, pkt: Packet, now: float) -> tuple[Packet, Optional[int]]:
        """Each ingress packet is exactly one of: hairpinned by the effective
        rule that matches it, `(rewritten packet, None)`, or missed to the
        steered worker, `(pkt, worker)`, under one cause: no such rule, a
        rule not yet ready, a seq or ack the rule does not match, a FIN or
        an RST, payload the rule's divert takes, or a SACK block below the
        packet's ACK.  A hit reads the packet's fields once, shifts its SACK
        edges by the ACK's constant when it carries any, and builds the
        hairpinned `Packet` in one positional construction."""
        rule = self.rules.get(pkt.key)
        if rule is not None:
            if rule.gone_at is not None and rule.gone_at <= now:
                del self.rules[pkt.key]
            elif now < rule.ready_at:
                self.stats.not_ready += 1
            else:
                _, seq, ack, flags, window, options, payload = pkt
                if not ((rule.seq is None or seq == rule.seq and not payload)
                        and (rule.ack is None or ack == rule.ack)):
                    self.stats.mismatched += 1
                elif flags & _FIN_RST:
                    self.stats.fin_rst_diverted += 1
                elif payload and seq == rule.divert_seq:
                    self.stats.head_diverted += 1
                # a packet with no SACK blocks keeps its options object
                elif options.sack_blocks and (options := _shift_sack(
                        options, ack, rule.rewrite.ack_delta)) is None:
                    self.stats.sack_diverted += 1
                else:
                    rule.last_hit = now
                    out_key, seq_delta, ack_delta = rule.rewrite
                    self.stats.matched += 1
                    return _tuple_new(Packet, (
                        out_key, (seq + seq_delta) & 0xFFFFFFFF,
                        (ack + ack_delta) & 0xFFFFFFFF, flags, window, options,
                        payload)), None
        self.stats.missed += 1
        return pkt, self._steer(pkt)

    def poll_aged(self, now: float) -> list[FlowKey]:
        """The matches of effective rules, not being deleted, with no hit for
        more than `RULE_IDLE_TIMEOUT`; the caller decides deletion."""
        self._expire_deleted(now)
        return [r.match for r in self.rules.values()
                if r.gone_at is None and now >= r.ready_at
                and now - r.last_hit > RULE_IDLE_TIMEOUT]
