"""Offload manager: decides which responses the flow engine rewrites.

The economics: rewriting one packet on a worker costs T; installing plus
deleting one engine rule costs P.  Offloading a response of B bytes saves
(B / MSS) * T of worker time, so it pays off only when B >= (P / T) * MSS.
Deployments usually set a higher override threshold on top of the formula.

Rule lifecycle: install when a response crosses the threshold, without
waiting for it (workers keep rewriting identically until the rule turns
ready); when the client has ACKed the whole response the rule id goes to a
dedicated deleter that batches deletions; the connection's next request
stays latched until its rule is really gone, so a stale rule can never
rewrite fresh traffic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from .flow_engine import FlowEngine, LatencyModel, Rewrite, Rule, RuleConflictError
from .packet import Packet, seq_sub
from .splice import ConnEntry, SpliceAgent

T_PER_PACKET_DEFAULT = 1 / 3.0e6  # one worker sustains ~3 Mpps


@dataclass(frozen=True)
class OffloadParams:
    b_override: Optional[int] = 1 << 20     # deployment threshold: 1 MiB
    mss: int = 1460
    t_per_packet: float = T_PER_PACKET_DEFAULT
    delete_batch_max: int = 16
    delete_flush_timeout: float = 100e-6
    rule_idle_timeout: float = 10.0

    @property
    def p_rule_update(self) -> float:
        """Seconds to insert and delete one rule, at the delete batch size."""
        model = LatencyModel()
        return (model.insert_per_rule_us(self.delete_batch_max)
                + model.delete_per_rule_us(self.delete_batch_max)) * 1e-6

    @property
    def formula_threshold(self) -> float:
        return (self.p_rule_update / self.t_per_packet) * self.mss

    @property
    def effective_threshold(self) -> float:
        if self.b_override is None:
            return self.formula_threshold
        return max(self.b_override, self.formula_threshold)


def should_offload(resp_len: Optional[int], params: OffloadParams) -> bool:
    """True iff the response is big enough to pay for the rule update.
    Unknown length (no Content-Length, chunked) never offloads."""
    return resp_len is not None and resp_len >= params.effective_threshold


def build_offload_rule(engine: FlowEngine, entry: ConnEntry,
                       idle_timeout: Optional[float]) -> Rule:
    """Match server->LB packets of this connection; shift seq/ack by the
    same constant deltas the worker path applies during the response phase
    (the request is fully ACKed, so the insertion-aware ACK map collapses to
    a constant), rewrite addresses to the client-facing flow, hairpin."""
    rewrite = Rewrite(
        key=entry.client_key.reverse(),
        seq_delta=seq_sub(entry.isn_lb_front, entry.isn_server),
        ack_delta=seq_sub(seq_sub(entry.isn_client, entry.isn_lb_back),
                          entry.total_inserted))
    return engine.make_rule(match=entry.server_in_key, rewrite=rewrite,
                            idle_timeout=idle_timeout)


class OffloadManager:
    """Wires threshold decisions, rule installs, and the batching deleter.

    schedule(at, fn) must invoke fn(now) at simulated time `at`; emit(pkts,
    now) puts worker-generated packets (deferred-request replays) on the
    wire.  Both are provided by the simulator.
    """

    def __init__(self, engine: FlowEngine, agent: SpliceAgent, params: OffloadParams,
                 schedule: Callable[[float, Callable[[float], None]], None],
                 emit: Callable[[list[Packet], float], None]):
        self.engine = engine
        self.agent = agent
        self.params = params
        self.schedule = schedule
        self.emit = emit
        agent.offload = self
        self.force = False  # bench knob: offload regardless of size
        self.pending: list[tuple[int, ConnEntry]] = []
        self._by_rule: dict[int, ConnEntry] = {}
        self._timer_gen = 0
        self.stats = {
            "rules_installed": 0, "rule_conflicts": 0, "deletes_enqueued": 0,
            "delete_batches": 0, "latch_waits": 0, "offloads_skipped_small": 0,
        }

    # -- signals from the splice agent -----------------------------------------

    def on_resp_len_known(self, entry: ConnEntry, resp_len: int, now: float) -> None:
        if entry.offload_rule is not None or entry.latched:
            return  # crossing already handled, or prior rule not yet clean
        if not self.force and not should_offload(resp_len, self.params):
            self.stats["offloads_skipped_small"] += 1
            return
        rule = build_offload_rule(self.engine, entry, self.params.rule_idle_timeout)
        try:
            self.engine.insert_rules([rule], now)
        except RuleConflictError:
            self.stats["rule_conflicts"] += 1
            return
        entry.offload_rule = rule.id
        entry.latched = True
        self._by_rule[rule.id] = entry
        self.stats["rules_installed"] += 1

    def on_response_complete(self, entry: ConnEntry, now: float) -> None:
        if entry.offload_rule is None:
            return
        self._enqueue_delete(entry.offload_rule, now)

    def on_entry_removed(self, entry: ConnEntry, now: float) -> None:
        if entry.offload_rule is not None:
            self._enqueue_delete(entry.offload_rule, now)

    def on_rules_aged(self, rule_ids: list[int], now: float) -> None:
        for rid in rule_ids:
            if rid in self._by_rule and all(rid != r for r, _ in self.pending):
                self._enqueue_delete(rid, now)

    # -- the dedicated deleter ---------------------------------------------------

    def _enqueue_delete(self, rule_id: int, now: float) -> None:
        entry = self._by_rule.get(rule_id)
        if entry is None:
            return
        self.pending.append((rule_id, entry))
        self.stats["deletes_enqueued"] += 1
        if len(self.pending) >= self.params.delete_batch_max:
            self._flush(now)
        elif len(self.pending) == 1:
            self._arm_timer(now)

    def _arm_timer(self, now: float) -> None:
        self._timer_gen += 1
        gen = self._timer_gen
        self.schedule(now + self.params.delete_flush_timeout,
                      lambda t, g=gen: self._on_timer(g, t))

    def _on_timer(self, gen: int, now: float) -> None:
        if gen == self._timer_gen and self.pending:
            self._flush(now)

    def _flush(self, now: float) -> None:
        self._timer_gen += 1  # cancel any armed timer
        batch = self.pending[:self.params.delete_batch_max]
        self.pending = self.pending[len(batch):]
        done = self.engine.delete_rules([rid for rid, _ in batch], now)
        self.stats["delete_batches"] += 1
        self.schedule(done, lambda t, b=tuple(batch): self._deletion_done(b, t))
        if self.pending:
            self._arm_timer(now)

    def _deletion_done(self, batch: tuple[tuple[int, ConnEntry], ...], now: float) -> None:
        for rid, entry in batch:
            self._by_rule.pop(rid, None)
            if entry.offload_rule == rid:
                entry.offload_rule = None
                entry.latched = False
                if entry.deferred and not entry.closed:
                    self.stats["latch_waits"] += 1
                    out = self.agent.replay_deferred(entry, now)
                    if out:
                        self.emit(out, now)
