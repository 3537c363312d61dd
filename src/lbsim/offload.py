"""Offload manager: decides which responses the flow engine rewrites.

The economics: rewriting one packet on a worker costs T; installing plus
deleting the engine rules of one offload costs P.  Offloading a response of
B bytes takes its B / MSS data segments off the worker, and the client's
ACKs of them, about one per segment, so it saves 2 * (B / MSS) * T of
worker time and pays off only when B >= (P / 2T) * MSS, the one threshold
`auto` uses (`formula_threshold`).  The simulator computes the manager's
threshold once per run, from its `offload_mode`: this one for `auto`, 0
for `always` (every framed response is offloaded), and infinity for
`never` (none is, and the worker carries every packet).  P prices the
rule work of a connection's first offload: one install and one delete of
the pair, at the deleter's batch size.  Each later response on that
connection pays a re-target instead (three rule slots, see below) and no
delete; the formula does not price that difference, and its threshold is
unchanged.  No offloaded response pays its rules' window in worker packets,
only in latency: the first response's is the hold's (below), later ones'
the latch's, which holds the request until the re-targeted rules are
ready.  Of a first response, only the server's first flight, which
reaches the LB while the pair installs, still passes through a worker.

An offload is a pair of rules, installed in one batch: the server rule
rewrites the response's data toward the client, and the client rule
rewrites the client's pure ACKs toward the server.  Both match the end of
the request bytes the worker has forwarded: the client rule the seq of
ACKs sent after them, the server rule the ACK of packets sent after the
server took them in.  So only packets the worker would map with the
rules' constants hit them (`build_offload_rule`, `build_client_ack_rule`).
The rules are named by their matches, the entry's `server_in_key` and
`client_key`: the engine holds one rule per match, and refuses a new rule
for a match until the old one is gone, so over a pair's life its keys name
its rules and no others.  `ConnEntry.offloaded` is set from install until
the deleter has seen both rules go.

Rule lifecycle:

- Install when a connection's first large response crosses the threshold,
  and keep the pair for the rest of the connection.  Until the install is
  ready the entry holds what the worker sends toward the client (`held`:
  the head that crossed the threshold, later data, relayed server ACKs, a
  server FIN), in arrival order, and the manager emits it at the ready
  time.  The client's first ACK of the response then leaves after the
  rules are ready, so its ACKs and the server's later flights hairpin.
  Held packets leave before any hairpin of their flow: until the ready
  time every packet of the flow misses to the worker, which holds it, and
  at that time the release runs before every event scheduled after the
  install (a server packet already on the link at the install passes it
  only by arriving at exactly that time).  The hold keeps no more payload
  than the client's advertised window: the packet that would pass it
  leaves at once with everything held, and the hold closes for this
  response.  An RST from either side, an abort or the entry's removal
  drops what it holds.  A refused install, a response past the reach
  bound and a re-target hold nothing.
- Re-target once per later request.  The client ACK that covers the whole
  response is hairpinned, so the worker sees completion on the next client
  packet the engine diverts to it: usually the next request, which the
  latch holds.  The pair is re-targeted at that request in one batch: the
  server rule takes the new `total_inserted` and matches the ACK at the
  request's end, the client rule matches the seq at that end, and the
  server rule's divert sends the next response's first segment, which
  carries its head, to the worker.  The worker reads the Content-Length
  there, so it sees that response complete too.  The request is released
  when the re-targeted rules are ready.
- Delete only when the connection closes or aborts, when the engine's
  aging poll reports a rule of the pair (every engine rule ages after
  `RULE_IDLE_TIMEOUT` seconds with no hit), or when a response has no
  length the worker can track (`resp_tracker_dead`); that last pair goes
  at once, since the worker would never see the response complete.  A
  dedicated deleter batches deletions, up to `DELETE_BATCH_PAIRS` pairs,
  and a request held meanwhile waits until both rules are really gone, so
  a stale rule never rewrites fresh traffic.

The reach bound.  The worker reads client ACKs and server seqs against the
last client ACK it saw (`unwrap`), and sees none while the engine carries a
response, so a response is offloaded only if `resp_end + 1`, its FIN's ACK,
lies less than `UNWRAP_ABOVE` (4 GiB less 16 MiB) past that ACK.  A kept
pair whose next response breaks the bound goes at once.
"""

from __future__ import annotations

from typing import Callable, Optional

from .flow_engine import (
    RULE_IDLE_TIMEOUT,  # defined by the engine, re-exported here
    EngineCapacityError,
    FlowEngine,
    Rewrite,
    Rule,
    RuleConflictError,
    delete_per_rule_us,
    insert_per_rule_us,
)
from .packet import UNWRAP_ABOVE, FlowKey, Packet, seq_add, seq_sub
from .splice import ConnEntry, SpliceAgent

T_PER_PACKET = 1 / 3.0e6  # one worker sustains ~3 Mpps
DELETE_FLUSH_TIMEOUT = 100e-6  # a partial delete batch waits at most this long
DELETE_BATCH_MAX = 16  # rules per delete batch: whole pairs, so even
DELETE_BATCH_PAIRS = DELETE_BATCH_MAX // 2


def p_rule_update() -> float:
    """Seconds to insert and delete the two rules of a connection's first
    offload, at the delete batch size."""
    return 2 * (insert_per_rule_us(DELETE_BATCH_MAX)
                + delete_per_rule_us(DELETE_BATCH_MAX)) * 1e-6


def formula_threshold(mss: int) -> float:
    """Response bytes from which an offload pays for its rule update: each
    offloaded data segment saves two worker packets, the segment and the
    client's ACK of it."""
    return (p_rule_update() / (2 * T_PER_PACKET)) * mss


def build_offload_rule(entry: ConnEntry, divert_seq: Optional[int] = None) -> Rule:
    """The server rule of an offload's pair; `build_client_ack_rule` builds
    the client rule.  Match server->LB packets of this connection that ACK
    the end of the forwarded request bytes; shift seq/ack by the same
    constant deltas the worker path applies to them (every insertion lies
    below that ACK, so the insertion-aware ACK map collapses to a
    constant, and so does the map of a SACK block at or above it), rewrite
    addresses to the client-facing flow, hairpin.  A
    server packet sent before the server took in the last request, such as
    a late resend of the previous response, carries a lower ACK and misses
    to the worker.  `divert_seq`, set on a re-target, sends the segment at
    the next response's start to the worker."""
    rewrite = Rewrite(
        key=entry.client_key.reverse(),
        seq_delta=seq_sub(entry.isn_lb_front, entry.isn_server),
        ack_delta=seq_sub(seq_sub(entry.isn_client, entry.isn_lb_back),
                          entry.total_inserted))
    return Rule(
        match=entry.server_in_key, rewrite=rewrite,
        ack=seq_add(entry.isn_lb_back, 1 + entry.fwd_hi + entry.total_inserted),
        divert_seq=divert_seq)


def build_client_ack_rule(entry: ConnEntry) -> Rule:
    """The client rule of an offload's pair: rewrite the client's pure ACKs
    toward the server, SACK blocks included, as `SpliceAgent.on_client_ack`
    does in the response phase.  Its deltas are the negatives of the server
    rule's ack and seq deltas; the engine adds the ack delta to each SACK
    edge too, since the response stream has no insertions.  It matches only
    the seq at the end of the request bytes forwarded so far: the latch
    holds `fwd_hi` there until the pair is re-targeted, and an ACK at any
    other seq (sent after a request the latch holds) needs the worker's
    mapping."""
    rewrite = Rewrite(
        key=entry.server_key,
        seq_delta=seq_sub(seq_add(entry.isn_lb_back, entry.total_inserted),
                          entry.isn_client),
        ack_delta=seq_sub(entry.isn_server, entry.isn_lb_front))
    return Rule(match=entry.client_key, rewrite=rewrite,
                seq=seq_add(entry.isn_client, 1 + entry.fwd_hi))


class OffloadManager:
    """Wires threshold decisions, rule installs, and the batching deleter.

    schedule(at, fn) must invoke fn(now) at simulated time `at`; emit(pkts,
    now) puts worker-generated packets (held requests, released) on the
    wire.  Both are provided by the simulator.
    """

    def __init__(self, engine: FlowEngine, agent: SpliceAgent, threshold: float,
                 schedule: Callable[[float, Callable[[float], None]], None],
                 emit: Callable[[list[Packet], float], None]):
        self.engine = engine
        self.agent = agent
        self.threshold = threshold  # response bytes from which to offload
        self.schedule = schedule
        self.emit = emit
        agent.offload = self
        # entries whose pairs wait for the deleter, in order; each counts 2 rules
        self.pending: list[ConnEntry] = []
        # the two matches of each pair not yet queued for deletion
        self._by_rule: dict[FlowKey, ConnEntry] = {}
        self._timer_gen = 0
        self.stats = {
            # rules_installed counts offloads: one per installed pair;
            # latch_waits counts held requests released, by re-target or delete
            "rules_installed": 0, "install_refusals": 0, "retargets": 0,
            "delete_batches": 0, "latch_waits": 0, "offloads_below_threshold": 0,
        }

    # -- signals from the splice agent -----------------------------------------

    def on_resp_len_known(self, entry: ConnEntry, resp_len: int, now: float) -> None:
        if entry.resp_end + 1 - entry.client_acked >= UNWRAP_ABOVE:
            self._enqueue_delete(entry, now)  # past the reach bound: a kept pair goes
            return
        if entry.offloaded:
            return  # the kept pair carries this response too, or is not yet gone
        if resp_len < self.threshold:
            self.stats["offloads_below_threshold"] += 1
            return
        try:
            done = self.engine.insert_rules(
                (build_offload_rule(entry), build_client_ack_rule(entry)), now)
        except (RuleConflictError, EngineCapacityError):
            self.stats["install_refusals"] += 1
            return  # the response stays on the worker path
        entry.offloaded = True
        self._by_rule[entry.server_in_key] = self._by_rule[entry.client_key] = entry
        self.stats["rules_installed"] += 1
        held = entry.held = []

        def release(t: float) -> None:
            if entry.held is held:  # not dropped, and not closed by the window cap
                entry.held = None
                self.emit(held, t)

        self.schedule(done, release)

    def hold(self, entry: ConnEntry, out: list[Packet]) -> list[Packet]:
        """Add the worker's packets toward the client to the entry's open
        hold; what leaves now.  Packets that would take the held payload
        past the client's advertised window leave with everything held,
        and the hold closes for this response."""
        held = entry.held
        held += out
        if sum(len(p.payload) for p in held) <= entry.client_window:
            return []
        entry.held = None
        return held

    def on_response_complete(self, entry: ConnEntry, now: float) -> None:
        """The response the pair serves is complete: the next request may
        re-target the pair, at once if it is already held."""
        if self._kept(entry):
            entry.retarget_due = True
            if entry.deferred:
                self._release(entry, now)

    def on_request_held(self, entry: ConnEntry, now: float) -> None:
        if entry.retarget_due and self._kept(entry):
            self._release(entry, now)

    def on_tracker_dead(self, entry: ConnEntry, now: float) -> None:
        """The worker cannot frame a response, so it would never see one
        complete: the pair goes at once, not when it ages out."""
        self._enqueue_delete(entry, now)

    def on_entry_removed(self, entry: ConnEntry, now: float) -> None:
        entry.held = None  # an RST, an abort or a close drops the held packets
        self._enqueue_delete(entry, now)

    def on_rules_aged(self, matches: list[FlowKey], now: float) -> None:
        for match in matches:
            entry = self._by_rule.get(match)
            if entry is not None:
                self._enqueue_delete(entry, now)

    # -- the re-target -------------------------------------------------------------

    def _kept(self, entry: ConnEntry) -> bool:
        """The entry has a pair not queued for deletion."""
        return self._by_rule.get(entry.client_key) is entry

    def _release(self, entry: ConnEntry, now: float) -> None:
        """Run the held client bytes.  Once they complete a request, re-target
        the pair at it and release the request when the rules are ready.
        Bytes short of that (part of a head, or of a body) leave at once:
        the rules still match the previous request's end, seq and ACK, so
        nothing that follows these bytes can hit them.  Pipelined requests
        leave at once too, and the pair goes, since the divert can show the
        worker only the first of their responses' heads; so does a request
        when the engine has no slot for the divert."""
        fwd_hi, heads = entry.fwd_hi, entry.heads
        out = self.agent.replay_deferred(entry, now)
        if entry.closed or entry.fwd_hi == fwd_hi or entry.fwd_hi < entry.body_end:
            self.emit(out, now)
            return
        if entry.heads - heads <= 1:
            divert = seq_add(entry.isn_server, 1 + entry.resp_head_buf.base)
            try:
                done = self.engine.retarget_rules(
                    (build_offload_rule(entry, divert), build_client_ack_rule(entry)), now)
            except EngineCapacityError:
                self.stats["install_refusals"] += 1
            else:
                entry.retarget_due = False
                self.stats["retargets"] += 1
                self.stats["latch_waits"] += 1

                def release(t: float) -> None:
                    if not entry.closed:
                        self.emit(out, t)

                self.schedule(done, release)
                return
        self.emit(out, now)
        self._enqueue_delete(entry, now)

    # -- the dedicated deleter ---------------------------------------------------

    def _enqueue_delete(self, entry: ConnEntry, now: float) -> None:
        """Queue the entry's rule pair once; later signals for it are no-ops."""
        if not self._kept(entry):
            return
        del self._by_rule[entry.server_in_key], self._by_rule[entry.client_key]
        self.pending.append(entry)
        if len(self.pending) >= DELETE_BATCH_PAIRS:
            self._flush(now)
        elif len(self.pending) == 1:
            self._arm_timer(now)

    def _arm_timer(self, now: float) -> None:
        self._timer_gen += 1
        gen = self._timer_gen
        self.schedule(now + DELETE_FLUSH_TIMEOUT,
                      lambda t, g=gen: self._on_timer(g, t))

    def _on_timer(self, gen: int, now: float) -> None:
        if gen == self._timer_gen and self.pending:
            self._flush(now)

    def _flush(self, now: float) -> None:
        """Delete every pending pair's rules in one batch, at most
        `DELETE_BATCH_MAX`: `_enqueue_delete` flushes at a full batch."""
        self._timer_gen += 1  # cancel any armed timer
        batch, self.pending = tuple(self.pending), []
        done = self.engine.delete_rules(
            [key for e in batch for key in (e.server_in_key, e.client_key)], now)
        self.stats["delete_batches"] += 1
        self.schedule(done, lambda t: self._deletion_done(batch, t))

    def _deletion_done(self, batch: tuple[ConnEntry, ...], now: float) -> None:
        for entry in batch:
            entry.offloaded = entry.retarget_due = False
            if entry.deferred and not entry.closed:
                self.stats["latch_waits"] += 1
                out = self.agent.replay_deferred(entry, now)
                if out:
                    self.emit(out, now)
