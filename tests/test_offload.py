import heapq
import math
import random

import pytest

from lbsim.conntable import CuckooTable, TableConfig
from lbsim.flow_engine import FlowEngine, insert_batch_seconds
from lbsim.netsim import Simulation, SimParams, WorkloadParams
from lbsim.offload import (
    OffloadManager,
    RULE_IDLE_TIMEOUT,
    T_PER_PACKET,
    build_offload_rule,
    formula_threshold,
)
from lbsim.packet import UNWRAP_ABOVE, FlowKey, Packet, TcpFlags, seq_add, seq_sub
from lbsim.splice import ConnEntry, InsertionPoint, SpliceState

from test_splice_agent import (
    GET,
    XFF,
    client_key,
    establish,
    make_agent,
    shard_of,
    spliced_payloads,
)


def test_formula_threshold_from_measured_latencies():
    # P at batch 16, two rules per offload: 2 * (25.39 + 18.08) us;
    # each segment saves 2T (itself and its ACK), T = 1/3 us; MSS = 1460
    p_us = 2 * (25.39 + 18.08)
    expected = (p_us / (2 / 3)) * 1460
    assert expected == pytest.approx(190_398.6, abs=0.1)
    assert formula_threshold(1460) == pytest.approx(expected)


def test_default_t_is_one_over_three_mpps():
    assert T_PER_PACKET == pytest.approx(0.3333e-6, rel=1e-3)


class Sim:
    """Minimal scheduler standing in for the event loop."""

    def __init__(self):
        self.q = []
        self.n = 0
        self.now = 0.0
        self.emitted = []
        self.emit_times = []  # the time each packet of `emitted` left

    def schedule(self, at, fn):
        heapq.heappush(self.q, (at, self.n, fn))
        self.n += 1

    def emit(self, pkts, now):
        self.emitted.extend(pkts)
        self.emit_times.extend([now] * len(pkts))

    def run_until(self, t):
        while self.q and self.q[0][0] <= t:
            at, _, fn = heapq.heappop(self.q)
            self.now = at
            fn(at)
        self.now = t


def offload_setup(threshold=formula_threshold(1460)):
    agent = make_agent()
    engine = FlowEngine(n_workers=4, vips=[(0x0A0000FE, 80)])
    sim = Sim()
    mgr = OffloadManager(engine, agent, threshold, sim.schedule, sim.emit)
    return agent, engine, sim, mgr


def live_rule(engine, key, now):
    """The rule that matches key and is not gone at now, if any."""
    rule = engine.rules.get(key)
    if rule is None or (rule.gone_at is not None and rule.gone_at <= now):
        return None
    return rule


def established_entry(agent, port=40000):
    ck = client_key(port=port)
    entry, _ = establish(agent, ck)
    return ck, entry


def first_response_pkt(entry, body_len, framing=None):
    if framing is None:
        framing = b"Content-Length: %d" % body_len
    head = b"HTTP/1.1 200 OK\r\n%s\r\n\r\n" % framing
    return Packet(key=entry.server_in_key, seq=seq_add(entry.isn_server, 1),
                  ack=seq_add(seq_add(entry.isn_lb_back, 1),
                              entry.fwd_hi + entry.total_inserted),
                  flags=TcpFlags.ACK | TcpFlags.PSH, payload=head)


def test_threshold_crossing_installs_hairpin_rule():
    agent, engine, sim, mgr = offload_setup()
    ck, entry = established_entry(agent)
    pkt = first_response_pkt(entry, 4 << 20)
    agent.handle_packet(pkt, 1.0, worker_id=shard_of(ck.src_port))
    assert entry.offloaded
    rule = live_rule(engine, entry.server_in_key, 1.0)
    assert rule is not None
    assert rule.ready_at == pytest.approx(1.0 + 2 * 100.48e-6)  # a batch of two
    assert mgr.stats["rules_installed"] == 1


@pytest.mark.parametrize("mss, threshold", [(1460, 190_399), (8960, 1_168_474)])
def test_the_formula_threshold_is_the_only_offload_boundary(mss, threshold):
    agent, engine, sim, mgr = offload_setup(formula_threshold(mss))
    assert math.ceil(mgr.threshold) == threshold
    _, below = established_entry(agent, port=40000)
    _, at = established_entry(agent, port=40004)
    below.resp_end, at.resp_end = threshold - 1, threshold  # as the agent sets them first
    mgr.on_resp_len_known(below, threshold - 1, 1.0)
    assert not below.offloaded
    assert mgr.stats["offloads_below_threshold"] == 1
    mgr.on_resp_len_known(at, threshold, 1.0)
    assert at.offloaded
    assert mgr.stats["rules_installed"] == 1


def test_should_offload_cases():
    # Through the agent: a length at or over the threshold offloads; a small
    # one is skipped; an unknown length (chunked) never reaches the decision.
    cases = [(16 << 20, None, True), (1 << 20, None, True),
             (1024, None, False), (0, b"Transfer-Encoding: chunked", False)]
    for i, (body_len, framing, offloads) in enumerate(cases):
        agent, engine, sim, mgr = offload_setup()
        ck, entry = established_entry(agent, port=40000 + 4 * i)
        agent.handle_packet(first_response_pkt(entry, body_len, framing), 1.0,
                            worker_id=shard_of(ck.src_port))
        assert entry.offloaded == offloads
        assert mgr.stats["rules_installed"] == int(offloads)
        assert mgr.stats["offloads_below_threshold"] == int(body_len == 1024)
    assert entry.resp_tracker_dead and entry.resp_len is None


def test_small_response_skips_offload():
    agent, engine, sim, mgr = offload_setup()
    ck, entry = established_entry(agent)
    agent.handle_packet(first_response_pkt(entry, 1024), 1.0,
                        worker_id=shard_of(ck.src_port))
    assert not entry.offloaded
    assert mgr.stats["offloads_below_threshold"] == 1


def test_double_crossing_is_idempotent():
    agent, engine, sim, mgr = offload_setup()
    ck, entry = established_entry(agent)
    pkt = first_response_pkt(entry, 4 << 20)
    agent.handle_packet(pkt, 1.0, worker_id=shard_of(ck.src_port))
    agent.handle_packet(pkt, 1.0, worker_id=shard_of(ck.src_port))  # dup segment
    assert mgr.stats["rules_installed"] == 1


def test_engine_rewrite_matches_worker_rewrite_bit_for_bit():
    agent, engine, sim, mgr = offload_setup()
    ck, entry = established_entry(agent)
    rule = build_offload_rule(entry)
    engine.insert_rules([rule], now=0.0)
    rng = random.Random(99)
    resp_off = 40  # somewhere inside the response stream
    for _ in range(2000):
        seq = seq_add(seq_add(entry.isn_server, 1), resp_off + rng.randrange(0, 1 << 20))
        ack = seq_add(seq_add(entry.isn_lb_back, 1),
                      entry.fwd_hi + entry.total_inserted)
        pkt = Packet(key=entry.server_in_key, seq=seq, ack=ack,
                     flags=TcpFlags.ACK | TcpFlags.PSH,
                     payload=rng.randbytes(rng.randrange(1, 64)))
        got, worker = engine.process(pkt, now=1.0)
        assert worker is None
        assert got == agent.on_server_packet(pkt, entry, 1.0)[0]


def test_rule_pair_installs_and_deletes_as_one_batch():
    agent, engine, sim, mgr = offload_setup()
    ck, entry = established_entry(agent)
    agent.handle_packet(first_response_pkt(entry, 4 << 20), 1.0,
                        worker_id=shard_of(ck.src_port))
    server, client = (engine.rules[k] for k in (entry.server_in_key, ck))
    assert entry.offloaded
    assert server.seq is None and client.seq is not None
    assert server.ready_at == client.ready_at
    mgr.on_response_complete(entry, 2.0)  # the pair is kept for the next request
    assert not mgr.pending
    mgr.on_entry_removed(entry, 2.0)
    mgr.on_rules_aged([server.match], 2.0)  # later signals queue nothing more
    mgr.on_tracker_dead(entry, 2.0)
    assert len(mgr.pending) == 1
    sim.run_until(2.0 + 100e-6)
    assert server.gone_at == client.gone_at == pytest.approx(2.0 + 100e-6 + 2 * 24.48e-6)
    assert engine.stats.rules_deleted == 2


def test_sixteen_removals_flush_two_batches_of_16():
    """Pairs leave in batches of DELETE_BATCH_MAX rules, never split: 16
    removals flush two full batches at once, and a 17th waits for the
    flush timer and leaves as one whole pair."""
    agent, engine, sim, mgr = offload_setup()
    batches = []
    delete = engine.delete_rules

    def recording_delete(keys, now):
        batches.append((now, list(keys)))
        return delete(keys, now)

    engine.delete_rules = recording_delete
    entries = []
    for i in range(17):
        ck, entry = established_entry(agent, port=41000 + i * 4)  # same shard
        agent.handle_packet(first_response_pkt(entry, 4 << 20), 1.0,
                            worker_id=shard_of(ck.src_port))
        entries.append(entry)
    assert mgr.stats["rules_installed"] == 17
    for entry in entries:
        mgr.on_entry_removed(entry, 2.0)
    assert mgr.stats["delete_batches"] == 2  # 32 rules: two batches of 16
    assert mgr.pending == [entries[16]]  # waiting for the flush timer
    sim.run_until(2.0 + 16 * 18.08e-6 - 1e-9)  # batch-16 cost not yet elapsed
    assert all(e.offloaded for e in entries[:16]) and not entries[16].offloaded
    sim.run_until(2.0 + 16 * 18.08e-6 + 1e-9)
    assert not any(e.offloaded for e in entries)
    pairs = [[e.server_in_key, e.client_key] for e in entries]
    assert batches == [(2.0, sum(pairs[:8], [])), (2.0, sum(pairs[8:16], [])),
                       (2.0 + 100e-6, pairs[16])]


def test_single_removal_flushes_on_timeout_at_batch1_cost():
    agent, engine, sim, mgr = offload_setup()
    ck, entry = established_entry(agent)
    agent.handle_packet(first_response_pkt(entry, 4 << 20), 1.0,
                        worker_id=shard_of(ck.src_port))
    mgr.on_entry_removed(entry, 2.0)
    assert mgr.stats["delete_batches"] == 0  # waiting for the flush timer
    sim.run_until(2.0 + 100e-6)
    assert mgr.stats["delete_batches"] == 1
    sim.run_until(2.0 + 100e-6 + 2 * 24.48e-6 - 1e-9)  # batch-2 cost not yet elapsed
    assert entry.offloaded
    sim.run_until(2.0 + 100e-6 + 2 * 24.48e-6)
    assert not entry.offloaded


def test_next_request_held_until_rule_clean_then_replayed():
    """The next request waits in the latch until the response completes and
    the pair is re-targeted at it, and leaves, with its insertion, only
    when the re-targeted rules are ready.  The response head, held while
    the pair installs, leaves when the installed rules are ready."""
    agent, engine, sim, mgr = offload_setup()
    ck, entry = established_entry(agent)
    assert agent.handle_packet(first_response_pkt(entry, 4 << 20), 1.0,
                               worker_id=shard_of(ck.src_port)) == []
    assert entry.offloaded
    installed = engine.rules[ck].ready_at
    assert installed == pytest.approx(1.0 + insert_batch_seconds(2))
    req2 = b"GET /api/y HTTP/1.1\r\nHost: h\r\n\r\n"
    pkt2 = Packet(key=ck, seq=seq_add(1000, len(GET)),
                  ack=seq_add(entry.isn_lb_front, 1),
                  flags=TcpFlags.ACK | TcpFlags.PSH, payload=req2)
    out = agent.handle_packet(pkt2, 2.0, worker_id=shard_of(ck.src_port))
    assert out == []
    assert entry.deferred
    mgr.on_response_complete(entry, 2.0)
    ready_at = engine.rules[ck].ready_at
    assert ready_at == pytest.approx(2.0 + insert_batch_seconds(3))
    sim.run_until(ready_at - 1e-9)
    assert sim.emit_times == [installed]  # the head alone
    assert sim.emitted[0].key == ck.reverse()
    sim.run_until(3.0)
    assert set(sim.emit_times[1:]) == {ready_at}
    assert mgr._kept(entry)  # kept, and re-targeted at the request
    assert engine.rules[ck].seq == seq_add(1000, len(GET + req2))
    assert not entry.deferred
    data = b"".join(p.payload for p in sim.emitted if p.payload)
    assert b"GET /api/y" in data
    assert len(entry.insertions) == 2  # the held request was processed


def test_held_resend_replayed_with_its_insertion_still_live():
    agent, engine, sim, mgr = offload_setup()
    ck, entry = established_entry(agent)
    w = shard_of(ck.src_port)
    head = first_response_pkt(entry, 4 << 20)  # its ACK passes the insertion
    assert agent.handle_packet(head, 1.0, worker_id=w) == []
    assert entry.offloaded
    # the client saw no ACK: it resends its request with the next one, and
    # the latch holds the segment
    req2 = b"GET /api/y HTTP/1.1\r\nHost: h\r\n\r\n"
    held = Packet(key=ck, seq=1000, ack=seq_add(entry.isn_lb_front, 1),
                  flags=TcpFlags.ACK | TcpFlags.PSH, payload=GET + req2)
    assert agent.handle_packet(held, 2.0, worker_id=w) == []
    # then it ACKs the whole response, mostly relayed by the engine
    resp_len = len(head.payload) + (4 << 20)
    agent.handle_packet(Packet(key=ck, seq=seq_add(1000, len(GET + req2)),
                               ack=seq_add(entry.isn_lb_front, 1 + resp_len),
                               flags=TcpFlags.ACK), 3.0, worker_id=w)
    sim.run_until(4.0)
    assert not entry.deferred
    # the head, held while the pair installed, left when it was ready; the
    # request, when the re-targeted pair was
    assert sim.emit_times[0] == pytest.approx(1.0 + insert_batch_seconds(2))
    assert sim.emitted[0].key == ck.reverse()
    assert set(sim.emit_times[1:]) == {3.0 + insert_batch_seconds(3)}
    # the ACKed insertion's bytes are skipped; the rest of the first request,
    # req2 and req2's insertion leave as one run
    assert spliced_payloads(entry, sim.emitted[1:])[:2] == [(0, 30), (57, 2 + 32 + 27)]


def held_flight(entry, n, fin=False):
    """The first response's head, then n full segments of its body, as the
    server sends them, then a FIN when `fin`."""
    head = first_response_pkt(entry, 4 << 20)
    pkts = [head]
    for i in range(n):
        pkts.append(head._replace(seq=seq_add(head.seq, len(head.payload) + 1460 * i),
                                  payload=bytes([i]) * 1460))
    if fin:
        pkts.append(head._replace(seq=seq_add(head.seq, len(head.payload) + 1460 * n),
                                  flags=TcpFlags.ACK | TcpFlags.FIN, payload=b""))
    return pkts


def test_the_first_install_holds_the_response_until_its_pair_is_ready():
    """While the first pair installs, the worker's packets toward the client,
    the head that triggered the install, later data and a relayed server
    ACK, wait on the entry; they leave in arrival order at the install's
    ready time, none earlier, as the worker would have sent them."""
    agent, engine, sim, mgr = offload_setup()
    ck, entry = established_entry(agent)
    w = shard_of(ck.src_port)
    pkts = held_flight(entry, 3)
    pkts.insert(2, pkts[0]._replace(seq=pkts[2].seq, flags=TcpFlags.ACK, payload=b""))
    ready_at = 1.0 + insert_batch_seconds(2)
    want = []
    for i, pkt in enumerate(pkts):
        now = 1.0 + i * 10e-6
        assert agent.handle_packet(pkt, now, worker_id=w) == []
        want.append(pkt._replace(key=ck.reverse(),
                                 seq=seq_add(pkt.seq, seq_sub(entry.isn_lb_front,
                                                              entry.isn_server)),
                                 ack=seq_add(1000, len(GET))))
    assert engine.rules[ck].ready_at == ready_at
    assert entry.relayed_hi == len(pkts[0].payload) + 3 * 1460  # held bytes count
    sim.run_until(ready_at - 1e-9)
    assert sim.emitted == []
    sim.run_until(ready_at)
    assert sim.emitted == want and sim.emit_times == [ready_at] * len(want)
    assert entry.held is None
    later = pkts[-1]._replace(seq=seq_add(pkts[-1].seq, 1460))
    assert len(agent.handle_packet(later, ready_at, worker_id=w)) == 1  # the hold is over


def test_a_server_fin_in_the_hold_leaves_after_the_held_data():
    agent, engine, sim, mgr = offload_setup()
    ck, entry = established_entry(agent)
    w = shard_of(ck.src_port)
    pkts = held_flight(entry, 2, fin=True)
    for pkt in pkts:
        assert agent.handle_packet(pkt, 1.0, worker_id=w) == []
    sim.run_until(2.0)
    assert [bool(p.flags & TcpFlags.FIN) for p in sim.emitted] == [False] * 3 + [True]
    assert [p.payload for p in sim.emitted[:3]] == [p.payload for p in pkts[:3]]
    fin = sim.emitted[-1]
    assert fin.seq == seq_add(sim.emitted[2].seq, 1460) and not fin.payload


@pytest.mark.parametrize("close", ["client_rst", "server_rst", "abort"])
def test_teardown_in_the_hold_drops_the_held_packets(close):
    """An RST from either side, or an abort, drops what the hold keeps: the
    RST itself leaves at once, and nothing leaves at the ready time."""
    agent, engine, sim, mgr = offload_setup()
    ck, entry = established_entry(agent)
    w = shard_of(ck.src_port)
    head, data = held_flight(entry, 1)
    for pkt in (head, data):
        assert agent.handle_packet(pkt, 1.0, worker_id=w) == []
    if close == "abort":
        out = agent._abort(entry, 1.0001)
    else:
        key, seq = (ck, 1000) if close == "client_rst" else (entry.server_in_key, data.seq)
        out = agent.handle_packet(Packet(key=key, seq=seq, flags=TcpFlags.RST), 1.0001,
                                  worker_id=w)
    assert out and all(p.flags & TcpFlags.RST for p in out)
    if close == "abort":
        rst = next(p for p in out if p.key == ck.reverse())
        # past the held bytes, though the client never saw them
        assert seq_sub(rst.seq, seq_add(entry.isn_lb_front, 1)) >= entry.relayed_hi
    assert entry.closed and entry.held is None
    sim.run_until(2.0)
    assert sim.emitted == []


def test_the_hold_never_keeps_more_than_the_clients_window():
    """The packet that would take the held payload past the client's
    advertised window leaves with everything held, and the hold closes:
    later packets pass at once, and nothing leaves at the ready time."""
    agent, engine, sim, mgr = offload_setup()
    ck, entry = established_entry(agent)
    w = shard_of(ck.src_port)
    entry.client_window = 3000
    pkts = held_flight(entry, 4)
    for pkt in pkts[:3]:  # the head and 2920 bytes: 2964 held
        assert agent.handle_packet(pkt, 1.0, worker_id=w) == []
        assert sum(len(p.payload) for p in entry.held) <= entry.client_window
    out = agent.handle_packet(pkts[3], 1.0, worker_id=w)
    assert [p.payload for p in out] == [p.payload for p in pkts[:4]]
    assert entry.held is None
    assert [p.payload for p in agent.handle_packet(pkts[4], 1.0, worker_id=w)] == \
        [pkts[4].payload]
    sim.run_until(2.0)
    assert sim.emitted == []


def test_a_retarget_opens_no_hold():
    """A later response's rule window is the latch's: its head, which the
    re-targeted rule diverts to the worker, leaves at once."""
    agent, engine, sim, mgr = offload_setup()
    ck, entry = retargeted_at_req2(agent, engine, sim, mgr, 4 << 20)
    head = diverted_head(engine, entry, response_head(4 << 20))
    out = agent.handle_packet(head, 3.0, worker_id=shard_of(ck.src_port))
    assert [p.payload for p in out] == [head.payload]
    assert entry.resp_len == 4 << 20 and entry.held is None


def test_abort_mid_offload_resets_the_client_past_the_hairpinned_bytes():
    """Halfway through an offloaded response the engine has carried bytes
    the worker never relayed; the client's RST goes past the last byte the
    server rule may have hairpinned, the response's end."""
    agent, engine, sim, mgr = offload_setup()
    ck, entry = established_entry(agent)
    head = first_response_pkt(entry, 4 << 20)
    agent.handle_packet(head, 1.0, worker_id=shard_of(ck.src_port))
    half = Packet(key=entry.server_in_key, seq=seq_add(head.seq, 2 << 20), ack=head.ack,
                  flags=TcpFlags.ACK | TcpFlags.PSH, payload=bytes(1460))
    hairpinned, worker = engine.process(half, 2.0)
    assert worker is None
    resp_end = len(head.payload) + (4 << 20)
    assert entry.resp_end == resp_end
    rst = agent._abort(entry, 2.0)[0]
    assert (rst.key, rst.flags) == (ck.reverse(), TcpFlags.RST)
    assert rst.seq == seq_add(entry.isn_lb_front, 1 + resp_end)
    # in server-stream offsets, past the hairpinned segment and the relayed bytes
    hairpinned_end = seq_sub(hairpinned.seq_end(), seq_add(entry.isn_lb_front, 1))
    assert resp_end > hairpinned_end and resp_end > entry.relayed_hi


def test_unframed_later_response_deletes_the_kept_pair_at_once():
    """A kept pair's next response that the worker cannot frame would never
    be seen complete, so the pair goes at once, and the request held
    behind it leaves when both rules are gone, not when they age out."""
    agent, engine, sim, mgr = offload_setup()
    ck, entry = established_entry(agent)
    w = shard_of(ck.src_port)
    head = first_response_pkt(entry, 4 << 20)
    agent.handle_packet(head, 1.0, worker_id=w)
    resp_end = entry.resp_end
    req2 = b"GET /api/y HTTP/1.1\r\nHost: h\r\n\r\n"
    req3 = b"GET /api/z HTTP/1.1\r\nHost: h\r\n\r\n"

    def request(seq, data):
        return Packet(key=ck, seq=seq, ack=seq_add(entry.isn_lb_front, 1 + resp_end),
                      flags=TcpFlags.ACK | TcpFlags.PSH, payload=data)

    agent.handle_packet(request(seq_add(1000, len(GET)), req2), 2.0, worker_id=w)
    sim.run_until(2.5)  # re-targeted at req2, which has left
    assert mgr.stats["retargets"] == 1 and not mgr.pending
    chunked = Packet(key=entry.server_in_key, seq=seq_add(entry.isn_server, 1 + resp_end),
                     ack=engine.rules[entry.server_in_key].ack,
                     flags=TcpFlags.ACK | TcpFlags.PSH,
                     payload=b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n")
    agent.handle_packet(chunked, 3.0, worker_id=w)  # the divert sends it here
    assert entry.resp_tracker_dead and len(mgr.pending) == 1
    agent.handle_packet(request(seq_add(1000, len(GET + req2)), req3), 3.0, worker_id=w)
    assert entry.deferred
    sim.run_until(3.0 + 100e-6 + 2 * 24.48e-6)  # the flush timer, then a batch of 2
    assert not entry.offloaded and not entry.deferred
    assert mgr.stats["latch_waits"] == 2
    assert b"GET /api/z" in sim.emitted[-1].payload


REQ2 = b"GET /api/y HTTP/1.1\r\nHost: h\r\n\r\n"


def response_head(body_len):
    return b"HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n" % body_len


@pytest.mark.parametrize("slack, offloads", [(-1, True), (0, False)])
def test_a_response_past_the_reach_bound_stays_on_the_worker(slack, offloads):
    """While the engine carries a response the worker sees no client ACK, so
    a response is offloaded only when the ACK one past its end lies within
    unwrap's reach above the client's last ACK; past that the response stays
    on the worker, and the next request leaves at once."""
    agent, engine, sim, mgr = offload_setup()
    ck, entry = established_entry(agent)
    w = shard_of(ck.src_port)
    body_len = UNWRAP_ABOVE + slack - 1 - len(response_head(UNWRAP_ABOVE))
    agent.handle_packet(first_response_pkt(entry, body_len), 1.0, worker_id=w)
    assert entry.resp_end + 1 == UNWRAP_ABOVE + slack
    assert entry.offloaded == offloads
    assert (entry.held is not None) == offloads  # a response past the bound holds nothing
    out = agent.handle_packet(Packet(key=ck, seq=seq_add(1000, len(GET)),
                                     ack=seq_add(entry.isn_lb_front, 1),
                                     flags=TcpFlags.ACK | TcpFlags.PSH, payload=REQ2),
                              2.0, worker_id=w)
    assert (b"GET /api/y" in b"".join(p.payload for p in out)) is not offloads


def retargeted_at_req2(agent, engine, sim, mgr, body_len):
    """A connection whose first response of body_len bytes was offloaded and
    completed, and whose pair was re-targeted at its second request."""
    ck, entry = established_entry(agent)
    w = shard_of(ck.src_port)
    agent.handle_packet(first_response_pkt(entry, body_len), 1.0, worker_id=w)
    assert entry.offloaded
    agent.handle_packet(Packet(key=ck, seq=seq_add(1000, len(GET)),
                               ack=seq_add(entry.isn_lb_front, 1 + entry.resp_end),
                               flags=TcpFlags.ACK | TcpFlags.PSH, payload=REQ2),
                        2.0, worker_id=w)
    sim.run_until(2.5)
    assert mgr.stats["retargets"] == 1 and b"GET /api/y" in sim.emitted[-1].payload
    return ck, entry


def diverted_head(engine, entry, payload):
    """The next response's first segment, which the re-targeted server rule
    diverts to the worker."""
    return Packet(key=entry.server_in_key,
                  seq=seq_add(entry.isn_server, 1 + entry.resp_head_buf.base),
                  ack=engine.rules[entry.server_in_key].ack,
                  flags=TcpFlags.ACK | TcpFlags.PSH, payload=payload)


def test_kept_pair_goes_at_once_when_the_next_response_passes_the_reach_bound():
    agent, engine, sim, mgr = offload_setup()
    ck, entry = retargeted_at_req2(agent, engine, sim, mgr, 4 << 20)
    agent.handle_packet(diverted_head(engine, entry, response_head(UNWRAP_ABOVE)), 3.0,
                        worker_id=shard_of(ck.src_port))
    assert entry.resp_len == UNWRAP_ABOVE and len(mgr.pending) == 1
    sim.run_until(3.0 + 100e-6 + 2 * 24.48e-6)  # the flush timer, then a batch of 2
    assert not entry.offloaded


def test_a_response_stream_past_4_gib_completes_and_retargets():
    """Two offloaded 2.5 GiB responses on one connection: the second ends
    past 2^32 in the server stream, the client's ACK of its end completes it,
    and the pair is re-targeted at the third request."""
    agent, engine, sim, mgr = offload_setup()
    body_len = 5 << 29
    ck, entry = retargeted_at_req2(agent, engine, sim, mgr, body_len)
    w = shard_of(ck.src_port)
    start = entry.resp_head_buf.base
    agent.handle_packet(diverted_head(engine, entry, response_head(body_len)), 3.0,
                        worker_id=w)
    resp_end = entry.resp_end
    assert resp_end == 2 * start > 1 << 32 and entry.offloaded
    req3 = b"GET /api/z HTTP/1.1\r\nHost: h\r\n\r\n"
    c_off = len(GET + REQ2)
    agent.handle_packet(Packet(key=ck, seq=seq_add(1000, c_off),
                               ack=seq_add(entry.isn_lb_front, 1 + resp_end),
                               flags=TcpFlags.ACK | TcpFlags.PSH, payload=req3),
                        4.0, worker_id=w)
    assert entry.resp_index == 2 and entry.client_acked == resp_end
    sim.run_until(4.5)
    assert mgr.stats["retargets"] == 2 and not entry.deferred
    assert engine.rules[ck].seq == seq_add(1000, c_off + len(req3))
    assert b"GET /api/z" in sim.emitted[-1].payload


def test_pipelined_requests_leave_at_once_and_the_pair_goes():
    """Two requests held together would get two responses, and the divert
    can send only the first head to the worker: both leave at once, and
    the pair is deleted rather than re-targeted."""
    agent, engine, sim, mgr = offload_setup()
    ck, entry = established_entry(agent)
    w = shard_of(ck.src_port)
    head = first_response_pkt(entry, 4 << 20)
    agent.handle_packet(head, 1.0, worker_id=w)
    req2 = b"GET /api/y HTTP/1.1\r\nHost: h\r\n\r\n"
    req3 = b"GET /api/z HTTP/1.1\r\nHost: h\r\n\r\n"
    held = Packet(key=ck, seq=seq_add(1000, len(GET)),
                  ack=seq_add(entry.isn_lb_front, 1 + entry.resp_end),
                  flags=TcpFlags.ACK | TcpFlags.PSH, payload=req2 + req3)
    assert agent.handle_packet(held, 2.0, worker_id=w) == []
    data = b"".join(p.payload for p in sim.emitted)
    assert b"GET /api/y" in data and b"GET /api/z" in data
    assert mgr.stats["retargets"] == 0 and len(mgr.pending) == 1
    sim.run_until(3.0)
    assert not entry.offloaded
    assert live_rule(engine, ck, 3.0) is live_rule(engine, entry.server_in_key, 3.0) is None


def test_no_slot_for_the_divert_releases_the_request_and_deletes_the_pair():
    agent, engine, sim, mgr = offload_setup()
    engine.capacity = 2  # the pair fits, its divert does not
    ck, entry = established_entry(agent)
    w = shard_of(ck.src_port)
    agent.handle_packet(first_response_pkt(entry, 4 << 20), 1.0, worker_id=w)
    req2 = b"GET /api/y HTTP/1.1\r\nHost: h\r\n\r\n"
    held = Packet(key=ck, seq=seq_add(1000, len(GET)),
                  ack=seq_add(entry.isn_lb_front, 1 + entry.resp_end),
                  flags=TcpFlags.ACK | TcpFlags.PSH, payload=req2)
    assert agent.handle_packet(held, 2.0, worker_id=w) == []
    assert b"GET /api/y" in sim.emitted[-1].payload  # at once, not held
    assert mgr.stats["install_refusals"] == 1 and len(mgr.pending) == 1
    sim.run_until(3.0)
    assert not entry.offloaded


def completed_first_response(agent, sim):
    """A connection whose offloaded first response was released from the
    hold, and a builder of client bytes at an offset past the first
    request that ACK that whole response."""
    ck, entry = established_entry(agent)
    agent.handle_packet(first_response_pkt(entry, 4 << 20), 1.0,
                        worker_id=shard_of(ck.src_port))
    sim.run_until(1.5)
    assert entry.offloaded and entry.held is None
    ack = seq_add(entry.isn_lb_front, 1 + entry.resp_end)

    def client_bytes(off, payload):
        return Packet(key=ck, seq=seq_add(1000, len(GET) + off), ack=ack,
                      flags=TcpFlags.ACK | TcpFlags.PSH, payload=payload)

    return ck, entry, client_bytes


def test_a_split_head_retargets_only_once_it_is_complete():
    """Held bytes short of a head leave nothing and re-target nothing; the
    segment that completes the head re-targets the pair and leaves with the
    whole request at the re-target's ready time."""
    agent, engine, sim, mgr = offload_setup()
    ck, entry, client_bytes = completed_first_response(agent, sim)
    w = shard_of(ck.src_port)
    emitted = len(sim.emitted)
    assert agent.handle_packet(client_bytes(0, REQ2[:10]), 2.0, worker_id=w) == []
    assert len(sim.emitted) == emitted and mgr.stats["retargets"] == 0
    assert not entry.deferred and mgr._kept(entry)
    assert agent.handle_packet(client_bytes(10, REQ2[10:]), 2.0, worker_id=w) == []
    assert mgr.stats["retargets"] == 1
    ready_at = engine.rules[ck].ready_at
    assert ready_at == pytest.approx(2.0 + insert_batch_seconds(3))
    sim.run_until(3.0)
    assert sim.emit_times[emitted:] == [ready_at]
    assert sim.emitted[-1].payload == REQ2[:-2] + XFF + REQ2[-2:]


def test_a_split_body_leaves_its_head_at_once_and_retargets_at_its_end():
    """A request whose body arrives in two segments: its head and the first
    body bytes leave at once, since the rules still match the previous
    request's end; the rest completes the request and re-targets the pair."""
    agent, engine, sim, mgr = offload_setup()
    ck, entry, client_bytes = completed_first_response(agent, sim)
    w = shard_of(ck.src_port)
    body = bytes(range(100))
    head = b"POST /api/p HTTP/1.1\r\nHost: h\r\nContent-Length: 100\r\n\r\n"
    emitted = len(sim.emitted)
    agent.handle_packet(client_bytes(0, head + body[:40]), 2.0, worker_id=w)
    assert mgr.stats["retargets"] == 0
    assert sim.emit_times[emitted:] == [2.0]
    assert sim.emitted[-1].payload == head[:-2] + XFF + head[-2:] + body[:40]
    agent.handle_packet(client_bytes(len(head) + 40, body[40:]), 2.0, worker_id=w)
    assert mgr.stats["retargets"] == 1
    ready_at = engine.rules[ck].ready_at
    sim.run_until(3.0)
    assert sim.emit_times[emitted + 1:] == [ready_at]
    assert sim.emitted[-1].payload == body[40:]


def test_entry_teardown_enqueues_rule_delete():
    agent, engine, sim, mgr = offload_setup()
    ck, entry = established_entry(agent)
    agent.handle_packet(first_response_pkt(entry, 4 << 20), 1.0,
                        worker_id=shard_of(ck.src_port))
    agent.remove_entry(entry, 3.0)
    sim.run_until(4.0)
    assert live_rule(engine, entry.server_in_key, 4.0) is None
    assert not mgr._by_rule.keys() & {entry.server_in_key, ck}  # neither rule of the pair


def test_a_reused_client_tuple_waits_for_the_previous_pair_to_go():
    """A client reuses its 4-tuple while its previous connection's pair is
    being deleted.  The rules of both connections have the same matches, so
    the new install is refused and the response goes by the worker.  The
    old entry's deletion, completing when the new entry has a pair of its
    own and holds a request behind it, leaves that pair and request alone."""
    agent, engine, sim, mgr = offload_setup(0.0)  # offload every response
    ck, old = established_entry(agent)
    w = shard_of(ck.src_port)
    agent.handle_packet(first_response_pkt(old, 4 << 20), 1.0, worker_id=w)
    agent.remove_entry(old, 2.0)
    sim.run_until(2.0 + 100e-6)  # the flush timer: the pair is being deleted
    done = engine.rules[ck].gone_at
    t = (sim.now + done) / 2

    # not GET's length, so no ack or seq that the old rules match
    req1 = b"GET /api/new HTTP/1.1\r\nHost: h\r\n\r\n"
    new, _ = establish(agent, ck, payload=req1, now=t)
    assert (new.server_in_key, new.client_key) == (old.server_in_key, old.client_key)
    body = bytes(range(256)) * 12
    head = first_response_pkt(new, len(body))
    segments = [head] + [head._replace(seq=seq_add(head.seq, len(head.payload) + i),
                                       payload=body[i:i + 1460])
                         for i in range(0, len(body), 1460)]
    out = []
    for pkt in segments:
        assert engine.process(pkt, t) == (pkt, w)
        out += agent.handle_packet(pkt, t, worker_id=w)
    assert mgr.stats["install_refusals"] == 1 and not new.offloaded
    assert new.held is None  # a refused install holds nothing
    front = seq_add(new.isn_lb_front, 1)
    got = {seq_sub(p.seq, front): p.payload for p in out if p.key == ck.reverse()}
    assert b"".join(got[off] for off in sorted(got)) == head.payload + body

    def client(off, ack_off, payload=b""):
        pkt = Packet(key=ck, seq=seq_add(1000, off), ack=seq_add(front, ack_off),
                     flags=TcpFlags.ACK | (TcpFlags.PSH if payload else 0), payload=payload)
        assert engine.process(pkt, done) == (pkt, w)
        return agent.handle_packet(pkt, done, worker_id=w)

    # at `done`, before the deleter's completion runs: the old rules are
    # gone, so the second response installs a pair, and a third request is held
    client(len(req1), new.resp_end)
    client(len(req1), new.client_acked, REQ2)
    agent.handle_packet(Packet(key=new.server_in_key,
                               seq=seq_add(new.isn_server, 1 + new.resp_head_buf.base),
                               ack=new.seq_to_server(new.fwd_hi),
                               flags=TcpFlags.ACK | TcpFlags.PSH,
                               payload=response_head(4 << 20)), done, worker_id=w)
    assert new.offloaded and mgr.stats["rules_installed"] == 2
    assert client(len(req1 + REQ2), new.client_acked, GET) == [] and new.deferred
    sim.run_until(done)
    assert not old.offloaded
    assert new.offloaded and mgr._kept(new) and len(new.deferred) == 1
    assert mgr.stats["latch_waits"] == 0 and not sim.emitted


def test_aged_rule_reported_and_deletable():
    agent, engine, sim, mgr = offload_setup()
    ck, entry = established_entry(agent)
    agent.handle_packet(first_response_pkt(entry, 4 << 20), 1.0,
                        worker_id=shard_of(ck.src_port))
    aged = engine.poll_aged(now=1.0 + RULE_IDLE_TIMEOUT * 2)
    assert aged == [entry.server_in_key, entry.client_key]  # both rules of the pair
    mgr.on_rules_aged(aged, now=30.0)
    sim.run_until(31.0)
    assert not entry.offloaded


def test_capacity_refusal_leaves_the_response_on_the_worker_path():
    """An engine with room for one rule refuses every pair: nothing is
    installed, and the response still arrives byte-exact."""
    sim = Simulation(SimParams(workload=WorkloadParams(sizes=((256 << 10, 1.0),)),
                               offload_mode="always"), seed=3)
    sim.engine.capacity = 1
    sim.run()
    assert sim.offload_mgr.stats["install_refusals"] == 1
    assert sim.offload_mgr.stats["rules_installed"] == 0
    assert sim.engine.stats.rules_inserted == 0 and not sim.engine.rules
    assert sim.engine.stats.matched == 0
    assert all(s.clean for s in sim.sessions)
    assert sum(r.bytes_ok for s in sim.sessions for r in s.records) == 256 << 10
