import heapq
import random

import pytest

from lbsim.conntable import CuckooTable, TableConfig
from lbsim.flow_engine import FlowEngine, LatencyModel, ResultKind
from lbsim.offload import (
    OffloadManager,
    OffloadParams,
    build_offload_rule,
    should_offload,
)
from lbsim.packet import FlowKey, Packet, TcpFlags, seq_add
from lbsim.splice import Backend, ConnEntry, InsertionPoint, SpliceState

from test_splice_agent import (
    GET,
    client_key,
    establish,
    make_agent,
    shard_of,
    spliced_payloads,
)


def test_formula_threshold_from_measured_latencies():
    # P at batch 16: 25.39 + 18.08 us; T = 0.333 us; MSS = 1460
    params = OffloadParams.from_model(LatencyModel(), delete_batch_max=16,
                                      t_per_packet=0.333e-6, b_override=None)
    p_us = 25.39 + 18.08
    expected = (p_us / 0.333) * 1460
    assert expected == pytest.approx(190_589.2, abs=1.0)
    assert abs(params.formula_threshold - expected) <= 1460


def test_default_t_is_one_over_three_mpps():
    params = OffloadParams()
    assert params.t_per_packet == pytest.approx(0.3333e-6, rel=1e-3)


def test_override_raises_but_never_lowers_threshold():
    params = OffloadParams(b_override=1 << 20)
    assert params.effective_threshold == 1 << 20
    tiny_override = OffloadParams(b_override=10)
    assert tiny_override.effective_threshold == tiny_override.formula_threshold


def test_should_offload_cases():
    params = OffloadParams()  # override 1 MiB
    assert should_offload(16 << 20, params)
    assert should_offload(1 << 20, params)
    assert not should_offload(1024, params)
    assert not should_offload(None, params)  # chunked / unknown length


def test_should_offload_monotone():
    params = OffloadParams(b_override=None)
    rng = random.Random(8)
    for _ in range(500):
        x = rng.randrange(0, 1 << 24)
        y = rng.randrange(x, 1 << 25)
        if should_offload(x, params):
            assert should_offload(y, params)


class Sim:
    """Minimal scheduler standing in for the event loop."""

    def __init__(self):
        self.q = []
        self.n = 0
        self.now = 0.0
        self.emitted = []

    def schedule(self, at, fn):
        heapq.heappush(self.q, (at, self.n, fn))
        self.n += 1

    def emit(self, pkts, now):
        self.emitted.extend(pkts)

    def run_until(self, t):
        while self.q and self.q[0][0] <= t:
            at, _, fn = heapq.heappop(self.q)
            self.now = at
            fn(at)
        self.now = t


def offload_setup(b_override=1 << 20, flush_timeout=100e-6):
    agent = make_agent()
    engine = FlowEngine(n_workers=4, vips=[(0x0A0000FE, 80)])
    sim = Sim()
    params = OffloadParams.from_model(LatencyModel(), b_override=b_override,
                                      delete_flush_timeout=flush_timeout)
    mgr = OffloadManager(engine, agent, params, sim.schedule, sim.emit)
    return agent, engine, sim, mgr


def established_entry(agent, port=40000):
    ck = client_key(port=port)
    entry, _ = establish(agent, ck)
    return ck, entry


def first_response_pkt(entry, body_len):
    head = b"HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n" % body_len
    return Packet(key=entry.server_in_key, seq=seq_add(entry.isn_server, 1),
                  ack=seq_add(seq_add(entry.isn_lb_back, 1),
                              entry.fwd_hi + entry.total_inserted),
                  flags=TcpFlags.ACK | TcpFlags.PSH, payload=head)


def test_threshold_crossing_installs_hairpin_rule():
    agent, engine, sim, mgr = offload_setup()
    ck, entry = established_entry(agent)
    pkt = first_response_pkt(entry, 4 << 20)
    agent.handle_packet(pkt, 1.0, worker_id=shard_of(ck.src_port))
    assert entry.offload_rule is not None
    assert entry.latched
    rule = engine.live_rule_for(entry.server_in_key)
    assert rule is not None
    assert rule.ready_at == pytest.approx(1.0 + 305.40e-6)
    assert mgr.stats["rules_installed"] == 1


def test_small_response_skips_offload():
    agent, engine, sim, mgr = offload_setup()
    ck, entry = established_entry(agent)
    agent.handle_packet(first_response_pkt(entry, 1024), 1.0,
                        worker_id=shard_of(ck.src_port))
    assert entry.offload_rule is None
    assert mgr.stats["offloads_skipped_small"] == 1


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
    rule = build_offload_rule(engine, entry, None)
    engine.insert_rules([rule], "blocking", now=0.0)
    rng = random.Random(99)
    resp_off = 40  # somewhere inside the response stream
    for _ in range(2000):
        seq = seq_add(seq_add(entry.isn_server, 1), resp_off + rng.randrange(0, 1 << 20))
        ack = seq_add(seq_add(entry.isn_lb_back, 1),
                      entry.fwd_hi + entry.total_inserted)
        pkt = Packet(key=entry.server_in_key, seq=seq, ack=ack,
                     flags=TcpFlags.ACK | TcpFlags.PSH,
                     payload=rng.randbytes(rng.randrange(1, 64)))
        got = engine.process(pkt, now=1.0)
        assert got.kind is ResultKind.HAIRPIN
        want = agent.on_server_data(pkt, entry, 1.0)[0]
        assert got.packet == want


def test_response_completion_flushes_batch_of_16():
    agent, engine, sim, mgr = offload_setup()
    entries = []
    for i in range(16):
        ck, entry = established_entry(agent, port=41000 + i * 4)  # same shard
        agent.handle_packet(first_response_pkt(entry, 4 << 20), 1.0,
                            worker_id=shard_of(ck.src_port))
        entries.append(entry)
    assert mgr.stats["rules_installed"] == 16
    for entry in entries:
        mgr.on_response_complete(entry, 2.0)
    assert mgr.stats["delete_batches"] == 1
    sim.run_until(2.0 + 16 * 18.08e-6 - 1e-9)  # batch-16 cost not yet elapsed
    assert all(e.latched for e in entries)
    sim.run_until(2.0 + 16 * 18.08e-6 + 1e-9)
    assert all(e.offload_rule is None and not e.latched for e in entries)


def test_single_completion_flushes_on_timeout_at_batch1_cost():
    agent, engine, sim, mgr = offload_setup(flush_timeout=100e-6)
    ck, entry = established_entry(agent)
    agent.handle_packet(first_response_pkt(entry, 4 << 20), 1.0,
                        worker_id=shard_of(ck.src_port))
    mgr.on_response_complete(entry, 2.0)
    assert mgr.stats["delete_batches"] == 0  # waiting for the flush timer
    sim.run_until(2.0 + 100e-6)
    assert mgr.stats["delete_batches"] == 1
    sim.run_until(2.0 + 100e-6 + 57.49e-6 - 1e-9)  # batch-1 cost not yet elapsed
    assert entry.latched
    sim.run_until(2.0 + 100e-6 + 57.49e-6)
    assert entry.offload_rule is None and not entry.latched


def test_next_request_held_until_rule_clean_then_replayed():
    agent, engine, sim, mgr = offload_setup()
    ck, entry = established_entry(agent)
    agent.handle_packet(first_response_pkt(entry, 4 << 20), 1.0,
                        worker_id=shard_of(ck.src_port))
    assert entry.latched
    req2 = b"GET /api/y HTTP/1.1\r\nHost: h\r\n\r\n"
    pkt2 = Packet(key=ck, seq=seq_add(1000, len(GET)),
                  ack=seq_add(entry.isn_lb_front, 1),
                  flags=TcpFlags.ACK | TcpFlags.PSH, payload=req2)
    out = agent.handle_packet(pkt2, 2.0, worker_id=shard_of(ck.src_port))
    assert out == []
    assert entry.deferred
    mgr.on_response_complete(entry, 2.0)
    sim.run_until(3.0)
    assert not entry.latched
    assert not entry.deferred
    data = b"".join(p.payload for p in sim.emitted if p.payload)
    assert b"GET /api/y" in data
    assert len(entry.insertions) == 2  # the held request was processed


def test_held_resend_replayed_with_its_insertion_still_live():
    agent, engine, sim, mgr = offload_setup()
    ck, entry = established_entry(agent)
    w = shard_of(ck.src_port)
    head = first_response_pkt(entry, 4 << 20)  # its ACK passes the insertion
    agent.handle_packet(head, 1.0, worker_id=w)
    assert entry.latched
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
    assert spliced_payloads(entry, sim.emitted)[:2] == [(0, 30), (57, 2)]


def test_entry_teardown_enqueues_rule_delete():
    agent, engine, sim, mgr = offload_setup()
    ck, entry = established_entry(agent)
    agent.handle_packet(first_response_pkt(entry, 4 << 20), 1.0,
                        worker_id=shard_of(ck.src_port))
    rid = entry.offload_rule
    agent.remove_entry(entry, 3.0)
    sim.run_until(4.0)
    assert engine.live_rule_for(entry.server_in_key, now=4.0) is None
    assert rid not in mgr._by_rule


def test_aged_rule_reported_and_deletable():
    agent, engine, sim, mgr = offload_setup()
    ck, entry = established_entry(agent)
    agent.handle_packet(first_response_pkt(entry, 4 << 20), 1.0,
                        worker_id=shard_of(ck.src_port))
    aged = engine.poll_aged(now=1.0 + mgr.params.rule_idle_timeout * 2)
    assert aged == [entry.offload_rule]
    mgr.on_rules_aged(aged, now=30.0)
    sim.run_until(31.0)
    assert entry.offload_rule is None
