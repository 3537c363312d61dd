import random

import pytest

from lbsim.flow_engine import (
    AddToField,
    EngineCapacityError,
    FlowEngine,
    Hairpin,
    LatencyModel,
    ResultKind,
    RuleConflictError,
    SetField,
)
from lbsim.packet import FlowKey, Packet, TcpFlags, TcpOptions, seq_add

VIP = (0x0A0000FE, 80)
S2C = FlowKey(0x0A000010, 0x0A010001, 8080, 40000)  # backend -> LB


def make_engine(n_workers=4):
    return FlowEngine(n_workers=n_workers, vips=[VIP])


def test_latency_model_measured_anchor_points():
    m = LatencyModel()
    assert m.insert_per_rule_us(1) == 305.40
    assert m.delete_per_rule_us(1) == 57.49
    assert m.insert_per_rule_us(2) == 100.48
    assert m.delete_per_rule_us(2) == 24.48
    assert m.insert_per_rule_us(8) == 38.72
    assert m.delete_per_rule_us(8) == 19.42
    assert m.insert_per_rule_us(16) == 25.39
    assert m.delete_per_rule_us(16) == 18.08


def test_latency_model_interpolation_monotone_and_clamped():
    m = LatencyModel()
    prev = m.insert_per_rule_us(1)
    for n in range(2, 40):
        cur = m.insert_per_rule_us(n)
        assert cur <= prev
        prev = cur
    assert m.insert_per_rule_us(32) == m.insert_per_rule_us(16)
    assert m.delete_per_rule_us(100) == 18.08
    # interior points sit between their anchors
    assert 38.72 < m.insert_per_rule_us(5) < 100.48


def test_blocking_single_insert_ready_at_305us():
    e = make_engine()
    rule = e.make_rule(S2C, [AddToField("seq", 5), Hairpin()])
    done = e.insert_rules([rule], "blocking", now=1.0)
    assert done == pytest.approx(1.0 + 305.40e-6)
    assert rule.ready_at == done


def test_batch16_insert_per_rule_latency():
    e = make_engine()
    rules = [e.make_rule(FlowKey(1, 2, 3, 1000 + i), [Hairpin()]) for i in range(16)]
    done = e.insert_rules(rules, "nonblocking", now=0.0)
    assert done == pytest.approx(16 * 25.39e-6)


def test_packet_during_install_window_misses_to_worker():
    e = make_engine()
    rule = e.make_rule(S2C, [AddToField("seq", 1), Hairpin()])
    done = e.insert_rules([rule], "nonblocking", now=0.0)
    pkt = Packet(key=S2C, seq=100, ack=5, flags=TcpFlags.ACK, payload=b"x")
    r = e.process(pkt, now=done / 2)
    assert r.kind is ResultKind.MISSED
    assert r.worker == e.shard_of(S2C.dst_port)
    r2 = e.process(pkt, now=done)
    assert r2.kind is ResultKind.HAIRPIN
    assert r2.packet.seq == 101


def test_delete_batch_latencies_and_unmatchable_after():
    e = make_engine()
    rule = e.make_rule(S2C, [Hairpin()])
    e.insert_rules([rule], "blocking", now=0.0)
    done = e.delete_rules([rule.id], now=1.0)
    assert done == pytest.approx(1.0 + 57.49e-6)
    pkt = Packet(key=S2C, flags=TcpFlags.ACK)
    # still matchable while the delete is in flight
    assert e.process(pkt, now=1.0).kind is ResultKind.HAIRPIN
    assert e.process(pkt, now=done).kind is ResultKind.MISSED
    assert e.live_rule_for(S2C) is None

    rules = [e.make_rule(FlowKey(9, 9, 9, i), [Hairpin()]) for i in range(8)]
    e.insert_rules(rules, "nonblocking", now=2.0)
    done = e.delete_rules([r.id for r in rules], now=3.0)
    assert done == pytest.approx(3.0 + 8 * 19.42e-6)


def test_delete_unknown_rule_is_idempotent():
    e = make_engine()
    done = e.delete_rules([12345], now=0.0)
    assert done > 0.0


def test_duplicate_active_match_conflicts():
    e = make_engine()
    e.insert_rules([e.make_rule(S2C, [Hairpin()])], "blocking", now=0.0)
    with pytest.raises(RuleConflictError):
        e.insert_rules([e.make_rule(S2C, [Hairpin()])], "nonblocking", now=1.0)


def test_full_action_chain_rewrites_and_hairpins():
    e = make_engine()
    rule = e.make_rule(S2C, [
        AddToField("seq", 1000), AddToField("ack", (1 << 32) - 7),
        SetField("src_addr", VIP[0]), SetField("src_port", VIP[1]),
        SetField("dst_addr", 0x0A000001), SetField("dst_port", 40000),
        Hairpin()])
    e.insert_rules([rule], "blocking", now=0.0)
    pkt = Packet(key=S2C, seq=5, ack=10, flags=TcpFlags.ACK | TcpFlags.PSH,
                 payload=b"abc")
    r = e.process(pkt, now=0.1)
    assert r.kind is ResultKind.HAIRPIN
    out = r.packet
    assert out.seq == 1005
    assert out.ack == seq_add(10, (1 << 32) - 7) == 3
    assert out.key == FlowKey(VIP[0], 0x0A000001, VIP[1], 40000)
    assert out.payload == b"abc"
    assert rule.hit_count == 1


def test_sack_bearing_packet_diverts_to_worker():
    e = make_engine()
    e.insert_rules([e.make_rule(S2C, [AddToField("seq", 1), Hairpin()])],
                   "blocking", now=0.0)
    pkt = Packet(key=S2C, flags=TcpFlags.ACK,
                 options=TcpOptions(sack_blocks=((5, 10),)))
    r = e.process(pkt, now=1.0)
    assert r.kind is ResultKind.MISSED
    assert e.stats.sack_diverted == 1
    assert r.packet.seq == pkt.seq  # untouched


def test_conservation_over_random_packets():
    e = make_engine()
    e.insert_rules([e.make_rule(FlowKey(1, 1, 1, 1), [Hairpin()]),
                    e.make_rule(FlowKey(2, 2, 2, 2), [Hairpin()])],
                   "blocking", now=0.0)
    rng = random.Random(5)
    keys = [FlowKey(1, 1, 1, 1), FlowKey(2, 2, 2, 2),
            FlowKey(rng.getrandbits(32), rng.getrandbits(32), 5, 6)]
    n = 3000
    for _ in range(n):
        e.process(Packet(key=rng.choice(keys)), now=1.0)
    assert e.stats.matched + e.stats.missed + e.stats.dropped == n


def test_port_shard_steering_covers_all_ports_and_pairs_directions():
    e = make_engine(n_workers=4)
    seen = set()
    for p in range(0, 65536):
        w = e.shard_of(p)
        assert 0 <= w < 4
        seen.add(w)
    assert seen == {0, 1, 2, 3}
    # both directions of a connection with client port 5000 hit one worker
    c2s = Packet(key=FlowKey(0x0A000001, VIP[0], 5000, VIP[1]))
    s2c = Packet(key=FlowKey(0x0A000010, 0x0A010001, 8080, 5000))
    assert e.process(c2s, 0.0).worker == e.process(s2c, 0.0).worker


def test_poll_aged_reports_idle_rules_and_hits_reset_clock():
    e = make_engine()
    rule = e.make_rule(S2C, [Hairpin()], idle_timeout=1.0)
    e.insert_rules([rule], "blocking", now=0.0)
    assert e.poll_aged(now=0.5) == []
    assert e.poll_aged(now=2.5) == [rule.id]
    e.process(Packet(key=S2C), now=3.0)  # hit resets the idle clock
    assert e.poll_aged(now=3.9) == []
    assert e.poll_aged(now=4.5) == [rule.id]


def test_capacity_cap():
    e = FlowEngine(n_workers=1, capacity=4)
    rules = [e.make_rule(FlowKey(1, 2, 3, i), [Hairpin()]) for i in range(5)]
    with pytest.raises(EngineCapacityError):
        e.insert_rules(rules, "nonblocking", now=0.0)


def test_stats_dump_is_text_table():
    e = make_engine()
    e.insert_rules([e.make_rule(S2C, [Hairpin()])], "blocking", now=0.0)
    e.process(Packet(key=S2C), now=1.0)
    text = e.format_stats()
    assert "matched" in text and "rule_id" in text
