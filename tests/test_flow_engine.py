import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lbsim.conntable import mix64
from lbsim.flow_engine import (
    _SHARD_SALT,
    RULE_IDLE_TIMEOUT,
    EngineCapacityError,
    FlowEngine,
    Rewrite,
    Rule,
    RuleConflictError,
    delete_batch_seconds,
    delete_per_rule_us,
    insert_batch_seconds,
    insert_per_rule_us,
)
from lbsim.netsim import Simulation, SimParams, TopologyParams, WorkloadParams
from lbsim.netsim.sim import LB_ADDR, VIP_ADDR, VIP_PORT
from lbsim.packet import SEQ_HALF, FlowKey, Packet, TcpFlags, TcpOptions, seq_add, seq_sub

VIP = (0x0A0000FE, 80)
S2C = FlowKey(0x0A000010, 0x0A010001, 8080, 40000)  # backend -> LB
C_OUT = FlowKey(VIP[0], 0x0A000001, VIP[1], 40000)  # LB -> client


def make_engine(n_workers=4):
    return FlowEngine(n_workers=n_workers, vips=[VIP])


def shift(seq=0, ack=0):
    """A rewrite toward the client that adds seq and ack to the numbers."""
    return Rewrite(C_OUT, seq, ack)


def test_latency_model_measured_anchor_points():
    assert insert_per_rule_us(1) == 305.40
    assert delete_per_rule_us(1) == 57.49
    assert insert_per_rule_us(2) == 100.48
    assert delete_per_rule_us(2) == 24.48
    assert insert_per_rule_us(8) == 38.72
    assert delete_per_rule_us(8) == 19.42
    assert insert_per_rule_us(16) == 25.39
    assert delete_per_rule_us(16) == 18.08


def test_latency_model_interpolation_monotone_and_clamped():
    prev = insert_per_rule_us(1)
    for n in range(2, 40):
        cur = insert_per_rule_us(n)
        assert cur <= prev
        prev = cur
    assert insert_per_rule_us(32) == insert_per_rule_us(16)
    assert delete_per_rule_us(100) == 18.08
    # interior points sit between their anchors
    assert 38.72 < insert_per_rule_us(5) < 100.48
    with pytest.raises(ValueError):
        insert_per_rule_us(0)


def test_blocking_single_insert_ready_at_305us():
    e = make_engine()
    rule = Rule(S2C, shift(seq=5))
    done = e.insert_rules([rule], now=1.0)
    assert done == pytest.approx(1.0 + 305.40e-6)
    assert rule.ready_at == done


def test_batch16_insert_per_rule_latency():
    e = make_engine()
    rules = [Rule(FlowKey(1, 2, 3, 1000 + i), shift()) for i in range(16)]
    done = e.insert_rules(rules, now=0.0)
    assert done == pytest.approx(16 * 25.39e-6)


def test_packet_during_install_window_misses_to_worker():
    e = make_engine()
    rule = Rule(S2C, shift(seq=1))
    done = e.insert_rules([rule], now=0.0)
    pkt = Packet(key=S2C, seq=100, ack=5, flags=TcpFlags.ACK, payload=b"x")
    assert e.process(pkt, now=done / 2) == (pkt, e.shard_of(S2C.dst_port))
    out, worker = e.process(pkt, now=done)
    assert worker is None
    assert out.seq == 101


def test_delete_batch_latencies_and_unmatchable_after():
    e = make_engine()
    rule = Rule(S2C, shift())
    e.insert_rules([rule], now=0.0)
    done = e.delete_rules([rule.match], now=1.0)
    assert done == pytest.approx(1.0 + 57.49e-6)
    pkt = Packet(key=S2C, flags=TcpFlags.ACK)
    # still matchable while the delete is in flight
    assert e.process(pkt, now=1.0)[1] is None
    assert e.process(pkt, now=done) == (pkt, e._steer(pkt))
    assert S2C not in e.rules

    rules = [Rule(FlowKey(9, 9, 9, i), shift()) for i in range(8)]
    e.insert_rules(rules, now=2.0)
    done = e.delete_rules([r.match for r in rules], now=3.0)
    assert done == pytest.approx(3.0 + 8 * 19.42e-6)


def test_delete_unknown_rule_is_idempotent():
    e = make_engine()
    done = e.delete_rules([S2C], now=0.0)
    assert done > 0.0


def test_duplicate_active_match_conflicts():
    e = make_engine()
    e.insert_rules([Rule(S2C, shift())], now=0.0)
    with pytest.raises(RuleConflictError):
        e.insert_rules([Rule(S2C, shift())], now=1.0)


def test_match_being_deleted_conflicts_until_gone():
    e = make_engine()
    rule = Rule(S2C, shift())
    e.insert_rules([rule], now=0.0)
    done = e.delete_rules([rule.match], now=1.0)
    with pytest.raises(RuleConflictError, match="still being deleted"):
        e.insert_rules([Rule(S2C, shift())], now=1.0)
    e.insert_rules([Rule(S2C, shift())], now=done)


def test_full_action_chain_rewrites_and_hairpins():
    e = make_engine()
    rule = Rule(S2C, shift(seq=1000, ack=(1 << 32) - 7))
    e.insert_rules([rule], now=0.0)
    pkt = Packet(key=S2C, seq=5, ack=10, flags=TcpFlags.ACK | TcpFlags.PSH,
                 payload=b"abc")
    out, worker = e.process(pkt, now=0.1)
    assert worker is None
    assert type(out) is Packet  # a packet, not a bare tuple of its fields
    assert out.seq == 1005
    assert out.ack == seq_add(10, (1 << 32) - 7) == 3
    assert out.key == FlowKey(VIP[0], 0x0A000001, VIP[1], 40000)
    assert out.payload == b"abc"
    assert rule.last_hit == 0.1


M = 1 << 32


@pytest.mark.parametrize("ack_delta, ack, blocks, want_ack, want_blocks", [
    # shifted down: the block at the ACK and the next cross below 0
    (M - 100, 50, ((50, 60), (80, 120), (150, 300)),
     M - 50, ((M - 50, M - 40), (M - 20, 20), (50, 200))),
    # shifted up: an ACK and blocks just below 2^32 wrap past it
    (100, M - 60, ((M - 60, M - 50), (M - 10, 20), (40, 90)),
     40, ((40, 50), (90, 120), (140, 190))),
])
def test_sack_blocks_at_or_above_the_ack_shift_by_the_ack_delta(
        ack_delta, ack, blocks, want_ack, want_blocks):
    e = make_engine()
    rule = Rule(S2C, shift(seq=1, ack=ack_delta))
    e.insert_rules([rule], now=0.0)
    pkt = Packet(key=S2C, seq=7, ack=ack, flags=TcpFlags.ACK,
                 options=TcpOptions(sack_blocks=blocks))
    out, worker = e.process(pkt, now=1.0)
    assert worker is None
    assert out == Packet(C_OUT, 8, want_ack, TcpFlags.ACK,
                         options=TcpOptions(sack_blocks=want_blocks))
    assert type(out.options) is TcpOptions
    assert rule.last_hit == 1.0
    assert (e.stats.matched, e.stats.missed, e.stats.sack_diverted) == (1, 0, 0)


@pytest.mark.parametrize("ack, blocks", [
    (50, ((60, 90), (40, 50))),                # one block below, one above
    (5, ((M - 10, M - 2),)),                   # below across the wrap
])
def test_a_sack_block_below_the_ack_diverts_to_worker(ack, blocks):
    e = make_engine()
    rule = Rule(S2C, shift(seq=1, ack=3))
    e.insert_rules([rule], now=0.0)
    pkt = Packet(key=S2C, ack=ack, flags=TcpFlags.ACK,
                 options=TcpOptions(sack_blocks=blocks))
    out, worker = e.process(pkt, now=1.0)
    assert out is pkt and worker == e._steer(pkt)  # untouched
    assert rule.last_hit == rule.ready_at  # a diverted packet is no hit
    assert (e.stats.matched, e.stats.missed, e.stats.sack_diverted) == (0, 1, 1)


@pytest.mark.parametrize("flag", [TcpFlags.FIN, TcpFlags.RST])
def test_fin_and_rst_divert_to_worker(flag):
    e = make_engine()
    rule = Rule(S2C, shift(seq=1))
    e.insert_rules([rule], now=0.0)
    pkt = Packet(key=S2C, flags=TcpFlags.ACK | flag)
    assert e.process(pkt, now=1.0) == (pkt, e._steer(pkt))
    assert rule.last_hit == rule.ready_at  # a diverted packet is no hit
    assert (e.stats.fin_rst_diverted, e.stats.sack_diverted) == (1, 0)
    assert e.process(Packet(key=S2C, flags=TcpFlags.ACK), now=1.0)[1] is None


def test_conservation_over_random_packets():
    e = make_engine()
    e.insert_rules([Rule(FlowKey(1, 1, 1, 1), shift()),
                    Rule(FlowKey(2, 2, 2, 2), shift())], now=0.0)
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
    assert e.process(c2s, 0.0)[1] == e.process(s2c, 0.0)[1]


@pytest.fixture(scope="module")
def every_port_packets():
    """A client packet from each port to the VIP, and a backend packet to
    each port of the LB."""
    ports = range(1 << 16)
    return ([Packet(key=FlowKey(0x0A020001, VIP_ADDR, p, VIP_PORT)) for p in ports],
            [Packet(key=FlowKey(0x0A030001, LB_ADDR, 8080, p)) for p in ports])


@pytest.mark.parametrize("n_workers", [1, 2, 3, 4])
def test_remembered_shards_follow_the_formula_on_every_port(n_workers, every_port_packets):
    """Client packets steer by source port and backend packets by
    destination port to mix64(port ^ salt) % n_workers, whichever direction
    first shows the engine a port, on a cold engine and a warm one; the
    agent's shard_of, which picks backend ports, agrees."""
    expected = [mix64(p ^ _SHARD_SALT) % n_workers for p in range(1 << 16)]
    client, backend = every_port_packets
    for first, second in ((client, backend), (backend, client)):
        sim = Simulation(SimParams(topology=TopologyParams(n_workers=n_workers),
                                   workload=WorkloadParams(connections=0)), seed=1)
        for pkts in (first, second):  # the first pass is cold, the second warm
            assert [sim.engine.process(pkt, 0.0)[1] for pkt in pkts] == expected
        assert [sim.agent.shard_of(p) for p in range(1 << 16)] == expected
    assert sim.engine.stats.missed == 2 << 16


def test_poll_aged_reports_idle_rules_and_hits_reset_clock():
    T = RULE_IDLE_TIMEOUT
    e = make_engine()
    rule = Rule(S2C, shift())
    e.insert_rules([rule], now=0.0)
    assert e.poll_aged(now=0.5 * T) == []
    assert e.poll_aged(now=2.5 * T) == [rule.match]
    e.process(Packet(key=S2C), now=3 * T)  # hit resets the idle clock
    assert e.poll_aged(now=3.9 * T) == []
    assert e.poll_aged(now=4.5 * T) == [rule.match]
    e.delete_rules([rule.match], now=4.5 * T)
    assert e.poll_aged(now=4.5 * T) == []  # a rule being deleted is not reported


def test_capacity_cap():
    e = FlowEngine(n_workers=1, capacity=4)
    rules = [Rule(FlowKey(1, 2, 3, i), shift()) for i in range(5)]
    with pytest.raises(EngineCapacityError):
        e.insert_rules(rules, now=0.0)


def test_capacity_counts_no_rule_past_its_gone_at():
    e = FlowEngine(n_workers=1, capacity=1)
    first = Rule(S2C, shift())
    e.insert_rules([first], now=0.0)
    e.delete_rules([first.match], now=1.0)  # gone at 1.0 + 57.49 us
    second = Rule(S2C.reverse(), shift())
    e.insert_rules([second], now=2.0)
    assert list(e.rules.values()) == [second]
    with pytest.raises(EngineCapacityError):  # a refused batch installs nothing
        e.insert_rules([Rule(FlowKey(1, 2, 3, 4), shift())], now=3.0)
    assert list(e.rules.values()) == [second]


def installed_pair(e, now=0.0):
    """A server rule matching ack 500 and a client rule matching seq 900,
    installed as one batch and ready at the returned time."""
    server = Rule(S2C, shift(seq=10, ack=20), ack=500)
    client = Rule(S2C.reverse(), Rewrite(S2C, 30, 40), seq=900)
    return server, client, e.insert_rules([server, client], now)


def test_retarget_costs_an_insert_batch_of_its_slots_and_replaces_the_rules_in_place():
    e = make_engine()
    installed_pair(e)
    batch = [Rule(S2C, shift(seq=10, ack=-7), ack=600, divert_seq=77),
             Rule(S2C.reverse(), Rewrite(S2C, 37, 40), seq=950)]
    done = e.retarget_rules(batch, now=1.0)
    # three slots, the divert counted as one: 3 x 90.19 us, interpolated
    # between the batch-2 and batch-8 anchors
    per_rule = 100.48 + (38.72 - 100.48) / 6
    assert insert_per_rule_us(3) == pytest.approx(per_rule)
    assert done == pytest.approx(1.0 + 3 * per_rule * 1e-6)
    assert list(e.rules.items()) == [(S2C, batch[0]), (S2C.reverse(), batch[1])]
    assert [r.ready_at for r in batch] == [done, done]
    assert (e.stats.rules_inserted, e.stats.rules_retargeted) == (2, 3)
    with pytest.raises(KeyError):  # only a live rule is re-targeted
        e.retarget_rules([Rule(FlowKey(1, 2, 3, 4), shift())], now=2.0)
    e.delete_rules([S2C], now=2.0)
    with pytest.raises(KeyError):
        e.retarget_rules([Rule(S2C, shift())], now=2.0)


def test_retarget_window_misses_then_hits_with_the_new_rewrite():
    e = make_engine()
    installed_pair(e)
    done = e.retarget_rules([Rule(S2C, shift(seq=10, ack=-7), ack=600)], now=1.0)
    old = Packet(key=S2C, seq=100, ack=500, flags=TcpFlags.ACK, payload=b"x")
    new = old._replace(ack=600)
    for pkt in (old, new):  # inside the window every packet misses
        assert e.process(pkt, now=(1.0 + done) / 2) == (pkt, e._steer(pkt))
    out, worker = e.process(new, now=done)
    assert worker is None
    assert (out.seq, out.ack) == (110, 593)
    assert e.process(old, now=done) == (old, e._steer(old))  # the ack match moved


def test_divert_sends_payload_at_its_seq_to_the_worker():
    e = make_engine()
    installed_pair(e)
    done = e.retarget_rules([Rule(S2C, shift(seq=10), ack=500, divert_seq=77)], now=0.0)

    def hit(seq, payload):
        pkt = Packet(key=S2C, seq=seq, ack=500, flags=TcpFlags.ACK, payload=payload)
        return e.process(pkt, now=done)[1] is None

    assert not hit(77, b"HTTP/1.1 200 OK\r\n")
    assert hit(77, b"")   # a pure ACK at that seq
    assert hit(78, b"x")  # data at any other seq
    assert hit(76, b"xy")
    assert e.stats.matched == 3 and e.stats.head_diverted == 1
    assert e.stats.sack_diverted == 0


def test_capacity_counts_the_divert():
    e = FlowEngine(n_workers=1, capacity=3)
    server, client, _ = installed_pair(e)
    e.retarget_rules([Rule(S2C, shift(), ack=600, divert_seq=77)], now=1.0)
    with pytest.raises(EngineCapacityError):  # two rules and a divert fill 3 slots
        e.insert_rules([Rule(FlowKey(1, 2, 3, 4), shift())], now=2.0)
    e2 = FlowEngine(n_workers=1, capacity=2)
    installed_pair(e2)
    before = dict(e2.rules)
    with pytest.raises(EngineCapacityError):  # no slot for the divert: nothing changes
        e2.retarget_rules([Rule(S2C, shift(), ack=600, divert_seq=77)], now=1.0)
    assert e2.rules == before and e2.stats.rules_retargeted == 0


_u32 = st.integers(0, (1 << 32) - 1)
_u16 = st.integers(0, (1 << 16) - 1)
_deltas = st.one_of(_u32, st.integers(-(1 << 33), 1 << 33))
_READY = insert_batch_seconds(1)  # a rule inserted at 0
_times = st.one_of(st.floats(0.0, 1e-3), st.just(_READY))
# SACK blocks as (left edge - ack, length): at the ack, next to it, above
# it within a window, or anywhere
_sack_offsets = st.lists(
    st.tuples(st.one_of(st.integers(-2, 2), st.integers(0, 1 << 20), _u32),
              st.integers(1, 1 << 20)),
    max_size=3)


def blocks_at(ack, offsets):
    """SACK blocks whose left edges lie `offsets` past `ack`, modulo 2^32."""
    return tuple((seq_add(ack, off), seq_add(ack, off + n)) for off, n in offsets)


@st.composite
def _packets(draw):
    ack = draw(_u32)
    return Packet(
        draw(st.sampled_from([S2C, S2C.reverse(),
                              FlowKey(0x0A000011, 0x0A010001, 8080, 40001)])),
        draw(_u32), ack,
        draw(st.sampled_from([TcpFlags.ACK, TcpFlags.ACK | TcpFlags.PSH,
                              TcpFlags.ACK | TcpFlags.FIN, TcpFlags.ACK | TcpFlags.RST,
                              TcpFlags.RST])),
        draw(_u16), TcpOptions(sack_blocks=blocks_at(ack, draw(_sack_offsets))),
        draw(st.binary(max_size=8)))


def sack_below_ack(pkt):
    """A SACK block of `pkt` starts below its ack, in wrapping order."""
    return any(seq_sub(left, pkt.ack) >= SEQ_HALF for left, _ in pkt.options.sack_blocks)


def hairpinned(pkt, key, seq_delta, ack_delta):
    """What a hit makes of `pkt`: the rule's key, and seq, ack and each
    SACK edge shifted modulo 2^32; everything else as it came."""
    blocks = tuple(((left + ack_delta) % (1 << 32), (right + ack_delta) % (1 << 32))
                   for left, right in pkt.options.sack_blocks)
    return Packet(key, (pkt.seq + seq_delta) % (1 << 32), (pkt.ack + ack_delta) % (1 << 32),
                  pkt.flags, pkt.window, pkt.options._replace(sack_blocks=blocks),
                  pkt.payload)


CAUSES = ("no_rule", "not_ready", "mismatched", "fin_rst_diverted", "head_diverted",
          "sack_diverted")


def assert_hit(out, worker, want, pkt):
    assert worker is None
    assert type(out) is Packet and type(out.options) is TcpOptions
    assert out == want
    if not pkt.options.sack_blocks:
        assert out.options is pkt.options


def assert_causes(stats, tally):
    """The engine counted each miss under the cause the model gave it."""
    assert {c: getattr(stats, c) for c in CAUSES} == {c: tally.get(c, 0) for c in CAUSES}
    assert sum(tally.values()) == stats.missed


@settings(max_examples=300, deadline=None)
@given(out_key=st.builds(FlowKey, _u32, _u32, _u16, _u16), seq_delta=_deltas,
       ack_delta=_deltas, delete_at=st.one_of(st.none(), _times),
       arrivals=st.lists(st.tuples(_times, _packets()), min_size=1, max_size=12))
def test_rule_hairpins_exactly_its_rewrite(out_key, seq_delta, ack_delta, delete_at,
                                           arrivals):
    """A hit rewrites key, seq, ack and SACK edges and nothing else; every
    other packet (another key, before ready_at, from gone_at on, or one
    that diverts: a FIN, an RST or a SACK block below its ack) comes back
    unchanged on its steered worker, counted under its cause."""
    e = make_engine()
    rule = Rule(S2C, Rewrite(out_key, seq_delta, ack_delta))
    ready_at = e.insert_rules([rule], now=0.0)
    gone_at, last_hit, hairpins, tally = None, rule.last_hit, 0, {}
    for now, pkt in sorted(arrivals, key=lambda a: a[0]):
        if delete_at is not None and gone_at is None and now >= delete_at:
            gone_at = e.delete_rules([rule.match], delete_at)
        out, worker = e.process(pkt, now)
        if pkt.key != S2C or gone_at is not None and now >= gone_at:
            cause = "no_rule"
        elif now < ready_at:
            cause = "not_ready"
        elif pkt.flags & (TcpFlags.FIN | TcpFlags.RST):
            cause = "fin_rst_diverted"
        elif sack_below_ack(pkt):
            cause = "sack_diverted"
        else:
            assert_hit(out, worker, hairpinned(pkt, out_key, seq_delta, ack_delta), pkt)
            last_hit, hairpins = now, hairpins + 1
            cause = None
        if cause is not None:
            assert (out, worker) == (pkt, e._steer(pkt))
            tally[cause] = tally.get(cause, 0) + 1
        assert rule.last_hit == last_hit
    assert e.stats.matched == hairpins
    assert_causes(e.stats, tally)
    assert e.stats.matched + e.stats.missed == len(arrivals)


C2S = FlowKey(0x0A000001, VIP[0], 40000, VIP[1])  # client -> VIP


@settings(max_examples=300, deadline=None)
@given(rule_seq=_u32, seq_delta=_deltas, ack_delta=_deltas,
       arrivals=st.lists(st.tuples(st.one_of(st.just(0), st.integers(-2, 2), _u32),
                                   _packets()), min_size=1, max_size=12))
def test_seq_rule_hairpins_only_payload_free_packets_at_its_seq(rule_seq, seq_delta,
                                                                ack_delta, arrivals):
    """The client rule's shape.  A rule with a seq hairpins exactly its
    rewrite, SACK edges shifted by the ack delta, on a packet with no
    payload at that seq that does not divert; a packet with payload at that
    seq, a pure ACK at any other seq, a FIN or an RST, and a packet with a
    SACK block below its ack go to the worker unchanged, each counted under
    its cause."""
    e = make_engine()
    rule = Rule(C2S, Rewrite(S2C.reverse(), seq_delta, ack_delta), seq=rule_seq)
    now = e.insert_rules([rule], now=0.0)
    hairpins, tally = 0, {}
    for off, drawn in arrivals:
        pkt = drawn._replace(key=C2S, seq=(rule_seq + off) % (1 << 32))
        out, worker = e.process(pkt, now)
        if pkt.seq != rule_seq or pkt.payload:
            cause = "mismatched"
        elif pkt.flags & (TcpFlags.FIN | TcpFlags.RST):
            cause = "fin_rst_diverted"
        elif sack_below_ack(pkt):
            cause = "sack_diverted"
        else:
            assert_hit(out, worker, hairpinned(pkt, S2C.reverse(), seq_delta, ack_delta), pkt)
            hairpins += 1
            continue
        assert (out, worker) == (pkt, e._steer(pkt))
        tally[cause] = tally.get(cause, 0) + 1
    assert e.stats.matched == hairpins
    assert_causes(e.stats, tally)
    assert e.stats.matched + e.stats.missed == len(arrivals)


# added to a rule's value: at it, next to it, or anywhere
_offsets = st.one_of(st.just(0), st.integers(-1, 1), _u32)


@settings(max_examples=300, deadline=None)
@given(rule_ack=_u32, divert_seq=_u32, seq_delta=_deltas, ack_delta=_deltas,
       delete_at=st.one_of(st.none(), _times),
       arrivals=st.lists(st.tuples(
           st.one_of(st.floats(0.0, 1e-3), st.sampled_from(["ready", "gone"])),
           st.sampled_from([S2C, S2C, S2C.reverse()]), _offsets, _offsets,
           st.sampled_from([TcpFlags.ACK, TcpFlags.ACK | TcpFlags.PSH,
                            TcpFlags.ACK | TcpFlags.FIN, TcpFlags.ACK | TcpFlags.RST]),
           st.one_of(st.just([]), _sack_offsets),
           st.one_of(st.just(b""), st.binary(min_size=1, max_size=8))),
           min_size=1, max_size=12))
def test_server_rule_with_an_ack_and_a_divert_hairpins_exactly_its_matches(
        rule_ack, divert_seq, seq_delta, ack_delta, delete_at, arrivals):
    """The shape `build_offload_rule` gives a re-targeted server rule: an
    exact ack and a divert seq.  An effective rule hits a packet at that ack
    that carries no FIN or RST and no SACK block below its ack, unless it
    has payload at the divert seq, and a hit is exactly the rewrite, SACK
    edges shifted by the ack delta, as a `Packet`.  Every other packet
    comes back as the same object on its steered worker, counted under its
    cause.  A packet of the rule's key at or past the delete's `gone_at`
    drops the rule.  `last_hit` and the engine's counts follow the same
    predicate."""
    e = make_engine()
    rule = Rule(S2C, Rewrite(C_OUT, seq_delta, ack_delta), ack=rule_ack,
                divert_seq=divert_seq)
    ready_at = e.insert_rules([rule], now=0.0)
    due_gone = None if delete_at is None else delete_at + delete_batch_seconds(1)
    moments = {"ready": ready_at, "gone": due_gone or 2 * ready_at}
    gone_at, dropped, last_hit = None, False, rule.last_hit
    matched, tally = 0, {}
    for at, key, ack_off, seq_off, flags, sack_offsets, payload in sorted(
            arrivals, key=lambda a: moments.get(a[0], a[0])):
        now = moments.get(at, at)
        if delete_at is not None and gone_at is None and now >= delete_at:
            gone_at = e.delete_rules([rule.match], delete_at)
            assert gone_at == due_gone
        ack = (rule_ack + ack_off) % (1 << 32)
        pkt = Packet(key, (divert_seq + seq_off) % (1 << 32), ack, flags, 4096,
                     TcpOptions(sack_blocks=blocks_at(ack, sack_offsets)), payload)
        out, worker = e.process(pkt, now)
        live = gone_at is None or now < gone_at
        if key != S2C or not live:
            cause = "no_rule"
        elif now < ready_at:
            cause = "not_ready"
        elif pkt.ack != rule_ack:
            cause = "mismatched"
        elif flags & (TcpFlags.FIN | TcpFlags.RST):
            cause = "fin_rst_diverted"
        elif payload and pkt.seq == divert_seq:
            cause = "head_diverted"
        elif sack_below_ack(pkt):
            cause = "sack_diverted"
        else:
            assert_hit(out, worker, hairpinned(pkt, C_OUT, seq_delta, ack_delta), pkt)
            last_hit, matched, cause = now, matched + 1, None
        if cause is not None:
            assert out is pkt and worker == e._steer(pkt)
            tally[cause] = tally.get(cause, 0) + 1
        dropped = dropped or (key == S2C and not live)
        assert rule.last_hit == last_hit
        assert (S2C in e.rules) is not dropped
    assert e.stats.matched == matched
    assert_causes(e.stats, tally)
