"""Sequence/ACK mapping versus the byte-stream oracle.

Layout used by the anchor cases: a 1500-byte client stream with two
100-byte insertions at client offsets 100 and 1000, so the receiver sees
inserted regions [100,200) and [1100,1200) in a 1700-byte stream.
"""

import random

from lbsim import oracles
from lbsim.packet import FlowKey, Packet, TcpFlags, seq_add
from lbsim.splice import (
    ConnEntry,
    InsertionPoint,
    SpliceState,
    classify_ack,
    client_bytes_below,
    map_pos_c2s,
    map_sack_block_s2c,
    map_seq_c2s,
    rewrite_s2c,
)

from test_splice_agent import make_agent

CK = FlowKey(0x0A000001, 0x0A0000FE, 40000, 80)

# ISNs of 0xFFFFFFFF make absolute sequence numbers equal stream offsets,
# matching the worked example's "sequence space starting from zero".
Z = 0xFFFFFFFF


def make_entry(insertions, isn_client=Z, isn_lb_back=Z, isn_lb_front=Z, isn_server=Z):
    e = ConnEntry(state=SpliceState.ESTABLISHED, client_key=CK,
                  isn_client=isn_client, isn_lb_front=isn_lb_front)
    e.isn_lb_back = isn_lb_back
    e.isn_server = isn_server
    e.server_key = FlowKey(0x0A000003, 0x0A000002, 40000, 8080)
    cum = 0
    for off, length in insertions:
        e.insertions.append(InsertionPoint(
            sender_off=off, data=bytes(length), length=length,
            cum_before=cum, sent=True))
        cum += length
    e.total_inserted = cum
    return e


def two_insertion_entry():
    return make_entry([(100, 100), (1000, 100)])


def test_seq_map_anchor_cases():
    e = two_insertion_entry()
    assert map_seq_c2s(e, 50) == 50
    assert map_seq_c2s(e, 500) == 600
    assert map_seq_c2s(e, 1200) == 1400
    # at-boundary positions sit after their insertion
    assert map_seq_c2s(e, 100) == 200
    assert map_seq_c2s(e, 1000) == 1200


def server_ack(agent, e, a):
    """Feed the agent a pure server ACK at absolute seq a; return its output."""
    return agent.on_server_packet(Packet(key=e.server_in_key, seq=Z, ack=a,
                                         flags=TcpFlags.ACK), e, 0.0)


def relayed_acks(agent, e, a):
    """The ACK of each packet the agent relays for a pure server ACK at a."""
    return [p.ack for p in server_ack(agent, e, a)]


def test_ack_beyond_all_insertions_forwards_with_total_offset():
    assert relayed_acks(make_agent(), two_insertion_entry(), 1700) == [1500]


def test_ack_in_gap_uses_previous_insertion_offset():
    assert relayed_acks(make_agent(), two_insertion_entry(), 700) == [600]


def test_ack_at_region_end_suppressed_and_releases_buffer():
    agent, e = make_agent(), two_insertion_entry()
    assert not e.insertions[0].acked
    assert classify_ack(e.insertions, e.recv_off(200), e.folded) == ("inside", 100, 0)
    assert server_ack(agent, e, 200) == []
    assert e.insertions[0].acked
    assert e.insertions[0].data is None
    assert not e.insertions[1].acked
    assert agent.counters["acks_suppressed"] == 1


def test_ack_inside_region_suppressed():
    agent, e = make_agent(), two_insertion_entry()
    assert server_ack(agent, e, 150) == []
    assert server_ack(agent, e, 1150) == []
    assert agent.counters["acks_suppressed"] == 2


def test_zero_insertions_is_pure_isn_delta():
    e = make_entry([], isn_client=1000, isn_lb_back=5000)
    assert map_seq_c2s(e, seq_add(1000 + 1, 0)) == 5001
    assert map_seq_c2s(e, seq_add(1000 + 1, 777)) == 5001 + 777
    assert relayed_acks(make_agent(), e, seq_add(5000 + 1, 321)) == [seq_add(1000 + 1, 321)]


def test_sack_block_s2c_inverse():
    pts = two_insertion_entry().insertions
    # response to a hole: the server SACKs spliced [700,1000) -> client [600,900)
    assert map_sack_block_s2c(pts, 700, 1000) == (600, 900)
    # block fully inside an inserted region vanishes
    assert map_sack_block_s2c(pts, 110, 190) is None
    # block straddling a region clamps to the client bytes it covers
    assert map_sack_block_s2c(pts, 150, 250) == (100, 150)


def test_clamped_ack_inside_region():
    e = two_insertion_entry()
    data = Packet(key=e.server_in_key, seq=Z, ack=0, flags=TcpFlags.ACK, payload=b"x")
    assert rewrite_s2c(e, data._replace(ack=150)).ack == 100
    assert rewrite_s2c(e, data._replace(ack=1150)).ack == 1000
    assert rewrite_s2c(e, data._replace(ack=1700)).ack == 1500


def test_mapping_survives_sequence_wraparound():
    isn_c = 0xFFFFFF00
    isn_b = 0xFFFFFFF0
    e = make_entry([(100, 100), (1000, 100)], isn_client=isn_c, isn_lb_back=isn_b)
    assert map_seq_c2s(e, seq_add(isn_c + 1, 500)) == seq_add(seq_add(isn_b, 1), 600)
    assert relayed_acks(make_agent(), e, seq_add(seq_add(isn_b, 1), 1700)) == \
        [seq_add(isn_c + 1, 1500)]


def random_layout(rng):
    client_len = rng.randrange(1, 4000)
    insertions = []
    off = 0
    for _ in range(rng.randrange(0, 5)):
        off = off + rng.randrange(1, max(2, client_len // 3))
        if off > client_len:
            break
        insertions.append((off, rng.randrange(1, 200)))
    return client_len, insertions


def test_classify_matches_byte_stream_oracle():
    rng = random.Random(2024)
    for _ in range(400):
        client_len, ins = random_layout(rng)
        points = make_entry(ins).insertions
        spliced_len = client_len + sum(l for _, l in ins)
        for _ in range(25):
            a = rng.randrange(0, spliced_len + 1)
            kind, fwd, idx = classify_ack(points, a)
            okind, ofwd, oidx = oracles.classify_ack(client_len, ins, a)
            assert (kind, fwd, idx) == (okind, ofwd, oidx), (ins, a)
            assert client_bytes_below(points, a) == ofwd


def test_position_map_matches_byte_stream_oracle():
    rng = random.Random(77)
    for _ in range(300):
        client_len, ins = random_layout(rng)
        points = make_entry(ins).insertions
        for _ in range(20):
            p = rng.randrange(0, client_len + 1)
            assert map_pos_c2s(points, p) == oracles.map_pos(client_len, ins, p)


def test_sack_map_matches_byte_stream_oracle():
    rng = random.Random(55)
    for _ in range(300):
        client_len, ins = random_layout(rng)
        points = make_entry(ins).insertions
        spliced_len = client_len + sum(l for _, l in ins)
        if spliced_len < 2:
            continue
        for _ in range(10):
            l = rng.randrange(0, spliced_len - 1)
            r = rng.randrange(l + 1, spliced_len + 1)
            assert map_sack_block_s2c(points, l, r) == \
                oracles.map_sack_block(client_len, ins, l, r)


def test_roundtrip_identity_outside_inserted_regions():
    rng = random.Random(31)
    for _ in range(200):
        client_len, ins = random_layout(rng)
        points = make_entry(ins).insertions
        for _ in range(20):
            p = rng.randrange(0, client_len + 1)
            assert client_bytes_below(points, map_pos_c2s(points, p)) == p


def test_folded_prefix_matches_byte_stream_oracle():
    """Folding a prefix of the points into the base shift changes no answer
    for offsets past the folded points, the only ones that still occur: a
    client position at or past the last folded sender_off, a server ACK
    past its end (at the end, only the kind differs: "inside" is what
    suppressed that ACK before the fold), a SACK block from its end on."""
    rng = random.Random(404)
    checked = 0
    for _ in range(200):
        client_len, ins = random_layout(rng)
        if not ins:
            continue
        e = make_entry(ins)
        n = rng.randrange(1, len(ins) + 1)
        del e.insertions[:n]
        live, base = e.insertions, e.folded
        assert base == sum(length for _, length in ins[:n])
        off = ins[n - 1][0]
        end = off + sum(l for _, l in ins[:n])  # receiver offset of its end
        spliced_len = client_len + sum(l for _, l in ins)
        for _ in range(10):
            p = rng.randrange(off, client_len + 1)
            assert map_pos_c2s(live, p, base) == oracles.map_pos(client_len, ins, p)
            assert map_seq_c2s(e, seq_add(Z, 1 + p)) == \
                seq_add(Z, 1 + oracles.map_pos(client_len, ins, p))
            a = rng.randrange(end, spliced_len + 1)
            kind, fwd, idx = classify_ack(live, a, base)
            okind, ofwd, oidx = oracles.classify_ack(client_len, ins, a)
            assert client_bytes_below(live, a, base) == ofwd
            assert fwd == ofwd
            if a > end:
                assert (kind, None if idx is None else idx + n) == (okind, oidx), (ins, n, a)
            if a < spliced_len:
                r = rng.randrange(a + 1, spliced_len + 1)
                assert map_sack_block_s2c(live, a, r, base) == \
                    oracles.map_sack_block(client_len, ins, a, r)
            checked += 1
    assert checked > 1000
