"""Splice agent behavior: handshake statelessness, buffering and routing,
flush with insertions, keep-alive, teardown."""

import pytest

from lbsim.conntable import CuckooTable, TableConfig
from lbsim.packet import FlowKey, Packet, TcpFlags, TcpOptions, seq_add, seq_sub
from lbsim.splice import (
    Backend,
    HeaderEdit,
    RouteRule,
    RouteTable,
    ShardViolation,
    SpliceAgent,
    SpliceState,
)

VIP = 0x0A0000FE
LB = 0x0A010001
POOL_A = [Backend(0x0A000010, 8080), Backend(0x0A000011, 8080)]
POOL_D = [Backend(0x0A000020, 8080)]


def shard_of(port):
    return port % 4


def make_agent(mss=1460, edits=(HeaderEdit("x-forwarded-for", "$client_addr"),)):
    routes = RouteTable(
        rules=[RouteRule(b"/api", "a", tuple(edits)),
               RouteRule(b"/api/v2", "a", tuple(edits))],
        pools={"a": POOL_A, "default": POOL_D},
        default_pool="default")
    table = CuckooTable(TableConfig(bucket_count=1024))
    return SpliceAgent(table, routes, vip_addr=VIP, vip_port=80, lb_addr=LB,
                       mss=mss, cookie_secret=b"test-secret", shard_of=shard_of)


def client_key(port=40000, addr=0x0A000001):
    return FlowKey(addr, VIP, port, 80)


def do_syn(agent, ck, now=0.0, mss=1460):
    syn = Packet(key=ck, seq=999, flags=TcpFlags.SYN,
                 options=TcpOptions(mss=mss, sack_permitted=True))
    out = agent.handle_packet(syn, now, worker_id=shard_of(ck.src_port))
    assert len(out) == 1 and out[0].syn and (out[0].flags & TcpFlags.ACK)
    return out[0]  # the SYNACK


def send_request(agent, ck, synack, payload, now=0.0, seq_off=0):
    pkt = Packet(key=ck, seq=seq_add(1000, seq_off), ack=seq_add(synack.seq, 1),
                 flags=TcpFlags.ACK | TcpFlags.PSH, payload=payload)
    return agent.handle_packet(pkt, now, worker_id=shard_of(ck.src_port))


GET = b"GET /api/x HTTP/1.1\r\nHost: h\r\n\r\n"


def test_syn_is_stateless_and_mirrors_options():
    agent = make_agent()
    ck = client_key()
    synack = do_syn(agent, ck, mss=1220)
    assert synack.options.mss == 1460
    assert synack.options.sack_permitted
    assert synack.ack == 1000
    assert len(agent.table) == 0


def test_retransmitted_syn_same_epoch_same_isn():
    agent = make_agent()
    ck = client_key()
    a = do_syn(agent, ck, now=10.0)
    b = do_syn(agent, ck, now=11.0)
    assert a.seq == b.seq
    c = do_syn(agent, ck, now=10.0 + 128.0)  # two epochs later
    assert c.seq != a.seq


def test_table_empty_after_syn_flood():
    agent = make_agent()
    for i in range(10_000):
        do_syn(agent, client_key(port=1024 + (i % 60000), addr=0x0A000001 + i))
    assert len(agent.table) == 0


def test_request_triggers_backend_syn_toward_pool():
    agent = make_agent()
    ck = client_key()
    synack = do_syn(agent, ck)
    out = send_request(agent, ck, synack, GET)
    assert len(out) == 1
    syn = out[0]
    assert syn.syn and not (syn.flags & TcpFlags.ACK)
    assert syn.key.dst_addr in {b.addr for b in POOL_A}
    entry = agent.table.lookup(ck, 0.0)
    assert entry.state is SpliceState.SYN_SENT
    assert entry.server_key.src_port == ck.src_port  # same steering shard


def test_split_head_buffers_then_routes():
    agent = make_agent()
    ck = client_key()
    synack = do_syn(agent, ck)
    first = send_request(agent, ck, synack, GET[:10])
    assert first == []
    entry = agent.table.lookup(ck, 0.0)
    assert entry.state is SpliceState.FRONT_ESTABLISHED
    second = send_request(agent, ck, synack, GET[10:], seq_off=10)
    assert len(second) == 1 and second[0].syn


def test_unmatched_prefix_falls_to_default_pool():
    agent = make_agent()
    ck = client_key()
    synack = do_syn(agent, ck)
    out = send_request(agent, ck, synack, b"GET /other HTTP/1.1\r\n\r\n")
    assert out[0].key.dst_addr == POOL_D[0].addr


def test_cookie_failure_resets():
    agent = make_agent()
    ck = client_key()
    pkt = Packet(key=ck, seq=1000, ack=12345, flags=TcpFlags.ACK, payload=GET)
    out = agent.handle_packet(pkt, 0.0, worker_id=shard_of(ck.src_port))
    assert len(out) == 1 and out[0].rst
    assert len(agent.table) == 0


def test_oversized_head_resets_connection():
    agent = make_agent()
    ck = client_key()
    synack = do_syn(agent, ck)
    out = send_request(agent, ck, synack, b"GET /api HTTP/1.1\r\n" + b"a" * 17000)
    assert any(p.rst for p in out)
    assert agent.table.lookup(ck, 0.0) is None


def establish(agent, ck, payload=GET, now=0.0):
    """Handshake + first request + backend SYNACK; returns (entry, flushed)."""
    synack = do_syn(agent, ck, now=now)
    out = send_request(agent, ck, synack, payload, now=now)
    backend_syn = out[0]
    entry = agent.table.lookup(ck, now)
    sa = Packet(key=backend_syn.key.reverse(), seq=7_000_000,
                ack=seq_add(backend_syn.seq, 1),
                flags=TcpFlags.SYN | TcpFlags.ACK,
                options=TcpOptions(mss=1460, sack_permitted=True))
    flushed = agent.handle_packet(sa, now, worker_id=shard_of(ck.src_port))
    return entry, flushed


def test_backend_synack_flushes_spliced_request():
    agent = make_agent()
    ck = client_key(addr=0x0A000001)
    entry, out = establish(agent, ck)
    assert entry.state is SpliceState.ESTABLISHED
    assert out[0].flags == TcpFlags.ACK and not out[0].payload
    data = [p for p in out if p.payload]
    # reassemble what the server would see
    stream = {}
    for p in data:
        off = seq_sub(p.seq, seq_add(entry.isn_lb_back, 1))
        stream[off] = p.payload
    joined = b"".join(stream[o] for o in sorted(stream))
    expected = GET[:-2] + b"x-forwarded-for: 10.0.0.1\r\n" + GET[-2:]
    assert joined == expected
    assert entry.pending_request is None
    # inserted bytes held until server ACK
    assert entry.insertions[0].data is not None
    assert entry.total_inserted == len(b"x-forwarded-for: 10.0.0.1\r\n")


def test_insertion_splits_at_configured_offset():
    # 300-byte request, insertion lands before the trailing CRLF
    agent = make_agent()
    ck = client_key()
    filler = b"x" * (300 - len(b"GET /api/a HTTP/1.1\r\nHost: h\r\nc: ") - 4)
    req = b"GET /api/a HTTP/1.1\r\nHost: h\r\nc: " + filler + b"\r\n\r\n"
    assert len(req) == 300
    entry, out = establish(agent, ck, payload=req)
    ins = entry.insertions[0]
    assert ins.sender_off == 298
    data = [p for p in out if p.payload]
    total = sum(len(p.payload) for p in data)
    assert total == 300 + ins.length


def test_zero_insertions_releases_buffers_immediately():
    agent = make_agent(edits=())
    ck = client_key()
    entry, out = establish(agent, ck)
    assert entry.pending_request is None
    assert entry.insertions == []
    data = b"".join(p.payload for p in out if p.payload)
    assert data == GET


def test_duplicate_synack_reacks_without_reflush():
    agent = make_agent()
    ck = client_key()
    entry, _ = establish(agent, ck)
    sa = Packet(key=entry.server_in_key, seq=7_000_000,
                ack=seq_add(entry.isn_lb_back, 1),
                flags=TcpFlags.SYN | TcpFlags.ACK)
    out = agent.handle_packet(sa, 0.0, worker_id=shard_of(ck.src_port))
    assert len(out) == 1
    assert out[0].flags == TcpFlags.ACK and not out[0].payload
    assert out[0].ack == seq_add(7_000_000, 1)


def test_synack_for_unknown_flow_dropped():
    agent = make_agent()
    sa = Packet(key=FlowKey(0x0A000010, LB, 8080, 50000), seq=1,
                ack=2, flags=TcpFlags.SYN | TcpFlags.ACK)
    assert agent.handle_packet(sa, 0.0) == []


def test_keepalive_second_request_gets_second_insertion():
    agent = make_agent()
    ck = client_key()
    entry, _ = establish(agent, ck)
    first_ins = entry.insertions[0]
    # server ACKs the whole spliced request
    spliced_len = entry.fwd_hi + entry.total_inserted
    server_ack = Packet(key=entry.server_in_key,
                        seq=seq_add(entry.isn_server, 1),
                        ack=seq_add(seq_add(entry.isn_lb_back, 1), spliced_len),
                        flags=TcpFlags.ACK)
    agent.handle_packet(server_ack, 0.0, worker_id=shard_of(ck.src_port))
    assert first_ins.acked and first_ins.data is None

    req2 = b"GET /api/y HTTP/1.1\r\nHost: h\r\n\r\n"
    pkt2 = Packet(key=ck, seq=seq_add(1000, len(GET)),
                  ack=seq_add(entry.isn_lb_front, 1),
                  flags=TcpFlags.ACK | TcpFlags.PSH, payload=req2)
    out = agent.handle_packet(pkt2, 0.0, worker_id=shard_of(ck.src_port))
    assert len(entry.insertions) == 2
    second = entry.insertions[1]
    assert second.sender_off == len(GET) + len(req2) - 2
    assert second.cum_before == first_ins.length
    data = b"".join(p.payload for p in out if p.payload)
    expected = req2[:-2] + b"x-forwarded-for: 10.0.0.1\r\n" + req2[-2:]
    assert data == expected


def test_retransmitted_request_resends_unacked_insertion():
    agent = make_agent()
    ck = client_key()
    entry, _ = establish(agent, ck)
    assert not entry.insertions[0].acked
    before = agent.counters["inserted_bytes_retx"]
    pkt = Packet(key=ck, seq=1000, ack=seq_add(entry.isn_lb_front, 1),
                 flags=TcpFlags.ACK | TcpFlags.PSH, payload=GET)
    out = agent.handle_packet(pkt, 0.0, worker_id=shard_of(ck.src_port))
    total = sum(len(p.payload) for p in out if p.payload)
    assert total == len(GET) + entry.insertions[0].length
    assert agent.counters["inserted_bytes_retx"] > before


XFF = b"x-forwarded-for: 10.0.0.1\r\n"
RESP = b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok"


def from_client(entry, off, ack_off, payload=b""):
    """Client segment at client-stream offset off, ACKing server-stream
    offset ack_off."""
    return Packet(key=entry.client_key, seq=seq_add(seq_add(entry.isn_client, 1), off),
                  ack=seq_add(seq_add(entry.isn_lb_front, 1), ack_off),
                  flags=TcpFlags.ACK | (TcpFlags.PSH if payload else 0), payload=payload)


def from_server(entry, off, ack_off, payload=b""):
    """Server segment at server-stream offset off, ACKing receiver-stream
    (spliced) offset ack_off."""
    return Packet(key=entry.server_in_key, seq=seq_add(seq_add(entry.isn_server, 1), off),
                  ack=seq_add(seq_add(entry.isn_lb_back, 1), ack_off),
                  flags=TcpFlags.ACK | (TcpFlags.PSH if payload else 0), payload=payload)


def spliced_payloads(entry, pkts):
    """(receiver-stream offset, payload length) of each data packet."""
    base = seq_add(entry.isn_lb_back, 1)
    return [(seq_sub(p.seq, base), len(p.payload)) for p in pkts if p.payload]


def established_with_handler(ck=None):
    agent = make_agent()
    ck = ck or client_key()
    entry, out = establish(agent, ck)
    return entry, out, lambda pkt: agent.handle_packet(pkt, 0.0, worker_id=shard_of(ck.src_port))


def test_resend_from_offset_0_after_ack_at_insertion_end():
    entry, _, handle = established_with_handler()
    ins = entry.insertions[0]
    assert (ins.sender_off, ins.length) == (30, 27)
    # the server ACKs exactly the insertion's end: suppressed, bytes released
    assert handle(from_server(entry, 0, 57)) == []
    assert ins.acked
    # the client saw no ACK and resends the request from offset 0
    out = handle(from_client(entry, 0, 0, GET))
    assert spliced_payloads(entry, out) == [(0, 30), (57, 2)]


def test_ack_at_insertion_end_stays_suppressed_after_client_acks_data():
    # a server that answers before the request's last bytes arrive: the
    # point is reached but not passed, so it must stay live
    entry, _, handle = established_with_handler()
    assert handle(from_server(entry, 0, 57)) == []
    handle(from_server(entry, 0, 57, RESP))
    handle(from_client(entry, len(GET), len(RESP)))
    assert handle(from_server(entry, len(RESP), 57)) == []
    assert len(entry.insertions) == 1


def test_client_ack_of_bytes_the_agent_never_relayed_does_not_fold():
    # the client ACKs server bytes the flow engine relayed; a later client
    # ACK of no newer byte must not fold the next request's point
    entry, _, handle = established_with_handler()
    handle(from_server(entry, 0, len(GET) + 27))  # request ACKed
    handle(from_client(entry, len(GET), 5000))    # 5000 bytes came via the engine
    req2 = b"GET /api/y HTTP/1.1\r\nHost: h\r\n\r\n"
    first = handle(from_client(entry, len(GET), 5000, req2))
    handle(from_server(entry, 5000, len(GET) + len(req2) + 2 * 27))
    # the server's ACK never reached the client, which resends req2
    again = handle(from_client(entry, len(GET), 5000, req2))
    assert spliced_payloads(entry, again)[0] == spliced_payloads(entry, first)[0]
    assert len(entry.insertions) == 1


def test_client_ack_of_bytes_relayed_before_the_server_ack_does_not_fold():
    # a response relayed before the server ACKed the request's end carries
    # an older ACK; the client ACKing it shows nothing about the point
    entry, _, handle = established_with_handler()
    handle(from_server(entry, 0, 20, RESP))
    handle(from_server(entry, len(RESP), len(GET) + 27))  # lost on its way on
    out = handle(from_client(entry, 20, len(RESP), GET[20:]))
    assert spliced_payloads(entry, out) == [(20, 10), (57, 2)]
    assert len(entry.insertions) == 1


def test_server_ack_and_sack_map_past_a_folded_insertion():
    entry, _, handle = established_with_handler()
    handle(from_server(entry, 0, 59))
    handle(from_server(entry, 0, 59, RESP))
    handle(from_client(entry, len(GET), len(RESP)))
    assert entry.insertions == [] and entry.folded == 27
    b, cb = seq_add(entry.isn_lb_back, 1), seq_add(entry.isn_client, 1)
    sack = TcpOptions(sack_blocks=((seq_add(b, 69), seq_add(b, 79)),))
    out = handle(from_server(entry, len(RESP), 59).with_(options=sack))
    assert [(p.ack, p.options.sack_blocks) for p in out] == \
        [(seq_add(cb, 32), ((seq_add(cb, 42), seq_add(cb, 52)),))]


def test_long_keepalive_holds_at_most_one_live_insertion():
    entry, out, handle = established_with_handler()
    to_server = [p for p in out if p.payload]
    expected = bytearray(GET[:-2] + XFF + GET[-2:])
    c_off, s_off = len(GET), 0  # client and server bytes sent so far
    for k in range(32):
        if k:
            req = b"GET /api/%d HTTP/1.1\r\nHost: h\r\n\r\n" % k
            expected += req[:-2] + XFF + req[-2:]
            to_server += [p for p in handle(from_client(entry, c_off, s_off, req))
                          if p.payload]
            c_off += len(req)
        handle(from_server(entry, s_off, len(expected)))
        handle(from_server(entry, s_off, len(expected), RESP))
        s_off += len(RESP)
        handle(from_client(entry, c_off, s_off))
        assert len(entry.insertions) <= 1, k
    assert entry.resp_index == 32
    assert entry.total_inserted == 32 * len(XFF)
    stream = bytearray(len(expected))
    for (off, n), p in zip(spliced_payloads(entry, to_server), to_server):
        stream[off:off + n] = p.payload
    assert stream == expected


def test_fin_exchange_removes_entry():
    agent = make_agent()
    ck = client_key()
    entry, _ = establish(agent, ck)
    fin_c = Packet(key=ck, seq=seq_add(1000, len(GET)),
                   ack=seq_add(entry.isn_lb_front, 1),
                   flags=TcpFlags.FIN | TcpFlags.ACK)
    out = agent.handle_packet(fin_c, 1.0, worker_id=shard_of(ck.src_port))
    assert any(p.fin for p in out)
    # server ACKs the client FIN, then sends its own FIN
    spliced_fin = out[0].seq
    ack_fin = Packet(key=entry.server_in_key, seq=seq_add(entry.isn_server, 1),
                     ack=seq_add(spliced_fin, 1), flags=TcpFlags.ACK)
    agent.handle_packet(ack_fin, 1.0, worker_id=shard_of(ck.src_port))
    fin_s = Packet(key=entry.server_in_key, seq=seq_add(entry.isn_server, 1),
                   ack=seq_add(spliced_fin, 1), flags=TcpFlags.FIN | TcpFlags.ACK)
    out2 = agent.handle_packet(fin_s, 1.0, worker_id=shard_of(ck.src_port))
    assert any(p.fin for p in out2)
    # client ACKs the server FIN -> entry removed
    fin_front = out2[-1].seq
    last = Packet(key=ck, seq=seq_add(seq_add(1000, len(GET)), 1),
                  ack=seq_add(fin_front, 1), flags=TcpFlags.ACK)
    agent.handle_packet(last, 1.0, worker_id=shard_of(ck.src_port))
    assert len(agent.table) == 0


def test_rst_removes_entry_and_relays():
    agent = make_agent()
    ck = client_key()
    entry, _ = establish(agent, ck)
    rst = Packet(key=ck, seq=seq_add(1000, len(GET)), flags=TcpFlags.RST)
    out = agent.handle_packet(rst, 2.0, worker_id=shard_of(ck.src_port))
    assert len(out) == 1 and out[0].rst
    assert out[0].key == entry.server_key
    assert len(agent.table) == 0


def test_ttl_sweep_removes_both_direction_keys():
    agent = make_agent()
    ck = client_key()
    entry, _ = establish(agent, ck, now=0.0)
    assert len(agent.table) == 2  # both direction keys
    assert agent.sweep(now=30.0) == 0
    assert agent.sweep(now=61.0) == 1
    assert len(agent.table) == 0
    assert entry.closed


def test_half_open_entry_swept():
    agent = make_agent()
    ck = client_key()
    synack = do_syn(agent, ck)
    send_request(agent, ck, synack, GET[:5])  # head incomplete, no backend
    assert len(agent.table) == 1
    agent.sweep(now=120.0)
    assert len(agent.table) == 0


def test_packet_on_wrong_worker_raises_shard_violation():
    agent = make_agent()
    ck = client_key()
    entry, _ = establish(agent, ck)
    ack = Packet(key=ck, seq=seq_add(1000, len(GET)),
                 ack=seq_add(entry.isn_lb_front, 1), flags=TcpFlags.ACK)
    with pytest.raises(ShardViolation):
        agent.handle_packet(ack, 0.0, worker_id=shard_of(ck.src_port) + 1)


def test_emitted_flags_are_plain_ints():
    agent = make_agent()
    ck = client_key()
    worker = shard_of(ck.src_port)
    synack = do_syn(agent, ck)
    emitted = [synack, *send_request(agent, ck, synack, GET)]
    backend_syn = emitted[-1]
    sa = Packet(key=backend_syn.key.reverse(), seq=7_000_000,
                ack=seq_add(backend_syn.seq, 1), flags=TcpFlags.SYN | TcpFlags.ACK)
    emitted += agent.handle_packet(sa, 0.0, worker_id=worker)
    resp = Packet(key=sa.key, seq=7_000_001, ack=seq_add(backend_syn.seq, 1),
                  flags=TcpFlags.ACK | TcpFlags.PSH,
                  payload=b"HTTP/1.1 200 OK\r\nContent-Length: 0\r\n\r\n")
    emitted += agent.handle_packet(resp, 0.0, worker_id=worker)
    emitted += agent.handle_packet(Packet(key=ck, seq=seq_add(1000, len(GET)),
                                          flags=TcpFlags.RST), 0.0, worker_id=worker)
    assert {p.flags for p in emitted} >= {TcpFlags.SYN, TcpFlags.RST}
    assert all(type(p.flags) is int for p in emitted)
