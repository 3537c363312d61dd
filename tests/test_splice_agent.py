"""Splice agent behavior: handshake statelessness, buffering and routing,
flush with insertions, keep-alive, teardown."""

import copy
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lbsim.conntable import CuckooTable, TableConfig
from lbsim.flow_engine import FlowEngine
from lbsim.offload import OffloadManager
from lbsim.packet import FlowKey, Packet, TcpFlags, TcpOptions, seq_add, seq_sub
from lbsim.splice import (
    REQUEST_HEAD_CAP,
    Backend,
    FramingError,
    HeaderEdit,
    RouteRule,
    RouteTable,
    ShardViolation,
    SpliceAgent,
    SpliceState,
    StreamBuf,
    _content_length,
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
    agent = SpliceAgent(table, routes, vip_addr=VIP, vip_port=80, lb_addr=LB,
                        mss=mss, cookie_secret=b"test-secret", shard_of=shard_of)
    OffloadManager(FlowEngine(), agent, math.inf, _never_called, _never_called)
    return agent


def _never_called(*args):
    raise AssertionError("a manager that never offloads schedules and emits nothing")


def client_key(port=40000, addr=0x0A000001):
    return FlowKey(addr, VIP, port, 80)


def do_syn(agent, ck, now=0.0, mss=1460, isn=999):
    syn = Packet(key=ck, seq=isn, flags=TcpFlags.SYN,
                 options=TcpOptions(mss=mss, sack_permitted=True))
    out = agent.handle_packet(syn, now, worker_id=shard_of(ck.src_port))
    assert len(out) == 1 and out[0].syn and (out[0].flags & TcpFlags.ACK)
    return out[0]  # the SYNACK


def send_request(agent, ck, synack, payload, now=0.0, seq_off=0, isn=999):
    pkt = Packet(key=ck, seq=seq_add(isn + 1, seq_off), ack=seq_add(synack.seq, 1),
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


def test_client_resend_in_syn_sent_resends_the_backend_syn():
    # the agent keeps no timer: a client resend is what recovers a lost
    # backend SYN or SYNACK
    agent = make_agent()
    ck = client_key()
    synack = do_syn(agent, ck)
    first = send_request(agent, ck, synack, GET)
    assert send_request(agent, ck, synack, GET) == first
    assert send_request(agent, ck, synack, GET[5:20], seq_off=5) == first
    # bytes past the buffered ones are buffered, and send nothing
    assert send_request(agent, ck, synack, b"GET /api/y", seq_off=len(GET)) == []
    entry = agent.table.lookup(ck, 0.0)
    assert entry.state is SpliceState.SYN_SENT
    assert entry.head_buf.end == len(GET) + len(b"GET /api/y")


def test_unmatched_prefix_falls_to_default_pool():
    agent = make_agent()
    ck = client_key()
    synack = do_syn(agent, ck)
    out = send_request(agent, ck, synack, b"GET /other HTTP/1.1\r\n\r\n")
    assert out[0].key.dst_addr == POOL_D[0].addr


def test_backend_is_a_function_of_the_client_flow():
    """A flow's backend does not depend on the calls made before: a table
    asked in the opposite order gives every flow the same one.  Over 64
    flows both members of a 2-member pool are picked, also when the flows
    differ in their address alone; a 1-member pool always gives its
    member."""
    def routes():
        return RouteTable(rules=[], pools={"a": POOL_A, "d": POOL_D},
                          default_pool="d", seed=7)

    keys = [client_key(port=1024 + 7 * i) for i in range(64)]
    picks = [routes().pick_backend("a", k) for k in keys]
    table = routes()
    assert [table.pick_backend("a", k) for k in reversed(keys)] == picks[::-1]
    assert [table.pick_backend("a", k) for k in keys] == picks
    assert set(picks) == set(POOL_A)
    assert {table.pick_backend("a", client_key(addr=0x0A000001 + i))
            for i in range(64)} == set(POOL_A)
    assert {table.pick_backend("d", k) for k in keys} == {POOL_D[0]}


def test_cookie_failure_resets():
    agent = make_agent()
    ck = client_key()
    pkt = Packet(key=ck, seq=1000, ack=12345, flags=TcpFlags.ACK, payload=GET)
    out = agent.handle_packet(pkt, 0.0, worker_id=shard_of(ck.src_port))
    assert len(out) == 1 and out[0].rst
    assert len(agent.table) == 0


@pytest.mark.parametrize("first_head", [GET, GET[:10]], ids=["routed", "in_head"])
def test_a_full_table_resets_the_connection_it_refuses(first_head):
    """Two slots in all.  A first connection that is routed holds both, its
    client and server keys, so the second connection's client key finds
    no room; one still in its head holds one, so the second's server key
    finds none.  Either way the second connection's client gets one RST,
    its backend, which was sent no SYN, gets nothing, and neither the table
    nor the backend ports keep anything of it."""
    agent = make_agent()
    agent.table = CuckooTable(TableConfig(bucket_count=2, slots_per_bucket=1))
    first, second = client_key(port=40000), client_key(port=40001)
    send_request(agent, first, do_syn(agent, first), first_head)
    kept, ports = dict(agent.table.items()), set(agent._used_ports)
    assert len(kept) == (2 if first_head == GET else 1)
    out = send_request(agent, second, do_syn(agent, second), GET)
    assert len(out) == 1 and out[0].rst and out[0].key == second.reverse()
    assert agent.counters["resets_tx"] == 1
    assert agent.table.stats.insert_failures == 1
    assert dict(agent.table.items()) == kept
    assert agent._used_ports == ports


def test_an_exhausted_port_space_resets_the_connection_it_refuses():
    """Every port of the client's shard is in use toward both backends of
    its pool: the client gets an RST, no backend gets anything, and neither
    the table nor the backend ports keep anything of the connection."""
    agent = make_agent()
    ck = client_key()
    shard = shard_of(ck.src_port)
    agent._used_ports = {(p, b.addr, b.port) for b in POOL_A
                         for p in range(1024, 1 << 16) if shard_of(p) == shard}
    ports = set(agent._used_ports)
    out = send_request(agent, ck, do_syn(agent, ck), GET)
    assert len(out) == 1 and out[0].rst and out[0].key == ck.reverse()
    assert agent.counters["resets_tx"] == 1
    assert len(agent.table) == 0
    assert agent._used_ports == ports


def test_oversized_head_resets_connection():
    agent = make_agent()
    ck = client_key()
    synack = do_syn(agent, ck)
    out = send_request(agent, ck, synack, b"GET /api HTTP/1.1\r\n" + b"a" * 17000)
    assert any(p.rst for p in out)
    assert agent.table.lookup(ck, 0.0) is None


def test_out_of_order_flood_keeps_the_head_buffer_within_its_cap():
    # segments past the open head's end are kept only inside the cap's
    # window; the head still completes and routes once its gap is filled
    agent = make_agent()
    ck = client_key()
    synack = do_syn(agent, ck)
    send_request(agent, ck, synack, GET[:10])
    buf = agent.table.lookup(ck, 0.0).head_buf
    # 40 x 1,460 bytes from offset 100, far past the cap, then 1,000 that
    # overlap each other at offsets 101, 102, ...
    offsets = [100 + 1460 * k for k in range(40)] + [101 + k for k in range(1000)]
    for off in offsets:
        assert send_request(agent, ck, synack, bytes(1460), seq_off=off) == []
        assert len(buf.data) + sum(len(f) for _, f in buf.fragments) <= REQUEST_HEAD_CAP
    assert buf.fragments == [(100, bytes(REQUEST_HEAD_CAP - 100))]
    out = send_request(agent, ck, synack, GET[10:] + bytes(100 - len(GET)), seq_off=10)
    assert len(out) == 1 and out[0].syn


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


def entry_fields(entry):
    """A copy of the entry's fields, each reassembly buffer by its bytes."""
    return {name: (v.base, bytes(v.data), list(v.fragments)) if isinstance(v, StreamBuf)
            else copy.deepcopy(v) for name, v in vars(entry).items()}


@pytest.mark.parametrize("state", [SpliceState.SYN_SENT, SpliceState.ESTABLISHED])
def test_a_client_syn_on_a_known_flow_is_dropped(state):
    """A SYN-bearing packet from the client's side carries no backend ISN:
    it neither completes the backend handshake nor draws a re-ACK of the
    backend's SYNACK."""
    agent = make_agent()
    ck = client_key()
    if state is SpliceState.SYN_SENT:
        send_request(agent, ck, do_syn(agent, ck), GET)
        entry = agent.table.lookup(ck, 0.0)
    else:
        entry, _ = establish(agent, ck)
    assert entry.state is state
    before, counters = entry_fields(entry), dict(agent.counters)
    pkt = Packet(key=ck, seq=12345, ack=seq_add(entry.isn_lb_front, 1),
                 flags=TcpFlags.SYN | TcpFlags.ACK)
    assert agent.handle_packet(pkt, 0.0, worker_id=shard_of(ck.src_port)) == []
    assert entry_fields(entry) == before
    assert agent.counters == counters


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
    assert entry.head_buf is None
    # inserted bytes held until server ACK
    assert entry.insertions[0].data is not None
    assert entry.total_inserted == len(b"x-forwarded-for: 10.0.0.1\r\n")


def test_a_client_syn_without_mss_gets_the_default_536():
    """A SYN without an MSS option leaves the default send MSS of 536
    (RFC 9293) in its cookie: the request and its insertion leave toward
    the backend in segments of at most 536 bytes."""
    agent = make_agent()
    ck = client_key()
    synack = do_syn(agent, ck, mss=None)
    req = b"GET /api/" + b"x" * 1200 + b" HTTP/1.1\r\nHost: h\r\n\r\n"
    assert len(req) == 1231
    backend_syn = send_request(agent, ck, synack, req)[0]
    entry = agent.table.lookup(ck, 0.0)
    assert entry.eff_mss == 536
    sa = Packet(key=backend_syn.key.reverse(), seq=7_000_000,
                ack=seq_add(backend_syn.seq, 1), flags=TcpFlags.SYN | TcpFlags.ACK,
                options=TcpOptions(mss=1460, sack_permitted=True))
    out = agent.handle_packet(sa, 0.0, worker_id=shard_of(ck.src_port))
    assert out[0].flags == TcpFlags.ACK and not out[0].payload
    assert [len(p.payload) for p in out[1:]] == [536, 536, 186]
    inserted = b"x-forwarded-for: 10.0.0.1\r\n"
    assert b"".join(p.payload for p in out[1:]) == req[:-2] + inserted + req[-2:]


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
    assert entry.head_buf is None
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


def test_pipelined_request_is_parsed_and_the_next_one_forwarded():
    # each later request must be parsed as a head of its own, not forwarded
    # raw with the body before it
    req2 = b"GET /api/y HTTP/1.1\r\nHost: h\r\n\r\n"
    req3 = b"GET /api/z HTTP/1.1\r\nHost: h\r\n\r\n"
    cases = [
        # the first segment carries two requests, the next one a third
        ((GET, req2, req3), GET + req2, [(len(GET + req2), req3)]),
        # the second request's bytes from offset 10 on arrive before its
        # first 10: its head starts where the first request ends
        ((GET, req2), GET, [(len(GET) + 10, req2[10:]), (len(GET), req2[:10])]),
    ]
    for requests, first, later in cases:
        agent = make_agent()
        ck = client_key()
        entry, out = establish(agent, ck, payload=first)
        for off, payload in later:
            out += agent.handle_packet(from_client(entry, off, 0, payload), 0.0,
                                       worker_id=shard_of(ck.src_port))
        assert len(entry.insertions) == len(requests)
        expected = b"".join(r[:-2] + XFF + r[-2:] for r in requests)
        to_server = [p for p in out if p.payload]
        stream = bytearray(len(expected))
        for (off, n), p in zip(spliced_payloads(entry, to_server), to_server):
            stream[off:off + n] = p.payload
        assert stream == expected


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


def test_acks_at_insertion_start_are_relayed_and_the_client_resend_carries_it():
    # server ACKs parked at an unACKed insertion's start reach the client as
    # duplicate ACKs at its sender_off; the agent resends nothing itself
    agent = make_agent()
    ck = client_key()
    entry, _ = establish(agent, ck)
    def handle(pkt):
        return agent.handle_packet(pkt, 0.0, worker_id=shard_of(ck.src_port))

    ins = entry.insertions[0]
    assert (ins.sender_off, ins.recv_start, ins.length) == (30, 30, 27)
    retx = agent.counters["inserted_bytes_retx"]
    at_start = seq_add(entry.isn_client, 1 + ins.sender_off)
    for _ in range(3):
        out = handle(from_server(entry, 0, ins.recv_start))
        assert [(p.ack, p.payload) for p in out] == [(at_start, b"")]
    assert agent.counters["inserted_bytes_retx"] == retx
    # the client's resend from sender_off carries the insertion before the CRLF
    out = handle(from_client(entry, ins.sender_off, 0, GET[ins.sender_off:]))
    assert spliced_payloads(entry, out) == [(30, 29)]
    assert out[0].payload == XFF + b"\r\n"
    assert agent.counters["inserted_bytes_retx"] == retx + ins.length


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
    # the resend starts where req2 first did; its ACKed insertion is skipped
    assert spliced_payloads(entry, again)[0][0] == spliced_payloads(entry, first)[0][0]
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
    out = handle(from_server(entry, len(RESP), 59)._replace(options=sack))
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


def test_a_server_segment_with_data_and_fin_leaves_as_one_packet():
    # its ACK falls inside the insertion [30, 57) and clamps to the client
    # byte before it, as any relayed server packet's does
    entry, _, handle = established_with_handler()
    seg = from_server(entry, 0, 40, RESP)
    seg = seg._replace(flags=seg.flags | TcpFlags.FIN)
    assert handle(seg) == [Packet(entry.client_key.reverse(),
                                  seq_add(entry.isn_lb_front, 1),
                                  seq_add(entry.isn_client, 1 + 30),
                                  TcpFlags.FIN | TcpFlags.ACK | TcpFlags.PSH,
                                  seg.window, payload=RESP)]
    assert entry.server_fin == len(RESP)
    assert entry.relayed_hi == len(RESP) + 1


def request_with_fin(agent, ck):
    """A request that carries the client's FIN, sent before the backend
    answers; returns the entry and what the backend's SYNACK releases."""
    synack = do_syn(agent, ck)
    pkt = Packet(key=ck, seq=1000, ack=seq_add(synack.seq, 1),
                 flags=TcpFlags.ACK | TcpFlags.PSH | TcpFlags.FIN, payload=GET)
    out = agent.handle_packet(pkt, 0.0, worker_id=shard_of(ck.src_port))
    assert [p.flags for p in out] == [TcpFlags.SYN]
    entry = agent.table.lookup(ck, 0.0)
    assert entry.state is SpliceState.SYN_SENT
    sa = Packet(key=out[0].key.reverse(), seq=7_000_000, ack=seq_add(out[0].seq, 1),
                flags=TcpFlags.SYN | TcpFlags.ACK)
    return entry, agent.handle_packet(sa, 0.0, worker_id=shard_of(ck.src_port))


def test_a_request_with_the_clients_fin_reaches_the_backend_and_is_answered():
    agent, ck = make_agent(), client_key()
    entry, out = request_with_fin(agent, ck)
    spliced = GET[:-2] + XFF + GET[-2:]
    assert out[0].flags == TcpFlags.ACK and not out[0].payload
    assert b"".join(p.payload for p in out[1:-1]) == spliced
    assert out[-1].flags == TcpFlags.FIN | TcpFlags.ACK and not out[-1].payload
    assert out[-1].seq == seq_add(entry.isn_lb_back, 1 + len(spliced))
    # the server ACKs the request and the FIN, and answers
    resp = agent.handle_packet(from_server(entry, 0, len(spliced) + 1, RESP), 0.0,
                               worker_id=shard_of(ck.src_port))
    assert [(p.key, p.seq, p.ack, p.payload) for p in resp] == [
        (ck.reverse(), seq_add(entry.isn_lb_front, 1), 1000 + len(GET) + 1, RESP)]


def test_a_request_with_the_clients_fin_closes_after_both_fins():
    agent, ck = make_agent(), client_key()
    entry, _ = request_with_fin(agent, ck)
    spliced_len = len(GET) + len(XFF)
    fin_s = from_server(entry, 0, spliced_len + 1, RESP)
    fin_s = fin_s._replace(flags=fin_s.flags | TcpFlags.FIN)
    agent.handle_packet(fin_s, 0.0, worker_id=shard_of(ck.src_port))
    agent.handle_packet(from_client(entry, len(GET) + 1, len(RESP) + 1), 0.0,
                        worker_id=shard_of(ck.src_port))
    assert entry.closed
    assert len(agent.table) == 0 and not agent._used_ports


@pytest.mark.parametrize("with_bytes", [False, True])
def test_a_fin_after_a_partial_head_resets_the_client(with_bytes):
    agent, ck = make_agent(), client_key()
    synack = do_syn(agent, ck)
    send_request(agent, ck, synack, GET[:5])
    payload = GET[5:10] if with_bytes else b""
    fin = Packet(key=ck, seq=1000 + 5, ack=seq_add(synack.seq, 1),
                 flags=TcpFlags.ACK | TcpFlags.FIN, payload=payload)
    out = agent.handle_packet(fin, 0.0, worker_id=shard_of(ck.src_port))
    assert [(p.key, p.flags) for p in out] == [(ck.reverse(), TcpFlags.RST)]
    assert len(agent.table) == 0 and agent.counters["resets_tx"] == 1


def test_a_fin_before_a_missing_head_segment_waits_for_it():
    agent, ck = make_agent(), client_key()
    synack = do_syn(agent, ck)
    send_request(agent, ck, synack, GET[:10])
    fin = Packet(key=ck, seq=1000 + 20, ack=seq_add(synack.seq, 1),
                 flags=TcpFlags.ACK | TcpFlags.PSH | TcpFlags.FIN, payload=GET[20:])
    assert agent.handle_packet(fin, 0.0, worker_id=shard_of(ck.src_port)) == []
    entry = agent.table.lookup(ck, 0.0)
    assert entry.state is SpliceState.FRONT_ESTABLISHED and not entry.closed
    out = send_request(agent, ck, synack, GET[10:20], seq_off=10)
    assert [p.flags for p in out] == [TcpFlags.SYN]
    assert entry.state is SpliceState.SYN_SENT
    assert agent.counters["resets_tx"] == 0


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
    # every packet of a known flow is checked, an RST and a SYNACK too, and
    # none of them changes the connection
    agent = make_agent()
    ck = client_key()
    entry, _ = establish(agent, ck)
    ack = Packet(key=ck, seq=seq_add(1000, len(GET)),
                 ack=seq_add(entry.isn_lb_front, 1), flags=TcpFlags.ACK)
    rst = Packet(key=ck, seq=seq_add(1000, len(GET)), flags=TcpFlags.RST)
    synack = Packet(key=entry.server_in_key, seq=7_000_000,
                    ack=seq_add(entry.isn_lb_back, 1), flags=TcpFlags.SYN | TcpFlags.ACK)
    for pkt in (ack, rst, synack):
        with pytest.raises(ShardViolation):
            agent.handle_packet(pkt, 0.0, worker_id=shard_of(ck.src_port) + 1)
    assert not entry.closed and len(agent.table) == 2


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


def test_response_head_found_after_a_flood_of_later_segments():
    # the head segment of a large response is lost and the next 19 arrive
    # first: more bytes than head_cap sit out of order when it is resent
    entry, _, handle = established_with_handler()
    handle(from_server(entry, 0, len(GET) + len(XFF)))
    body_len = 4 << 20
    stream = b"HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n" % body_len
    stream += bytes(20 * 1460 - len(stream))
    segments = [(k * 1460, stream[k * 1460:(k + 1) * 1460]) for k in range(20)]
    for off, payload in segments[1:] + segments[:1]:
        handle(from_server(entry, off, len(GET) + len(XFF), payload))
        buf = entry.resp_head_buf
        assert len(buf.data) + sum(len(f) for _, f in buf.fragments) <= REQUEST_HEAD_CAP
    assert not entry.resp_tracker_dead
    assert entry.resp_len == body_len


@pytest.mark.parametrize("extra, parsed", [(0, True), (1, False)])
def test_response_head_must_end_within_head_cap(extra, parsed):
    entry, _, handle = established_with_handler()
    handle(from_server(entry, 0, len(GET) + len(XFF)))
    head = b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\nX-Pad: "
    head += b"p" * (REQUEST_HEAD_CAP + extra - len(head) - 4) + b"\r\n\r\n"
    stream = head + b"ok"
    # the first segment stops one byte short of the window's end
    for lo, hi in ((0, REQUEST_HEAD_CAP - 1), (REQUEST_HEAD_CAP - 1, len(stream))):
        handle(from_server(entry, lo, len(GET) + len(XFF), stream[lo:hi]))
    assert entry.resp_tracker_dead is not parsed
    assert entry.resp_len == (2 if parsed else None)


def post(path: bytes, body: bytes) -> bytes:
    return b"POST %s HTTP/1.1\r\nHost: h\r\nContent-Length: %d\r\n\r\n%s" % (
        path, len(body), body)


def padded_post(head_len: int, body: bytes) -> bytes:
    """A POST to /api/p whose head is exactly head_len bytes, then its body."""
    head = b"POST /api/p HTTP/1.1\r\nContent-Length: %d\r\nX-Pad: " % len(body)
    return head + b"p" * (head_len - len(head) - 4) + b"\r\n\r\n" + body


def answer_syn(agent, ck, backend_syn):
    """The backend's SYNACK to `backend_syn`, through the agent."""
    return agent.handle_packet(Packet(
        key=backend_syn.key.reverse(), seq=7_000_000, ack=seq_add(backend_syn.seq, 1),
        flags=TcpFlags.SYN | TcpFlags.ACK, options=TcpOptions(mss=1460, sack_permitted=True)),
        0.0, worker_id=shard_of(ck.src_port))


def received_from(entry, pkts, start):
    """The receiver-stream bytes from offset `start` that `pkts` carry
    toward the server, each byte carried at least once."""
    stream, covered = bytearray(), bytearray()
    data = [p for p in pkts if p.payload]
    for (off, n), p in zip(spliced_payloads(entry, data), data):
        lo = off - start
        grow = lo + n - len(stream)
        if grow > 0:
            stream += bytes(grow)
            covered += bytes(grow)
        stream[lo:lo + n] = p.payload
        covered[lo:lo + n] = b"\x01" * n
    assert all(covered)
    return bytes(stream)


def test_a_later_head_near_the_cap_leaves_with_the_body_that_completes_it():
    """A keep-alive POST whose head ends 100 bytes short of the cap, sent in
    1,460-byte segments: the segment that completes the head carries body
    bytes past the cap.  The head, its insertion and the whole body reach
    the server, and nothing is reset."""
    entry, _, handle = established_with_handler()
    handle(from_server(entry, 0, len(GET) + len(XFF)))
    head_len = REQUEST_HEAD_CAP - 100
    req = padded_post(head_len, bytes(range(1, 251)) * 4)
    out = []
    for lo in range(0, len(req), 1460):
        out += handle(from_client(entry, len(GET) + lo, 0, req[lo:lo + 1460]))
    assert not any(p.rst for p in out) and not entry.closed
    expected = req[:head_len - 2] + XFF + req[head_len - 2:]
    assert len(expected) == 17_311
    assert received_from(entry, out, len(GET) + len(XFF)) == expected


def test_a_first_body_past_the_cap_before_the_synack_is_held_to_the_cap():
    """A routed first request whose body runs past the cap before the
    backend answers: the head buffer keeps the first REQUEST_HEAD_CAP bytes
    and nothing is reset.  The SYNACK releases them with the insertion, and
    the client's resend of the rest passes through."""
    agent = make_agent()
    ck = client_key()
    synack = do_syn(agent, ck)
    req = post(b"/api/p", bytes(range(1, 251)) * 80)
    segments = [(lo, req[lo:lo + 1460]) for lo in range(0, len(req), 1460)]
    out = []
    for lo, chunk in segments:
        out += send_request(agent, ck, synack, chunk, seq_off=lo)
    entry = agent.table.lookup(ck, 0.0)
    assert [p.flags for p in out] == [TcpFlags.SYN] and entry.state is SpliceState.SYN_SENT
    assert entry.head_buf.full and bytes(entry.head_buf.data) == req[:REQUEST_HEAD_CAP]
    out = answer_syn(agent, ck, out[0])
    assert entry.fwd_hi == REQUEST_HEAD_CAP
    for lo, chunk in segments:
        if lo + len(chunk) > REQUEST_HEAD_CAP:
            out += send_request(agent, ck, synack, chunk, seq_off=lo)
    assert agent.counters["resets_tx"] == 0 and not entry.closed
    head_len = req.index(b"\r\n\r\n") + 4
    assert received_from(entry, out, 0) == req[:head_len - 2] + XFF + req[head_len - 2:]


@pytest.mark.parametrize("first", [True, False], ids=["first", "later"])
@pytest.mark.parametrize("extra, parsed", [(0, True), (1, False)])
def test_request_head_must_end_within_head_cap(extra, parsed, first):
    """The request side of the response test above, on the first request and
    on a later one: a head that ends exactly at the cap is forwarded with
    its body, and one a byte longer resets the connection."""
    agent = make_agent()
    ck = client_key()
    worker = shard_of(ck.src_port)
    if first:
        synack = do_syn(agent, ck)
        base = start = 0

        def send(off, chunk):
            return send_request(agent, ck, synack, chunk, seq_off=off)
    else:
        entry, _ = establish(agent, ck)
        base, start = len(GET), len(GET) + len(XFF)

        def send(off, chunk):
            return agent.handle_packet(from_client(entry, base + off, 0, chunk), 0.0,
                                       worker_id=worker)
    head_len = REQUEST_HEAD_CAP + extra
    req = padded_post(head_len, b"ok")
    # the first segment stops one byte short of the cap
    cuts = ((0, REQUEST_HEAD_CAP - 1), (REQUEST_HEAD_CAP - 1, len(req)))
    out = [p for lo, hi in cuts for p in send(lo, req[lo:hi])]
    if not parsed:
        assert sum(p.rst for p in out) == (1 if first else 2)
        assert agent.table.lookup(ck, 0.0) is None
        return
    assert not any(p.rst for p in out)
    entry = agent.table.lookup(ck, 0.0)
    if first:
        # routed with the head; the body the cap clipped comes with the
        # client's resend
        assert [p.flags for p in out] == [TcpFlags.SYN]
        lo = cuts[1][0]
        out = answer_syn(agent, ck, out[0]) + send(lo, req[lo:])
    assert received_from(entry, out, start) == req[:head_len - 2] + XFF + req[head_len - 2:]


def test_later_request_with_its_body_leaves_without_a_crlf_segment():
    # a later head whose body arrives with it leaves as the first one does:
    # the head, its insertion, the CRLF and the body are one run, cut only
    # at eff_mss
    entry, _, handle = established_with_handler()
    handle(from_server(entry, 0, len(GET) + len(XFF)))
    req2 = post(b"/api/p", bytes(1405))
    assert len(req2) == 1460
    out = handle(from_client(entry, len(GET), 0, req2))
    assert spliced_payloads(entry, out) == [(59, 1460), (1519, 27)]


@st.composite
def pipelined_streams(draw):
    """1-4 pipelined GETs or POSTs with bodies of 0-3,000 bytes, cut into
    in-order segments of 1-1,460 bytes, and the segment after which the
    backend SYNACK arrives (at or after the one completing the first head)."""
    reqs = []
    for i in range(draw(st.integers(1, 4))):
        n = draw(st.integers(0, 3000))
        if draw(st.booleans()):
            reqs.append(post(b"/api/%d" % i, bytes((i + k) % 251 for k in range(n))))
        else:
            reqs.append(b"GET /api/%d HTTP/1.1\r\nHost: h\r\n\r\n" % i)
    stream = b"".join(reqs)
    cuts = set(draw(st.lists(st.integers(1, len(stream) - 1), max_size=30)))
    cuts.update(range(1460, len(stream), 1460))
    bounds = sorted({0, len(stream), *cuts})
    segments = []
    for lo, hi in zip(bounds, bounds[1:]):
        while hi - lo > 1460:  # a long gap between random cuts
            segments.append((lo, lo + 1460))
            lo += 1460
        segments.append((lo, hi))
    first_head_end = reqs[0].index(b"\r\n\r\n") + 4
    first = next(k for k, (_, hi) in enumerate(segments) if hi >= first_head_end)
    return reqs, stream, segments, draw(st.integers(first, len(segments) - 1))


NEAR_WRAP = st.integers((1 << 32) - 4096, (1 << 32) - 1)  # ISNs whose streams wrap


@settings(max_examples=200, deadline=None)
@given(pipelined_streams(), NEAR_WRAP, NEAR_WRAP)
def test_every_head_gets_its_insertion_and_every_byte_leaves_once(case, isn_client,
                                                                   isn_server):
    reqs, stream, segments, synack_after = case
    agent = make_agent()
    ck = client_key()
    worker = shard_of(ck.src_port)
    synack = do_syn(agent, ck, isn=isn_client)
    calls = []  # what each packet into the agent sent out
    for k, (lo, hi) in enumerate(segments):
        calls.append(send_request(agent, ck, synack, stream[lo:hi], seq_off=lo,
                                  isn=isn_client))
        if k == synack_after:
            backend_syn = next(p for call in calls for p in call)
            calls.append(agent.handle_packet(Packet(
                key=backend_syn.key.reverse(), seq=isn_server,
                ack=seq_add(backend_syn.seq, 1), flags=TcpFlags.SYN | TcpFlags.ACK),
                0.0, worker_id=worker))
    entry = agent.table.lookup(ck, 0.0)
    expected = b"".join(r.replace(b"\r\n\r\n", b"\r\n" + XFF + b"\r\n", 1) for r in reqs)
    out = [p for call in calls for p in call]
    to_server = [p for p in out if p.payload]
    assert all(len(p.payload) <= entry.eff_mss for p in to_server)
    # within a run that is contiguous at the receiver, only the last
    # segment may be short of eff_mss
    for call in calls:
        segs = spliced_payloads(entry, call)
        for (off, n), (next_off, _) in zip(segs, segs[1:]):
            if next_off == off + n:
                assert n == entry.eff_mss, segs
    sent = bytearray(len(expected))
    covered = bytearray(len(expected))
    for (off, n), p in zip(spliced_payloads(entry, to_server), to_server):
        assert not any(covered[off:off + n]), "a receiver byte was sent twice"
        covered[off:off + n] = b"\x01" * n
        sent[off:off + n] = p.payload
    assert all(covered) and sent == expected


def test_request_body_past_4_gib_leaves_the_next_head_parsed():
    """Client offsets are unbounded: the body segments of a POST longer than
    2^32 bytes pass through at their place, the request after it gets its
    insertion, and the server's ACK of both maps back.  The agent passes a
    body through as it arrives, so most of it never has to be sent."""
    agent = make_agent()
    ck = client_key()
    body_len = (1 << 32) + 3000
    head = b"POST /api/p HTTP/1.1\r\nHost: h\r\nContent-Length: %d\r\n\r\n" % body_len
    entry, _ = establish(agent, ck, payload=head + bytes(1000))
    end = len(head) + body_len  # client offset past the body
    for off in (1 << 30, 2 << 30, 3 << 30, (1 << 32) - 700, (1 << 32) + 760, end - 1460):
        out = agent.handle_packet(from_client(entry, off, 0, bytes(1460)), 0.0,
                                  worker_id=shard_of(ck.src_port))
        assert [(p.seq, len(p.payload)) for p in out] == \
            [(seq_add(entry.isn_lb_back, 1 + off + len(XFF)), 1460)]
    req2 = b"GET /api/y HTTP/1.1\r\nHost: h\r\n\r\n"
    out = agent.handle_packet(from_client(entry, end, 0, req2), 0.0,
                              worker_id=shard_of(ck.src_port))
    assert entry.heads == 2 and entry.fwd_hi == end + len(req2)
    assert [(p.seq, p.payload) for p in out] == \
        [(seq_add(entry.isn_lb_back, 1 + end + len(XFF)), req2[:-2] + XFF + req2[-2:])]
    out = agent.handle_packet(from_server(entry, 0, end + len(req2) + 2 * len(XFF)), 0.0,
                              worker_id=shard_of(ck.src_port))
    assert [p.ack for p in out] == [seq_add(entry.isn_client, 1 + end + len(req2))]


@pytest.mark.parametrize("fields, length", [
    (b"", None),
    (b"Content-Length: 7\r\n", 7),
    (b"Content-Length: 007\r\n", 7),
    (b"content-length:  12 \r\n", 12),
    (b"Content-Length: 5\r\nContent-Length: 5\r\n", 5),
    (b"Content-Length: 5, 5\r\n", 5),
    (b"Content-Length: -5\r\n", FramingError),
    (b"Content-Length: +7\r\n", FramingError),
    (b"Content-Length: 1_000\r\n", FramingError),
    (b"Content-Length: 0x10\r\n", FramingError),
    (b"Content-Length: \r\n", FramingError),
    (b"Content-Length: 5\r\nContent-Length: 6\r\n", FramingError),
    (b"Content-Length: 5, 6\r\n", FramingError),
    (b"Transfer-Encoding: chunked\r\n", FramingError),
    (b"Transfer-Encoding: chunked\r\nContent-Length: 5\r\n", FramingError),
    (b"Content-Length: " + b"9" * 18 + b"\r\n", 10 ** 18 - 1),
    pytest.param(b"Content-Length: " + b"0" * 5000 + b"7\r\n", 7, id="5000-zeros-then-7"),
    (b"Content-Length: 1" + b"0" * 18 + b"\r\n", FramingError),
    pytest.param(b"Content-Length: " + b"9" * 5000 + b"\r\n", FramingError,
                 id="5000-digits"),
])
def test_content_length_follows_rfc_9112_framing(fields, length):
    head = b"POST /api/p HTTP/1.1\r\nHost: h\r\n" + fields + b"\r\n"
    if length is FramingError:
        with pytest.raises(FramingError):
            _content_length(head)
    else:
        assert _content_length(head) == length


UNFRAMED = [
    b"Content-Length: -5\r\n",
    b"Content-Length: +7\r\n",
    b"Content-Length: 1_000\r\n",
    b"Content-Length: 5\r\nContent-Length: 6\r\n",
    b"Transfer-Encoding: chunked\r\n",
    pytest.param(b"Content-Length: " + b"9" * 5000 + b"\r\n", id="5000-digits"),
]
CHUNKED_BODY = b"5\r\nhello\r\n0\r\n\r\n"


def unframed_post(fields: bytes) -> bytes:
    return b"POST /api/p HTTP/1.1\r\nHost: h\r\n" + fields + b"\r\n" + CHUNKED_BODY


@pytest.mark.parametrize("fields", UNFRAMED)
def test_first_request_without_a_valid_length_resets_before_routing(fields):
    agent = make_agent()
    ck = client_key()
    synack = do_syn(agent, ck)
    out = send_request(agent, ck, synack, unframed_post(fields))
    assert [p.flags for p in out] == [TcpFlags.RST]
    assert out[0].key == ck.reverse()
    assert len(agent.table) == 0 and not agent._used_ports


@pytest.mark.parametrize("fields", UNFRAMED)
def test_later_request_without_a_valid_length_resets_both_sides(fields):
    # its body is never parsed as a head: no insertion lands inside it
    entry, _, handle = established_with_handler()
    handle(from_server(entry, 0, len(GET) + len(XFF)))
    out = handle(from_client(entry, len(GET), 0, unframed_post(fields)))
    assert [(p.key, p.flags) for p in out] == [
        (entry.client_key.reverse(), TcpFlags.RST), (entry.server_key, TcpFlags.RST)]
    assert entry.closed and len(entry.insertions) == 1


def test_client_reset_carries_the_seq_past_the_relayed_response():
    # the client holds a response it has not ACKed yet: its RCV.NXT is
    # past its last ACK, and the RST must sit there to be accepted
    entry, _, handle = established_with_handler()
    resp = b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok"
    handle(from_server(entry, 0, len(GET) + len(XFF), resp))
    out = handle(from_client(entry, len(GET), 0, unframed_post(UNFRAMED[0])))
    assert out[0].key == entry.client_key.reverse() and out[0].rst
    assert out[0].seq == seq_add(seq_add(entry.isn_lb_front, 1), len(resp))


@pytest.mark.parametrize("fields", UNFRAMED)
def test_pipelined_request_without_a_valid_length_resets_at_the_synack(fields):
    agent = make_agent()
    ck = client_key()
    entry, out = establish(agent, ck, payload=GET + unframed_post(fields))
    assert [p.flags for p in out if p.flags & TcpFlags.RST] == [TcpFlags.RST] * 2
    assert not [p for p in out if p.payload]
    assert entry.closed and len(agent.table) == 0


@pytest.mark.parametrize("fields", UNFRAMED)
def test_response_without_a_valid_length_is_never_offloaded(fields):
    entry, _, handle = established_with_handler()
    handle(from_server(entry, 0, len(GET) + len(XFF)))
    head = b"HTTP/1.1 200 OK\r\n" + fields + b"\r\n"
    out = handle(from_server(entry, 0, len(GET) + len(XFF), head + CHUNKED_BODY))
    assert [p.payload for p in out] == [head + CHUNKED_BODY]  # still relayed
    assert entry.resp_tracker_dead and entry.resp_len is None and entry.resp_end is None
