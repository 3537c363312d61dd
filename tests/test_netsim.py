"""End-to-end simulator tests: stream equality under loss, endpoint TCP
behavior, offload interplay, determinism."""

import dataclasses
import hashlib
import math
import random
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lbsim.netsim import LinkParams, Simulation, SimParams, TopologyParams, WorkloadParams
from lbsim.netsim.apps import (
    HttpClientSession,
    HttpServerSession,
    PAGE,
    RequestSpec,
    STAMP,
    make_body,
    request_bytes,
    response_head,
)
from lbsim.netsim.events import EventQueue
from lbsim.netsim.tcp import AppCallbacks, MiniTcpEndpoint
from lbsim.offload import RULE_IDLE_TIMEOUT, formula_threshold
from lbsim.packet import (
    SEQ_HALF,
    FlowKey,
    Packet,
    TcpFlags,
    TcpOptions,
    addr_str,
    seq_add,
    seq_sub,
)
from lbsim.splice import classify_ack, rewrite_s2c


def run_sim(connections=1, sizes=((1024, 1.0),), reqs=(1, 1), loss=0.0,
            seed=7, mss=1460, offload_mode="auto", drain=0.0, until=300.0):
    params = SimParams(
        topology=TopologyParams(
            mss=mss,
            client_link=LinkParams(loss=loss),
            server_link=LinkParams(loss=loss)),
        workload=WorkloadParams(connections=connections, sizes=tuple(sizes),
                                requests_per_connection=tuple(reqs)),
        offload_mode=offload_mode,
        drain=drain,
        until=until)
    return Simulation(params, seed=seed).run()


def expected_server_stream(session, client_addr: int) -> bytes:
    """Independent splice of the x-forwarded-for insertion into each
    request head (the harness-side byte oracle)."""
    out = bytearray()
    for spec in session.requests:
        req = request_bytes(spec.path)
        inserted = b"x-forwarded-for: %s\r\n" % addr_str(client_addr).encode()
        out += req[:-2] + inserted + req[-2:]
    return bytes(out)


def assert_streams_equal(sim):
    for s in sim.sessions:
        assert s.clean, [r.__dict__ for r in s.records][:3]
    # server-received request bytes == client bytes + insertions, exactly
    by_client = {}
    for key, data in sim.server_received_streams().items():
        by_client[key.dst_addr, key.dst_port] = data  # lb addr/port keyed
    # map sessions to their server transcript via the preserved source port
    for i, session in enumerate(sim.sessions):
        ck = session.endpoint.key
        matches = [d for (addr, port), d in by_client.items() if port == ck.src_port]
        assert len(matches) == 1, f"conn {i}: expected one backend transcript"
        expected = expected_server_stream(session, ck.src_addr)
        assert matches[0] == expected, f"conn {i}: server stream mismatch"


def test_zero_loss_single_1kb_request_stream_equal():
    sim = run_sim()
    assert_streams_equal(sim)
    assert len(sim.response_log) == 1
    assert sim.response_log[0].resp_len == 1024
    # the run ends after teardown has crossed the LB, even with no drain
    assert len(sim.table) == 0
    assert not sim.agent._used_ports


def test_keepalive_requests_two_insertions():
    sim = run_sim(reqs=(3, 3))
    assert_streams_equal(sim)
    assert len(sim.response_log) == 3


def test_loss_2pct_4mb_stream_equal_lb_retransmits_only_inserted():
    sim = run_sim(sizes=((4 << 20, 1.0),), loss=0.02, seed=11, mss=8960,
                  offload_mode="never")
    assert_streams_equal(sim)
    # endpoints saw real loss and recovered
    client_ep = sim.sessions[0].endpoint
    server_eps = list(sim.server_host.endpoints.values())
    assert sum(ep.stats["retransmits"] for ep in server_eps) > 0
    # LB-originated bytes are exactly the insertions (plus their retransmits)
    c = sim.agent.counters
    assert c["inserted_bytes_tx"] == sum(
        len(expected_server_stream(s, s.endpoint.key.src_addr)) - len(s.sent_transcript)
        for s in sim.sessions)
    # the LB's egress links really lost bytes, which the identity must count
    assert sim.link_lb2c.dropped_bytes + sim.link_lb2s.dropped_bytes > 0
    lb_payload_out = sim.link_lb2c.tx_bytes + sim.link_lb2s.tx_bytes
    forwarded = c["forwarded_payload_bytes"]
    inserted = c["inserted_bytes_tx"] + c["inserted_bytes_retx"]
    assert lb_payload_out == forwarded + inserted


def test_loss_5pct_offloaded_response_stream_equal():
    sim = run_sim(sizes=((2 << 20, 1.0),), loss=0.05, seed=13, mss=8960,
                  offload_mode="auto")
    assert_streams_equal(sim)
    assert sim.engine.stats.matched > 0  # the offload path really engaged


def test_same_seed_identical_event_count_and_bytes():
    a = run_sim(connections=5, sizes=((65536, 1.0),), loss=0.01, seed=21)
    b = run_sim(connections=5, sizes=((65536, 1.0),), loss=0.01, seed=21)
    assert a.queue.processed == b.queue.processed
    assert a.link_lb2c.tx_bytes == b.link_lb2c.tx_bytes
    assert [r.fct for s in a.sessions for r in s.records] == \
           [r.fct for s in b.sessions for r in s.records]
    c = run_sim(connections=5, sizes=((65536, 1.0),), loss=0.01, seed=22)
    assert (a.queue.processed, a.link_lb2c.tx_bytes) != \
           (c.queue.processed, c.link_lb2c.tx_bytes)


def test_pure_acks_after_own_fin_carry_fin_seq_plus_one():
    """The FIN occupies one sequence number (RFC 9293), so every pure ACK
    the endpoint sends after its FIN carries the FIN's seq + 1."""
    key, isn, peer_isn = FlowKey(1, 2, 3, 4), 500, 9000
    sent = []
    ep = MiniTcpEndpoint(EventQueue(), key, mss=1460, isn=isn,
                         transmit=lambda pkt, now: sent.append(pkt))
    ep.connect(0.0)

    def peer(seq_off, ack_off, flags=TcpFlags.ACK, payload=b""):
        ep.on_segment(Packet(key=key.reverse(), seq=peer_isn + 1 + seq_off,
                             ack=isn + 1 + ack_off, flags=flags, payload=payload), 0.0)

    ep.on_segment(Packet(key=key.reverse(), seq=peer_isn, ack=isn + 1,
                         flags=TcpFlags.SYN | TcpFlags.ACK), 0.0)
    ep.send_bytes(b"hello", 0.0)
    peer(0, 5)
    ep.close(0.0)
    fin = sent[-1]
    assert fin.fin and fin.seq == isn + 1 + 5
    del sent[:]
    peer(0, 6, payload=b"abc")                         # in order; ACKs the FIN
    peer(5, 6, payload=b"xy")                          # out of order
    peer(3, 6, payload=b"de")                          # fills the hole
    peer(7, 6, flags=TcpFlags.ACK | TcpFlags.FIN)      # the peer's FIN
    peer(7, 6, flags=TcpFlags.ACK | TcpFlags.FIN)      # and again
    assert len(sent) == 5
    assert all(not p.payload and p.flags == TcpFlags.ACK and p.seq == fin.seq + 1
               for p in sent)
    assert ep.closed_cleanly


def _established_endpoint(sent, received=None):
    """A client endpoint past its handshake with a peer whose ISN is 9000."""
    key = FlowKey(1, 2, 3, 4)
    app = None
    if received is not None:
        app = AppCallbacks()
        app.on_data = lambda chunk, now: received.append(chunk)
    ep = MiniTcpEndpoint(EventQueue(), key, mss=1460, isn=500,
                         transmit=lambda pkt, now: sent.append(pkt), app=app)
    ep.connect(0.0)
    ep.on_segment(Packet(key=key.reverse(), seq=9000, ack=501,
                         flags=TcpFlags.SYN | TcpFlags.ACK), 0.0)
    return ep


def test_a_duplicate_synack_is_acked_again():
    """A SYNACK that comes again after the handshake (the endpoint's ACK of
    the first was lost) draws the same ACK again and changes nothing."""
    sent = []
    ep = _established_endpoint(sent)
    first_ack = sent[-1]
    ep.on_segment(Packet(key=ep.key.reverse(), seq=9000, ack=501,
                         flags=TcpFlags.SYN | TcpFlags.ACK), 0.5)
    assert sent[-2:] == [first_ack, first_ack]
    assert first_ack.flags == TcpFlags.ACK and first_ack.ack == 9001
    assert ep.established and ep.rcv_nxt == 0 and ep.snd_nxt == 0


def test_three_duplicate_acks_below_a_lone_fin_resend_it():
    """With every data byte ACKed and the FIN outstanding, the third
    duplicate ACK resends the FIN: it is all that is missing."""
    sent = []
    ep = _established_endpoint(sent)
    ep.send_bytes(b"hello", 0.0)
    ep.on_segment(Packet(key=ep.key.reverse(), seq=9001, ack=506, flags=TcpFlags.ACK), 0.0)
    ep.close(0.0)
    fin = sent[-1]
    assert fin.fin and fin.seq == 506
    del sent[:]
    for _ in range(3):
        ep.on_segment(Packet(key=ep.key.reverse(), seq=9001, ack=506,
                             flags=TcpFlags.ACK), 0.1)
    assert sent == [fin]
    assert ep.stats["fast_retransmits"] == 1 and ep.stats["retransmits"] == 0


@pytest.mark.parametrize("off", [(1 << 30) - 100, (1 << 30) + 100, (1 << 32) + 100])
def test_receiver_delivers_in_order_segments_past_1_gib_and_4_gib(off):
    """The receiver reads a segment's seq against rcv_nxt, so an in-order
    segment is delivered wherever in the stream it lies."""
    sent, received = [], []
    ep = _established_endpoint(sent, received)
    ep.rcv_nxt = off
    ep.on_segment(Packet(key=ep.key.reverse(), seq=seq_add(9001, off), ack=501,
                         flags=TcpFlags.ACK, payload=b"y" * 100), 1.0)
    assert received == [b"y" * 100]
    assert ep.rcv_nxt == off + 100
    assert sent[-1].ack == seq_add(9001, off + 100)
    # a segment below the stream's first byte is stale
    ep.rcv_nxt = 0
    ep.on_segment(Packet(key=ep.key.reverse(), seq=seq_sub(9001, 100), ack=501,
                         flags=TcpFlags.ACK, payload=b"z" * 50), 1.0)
    assert received == [b"y" * 100] and ep.rcv_nxt == 0


def test_a_peer_fin_ahead_of_a_hole_is_taken_after_the_last_byte():
    """A FIN that comes on a segment past a hole waits with it: the fill
    delivers both segments in order, then the FIN, and the ACK that follows
    covers the FIN."""
    sent, received = [], []
    ep = _established_endpoint(sent, received)
    ep.app.on_peer_fin = lambda now: received.append("FIN")
    first, second = b"a" * 100, b"b" * 100
    ep.on_segment(Packet(key=ep.key.reverse(), seq=9101, ack=501,
                         flags=TcpFlags.ACK | TcpFlags.FIN, payload=second), 1.0)
    assert received == [] and not ep.peer_fin_rcvd
    assert sent[-1].ack == 9001
    ep.on_segment(Packet(key=ep.key.reverse(), seq=9001, ack=501,
                         flags=TcpFlags.ACK, payload=first), 1.0)
    assert received == [first, second, "FIN"]
    assert ep.peer_fin_rcvd
    assert sent[-1].ack == ep.rcv_isn + 1 + len(first + second) + 1


def test_sender_reads_acks_and_sack_blocks_past_4_gib():
    """The sender reads an ACK and its SACK edges against snd_una, so both
    advance it and the scoreboard past 2^32."""
    sent = []
    ep = _established_endpoint(sent)
    seg = ep.seg
    base = (1 << 32) - 3 * seg
    ep.tx.append_generated(lambda off, n: b"x" * n, base + 100 * seg)
    ep.snd_una = ep.snd_nxt = ep.high_rxt = ep.lost_to = base
    ep._pump(1.0)
    assert ep.snd_nxt == base + 10 * seg  # one window, across 2^32
    ack_off, sack = base + 4 * seg, (base + 6 * seg, base + 8 * seg)
    assert ack_off > 1 << 32
    ep.on_segment(Packet(key=ep.key.reverse(), seq=9001, ack=seq_add(501, ack_off),
                         flags=TcpFlags.ACK,
                         options=TcpOptions(sack_blocks=(
                             (seq_add(501, sack[0]), seq_add(501, sack[1])),))), 1.0)
    assert ep.snd_una == ack_off
    assert ep.sacked == [list(sack)] and ep.sacked_bytes == 2 * seg


def test_unacked_synack_is_resent_with_backoff_until_the_endpoint_gives_up():
    """A backend whose SYNACKs are all lost, and which never sees an ACK,
    resends its SYNACK on the doubling RTO and goes dead after
    MAX_HANDSHAKE_RETRIES resends, so it cannot hold a run open."""
    key = FlowKey(1, 2, 3, 4)
    queue, sent = EventQueue(), []
    ep = MiniTcpEndpoint(queue, key, mss=1460, isn=500,
                         transmit=lambda pkt, now: sent.append(now))  # all lost
    ep.accept(Packet(key=key.reverse(), seq=9000, flags=TcpFlags.SYN), 0.0)
    retries = MiniTcpEndpoint.MAX_HANDSHAKE_RETRIES
    bound = MiniTcpEndpoint.RTO_BASE * (2 ** (retries + 1) - 1)  # 25.4 s
    queue.run(until=2 * bound)
    assert ep.terminal and ep.dead
    assert queue.now == pytest.approx(bound)
    assert len(sent) == 1 + retries
    gaps = [b - a for a, b in zip(sent, sent[1:])]
    assert gaps == pytest.approx([MiniTcpEndpoint.RTO_BASE * 2 ** k for k in range(retries)])


@pytest.mark.parametrize("payload", [b"", b"GET / HTTP/1.1\r\n\r\n"])
def test_any_segment_acking_the_synack_stops_its_timer(payload):
    key = FlowKey(1, 2, 3, 4)
    queue, sent = EventQueue(), []
    ep = MiniTcpEndpoint(queue, key, mss=1460, isn=500,
                         transmit=lambda pkt, now: sent.append(pkt))
    ep.accept(Packet(key=key.reverse(), seq=9000, flags=TcpFlags.SYN), 0.0)
    ep.on_segment(Packet(key=key.reverse(), seq=9001, ack=501, flags=TcpFlags.ACK,
                         payload=payload), 0.1)
    ep.send_bytes(b"resp", 0.1)  # never ACKed: the timer now resends data
    queue.run(until=10.0)
    assert not ep.terminal
    assert [p.flags for p in sent if p.syn] == [TcpFlags.SYN | TcpFlags.ACK]
    assert ep.stats["rto_fires"] > 0
    assert [p.payload for p in sent if p.payload] == [b"resp"] * (1 + ep.stats["rto_fires"])


def test_small_response_leaves_the_server_as_one_segment():
    # the head rides in its body's segment: 41 + 1,024 bytes
    sim = Simulation(SimParams(offload_mode="never"), seed=7)
    payloads = []
    send = sim.link_s2lb.send

    def recorded(pkt, now):
        payloads.append(len(pkt.payload))
        send(pkt, now)

    sim.link_s2lb.send = recorded
    sim.run()
    assert_streams_equal(sim)
    assert [n for n in payloads if n] == [1065]


def reference_body(seed: int, off: int, n: int) -> bytes:
    """Bytes [off, off + n) of a body, one at a time: byte i is byte
    i % PAGE of page i // PAGE's stamp (the seed and the page index, as
    little-endian u64s) in the first STAMP bytes of a page, and of the
    seeded filler page elsewhere."""
    seed64 = seed & 0xFFFFFFFFFFFFFFFF
    filler = random.Random(seed64).randbytes(PAGE)
    out = bytearray()
    for i in range(off, off + n):
        p, q = divmod(i, PAGE)
        out.append(struct.pack("<QQ", seed64, p)[q] if q < STAMP else filler[q])
    return bytes(out)


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(-(1 << 64), 1 << 65), page=st.integers(0, 1 << 20),
       at=st.sampled_from([0, STAMP]), delta=st.integers(-3, 3) | st.integers(0, PAGE),
       n=st.integers(0, 2 * PAGE + 2 * STAMP))
def test_body_generator_matches_the_byte_by_byte_reference(seed, page, at, delta, n):
    """Ranges at and around page starts and stamp ends, inside one page
    and across up to three."""
    off = max(0, page * PAGE + at + delta)
    body = make_body(seed)(off, n)
    assert type(body) is bytes
    assert body == reference_body(seed, off, n)


class _NoWire:
    """An endpoint that takes what a session sends and drops it."""

    def send_bytes(self, data, now):
        pass

    def close(self, now):
        pass


@pytest.mark.parametrize("fault", [None, "body", "head"])
def test_the_client_session_counts_every_wrong_response_byte(fault):
    """The byte check a run's correctness rests on: one flipped body byte is
    one mismatch, a wrong head one head error, and either makes the session
    unclean."""
    size, seed = 5000, 7
    session = HttpClientSession([RequestSpec(b"/s/%d/%d/0" % (size, seed), size, seed)])
    session.endpoint = _NoWire()
    session.on_connected(0.0)
    head, body = response_head(size), bytearray(make_body(seed)(0, size))
    if fault == "body":
        body[PAGE + 1] ^= 0x01
    if fault == "head":
        head = head.replace(b"200", b"500")
    session.on_data(head + bytes(body), 1.0)
    rec = session.records[0]
    assert rec.t_done == 1.0 and session.done
    assert rec.mismatches == (fault == "body")
    assert session.head_errors == (fault == "head")
    assert rec.bytes_ok == (0 if fault == "body" else size)
    assert session.clean is (fault is None)


def test_the_server_session_answers_a_path_it_cannot_parse_with_400():
    """A head whose path names no size and seed gets an empty 400 reply, and
    the next head on the connection is still answered."""
    sent = []

    class _Wire:
        def send_bytes(self, data, now):
            sent.append(data)

        def send_generated(self, gen, n, now):
            sent.append(gen(0, n))

    session = HttpServerSession()
    session.endpoint = _Wire()
    session.on_data(request_bytes(b"/api/x") + request_bytes(b"/api/s/5/7/0"), 0.0)
    assert sent == [b"HTTP/1.1 400 Bad Request\r\nContent-Length: 0\r\n\r\n",
                    response_head(5) + make_body(7)(0, 5)]


def test_lb_ingress_packet_budget_of_small_keepalive_requests():
    """2 connections x 3 requests of 1 KiB, no loss: every request leaves
    the LB as one segment with its insertion, every response leaves the
    server as one, and the LB takes in 38 packets, 6.33 per request.  A
    request or response split again into more segments breaks this."""
    sim = Simulation(SimParams(
        workload=WorkloadParams(connections=2, requests_per_connection=(3, 3)),
        offload_mode="never"), seed=5)
    to_server = []
    send = sim.link_lb2s.send

    def recorded(pkt, now):
        if pkt.payload:
            to_server.append(len(pkt.payload))
        send(pkt, now)

    sim.link_lb2s.send = recorded
    sim.run()
    assert_streams_equal(sim)
    assert len(to_server) == 6
    # per connection: client SYN, ACK, 3 requests, 3 ACKs, FIN, last ACK;
    # server SYNACK, 3 responses, 3 ACKs of the requests, ACK and FIN
    assert (sim.link_c2lb.tx_packets, sim.link_s2lb.tx_packets) == (20, 18)
    assert sim.agent.counters["acks_suppressed"] == 0


def test_statelessness_no_entries_without_payload():
    sim = run_sim(connections=3)
    # after the run the table holds only what teardown left; handshake alone
    # never creates entries (checked directly by the agent counter)
    assert sim.agent.counters["entries_created"] == 3


def test_multiple_connections_shard_confinement():
    # the per-packet owner-worker assertion inside the agent would fire on
    # any steering violation; this just drives enough flows through it
    sim = run_sim(connections=16, sizes=((8192, 1.0),), seed=3)
    assert_streams_equal(sim)


def test_offload_never_vs_auto_worker_packet_counts():
    kwargs = dict(connections=1, sizes=((2 << 20, 1.0),), seed=5, mss=8960)
    no_off = run_sim(offload_mode="never", **kwargs)
    auto = run_sim(offload_mode="auto", **kwargs)
    assert auto.agent.counters["s2c_data_pkts"] < no_off.agent.counters["s2c_data_pkts"]
    assert auto.engine.stats.matched > 0
    assert no_off.engine.stats.matched == no_off.engine.stats.rules_inserted == 0


@pytest.mark.parametrize("loss", [0.01, 0.05])
@pytest.mark.parametrize("seed", [1, 2])
def test_lossy_runs_resend_about_once_per_dropped_segment(loss, seed):
    """The endpoints resend no more than 1.25 segments per data segment the
    links drop, and teardown leaves nothing behind."""
    params = SimParams(
        topology=TopologyParams(client_link=LinkParams(loss=loss),
                                server_link=LinkParams(loss=loss)),
        workload=WorkloadParams(connections=3,
                                sizes=((256 << 10, 1.0), (2 << 20, 1.0)),
                                requests_per_connection=(1, 2)),
        drain=30.0)
    sim = Simulation(params, seed=seed)
    dropped_segments = 0

    def counting(link):
        send = link.send

        def counted(pkt, now):
            nonlocal dropped_segments
            dropped = link.dropped
            send(pkt, now)
            if pkt.payload and link.dropped > dropped:
                dropped_segments += 1
        link.send = counted

    for link in (sim.link_c2lb, sim.link_lb2c, sim.link_s2lb, sim.link_lb2s):
        counting(link)
    sim.run()
    assert_streams_equal(sim)
    now = sim.queue.now
    assert len(sim.table) == 0
    assert not [r for r in sim.engine.rules.values() if r.gone_at is None or r.gone_at > now]
    assert not sim.offload_mgr.pending
    assert not sim.agent._used_ports
    endpoints = [s.endpoint for s in sim.sessions] + list(sim.server_host.endpoints.values())
    retransmits = sum(ep.stats["retransmits"] for ep in endpoints)
    assert dropped_segments > 0
    assert retransmits <= 1.25 * dropped_segments


def record_egress(sim) -> list[tuple[float, Packet]]:
    """Every packet `sim`'s LB emits from now on, with its emit time.  The
    simulator looks `_emit` up on each call, the offload manager's releases
    included."""
    egress = []
    emit = sim._emit

    def recorded(pkt, now):
        egress.append((now, pkt))
        emit(pkt, now)

    sim._emit = recorded
    return egress


_EGRESS_RECORD = struct.Struct(">dIIHHBIIBHI")


def egress_digest(egress: list[tuple[float, Packet]]) -> str:
    """A digest of emitted packets, each with its emit time."""
    h = hashlib.blake2b(digest_size=16)
    for now, pkt in egress:
        k, o = pkt.key, pkt.options
        h.update(_EGRESS_RECORD.pack(now, k.src_addr, k.dst_addr, k.src_port,
                                     k.dst_port, k.proto, pkt.seq, pkt.ack,
                                     pkt.flags, pkt.window, len(pkt.payload)))
        h.update(repr((o.mss, o.sack_permitted, o.sack_blocks)).encode())
        h.update(pkt.payload)
    return h.hexdigest()


# (params, seed) of the two pinned runs below
LOSSY_PIN = (SimParams(
    topology=TopologyParams(client_link=LinkParams(loss=0.01),
                            server_link=LinkParams(loss=0.01)),
    workload=WorkloadParams(connections=3,
                            sizes=((256 << 10, 1.0), (2 << 20, 1.0)),
                            requests_per_connection=(1, 2)),
    drain=30.0), 7)
KEEPALIVE_PIN = (SimParams(
    topology=TopologyParams(table_buckets=16),
    workload=WorkloadParams(connections=30,
                            sizes=((1 << 10, 1.0), (16 << 10, 1.0)),
                            requests_per_connection=(8, 32))), 11)


def test_seeded_lossy_offload_run_is_pinned():
    """Loss recovery, SACK mapping and engine hits on one seeded run, pinned
    to exact counts and to a digest of every packet the LB emits.  A change
    meant to leave behaviour alone must leave all of these as they are."""
    sim = Simulation(*LOSSY_PIN)
    egress = record_egress(sim)
    sim.run()
    assert_streams_equal(sim)
    assert sim.queue.processed == 12955
    assert (sim.engine.stats.matched, sim.engine.stats.missed) == (6428, 64)
    endpoint_stats = {}
    for ep in [s.endpoint for s in sim.sessions] + list(sim.server_host.endpoints.values()):
        for name, n in ep.stats.items():
            endpoint_stats[name] = endpoint_stats.get(name, 0) + n
    assert endpoint_stats == {
        "retransmits": 64, "rto_fires": 2, "fast_retransmits": 45,
        "segments_tx": 3302, "acks_tx": 3247, "bytes_delivered": 4719125}
    assert sim.agent.counters == {
        "syn_rx": 3, "synack_tx": 3, "entries_created": 3, "resets_tx": 0,
        "c2s_data_pkts": 5, "s2c_data_pkts": 31, "acks_suppressed": 0,
        "inserted_bytes_tx": 108, "inserted_bytes_retx": 0,
        "forwarded_payload_bytes": 45511, "entries_removed": 3,
        "cookie_failures": 0, "deferred_pkts": 1, "ttl_sweeps": 1}
    assert egress_digest(egress) == "da7779131ad936265a403c06fab9acb4"


def test_seeded_keepalive_worker_run_is_pinned():
    """A run in which every packet misses the engine and reaches the worker:
    keep-alive connections whose responses are all below the offload
    threshold, in a table small enough that inserts relocate keys.  Pinned
    to exact counts and to a digest of every packet the LB emits, so a
    change to the worker path that means to leave behaviour alone must
    leave all of these as they are."""
    sim = Simulation(*KEEPALIVE_PIN)
    egress = record_egress(sim)
    sim.run()
    assert_streams_equal(sim)
    assert sim.queue.processed == 19686
    assert (sim.engine.stats.matched, sim.engine.stats.missed) == (0, 9828)
    ts = sim.table.stats
    assert (ts.lookups, ts.hits, ts.relocations) == (9798, 9738, 1)
    endpoint_stats = {}
    for ep in [s.endpoint for s in sim.sessions] + list(sim.server_host.endpoints.values()):
        for name, n in ep.stats.items():
            endpoint_stats[name] = endpoint_stats.get(name, 0) + n
    assert endpoint_stats == {
        "retransmits": 0, "rto_fires": 0, "fast_retransmits": 0,
        "segments_tx": 4809, "acks_tx": 4899, "bytes_delivered": 5685950}
    assert sim.agent.counters == {
        "syn_rx": 30, "synack_tx": 30, "entries_created": 30, "resets_tx": 0,
        "c2s_data_pkts": 628, "s2c_data_pkts": 4181, "acks_suppressed": 0,
        "inserted_bytes_tx": 16956, "inserted_bytes_retx": 0,
        "forwarded_payload_bytes": 5668994, "entries_removed": 30,
        "cookie_failures": 0, "deferred_pkts": 0, "ttl_sweeps": 0}
    assert egress_digest(egress) == "c751ee529ed7db4620a2d6087f074b00"


def test_keepalive_endpoints_hold_only_their_unacked_stream():
    """Aim 2's O(1) per keep-alive connection, at the endpoints: on the
    pinned keep-alive run (8 to 32 requests per connection), no endpoint
    ever holds more than two transmit chunks, and after the drain none
    holds a chunk that ends at or below snd_una; every connection, the
    32-request one included, ends with no chunk left."""
    sim = Simulation(*KEEPALIVE_PIN)
    peak: dict[MiniTcpEndpoint, int] = {}

    def watch(ep):
        transmit = ep.transmit

        def counted(pkt, now):
            peak[ep] = max(peak.get(ep, 0), len(ep.tx._chunks))
            transmit(pkt, now)
        ep.transmit = counted
        return ep

    new_endpoint = sim.new_endpoint
    sim.new_endpoint = lambda *args: watch(new_endpoint(*args))
    for s in sim.sessions:
        watch(s.endpoint)
    sim.run()
    assert_streams_equal(sim)
    assert max(len(s.requests) for s in sim.sessions) == 32
    endpoints = [s.endpoint for s in sim.sessions] + list(sim.server_host.endpoints.values())
    assert len(peak) == len(endpoints) == 60
    assert max(peak.values()) <= 2
    for ep in endpoints:
        assert all(end > ep.snd_una for _, end, _ in ep.tx._chunks)
        assert ep.closed_cleanly and ep.tx._chunks == []


@pytest.mark.parametrize("pin, mode, processed, engine_counts, digest", [
    (LOSSY_PIN, "never", 12969, (0, 6497, 0), "9e4345c7a615b6255594d5312491ebc6"),
    (KEEPALIVE_PIN, "always", 20364, (7578, 2250, 60), "379bacdb8a6129ddf34eb752763d12b5"),
], ids=["lossy_never", "keepalive_always"])
def test_seeded_runs_in_the_other_offload_modes_are_pinned(
        pin, mode, processed, engine_counts, digest):
    """The two pinned workloads in the modes the pins above do not run: the
    lossy one with no offload at all, and the keep-alive one offloading
    every response, however small.  Pinned to the event count, the engine's
    hits, misses and rule installs, and a digest of every packet the LB
    emits."""
    params, seed = pin
    sim = Simulation(dataclasses.replace(params, offload_mode=mode), seed)
    egress = record_egress(sim)
    sim.run()
    assert_streams_equal(sim)
    es = sim.engine.stats
    assert sim.queue.processed == processed
    assert (es.matched, es.missed, es.rules_inserted) == engine_counts
    assert egress_digest(egress) == digest


def _replay_alone(params, seed, ingress, sweeps, polls, until):
    """Feed `ingress`, (time, packet) pairs, at their times into a fresh LB
    built as the live run's was but with no clients and no housekeeping
    of its own; fire the live run's TTL sweeps and aged-rule polls at
    their times.  Returns what the LB emits, with emit times."""
    inf = float("inf")
    lb = Simulation(dataclasses.replace(
        params, workload=dataclasses.replace(params.workload, connections=0),
        topology=dataclasses.replace(params.topology, sweep_interval=inf,
                                     aged_poll_interval=inf)), seed)
    egress = []
    lb._emit = lambda pkt, now: egress.append((now, pkt))

    def poll(now):  # the live run's housekeeping, without rescheduling
        aged = lb.engine.poll_aged(now)
        if aged:
            lb.offload_mgr.on_rules_aged(aged, now)

    for now, pkt in ingress:
        lb.queue.schedule(now, lb._lb_ingress, pkt)
    for now in sweeps:
        lb.queue.schedule(now, lb.agent.sweep)
    for now in polls:
        lb.queue.schedule(now, poll)
    lb.queue.run(until=until)
    return egress


def _by_flow(egress):
    flows = {}
    for now, pkt in egress:
        flows.setdefault(pkt.key, []).append((now, pkt))
    return flows


@pytest.mark.parametrize("params, seed", [
    LOSSY_PIN,
    KEEPALIVE_PIN,
    (SimParams(workload=WorkloadParams(connections=4, sizes=((512 << 10, 1.0),),
                                       requests_per_connection=(2, 3))), 5),
], ids=["lossy_pin", "keepalive_pin", "offload"])
def test_each_worker_shard_replayed_alone_emits_the_live_packets(params, seed):
    """Record a live run's LB ingress, split it by the engine's steering,
    and replay each worker's shard into an LB of its own.  Merged, the
    shards' egress equals the live egress flow by flow: times, packets and
    order.  So no state the workers share reaches a packet: a flow's table
    entry is its own, and its backend is a hash of the flow, not a turn
    of a rotation all workers advance.  The engine's rules and the
    batching deleter are NIC-wide, though: when two shards' rule pairs
    share a delete batch, the batch's timing can couple them.  These runs
    replay alike regardless."""
    live = Simulation(params, seed)
    ingress, sweeps, polls = [], [], []
    process, sweep, poll_aged = live.engine.process, live.agent.sweep, live.engine.poll_aged

    def recorded_process(pkt, now):
        ingress.append((now, pkt))
        return process(pkt, now)

    def recorded_sweep(now):
        sweeps.append(now)
        return sweep(now)

    def recorded_poll(now):
        polls.append(now)
        return poll_aged(now)

    # `_lb_ingress` and the housekeeping look these up on each call
    live.engine.process = recorded_process
    live.agent.sweep, live.engine.poll_aged = recorded_sweep, recorded_poll
    egress = record_egress(live)
    live.run()
    assert_streams_equal(live)

    shards = {}
    for now, pkt in ingress:
        shards.setdefault(live.engine._steer(pkt), []).append((now, pkt))
    assert len(shards) > 1
    merged = []
    for shard in shards.values():
        merged += _replay_alone(params, seed, shard, sweeps, polls, live.queue.now)
    want, got = _by_flow(egress), _by_flow(merged)
    assert [k for k in want.keys() | got.keys() if want.get(k) != got.get(k)] == []


def test_lb_hooks_replaced_on_the_instance_see_every_call():
    """`engine.process`, `_emit`, `agent.sweep` and `engine.poll_aged`,
    replaced on a live instance, see every LB ingress packet, every LB
    egress packet (the offload manager's releases included) and every
    housekeeping call: the simulator looks each up when it calls it.  A
    capture that wraps them, as the replay tests above do, would otherwise
    see only part of a run and still replay it without a mismatch."""
    sim = Simulation(SimParams(
        workload=WorkloadParams(connections=3, sizes=((1 << 10, 1.0), (512 << 10, 1.0)),
                                requests_per_connection=(2, 4)),
        drain=31.0), seed=3)
    calls = dict.fromkeys(["process", "emit", "sweep", "poll"], 0)

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    sim.engine.process = counted("process", sim.engine.process)
    sim._emit = counted("emit", sim._emit)
    sim.agent.sweep = counted("sweep", sim.agent.sweep)
    sim.engine.poll_aged = counted("poll", sim.engine.poll_aged)
    sim.run()
    assert_streams_equal(sim)
    es = sim.engine.stats
    assert es.matched > 0 and sim.offload_mgr.stats["latch_waits"] > 0
    assert calls["process"] == es.matched + es.missed
    assert calls["emit"] == sim.link_lb2c.tx_packets + sim.link_lb2s.tx_packets
    assert calls["sweep"] == sim.agent.counters["ttl_sweeps"] > 0
    assert calls["poll"] > 0


# mixed sizes on keep-alive connections at 1% loss
MIXED_1PCT = SimParams(
    topology=TopologyParams(client_link=LinkParams(loss=0.01),
                            server_link=LinkParams(loss=0.01)),
    workload=WorkloadParams(connections=3,
                            sizes=((16 << 10, 1.0), (256 << 10, 1.0), (2 << 20, 1.0)),
                            requests_per_connection=(1, 3)),
    drain=30.0)


def _hairpins_checked(sim) -> tuple[int, int, int]:
    """Run `sim`, checking every hairpin, whole, against what the worker
    would emit from the live entry at that moment: `on_client_ack` for the
    client's ACKs; for the server's packets `rewrite_s2c`, what
    `on_server_packet` emits for a data segment or a relayed pure ACK,
    computed without changing the entry.  The worker must relay such a
    pure ACK (suppressing or answering it with inserted bytes would
    differ), and no hairpin may carry a response head the worker has yet
    to read.  Returns the numbers checked: client, server, and of both
    those that carry SACK blocks."""
    entries = {}
    on_len = sim.offload_mgr.on_resp_len_known

    def record(entry, resp_len, now):
        entries[entry.client_key] = entries[entry.server_in_key] = entry
        on_len(entry, resp_len, now)

    sim.offload_mgr.on_resp_len_known = record
    process = sim.engine.process
    checked = [0, 0, 0]

    def shadowed(pkt, now):
        res = process(pkt, now)
        got, worker = res
        entry = entries.get(pkt.key)
        if worker is not None or entry is None:
            return res
        checked[2] += bool(pkt.options.sack_blocks)
        if pkt.key == entry.client_key:
            assert sim.agent.on_client_ack(pkt, entry, now) == [got]
            checked[0] += 1
            return res
        assert got == rewrite_s2c(entry, pkt)
        if not pkt.payload:
            a = seq_sub(pkt.ack, seq_add(entry.isn_lb_back, 1))
            assert classify_ack(entry.insertions, a, entry.folded)[0] == "forward"
        off = seq_sub(pkt.seq, seq_add(entry.isn_server, 1))
        head = entry.resp_head_buf.base
        assert entry.resp_tracker_dead or not off <= head < off + len(pkt.payload)
        checked[1] += 1
        return res

    sim.engine.process = shadowed
    sim.run()
    assert_streams_equal(sim)
    return checked[0], checked[1], checked[2]


@pytest.mark.parametrize("loss, sizes, mode", [
    (0.0, ((2 << 20, 1.0), (4 << 20, 3.0)), "auto"),             # bulk-like
    (0.01, ((16 << 10, 1.0), (256 << 10, 1.0), (2 << 20, 1.0)), "always"),
])
def test_client_ack_hairpins_equal_the_worker_rewrite(loss, sizes, mode):
    params = SimParams(
        topology=TopologyParams(client_link=LinkParams(loss=loss),
                                server_link=LinkParams(loss=loss)),
        workload=WorkloadParams(connections=3, sizes=sizes,
                                requests_per_connection=(1, 3)),
        offload_mode=mode, drain=30.0)
    sim = Simulation(params, seed=4)
    client, server, sack = _hairpins_checked(sim)
    assert client > 1000
    if mode == "auto":
        assert server > 1000
    if loss:
        assert sack > 100


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_server_hairpins_equal_the_worker_rewrite_at_1pct_loss(seed):
    """Mixed 16 KiB, 256 KiB and 2 MiB responses on keep-alive connections
    at 1% loss: kept pairs are re-targeted for each request, and a late
    resend of a previous response must not meet a re-targeted rule."""
    sim = Simulation(MIXED_1PCT, seed=seed)
    client, server, sack = _hairpins_checked(sim)
    assert server > 100 and client > 100 and sack > 100
    assert sim.offload_mgr.stats["retargets"] > 0


MISS_CAUSES = ("no_rule", "not_ready", "mismatched", "fin_rst_diverted", "head_diverted",
               "sack_diverted")


def _misses_by_cause(sim) -> dict[str, int]:
    """Wrap `sim.engine.process` to name the cause of each miss from the
    rule its key had just before, in the order `FlowEngine.process`
    documents.  Returns the tally, filled in as `sim` runs."""
    engine, process = sim.engine, sim.engine.process
    tally = dict.fromkeys(MISS_CAUSES, 0)

    def classified(pkt, now):
        rule = engine.rules.get(pkt.key)
        res = process(pkt, now)
        if res[1] is None:
            return res
        if rule is None or rule.gone_at is not None and rule.gone_at <= now:
            cause = "no_rule"
        elif now < rule.ready_at:
            cause = "not_ready"
        elif not ((rule.seq is None or pkt.seq == rule.seq and not pkt.payload)
                  and (rule.ack is None or pkt.ack == rule.ack)):
            cause = "mismatched"
        elif pkt.flags & (TcpFlags.FIN | TcpFlags.RST):
            cause = "fin_rst_diverted"
        elif pkt.payload and pkt.seq == rule.divert_seq:
            cause = "head_diverted"
        else:
            assert any(seq_sub(left, pkt.ack) >= SEQ_HALF
                       for left, _ in pkt.options.sack_blocks)
            cause = "sack_diverted"
        tally[cause] += 1
        return res

    engine.process = classified
    return tally


@pytest.mark.parametrize("params, seed", [
    LOSSY_PIN, KEEPALIVE_PIN, (MIXED_1PCT, 1), (MIXED_1PCT, 3),
    (dataclasses.replace(KEEPALIVE_PIN[0], offload_mode="always"), KEEPALIVE_PIN[1]),
], ids=["lossy_pin", "keepalive_pin", "mixed_1pct_1", "mixed_1pct_3", "keepalive_always"])
def test_every_engine_miss_counts_under_one_cause(params, seed):
    """The engine's miss causes, `no_rule` derived, equal a tally made
    outside it, and add up to `missed`.  A run that installs rules meets
    every cause but a SACK block below the ACK, which no endpoint sends."""
    sim = Simulation(params, seed)
    tally = _misses_by_cause(sim)
    sim.run()
    es = sim.engine.stats
    assert {c: getattr(es, c) for c in MISS_CAUSES} == tally
    assert sum(tally.values()) == es.missed > 0
    if es.rules_inserted:
        assert all(tally[c] for c in MISS_CAUSES if c != "sack_diverted")


def test_warm_responses_stay_off_the_worker():
    """3 connections x 3 requests of 4 MiB, no loss: each connection
    installs its pair once, for its first response, and re-targets it for
    each later request.  A later response costs the worker at most 10
    packets (its head, which the divert sends there, and the request after
    it; the last also the teardown), and each held request is released
    with its insertion."""
    params = SimParams(workload=WorkloadParams(connections=3, sizes=((4 << 20, 1.0),),
                                               requests_per_connection=(3, 3)),
                       drain=30.0)
    sim = Simulation(params, seed=41)
    misses = {}
    process = sim.engine.process

    def counted(pkt, now):
        res = process(pkt, now)
        if res[1] is not None:  # missed to a worker
            entry = sim.table.lookup(pkt.key, now)  # as the worker's own lookup
            if entry is not None:
                at = (entry.client_key.src_port, entry.resp_index)
                misses[at] = misses.get(at, 0) + 1
        return res

    sim.engine.process = counted
    sim.run()
    assert_streams_equal(sim)
    stats = sim.offload_mgr.stats
    assert (stats["rules_installed"], stats["retargets"], stats["latch_waits"]) == (3, 6, 6)
    later = {at: n for at, n in misses.items() if at[1] > 0}
    assert len(later) == 9  # responses 1 and 2, and the teardown after them
    assert max(later.values()) <= 10, misses
    assert all(r.offloaded for r in sim.response_log)
    now = sim.queue.now
    assert not [r for r in sim.engine.rules.values() if r.gone_at is None or r.gone_at > now]


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("mode", ["auto", "always"])
@pytest.mark.parametrize("params", [
    SimParams(workload=WorkloadParams(connections=3, sizes=((2 << 20, 1.0), (4 << 20, 3.0)),
                                      requests_per_connection=(1, 3))),
    KEEPALIVE_PIN[0],
], ids=["bulk", "keepalive"])
def test_no_lossless_run_delivers_a_segment_out_of_order(params, seed, mode):
    """With no loss, every endpoint receives each segment at its rcv_nxt:
    the packets the worker holds while a first pair installs leave before
    any hairpin of their flow, and a released request before the ACKs
    that follow it."""
    sim = Simulation(dataclasses.replace(params, offload_mode=mode), seed)
    ahead = []

    def watch(ep):
        on_segment = ep.on_segment

        def checked(pkt, now):
            if (pkt.payload or pkt.flags & TcpFlags.FIN) and not pkt.flags & TcpFlags.SYN \
                    and ep._seq_off(pkt.seq) > ep.rcv_nxt:
                ahead.append((now, pkt))
            on_segment(pkt, now)
        ep.on_segment = checked
        return ep

    new_endpoint = sim.new_endpoint
    sim.new_endpoint = lambda *args: watch(new_endpoint(*args))
    for s in sim.sessions:
        watch(s.endpoint)
    sim.run()
    assert_streams_equal(sim)
    # the keep-alive run's responses all stay below the `auto` threshold
    offloads = mode == "always" or params is not KEEPALIVE_PIN[0]
    assert (sim.offload_mgr.stats["rules_installed"] > 0) == offloads
    assert ahead == []


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("mode", ["never", "auto", "always"])
@pytest.mark.parametrize("loss", [0.0, 0.01, 0.05])
def test_teardown_leaves_nothing_in_any_offload_mode(loss, mode, seed):
    """Keep-alive connections close cleanly in every offload mode, and after
    the drain the table, the engine's rules, the deleter queue and the
    backend ports are empty.  Every request finishes within 64 RTO_BASE
    (12.8 s): the endpoints' own resends recover every loss, the backend
    SYN and its SYNACK included, and six back-to-back RTOs of one segment
    take 0.2 s x 63 = 12.6 s.  A stall that only the 60 s TTL sweep ends
    breaks the bound, and an endpoint it leaves open holds the run to
    `until`."""
    params = SimParams(
        topology=TopologyParams(client_link=LinkParams(loss=loss),
                                server_link=LinkParams(loss=loss)),
        workload=WorkloadParams(connections=50,
                                sizes=((1 << 10, 1.0), (16 << 10, 1.0), (256 << 10, 1.0)),
                                requests_per_connection=(1, 3)),
        offload_mode=mode, drain=30.0)
    sim = Simulation(params, seed=seed).run()
    assert all(s.clean for s in sim.sessions)
    assert sim.queue.now < params.until
    assert max(r.fct for s in sim.sessions for r in s.records) <= \
        64 * MiniTcpEndpoint.RTO_BASE
    now = sim.queue.now
    assert len(sim.table) == 0
    assert not [r for r in sim.engine.rules.values() if r.gone_at is None or r.gone_at > now]
    assert not sim.offload_mgr.pending
    assert not sim.agent._used_ports


def test_a_reset_from_a_full_table_ends_the_client_session():
    """An 8-slot table takes 4 of 8 simultaneous connections; the LB resets
    the other 4.  Each reset ends its client session and kills its endpoint,
    so the run stops by itself, and the 4 accepted connections finish
    cleanly and leave nothing behind."""
    params = SimParams(
        topology=TopologyParams(table_buckets=2),
        workload=WorkloadParams(connections=8, sizes=((1 << 10, 1.0),),
                                requests_per_connection=(2, 2), start_spacing=1e-6),
        drain=5.0)
    sim = Simulation(params, seed=1).run()
    reset = [s for s in sim.sessions if s.reset]
    clean = [s for s in sim.sessions if s.clean]
    assert len(reset) == len(clean) == 4
    assert not any(s.clean for s in reset)
    assert sim.table.stats.insert_failures == sim.agent.counters["resets_tx"] == 4
    assert all(s.endpoint.dead for s in reset)
    assert sim._live_endpoints == 0
    assert sim.queue.now < params.until / 10
    assert len(sim.table) == 0
    assert not sim.agent._used_ports
    assert not sim.engine.rules
    assert all(r.bytes_ok == r.size for s in clean for r in s.records)


def test_idle_keepalive_connection_frees_its_rule_pair_by_aging():
    """A keep-alive client that goes idle after an offloaded response sends
    nothing the engine diverts: its ACK of the last byte is hairpinned, so
    the worker never sees the response complete.  The pair's idle timeout
    is the backstop: it ages out, the deleter frees both rules and the
    latch, and nothing is left in the engine."""
    params = SimParams(workload=WorkloadParams(connections=4, sizes=((2 << 20, 1.0),)),
                       until=13.0)
    sim = Simulation(params, seed=41)
    for session in sim.sessions:
        session.close_when_done = False
    entries = []
    on_len = sim.offload_mgr.on_resp_len_known

    def record(entry, resp_len, now):
        entries.append(entry)
        on_len(entry, resp_len, now)

    sim.offload_mgr.on_resp_len_known = record
    sim.run()
    assert all(s.clean for s in sim.sessions)
    assert sim.offload_mgr.stats["rules_installed"] == 4 == len(entries)
    now = sim.queue.now
    assert now > RULE_IDLE_TIMEOUT
    assert not [r for r in sim.engine.rules.values() if r.gone_at is None or r.gone_at > now]
    assert not sim.offload_mgr.pending
    assert not any(e.offloaded for e in entries)


@pytest.mark.parametrize("mode, threshold", [
    ("auto", formula_threshold(1460)), ("always", 0.0), ("never", math.inf),
], ids=["auto", "always", "never"])
def test_an_unknown_offload_mode_is_refused(mode, threshold):
    # every mode wires the one manager and only picks its threshold
    sim = Simulation(SimParams(offload_mode=mode), seed=1)
    assert sim.agent.offload is sim.offload_mgr
    assert sim.offload_mgr.threshold == threshold
    # a misspelt "never" would otherwise run as "auto" and offload
    with pytest.raises(ValueError, match="offload_mode"):
        SimParams(offload_mode=mode.capitalize())
