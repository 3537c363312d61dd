"""End-to-end simulator tests: stream equality under loss, endpoint TCP
behavior, offload interplay, determinism."""

import hashlib
import struct

import pytest

from lbsim.netsim import LinkParams, Simulation, SimParams, TopologyParams, WorkloadParams
from lbsim.netsim.apps import request_bytes
from lbsim.packet import addr_str


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
    assert no_off.engine.stats.matched == 0


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


_EGRESS_RECORD = struct.Struct(">dIIHHBIIBHI")


def test_seeded_lossy_offload_run_is_pinned():
    """Loss recovery, SACK mapping and engine hits on one seeded run, pinned
    to exact counts and to a digest of every packet the LB emits.  A change
    meant to leave behaviour alone must leave all of these as they are."""
    params = SimParams(
        topology=TopologyParams(client_link=LinkParams(loss=0.01),
                                server_link=LinkParams(loss=0.01)),
        workload=WorkloadParams(connections=3,
                                sizes=((256 << 10, 1.0), (2 << 20, 1.0)),
                                requests_per_connection=(1, 2)),
        drain=30.0)
    sim = Simulation(params, seed=7)
    h = hashlib.blake2b(digest_size=16)
    emit = sim._emit

    def hashed_emit(pkt, now):
        k, o = pkt.key, pkt.options
        h.update(_EGRESS_RECORD.pack(now, k.src_addr, k.dst_addr, k.src_port,
                                     k.dst_port, k.proto, pkt.seq, pkt.ack,
                                     pkt.flags, pkt.window, len(pkt.payload)))
        h.update(repr((o.mss, o.sack_permitted, o.sack_blocks)).encode())
        h.update(pkt.payload)
        emit(pkt, now)

    sim._emit = hashed_emit
    sim.run()
    assert_streams_equal(sim)
    assert sim.queue.processed == 18295
    assert (sim.engine.stats.matched, sim.engine.stats.missed) == (2848, 3659)
    endpoint_stats = {}
    for ep in [s.endpoint for s in sim.sessions] + list(sim.server_host.endpoints.values()):
        for name, n in ep.stats.items():
            endpoint_stats[name] = endpoint_stats.get(name, 0) + n
    assert endpoint_stats == {
        "retransmits": 64, "rto_fires": 0, "fast_retransmits": 51,
        "segments_tx": 3306, "acks_tx": 3259, "bytes_delivered": 4719125}
    assert sim.agent.counters == {
        "syn_rx": 3, "synack_tx": 3, "entries_created": 3, "resets_tx": 0,
        "c2s_data_pkts": 4, "s2c_data_pkts": 420, "acks_suppressed": 4,
        "inserted_bytes_tx": 108, "inserted_bytes_retx": 0,
        "forwarded_payload_bytes": 606473, "entries_removed": 3,
        "cookie_failures": 0, "deferred_pkts": 0, "ttl_sweeps": 1}
    assert h.hexdigest() == "4789cd8164444976036a2a3a86bd54ab"
