"""The mini-TCP endpoint's incremental SACK state against the full rescans
it replaced: the sender's first unmarked hole and the receiver's SACK
option must be the ones the rescans compute, on every step of random ACK,
SACK and segment sequences."""

from hypothesis import given, settings
from hypothesis import strategies as st

from lbsim.netsim.events import EventQueue
from lbsim.netsim.tcp import MiniTcpEndpoint
from lbsim.packet import FlowKey, Packet, TcpFlags, TcpOptions, seq_add

KEY = FlowKey(1, 2, 3, 4)
ISN, PEER_ISN = 500, 9000
SEG = 100
STREAM = bytes(range(256)) * 16


# -- reference rescans ----------------------------------------------------------


def oracle_holes(self) -> list[int]:
    """Unacked, unSACKed segment starts in [snd_una, snd_nxt)."""
    out = []
    pos = self.snd_una
    blocks = sorted(self.sacked)
    while pos < self.snd_nxt:
        covered = False
        for lo, hi in blocks:
            if lo <= pos < hi:
                pos = hi
                covered = True
                break
        if covered:
            continue
        out.append(pos)
        pos += self.seg
    return out


def oracle_sack_option(self) -> TcpOptions:
    if not self.ooo:
        return TcpOptions()
    spans: list[tuple[int, int]] = []
    for o in sorted(self.ooo):
        hi = o + len(self.ooo[o])
        if spans and o <= spans[-1][1]:
            spans[-1] = (spans[-1][0], max(spans[-1][1], hi))
        else:
            spans.append((o, hi))
    base = seq_add(self.rcv_isn, 1)
    blocks = tuple((seq_add(base, lo), seq_add(base, hi))
                   for lo, hi in spans[:4])
    return TcpOptions(sack_blocks=blocks)


# -- sender -----------------------------------------------------------------------


def sender():
    """An established endpoint with 20 segments and a FIN queued, and its
    first window out."""
    sent: list[Packet] = []
    ep = MiniTcpEndpoint(EventQueue(), KEY, mss=SEG, isn=ISN,
                         transmit=lambda pkt, now: sent.append(pkt))
    ep.connect(0.0)
    ep.on_segment(Packet(key=KEY.reverse(), seq=PEER_ISN, ack=ISN + 1,
                         flags=TcpFlags.SYN | TcpFlags.ACK,
                         options=TcpOptions(mss=SEG, sack_permitted=True)), 0.0)
    ep.send_bytes(STREAM[:2000], 0.0)
    ep.close(0.0)
    return ep, sent


def check_retransmit_hole(ep, sent):
    """Wrap `_retransmit_hole` so each call, from any path, is compared with
    the first unmarked hole of the rescan on the state it was called in."""
    real = ep._retransmit_hole

    def checked(now):
        expected = next((pos for pos in oracle_holes(ep)
                         if pos not in ep._retx_marks), None)
        n = len(sent)
        real(now)
        data = [p for p in sent[n:] if p.payload]
        if expected is None:
            assert not data
        else:
            assert len(data) == 1
            assert data[0].seq == seq_add(ISN + 1, expected)
            assert len(data[0].payload) == min(SEG, ep.snd_nxt - expected)

    ep._retransmit_hole = checked
    return checked


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_retransmitted_hole_matches_full_rescan(data):
    ep, sent = sender()
    checked = check_retransmit_hole(ep, sent)
    for step in range(data.draw(st.integers(1, 60))):
        if ep.fin_acked:
            break
        kind = data.draw(st.sampled_from(["dup", "dup", "advance", "stale", "rto"]))
        if kind == "rto":
            ep._on_rto(float(step), ep._rto_gen)
            continue
        if kind == "advance":
            ack = data.draw(st.integers(ep.snd_una, ep.snd_nxt))
        elif kind == "stale":
            ack = data.draw(st.integers(max(0, ep.snd_una - 3 * SEG), ep.snd_una))
        else:
            ack = ep.snd_una
        top = ep.snd_nxt + SEG
        blocks = data.draw(st.lists(
            st.tuples(st.integers(0, top), st.integers(1, 4 * SEG)), max_size=4))
        sack = tuple((seq_add(ISN + 1, lo), seq_add(ISN + 1, lo + n))
                     for lo, n in blocks)
        ep.on_segment(Packet(key=KEY.reverse(), seq=PEER_ISN + 1,
                             ack=seq_add(ISN + 1, ack), flags=TcpFlags.ACK,
                             options=TcpOptions(sack_blocks=sack)), float(step))
        # the scoreboard stays sorted, disjoint and non-touching
        assert all(lo < hi for lo, hi in ep.sacked)
        assert all(a[1] < b[0] for a, b in zip(ep.sacked, ep.sacked[1:]))
        if data.draw(st.booleans()):
            checked(float(step))  # also probe states the ACK paths skip


# -- receiver -----------------------------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_sack_option_and_spans_match_full_rescan(data):
    acks: list[Packet] = []
    delivered = bytearray()
    ep = MiniTcpEndpoint(EventQueue(), KEY, mss=1460, isn=ISN,
                         transmit=lambda pkt, now: acks.append(pkt))
    ep.app.on_data = lambda chunk, now: delivered.extend(chunk)
    ep.accept(Packet(key=KEY.reverse(), seq=PEER_ISN, flags=TcpFlags.SYN), 0.0)
    arrived: list[tuple[int, int]] = []
    for _ in range(data.draw(st.integers(1, 80))):
        kind = data.draw(st.sampled_from(
            ["fresh", "fresh", "duplicate", "longer", "touching"]))
        if kind == "fresh" or not arrived:
            off = data.draw(st.integers(0, len(STREAM) - 1))
            n = data.draw(st.integers(1, 300))
        else:
            prev_off, prev_n = data.draw(st.sampled_from(arrived))
            if kind == "duplicate":
                off, n = prev_off, prev_n
            elif kind == "longer":
                off, n = prev_off, prev_n + data.draw(st.integers(1, 300))
            else:
                off, n = prev_off + prev_n, data.draw(st.integers(1, 300))
        if off >= len(STREAM):
            continue
        arrived.append((off, n))
        ep.on_segment(Packet(key=KEY.reverse(), seq=seq_add(PEER_ISN + 1, off),
                             ack=ISN + 1, flags=TcpFlags.ACK,
                             payload=STREAM[off:off + n]), 0.0)
        assert acks[-1].options == oracle_sack_option(ep)
        assert bool(ep.ooo_spans) == bool(ep.ooo)
        assert all(lo > ep.rcv_nxt for lo, _ in ep.ooo_spans)
    assert bytes(delivered) == STREAM[:ep.rcv_nxt]
