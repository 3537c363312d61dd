"""Out-of-order reassembly: the agent's StreamBuf and the mini-TCP receiver
deliver the same bytes whatever order the fragments arrive in."""

from hypothesis import given, settings
from hypothesis import strategies as st

from lbsim.netsim.events import EventQueue
from lbsim.netsim.tcp import AppCallbacks, MiniTcpEndpoint
from lbsim.packet import FlowKey, Packet, TcpFlags, seq_add
from lbsim.splice import StreamBuf

STREAM = bytes(range(256)) * 12


@st.composite
def shuffled_fragments(draw):
    """The stream cut into pieces, plus retransmissions that each span a run
    of consecutive pieces, in a random arrival order."""
    cuts = sorted(draw(st.sets(st.integers(1, len(STREAM) - 1), max_size=40)))
    bounds = [0, *cuts, len(STREAM)]
    n = len(bounds) - 1
    runs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(1, 4)), max_size=8))
    spans = [(i, i + 1) for i in range(n)]
    spans += [(i, min(n, i + k)) for i, k in runs]
    frags = [(bounds[i], STREAM[bounds[i]:bounds[j]]) for i, j in spans]
    return draw(st.permutations(frags))


@settings(max_examples=200, deadline=None)
@given(shuffled_fragments())
def test_streambuf_shuffled_fragments_match_in_order(frags):
    buf = StreamBuf()
    for off, chunk in frags:
        buf.add(off, chunk)
    assert bytes(buf.data) == STREAM
    assert not buf.fragments


@settings(max_examples=200, deadline=None)
@given(shuffled_fragments(), st.integers(1, len(STREAM) + 1))
def test_capped_streambuf_holds_disjoint_fragments_within_its_cap(frags, cap):
    """Fragments are kept sorted, disjoint and not touching, past the
    prefix and below the cap; every byte below the cap is delivered, and
    the buffer is full exactly when the stream reaches the cap."""
    buf = StreamBuf(cap=cap)
    for off, chunk in frags:
        buf.add(off, chunk)
        ends = [buf.end] + [x for off, f in buf.fragments for x in (off, off + len(f))]
        assert ends == sorted(set(ends))
        assert all(len(f) > 0 for _, f in buf.fragments)
        assert ends[-1] <= cap
        for off, f in buf.fragments:
            assert f == STREAM[off:off + len(f)]
    assert bytes(buf.data) == STREAM[:cap] and not buf.fragments
    assert buf.full == (cap <= len(STREAM))


def test_streambuf_keeps_longer_fragment_at_same_offset():
    buf = StreamBuf()
    buf.add(10, b"abcdefghij")
    buf.add(10, b"ab")
    buf.add(0, b"0123456789")
    assert bytes(buf.data) == b"0123456789abcdefghij"
    assert not buf.fragments


class _Sink(AppCallbacks):
    def __init__(self):
        self.data = bytearray()

    def on_data(self, chunk, now):
        self.data += chunk


@settings(max_examples=200, deadline=None)
@given(shuffled_fragments())
def test_endpoint_shuffled_segments_match_in_order(frags):
    key = FlowKey(1, 2, 3, 4)
    sink = _Sink()
    ep = MiniTcpEndpoint(EventQueue(), key, mss=1460, isn=500,
                         transmit=lambda pkt, now: None, app=sink)
    ep.accept(Packet(key=key.reverse(), seq=9000, flags=TcpFlags.SYN), 0.0)
    for off, chunk in frags:
        ep.on_segment(Packet(key=key.reverse(), seq=seq_add(9001, off), ack=501,
                             flags=TcpFlags.ACK, payload=chunk), 0.0)
    assert bytes(sink.data) == STREAM
    assert not ep.ooo
