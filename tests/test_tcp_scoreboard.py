"""The mini-TCP endpoint's sender against RFC 6675's pseudo-code computed
by brute force over the bytes of its window, and its receiver's SACK option
against a full rescan.  Every send decision on random ACK, SACK and drop
sequences must be the reference's."""

import heapq

from hypothesis import given, settings
from hypothesis import strategies as st

from lbsim.netsim import LinkParams, Simulation, SimParams, TopologyParams, WorkloadParams
from lbsim.netsim.events import EventQueue
from lbsim.netsim.tcp import MiniTcpEndpoint
from lbsim.packet import FlowKey, Packet, TcpFlags, TcpOptions, seq_add, seq_sub

KEY = FlowKey(1, 2, 3, 4)
ISN, PEER_ISN = 500, 9000
SEG = 10
STREAM = bytes(range(256)) * 16
DUP_THRESH = 3


# -- reference sender -----------------------------------------------------------


class ReferenceSender:
    """RFC 6675 loss recovery with limited transmit and sender SWS
    avoidance, byte by byte.  IsLost counts the SACKed bytes above a byte;
    SetPipe adds up every byte of the window; NextSeg scans for rules 1-3
    (no rule 4).  A resend is lost when IsLost holds for the snd_nxt it
    was sent at, and then its bytes are sent again before anything else,
    earliest resend first.  The RTO goes back one segment with cwnd 1."""

    def __init__(self, ep: MiniTcpEndpoint):
        self.seg = ep.seg
        self.una, self.nxt, self.length = ep.snd_una, ep.snd_nxt, ep.tx.length
        self.cwnd, self.ssthresh = ep.cwnd, ep.ssthresh
        self.dup_acks = 0
        self.recovery = False
        self.recover = 0
        self.high_rxt = 0
        self.sacked: set[int] = set()
        self.resends: list[tuple[int, int, int]] = []  # (lo, hi, snd_nxt when sent)
        self.sent: list[tuple[int, int]] = []          # (offset, length) since the last check

    # RFC 6675 section 4, by brute force

    def sacked_above(self) -> list[int]:
        """For each offset x up to snd_nxt, the SACKed bytes at or above x."""
        above = [0] * (self.nxt + 1)
        for x in range(self.nxt - 1, self.una - 1, -1):
            above[x] = above[x + 1] + (x in self.sacked)
        return above

    def is_lost(self, above: list[int], x: int) -> bool:
        return above[max(x, self.una)] > (DUP_THRESH - 1) * self.seg

    def last_resend(self) -> dict[int, int]:
        """Each resent byte's last resend, by index into `resends`."""
        return {b: i for i, (lo, hi, _) in enumerate(self.resends) for b in range(lo, hi)}

    def pipe(self) -> int:
        above, last = self.sacked_above(), self.last_resend()
        pipe = 0
        for b in range(self.una, self.nxt):
            if b in self.sacked:
                continue
            if not self.is_lost(above, b):
                pipe += 1
            i = last.get(b)
            if i is not None and not self.is_lost(above, self.resends[i][2]):
                pipe += 1
        return pipe

    def run(self, start: int, stop: int, keep=lambda b: True) -> tuple[int, int]:
        """The unSACKed bytes from `start`, at most one segment, below `stop`."""
        end = start
        while (end < min(stop, start + self.seg, self.nxt)
               and end not in self.sacked and keep(end)):
            end += 1
        return start, end

    def next_seg(self):
        above, last = self.sacked_above(), self.last_resend()
        for i, (lo, hi, at) in enumerate(self.resends):
            if self.is_lost(above, at):
                mine = [b for b in range(max(lo, self.una), hi)
                        if b not in self.sacked and last[b] == i]
                if mine:
                    return ("again", *self.run(mine[0], hi, lambda b: last[b] == i))
        holes = [b for b in range(max(self.high_rxt, self.una), self.nxt)
                 if b not in self.sacked]
        if holes and self.is_lost(above, holes[0]):
            return ("rule 1", *self.run(holes[0], self.nxt))
        if self.nxt < self.length:
            return ("rule 2", self.nxt, self.nxt + min(self.seg, self.length - self.nxt))
        if holes and holes[0] < max(self.sacked, default=-1):
            return ("rule 3", *self.run(holes[0], self.nxt))
        return None

    # sending

    def send(self, kind: str, start: int, end: int) -> None:
        self.sent.append((start, end - start))
        if kind == "rule 2":
            self.nxt = end
            return
        if kind != "again":
            self.high_rxt = end
        self.resends.append((start, end, self.nxt))

    def recovery_send(self) -> None:
        while self.pipe() <= int(self.cwnd * self.seg) - self.seg:
            pick = self.next_seg()
            if pick is None:
                break
            self.send(*pick)

    def pump(self) -> None:
        if self.recovery:
            self.recovery_send()
            return
        while self.nxt < self.length:
            n = min(self.seg, self.length - self.nxt)
            if self.nxt - self.una + n > int(self.cwnd * self.seg):
                break
            self.send("rule 2", self.nxt, self.nxt + n)

    # events

    def append(self, n: int) -> None:
        self.length += n
        self.pump()

    def on_ack(self, ack: int, blocks) -> None:
        if ack > self.nxt:
            return
        advanced = ack > self.una
        if advanced:
            self.una = ack
            self.sacked = {b for b in self.sacked if b >= ack}
        for lo, hi in blocks:
            self.sacked.update(range(max(lo, self.una), min(hi, self.nxt)))
        if advanced:
            self.dup_acks = 0
            if self.recovery:
                if ack >= self.recover:
                    self.recovery = False
            elif self.cwnd < self.ssthresh:
                self.cwnd = min(self.cwnd + 1, MiniTcpEndpoint.MAX_CWND)
            else:
                self.cwnd = min(self.cwnd + 1 / self.cwnd, MiniTcpEndpoint.MAX_CWND)
        elif ack == self.una < self.nxt:
            self.dup_acks += 1
            if not self.recovery:
                if self.dup_acks >= DUP_THRESH:
                    self.enter_recovery()
                elif self.nxt < self.length:  # limited transmit
                    self.send("rule 2", self.nxt,
                              self.nxt + min(self.seg, self.length - self.nxt))
                return
        if advanced or self.recovery:
            self.pump()

    def enter_recovery(self) -> None:
        self.ssthresh = self.cwnd = max(self.cwnd / 2, 2.0)
        self.recovery = True
        self.recover = self.nxt
        self.high_rxt = self.una
        self.resends = []
        holes = [b for b in range(self.una, self.nxt) if b not in self.sacked]
        if holes:
            self.send("entry", *self.run(holes[0], self.nxt))
        self.recovery_send()

    def on_rto(self) -> None:
        if self.una == self.nxt:
            return
        self.ssthresh = max(self.cwnd / 2, 2.0)
        self.cwnd = 1.0
        self.recovery = False
        self.resends = []
        self.sent.append((self.una, min(self.seg, self.nxt - self.una)))


# -- sender ---------------------------------------------------------------------


def sender(n=400):
    """An established endpoint with `n` bytes queued and its first window
    out; and the data segments it sends, as (offset, length).  Each one
    must carry the stream's bytes at its offset, so a resend that needs
    bytes the endpoint has already dropped fails."""
    sent: list[tuple[int, int]] = []

    def transmit(pkt, now):
        if pkt.payload:
            off = seq_sub(pkt.seq, ISN + 1)
            assert pkt.payload == STREAM[off:off + len(pkt.payload)]
            sent.append((off, len(pkt.payload)))

    ep = MiniTcpEndpoint(EventQueue(), KEY, mss=SEG, isn=ISN, transmit=transmit)
    ep.connect(0.0)
    ep.on_segment(Packet(key=KEY.reverse(), seq=PEER_ISN, ack=ISN + 1,
                         flags=TcpFlags.SYN | TcpFlags.ACK,
                         options=TcpOptions(mss=SEG, sack_permitted=True)), 0.0)
    ep.send_bytes(STREAM[:n], 0.0)
    return ep, sent


def ack(ep, ack_off: int, blocks=(), now: float = 0.0) -> None:
    """Feed `ep` a pure ACK; offsets are stream offsets."""
    sack = tuple((seq_add(ISN + 1, lo), seq_add(ISN + 1, hi)) for lo, hi in blocks)
    ep.on_segment(Packet(key=KEY.reverse(), seq=PEER_ISN + 1,
                         ack=seq_add(ISN + 1, ack_off), flags=TcpFlags.ACK,
                         options=TcpOptions(sack_blocks=sack)), now)


class Receiver:
    """The peer: holds the bytes it got, and ACKs with up to four SACK
    blocks, lowest first, as the endpoint's receiver does."""

    def __init__(self):
        self.got: set[int] = set()
        self.rcv_nxt = 0

    def take(self, off: int, n: int) -> None:
        self.got.update(range(off, off + n))
        while self.rcv_nxt in self.got:
            self.rcv_nxt += 1

    def blocks(self) -> list[tuple[int, int]]:
        out: list[tuple[int, int]] = []
        for b in sorted(x for x in self.got if x > self.rcv_nxt):
            if out and out[-1][1] == b:
                out[-1] = (out[-1][0], b + 1)
            else:
                out.append((b, b + 1))
        return out[:4]


def check_against_reference(ep, ref, sent) -> None:
    assert sent == ref.sent
    sent.clear()
    ref.sent.clear()
    assert (ep.snd_una, ep.snd_nxt, ep.tx.length) == (ref.una, ref.nxt, ref.length)
    assert (ep.cwnd, ep.ssthresh, ep.in_recovery) == (ref.cwnd, ref.ssthresh, ref.recovery)
    # the scoreboard is the reference's SACKed set as sorted, disjoint,
    # non-touching blocks, with its byte count kept
    assert all(lo < hi for lo, hi in ep.sacked)
    assert all(a[1] < b[0] for a, b in zip(ep.sacked, ep.sacked[1:]))
    assert {b for lo, hi in ep.sacked for b in range(lo, hi)} == ref.sacked
    assert ep.sacked_bytes == len(ref.sacked)
    if ref.recovery:
        above = ref.sacked_above()
        assert all(ref.is_lost(above, b) == (b < ep.lost_to)
                   for b in range(ref.una, ref.nxt) if b not in ref.sacked)
        assert ep._pipe() == ref.pipe()


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_send_decisions_match_rfc6675_reference(data):
    """Random runs of in-order delivery with drops, repeated ACKs, arbitrary
    ACKs and SACK blocks, RTO fires and stream appends."""
    ep, sent = sender(data.draw(st.sampled_from([40, 200, 400])))
    # either only what a real path does, or arbitrary ACKs and RTOs as well
    kinds = ["deliver"] * 12 + ["repeat", "append"]
    if data.draw(st.booleans()):
        kinds += ["arbitrary", "rto"]
    ref = ReferenceSender(ep)
    wire = list(sent)  # segments in flight, oldest first
    sent.clear()
    rx = Receiver()
    check_against_reference(ep, ref, sent)
    for step in range(data.draw(st.integers(1, 200))):
        kind = data.draw(st.sampled_from(kinds))
        n_sent = len(sent)
        if kind == "deliver" and wire:
            off, n = wire.pop(0)
            if data.draw(st.integers(0, 4)) == 0:
                continue  # lost on the way
            rx.take(off, n)
            kind = "repeat"
        if kind == "repeat":
            blocks = rx.blocks()
            ack(ep, rx.rcv_nxt, blocks, float(step))
            ref.on_ack(rx.rcv_nxt, blocks)
        elif kind == "arbitrary":
            a = data.draw(st.integers(max(0, ep.snd_una - 3 * SEG), ep.snd_nxt + 2))
            blocks = [(lo, lo + n) for lo, n in data.draw(st.lists(st.tuples(
                st.integers(0, ep.snd_nxt + SEG), st.integers(1, 4 * SEG)), max_size=4))]
            ack(ep, a, blocks, float(step))
            ref.on_ack(a, blocks)
            rx.take(0, ep.snd_una)  # the peer holds what it ACKed
        elif kind == "rto":
            # fire the armed timer at its deadline, as the queue would: the
            # live wake-up pops first and, if the deadline is later, sleeps
            # until it
            if ep._rto_at is not None:
                if ep._rto_wake < ep._rto_at:
                    ep._on_rto(ep._rto_wake)
                ep._on_rto(ep._rto_at)
            ref.on_rto()
        elif kind == "append" and ep.tx.length < len(STREAM):
            n = data.draw(st.integers(1, 3 * SEG))
            ep.send_bytes(STREAM[ep.tx.length:ep.tx.length + n], float(step))
            ref.append(len(STREAM[ref.length:ref.length + n]))
        wire += sent[n_sent:]
        check_against_reference(ep, ref, sent)


class OneEventPerArm:
    """The RTO as one queued event per arm, of which only the latest may
    fire; a fire backs off and arms again."""

    def __init__(self, now: float):
        self.rto = MiniTcpEndpoint.RTO_BASE
        self.gen = 0
        self.events: list[tuple[float, int]] = []
        self.fired: list[float] = []
        self.arm(now)

    def arm(self, now: float) -> None:
        self.gen += 1
        heapq.heappush(self.events, (now + self.rto, self.gen))

    def reset(self) -> None:
        self.rto = MiniTcpEndpoint.RTO_BASE
        self.gen += 1

    def run(self, until: float) -> None:
        while self.events and self.events[0][0] <= until:
            at, gen = heapq.heappop(self.events)
            if gen == self.gen:
                self.fired.append(at)
                self.rto = min(self.rto * 2, MiniTcpEndpoint.RTO_MAX)
                self.arm(at)

    def next_fire(self) -> float | None:
        return next((at for at, gen in self.events if gen == self.gen), None)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_rto_deadline_fires_when_one_event_per_arm_would(data):
    """Arms, resets, RTO fires with backoff, and time advances, on an
    endpoint whose data is never ACKed.  It fires at exactly the times the
    one-event-per-arm model fires, and the queue holds one wake-up of it
    plus at most one orphan per RTO fire so far."""
    ep, _ = sender(400)
    queue = ep.queue
    model = OneEventPerArm(0.0)
    fired: list[float] = []
    ep.transmit = lambda pkt, now: fired.append(now)  # only RTO resends from here
    for _ in range(data.draw(st.integers(1, 60))):
        kind = data.draw(st.sampled_from(["arm", "reset", "ack", "advance", "advance", "fire"]))
        now = queue.now
        if kind in ("reset", "ack"):  # an advancing ACK resets and arms
            ep._reset_rto(now)
            model.reset()
        if kind in ("arm", "ack"):
            ep._arm_rto(now)
            model.arm(now)
        if kind == "advance":
            until = now + data.draw(st.sampled_from([0.05, 0.1, 0.2, 0.3, 0.7, 2.0, 30.0]))
        elif kind == "fire":  # to the model's next fire, when one is armed
            until = model.next_fire() or now
        if kind in ("advance", "fire"):
            queue.run(until)
            queue.now = until
            model.run(until)
        assert fired == model.fired
        assert ep.stats["rto_fires"] == len(model.fired)
        wakes = [at for at, _, fn, _ in queue._q if fn == ep._on_rto]
        # only an arm after a backoff and a reset orphans a wake-up
        assert len(wakes) <= 1 + ep.stats["rto_fires"]


def test_limited_transmit_releases_a_new_segment_per_dup_ack():
    ep, sent = sender(400)
    assert sent == [(i * SEG, SEG) for i in range(10)]  # the initial window
    sent.clear()
    ack(ep, 0, [(SEG, 2 * SEG)])
    assert sent == [(10 * SEG, SEG)]
    ack(ep, 0, [(SEG, 3 * SEG)])
    assert sent == [(10 * SEG, SEG), (11 * SEG, SEG)]
    assert not ep.in_recovery and ep.stats["retransmits"] == 0
    sent.clear()
    ack(ep, 0, [(SEG, 4 * SEG)])  # the third enters recovery
    assert ep.in_recovery and sent[0] == (0, SEG)


def test_lost_fast_retransmit_is_resent_once_later_data_is_sacked():
    """Segment 0 and its fast retransmit are both lost.  The resend goes
    again, with no RTO, once more than two segments sent after it are
    SACKed."""
    ep, sent = sender(400)
    for i in range(1, 4):
        ack(ep, 0, [(SEG, (i + 1) * SEG)])
    assert ep.in_recovery
    resent_at = ep.snd_nxt
    assert sent.count((0, SEG)) == 2  # first send and fast retransmit
    sacked_hi = 4 * SEG
    while sacked_hi < resent_at + 2 * SEG:
        sacked_hi += SEG
        ack(ep, 0, [(SEG, sacked_hi)])
        assert sent.count((0, SEG)) == 2
    # exactly 2 segments above resent_at are SACKed; one byte more makes
    # the resend lost.  That byte frees less than a segment of pipe, so
    # the resend goes again only because its own bytes leave pipe.
    sent.clear()
    ack(ep, 0, [(SEG, sacked_hi + 1)])
    assert sent == [(0, SEG)]
    sacked_hi += SEG
    assert ep.stats["rto_fires"] == 0
    ack(ep, sacked_hi)
    assert not ep.in_recovery


def test_a_lost_resend_goes_again_around_a_sacked_block_inside_it():
    """Segment 0 and its fast retransmit are both lost, and a SACK block
    covers bytes [3, 5) of it.  Once the resend is lost, its unSACKed bytes
    go again in two pieces: [0, 3), then [5, SEG) when pipe allows."""
    ep, sent = sender(400)
    for i in range(1, 4):
        ack(ep, 0, [(SEG, (i + 1) * SEG)])
    resent_at = ep.snd_nxt
    sacked_hi = 4 * SEG
    while sacked_hi < resent_at + 2 * SEG:
        sacked_hi += SEG
        ack(ep, 0, [(3, 5), (SEG, sacked_hi)])
    assert sent.count((0, SEG)) == 2
    sent.clear()
    ack(ep, 0, [(3, 5), (SEG, sacked_hi + 1)])
    assert sent == [(0, 3)]
    sent.clear()
    ack(ep, 0, [(3, 5), (SEG, sacked_hi + SEG)])
    assert sent[0] == (5, SEG - 5)
    assert not ep._relost and ep.stats["rto_fires"] == 0


def test_only_a_stream_tail_goes_in_a_short_segment():
    """Under loss, with cwnd halved to fractions of a segment, every data
    segment either is full-sized or ends where the stream ended when the
    segment was first sent."""
    params = SimParams(
        topology=TopologyParams(client_link=LinkParams(loss=0.03),
                                server_link=LinkParams(loss=0.03)),
        workload=WorkloadParams(connections=3, sizes=((100_000, 1.0), (300_000, 1.0)),
                                requests_per_connection=(2, 3)))
    sim = Simulation(params, seed=5)
    short = []
    tails: set[int] = set()

    def watch(ep):
        transmit = ep.transmit

        def checked(pkt, now):
            if pkt.payload:
                off = seq_sub(pkt.seq, ep.isn + 1)
                end = off + len(pkt.payload)
                if end == ep.tx.length:
                    tails.add(end)
                if len(pkt.payload) < ep.seg:
                    short.append(end)
            transmit(pkt, now)
        ep.transmit = checked
        return ep

    new_endpoint = sim.new_endpoint
    sim.new_endpoint = lambda *args: watch(new_endpoint(*args))
    for s in sim.sessions:
        watch(s.endpoint)
    sim.run()
    assert all(s.clean for s in sim.sessions)
    assert sum(ep.stats["retransmits"] for ep in sim.server_host.endpoints.values()) > 0
    assert short and set(short) <= tails


# -- receiver oracle ---


def oracle_sack_option(arrived) -> TcpOptions:
    """The SACK option after the segments that arrived: the merged spans of
    their bytes past the in-order prefix from offset 0, lowest first, at
    most four."""
    spans: list[tuple[int, int]] = []
    for o, n in sorted(arrived):
        hi = min(o + n, len(STREAM))
        if spans and o <= spans[-1][1]:
            spans[-1] = (spans[-1][0], max(spans[-1][1], hi))
        else:
            spans.append((o, hi))
    if spans and spans[0][0] == 0:
        del spans[0]  # delivered
    base = PEER_ISN + 1
    blocks = tuple((seq_add(base, lo), seq_add(base, hi))
                   for lo, hi in spans[:4])
    return TcpOptions(sack_blocks=blocks)


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
        assert acks[-1].options == oracle_sack_option(arrived)
        assert all(off > ep.rcv_nxt for off, _ in ep.ooo)
    assert bytes(delivered) == STREAM[:ep.rcv_nxt]
