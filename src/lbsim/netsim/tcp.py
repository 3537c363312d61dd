"""Miniature TCP endpoint: reliability, SACK, RFC 6675 loss recovery, RTO,
and a Reno-shaped congestion window.  No RTT estimation (fixed RTO base with
exponential backoff), no window scaling (the advertised window is ignored;
cwnd is the limit), receive buffer unbounded.  The RTO is one deadline with
at most one live wake-up in the event queue (a lazy timer): arming moves the
deadline, and a wake-up that finds it later sleeps again until it.

The transmit stream can mix literal bytes with generated spans, so multi-
megabyte response bodies never materialize wholesale: segments are
rendered from (offset, length) on demand, retransmissions included.  Every
read starts at or above snd_una (new data, RTO, fast retransmit, NextSeg
and lost resends alike), so the stream drops its chunks as snd_una passes
their end: an endpoint holds only its unACKed stream, however many
requests a keep-alive connection carries.

Sending.  Outside recovery a segment goes only when all of min(seg, bytes
left) fits the window (sender SWS avoidance, RFC 9293 3.8.6.2.1), so a
fractional cwnd never turns into a sliver; only the stream's tail is short.
The first and second duplicate ACKs each release one new segment (limited
transmit, RFC 3042), so a window of a few segments can still collect three.

Loss recovery (RFC 6675, without the rescue retransmission of NextSeg rule
4).  The scoreboard, `sacked`, is a sorted list of disjoint, non-touching
[lo, hi) blocks above snd_una, with their byte count kept in `sacked_bytes`.
- IsLost is one offset per ACK, `lost_to`: an unSACKed byte is lost when
  more than 2 segments (DupThresh - 1) of SACKed bytes lie above it, which
  holds exactly below `lost_to`.  It is found by walking down from the top
  block until 2 segments are counted, so its cost does not grow with the
  window.
- The third duplicate ACK halves cwnd into ssthresh (no inflation per
  duplicate ACK) and resends the segment at snd_una; HighRxt, `high_rxt`,
  is the end of the highest resend.
- `pipe` (SetPipe) counts the unSACKed bytes at or above `lost_to` (first
  transmissions still in flight) plus the unSACKed bytes below HighRxt
  (resent), from running totals.  While cwnd - pipe >= one segment, NextSeg
  picks: rule 1, the first hole at or above HighRxt if it is lost; rule 2,
  new data; rule 3, when there is no new data, the first hole at or above
  HighRxt below the highest SACKed byte, lost or not.  A resend is at most
  one segment and never covers SACKed bytes.
- Lost retransmissions (RFC 8985's send-order rule, with DupThresh for the
  reordering window): the recovery's resends are kept in send order with
  the snd_nxt each went out at.  A resend is lost when that snd_nxt lies
  below `lost_to`; its bytes then leave `pipe` and are sent again before
  anything else.
- A cumulative ACK at or past the snd_nxt of entry ends recovery.
The RTO path is the plain one: go back one segment with cwnd 1 and leave
recovery.

The receiver delivers a segment at rcv_nxt as it arrived.  It keeps the
bytes above rcv_nxt as merged (offset, bytes) runs, `ooo`, the agent's head
buffers' representation (`add_fragment`, `take_fragments`); the SACK
option is the first four runs, and once rcv_nxt reaches a run, the run's
rest is delivered in one piece.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import deque
from operator import itemgetter
from typing import Callable, Optional

from ..packet import (
    EMPTY_OPTIONS,
    MAX_SACK_BLOCKS,
    FlowKey,
    Packet,
    TcpFlags,
    TcpOptions,
    add_fragment,
    seq_add,
    take_fragments,
    unwrap,
)

_span_hi = itemgetter(1)  # the end of a [lo, hi) span, or of a (start, end, src) chunk


def _add_span(spans: list[list[int]], lo: int, hi: int, mark: int = 0) -> tuple[int, int]:
    """Merge [lo, hi) into `spans`, which are sorted, disjoint and not
    touching; touching spans merge too.  Returns how many bytes were newly
    covered, and how many of those lie below `mark`."""
    i = bisect_left(spans, lo, key=_span_hi)  # first span with hi >= lo
    j = i
    added = below = 0
    pos = lo
    while j < len(spans) and spans[j][0] <= hi:
        l, r = spans[j]
        if l > pos:
            added += l - pos
            below += max(0, min(l, mark) - pos)
        pos = max(pos, r)
        j += 1
    if hi > pos:
        added += hi - pos
        below += max(0, min(hi, mark) - pos)
    if i < j:
        lo = min(lo, spans[i][0])
        hi = max(hi, spans[j - 1][1])
    spans[i:j] = [[lo, hi]]
    return added, below


class TxStream:
    """Outbound byte stream assembled from literal and generated chunks.
    `release(off)` drops the chunks that end at or below `off`; the owner
    calls it as snd_una advances, and reads only at or above snd_una."""

    def __init__(self):
        # (start, end, src), in stream order; the first ends past snd_una
        self._chunks: list[tuple[int, int, object]] = []
        self.length = 0

    def append_bytes(self, data: bytes) -> None:
        self._chunks.append((self.length, self.length + len(data), data))
        self.length += len(data)

    def append_generated(self, gen: Callable[[int, int], bytes], n: int) -> None:
        self._chunks.append((self.length, self.length + n, gen))
        self.length += n

    def release(self, off: int) -> None:
        """Drop the chunks that end at or below `off`."""
        del self._chunks[:bisect_right(self._chunks, off, key=_span_hi)]

    def read(self, off: int, n: int) -> bytes:
        end = min(off + n, self.length)
        chunks = self._chunks
        parts = []
        for i in range(bisect_right(chunks, off, key=_span_hi), len(chunks)):
            start, stop, src = chunks[i]
            if start >= end:
                break
            lo = max(off, start) - start
            hi = min(end, stop) - start
            if callable(src):
                parts.append(src(lo, hi - lo))
            else:
                parts.append(src[lo:hi])
        return b"".join(parts)


class AppCallbacks:
    """Override what you need; endpoints call these."""

    def on_connected(self, now: float) -> None: ...
    def on_data(self, chunk: bytes, now: float) -> None: ...
    def on_peer_fin(self, now: float) -> None: ...
    def on_reset(self, now: float) -> None: ...


class MiniTcpEndpoint:
    INIT_CWND = 10.0
    MAX_CWND = 256.0
    RTO_BASE = 0.2
    RTO_MAX = 60.0
    MAX_HANDSHAKE_RETRIES = 6
    MAX_FIN_RETRIES = 5

    def __init__(self, queue, key: FlowKey, mss: int, isn: int,
                 transmit: Callable[[Packet, float], None],
                 app: Optional[AppCallbacks] = None,
                 on_terminal: Optional[Callable[[], None]] = None):
        self.queue = queue
        self.key = key                    # local -> remote
        self.mss = mss
        self.seg = mss                    # effective segment size after MSS exchange
        self.isn = isn
        self.transmit = transmit
        self.app = app or AppCallbacks()
        self.on_terminal = on_terminal    # called once, when `terminal` turns true

        # sender state (stream offsets, 0-based at ISN+1)
        self.tx = TxStream()
        self.snd_una = 0
        self.snd_nxt = 0
        self.cwnd = self.INIT_CWND
        self.ssthresh = float("inf")
        self.dup_acks = 0
        # SACK scoreboard: [lo, hi) blocks in [snd_una, snd_nxt), sorted,
        # disjoint and non-touching; and the bytes they cover
        self.sacked: list[list[int]] = []
        self.sacked_bytes = 0
        # RFC 6675 loss recovery
        self.in_recovery = False
        self.recover = 0
        self.lost_to = 0                      # unSACKed bytes below this are lost
        self.high_rxt = 0                     # end of the highest resend (HighRxt)
        self._sacked_below_rxt = 0            # SACKed bytes in [snd_una, high_rxt)
        # this recovery's resends not yet lost, in send order: (lo, hi, snd_nxt
        # when sent); and the lost ones waiting to be sent again: [lo, hi]
        self._resends: deque[tuple[int, int, int]] = deque()
        self._relost: deque[list[int]] = deque()

        # receiver state
        self.rcv_isn = 0
        self.rcv_nxt = 0
        self.ooo: list[tuple[int, bytes]] = []  # merged runs above rcv_nxt
        self.peer_fin_off: Optional[int] = None
        self.peer_fin_rcvd = False

        self.established = False
        self.syn_sent = False
        self.fin_pending = False
        self.fin_sent = False
        self.fin_acked = False
        self.fin_retries = 0
        self.syn_retries = 0
        self.synack_unacked = False       # server side: no peer ACK of the SYNACK yet
        self.dead = False
        self.terminal = False

        self.rto = self.RTO_BASE
        self._rto_at: Optional[float] = None    # the RTO deadline
        self._rto_wake: Optional[float] = None  # when the live wake-up pops

        self.stats = {"retransmits": 0, "rto_fires": 0, "fast_retransmits": 0,
                      "segments_tx": 0, "acks_tx": 0, "bytes_delivered": 0}

    # -- opening ----------------------------------------------------------------

    def connect(self, now: float) -> None:
        self.syn_sent = True
        self._send_syn(now)
        self._arm_rto(now)

    def _send_syn(self, now: float) -> None:
        self.transmit(Packet(key=self.key, seq=self.isn, flags=TcpFlags.SYN,
                             options=TcpOptions(mss=self.mss, sack_permitted=True)),
                      now)

    def accept(self, syn: Packet, now: float) -> None:
        """Server side: adopt the peer ISN from its SYN and answer.  The
        SYNACK is resent on the RTO timer, with backoff, until a peer
        segment ACKs it; after MAX_HANDSHAKE_RETRIES the endpoint is dead."""
        self.rcv_isn = syn.seq
        if syn.options.mss:
            self.seg = min(self.mss, syn.options.mss)
        self.established = True
        self.synack_unacked = True
        self._send_synack(now)
        self._arm_rto(now)

    def _send_synack(self, now: float) -> None:
        self.transmit(Packet(key=self.key, seq=self.isn,
                             ack=seq_add(self.rcv_isn, 1),
                             flags=TcpFlags.SYN | TcpFlags.ACK,
                             options=TcpOptions(mss=self.mss, sack_permitted=True)),
                      now)

    # -- app surface ---------------------------------------------------------------

    def send_bytes(self, data: bytes, now: float) -> None:
        self.tx.append_bytes(data)
        self._pump(now)

    def send_generated(self, gen: Callable[[int, int], bytes], n: int, now: float) -> None:
        self.tx.append_generated(gen, n)
        self._pump(now)

    def close(self, now: float) -> None:
        self.fin_pending = True
        self._pump(now)

    @property
    def closed_cleanly(self) -> bool:
        return self.fin_acked and self.peer_fin_rcvd

    def _check_terminal(self) -> None:
        """Mark the endpoint terminal once it is dead (reset, or the
        handshake gave up) or closed cleanly; `on_terminal` fires once."""
        if not self.terminal and (self.dead or self.closed_cleanly):
            self.terminal = True
            if self.on_terminal is not None:
                self.on_terminal()

    # -- segment input ----------------------------------------------------------------

    def on_segment(self, pkt: Packet, now: float) -> None:
        if self.dead:
            return
        flags = pkt.flags
        if flags & TcpFlags.RST:
            self.dead = True
            self.app.on_reset(now)
            self._check_terminal()
            return
        if flags & TcpFlags.SYN:
            if not flags & TcpFlags.ACK:
                self._send_synack(now)  # duplicate SYN of an accepted connection
                if self.synack_unacked:
                    self._arm_rto(now)  # a resend restarts the timer
            elif self.syn_sent and not self.established:
                self.rcv_isn = pkt.seq
                if pkt.options.mss:
                    self.seg = min(self.mss, pkt.options.mss)
                self.established = True
                self.syn_retries = 0
                self._reset_rto(now)
                self._ack(now)
                self.app.on_connected(now)
            else:
                self._ack(now)  # duplicate SYNACK: re-ACK
            return

        if flags & TcpFlags.ACK:
            if self.synack_unacked and self._ack_off(pkt.ack) >= 0:
                self.synack_unacked = False
                self.syn_retries = 0
                self._reset_rto(now)
            self._process_ack(pkt, now)
        if pkt.payload:
            self._process_data(pkt, now)
        if flags & TcpFlags.FIN:
            self._process_fin(pkt, now)
        self._check_terminal()

    # -- sender ------------------------------------------------------------------------

    def _pump(self, now: float) -> None:
        if not self.established or self.dead:
            return
        sent = False
        if self.in_recovery:
            sent = self._recovery_send(now)
        else:
            # sender SWS avoidance: a segment goes only when all of it fits
            window = int(self.cwnd * self.seg)
            while self.snd_nxt < self.tx.length:
                n = min(self.seg, self.tx.length - self.snd_nxt)
                if self.snd_nxt - self.snd_una + n > window:
                    break
                self._send_new(n, now)
                sent = True
        if (self.fin_pending and not self.fin_sent
                and self.snd_nxt == self.tx.length
                and self.snd_una == self.snd_nxt):
            self._emit_fin(now)
            sent = True
        if sent:
            self._arm_rto(now)

    def _send_new(self, n: int, now: float) -> None:
        self._emit_data(self.snd_nxt, n, now)
        self.snd_nxt += n

    def _emit_data(self, off: int, n: int, now: float) -> None:
        # fields in order (key, seq, ack, flags, window, options, payload):
        # the per-segment paths build packets positionally
        self.transmit(Packet(self.key, seq_add(seq_add(self.isn, 1), off),
                             self._ack_value(), TcpFlags.ACK | TcpFlags.PSH, 65535,
                             EMPTY_OPTIONS, self.tx.read(off, n)), now)
        self.stats["segments_tx"] += 1

    def _emit_fin(self, now: float) -> None:
        self.fin_sent = True
        self.transmit(Packet(key=self.key,
                             seq=seq_add(seq_add(self.isn, 1), self.tx.length),
                             ack=self._ack_value(), flags=TcpFlags.FIN | TcpFlags.ACK),
                      now)

    def _ack_off(self, x32: int) -> int:
        """A peer's ACK or SACK edge as an offset in the sent stream, read
        against snd_una (`unwrap`); below 0 it is stale."""
        return unwrap(x32 - self.isn - 1, self.snd_una)

    def _process_ack(self, pkt: Packet, now: float) -> None:
        ack_off = self._ack_off(pkt.ack)
        if ack_off < 0:
            return
        if self.fin_sent and ack_off >= self.tx.length + 1:
            if not self.fin_acked:
                self.fin_acked = True
                self.snd_una = self.tx.length
                self.tx.release(self.snd_una)
                self._reset_rto(now)
            return
        if ack_off > self.snd_nxt:
            return
        advanced = ack_off > self.snd_una
        if advanced:
            self._ack_through(ack_off)
        for l, r in pkt.options.sack_blocks:
            lo = max(self._ack_off(l), self.snd_una)
            hi = min(self._ack_off(r), self.snd_nxt)
            if lo < hi:
                self._merge_sacked(lo, hi)

        if advanced:
            self.dup_acks = 0
            self._reset_rto(now)
            if self.in_recovery:
                if ack_off >= self.recover:
                    self._end_recovery()
            elif self.cwnd < self.ssthresh:
                self.cwnd = min(self.cwnd + 1, self.MAX_CWND)
            else:
                self.cwnd = min(self.cwnd + 1 / self.cwnd, self.MAX_CWND)
            if (self.snd_una < self.snd_nxt) or (self.fin_sent and not self.fin_acked):
                self._arm_rto(now)
        else:
            outstanding = self.snd_una < self.snd_nxt or (self.fin_sent and not self.fin_acked)
            if not pkt.payload and not pkt.fin and ack_off == self.snd_una and outstanding:
                self.dup_acks += 1
                if not self.in_recovery:
                    if self.dup_acks >= 3:
                        self._fast_retransmit(now)
                    elif self.snd_nxt < self.tx.length:
                        # limited transmit: dup ACKs 1 and 2 release a new segment each
                        self._send_new(min(self.seg, self.tx.length - self.snd_nxt), now)
                        self._arm_rto(now)
                    return
            if not self.in_recovery:
                return
        if self.in_recovery:
            self._mark_lost()
        self._pump(now)

    def _ack_through(self, ack_off: int) -> None:
        """Move snd_una to `ack_off` and drop the SACKed bytes and the
        stream chunks below it."""
        blocks = self.sacked
        gone = 0
        if blocks:
            i = bisect_right(blocks, ack_off, key=_span_hi)  # first block past ack_off
            for lo, hi in blocks[:i]:
                gone += hi - lo
            if i < len(blocks) and blocks[i][0] < ack_off:
                gone += ack_off - blocks[i][0]
                blocks[i][0] = ack_off
            del blocks[:i]
            self.sacked_bytes -= gone
        self.snd_una = ack_off
        self.tx.release(ack_off)
        if ack_off >= self.high_rxt:
            self.high_rxt = ack_off
            self._sacked_below_rxt = 0
        else:
            self._sacked_below_rxt -= gone

    def _merge_sacked(self, lo: int, hi: int) -> None:
        added, below = _add_span(self.sacked, lo, hi, self.high_rxt)
        self.sacked_bytes += added
        self._sacked_below_rxt += below

    def _hole_at(self, pos: int) -> tuple[int, int]:
        """The first unSACKed run [start, end) at or above `pos`; it ends
        at a SACK block, or at snd_nxt when no block lies above it."""
        blocks = self.sacked
        i = bisect_right(blocks, pos, key=_span_hi)
        if i < len(blocks) and blocks[i][0] <= pos:
            pos = blocks[i][1]
            i += 1
        return pos, blocks[i][0] if i < len(blocks) else self.snd_nxt

    def _lost_boundary(self) -> int:
        """IsLost as one offset: an unSACKed byte is lost when more than
        DupThresh - 1 = 2 segments of SACKed bytes lie above it, which is
        exactly when it lies below the returned offset."""
        budget = 2 * self.seg
        for lo, hi in reversed(self.sacked):
            if hi - lo > budget:
                return hi - budget
            budget -= hi - lo
        return self.snd_una

    def _mark_lost(self) -> None:
        """Update the lost boundary; the resends sent while snd_nxt was
        below it are lost too, and queue to be sent again."""
        self.lost_to = lost_to = self._lost_boundary()
        resends = self._resends
        while resends and resends[0][2] < lost_to:
            lo, hi, _ = resends.popleft()
            if hi > self.snd_una:
                self._relost.append([lo, hi])

    def _pipe(self) -> int:
        """RFC 6675 SetPipe from running totals: the unSACKed bytes at or
        above the lost boundary (first transmissions presumed in flight),
        plus the unSACKed bytes below HighRxt (resent in this recovery),
        less those whose last resend is lost."""
        pipe = (self.snd_nxt - self.lost_to - min(self.sacked_bytes, 2 * self.seg)
                + self.high_rxt - self.snd_una - self._sacked_below_rxt)
        for lo, hi in self._relost:
            pos = max(lo, self.snd_una)
            while pos < hi:
                start, end = self._hole_at(pos)
                if start >= hi:
                    break
                pipe -= min(end, hi) - start
                pos = end
        return pipe

    def _fast_retransmit(self, now: float) -> None:
        self.ssthresh = self.cwnd = max(self.cwnd / 2, 2.0)
        self.in_recovery = True
        self.recover = self.snd_nxt
        self.high_rxt = self.snd_una
        self._sacked_below_rxt = 0
        self.stats["fast_retransmits"] += 1
        start, end = self._hole_at(self.snd_una)
        if start < self.snd_nxt:
            self._resend_above_rxt(start, end, now)
        elif self.fin_sent and not self.fin_acked:
            self._emit_fin(now)  # all data is SACKed: the FIN is what is missing
        self._mark_lost()
        self._recovery_send(now)
        self._arm_rto(now)

    def _recovery_send(self, now: float) -> bool:
        """Send NextSeg's picks while cwnd - pipe >= one segment."""
        limit = int(self.cwnd * self.seg) - self.seg
        sent = False
        while self._pipe() <= limit and self._next_seg(now):
            sent = True
        return sent

    def _next_seg(self, now: float) -> bool:
        """Send one segment: a lost resend again, else RFC 6675 NextSeg
        rules 1-3 (no rule 4).  False when there is nothing to send."""
        relost = self._relost
        while relost:
            entry = relost[0]
            start, end = self._hole_at(max(entry[0], self.snd_una))
            if start >= entry[1]:
                relost.popleft()
                continue
            end = min(end, entry[1], start + self.seg)
            if end == entry[1]:
                relost.popleft()
            else:
                entry[0] = end
            self._resend(start, end, now)
            return True
        start, end = self._hole_at(self.high_rxt)
        if start < self.lost_to:                                 # rule 1
            self._resend_above_rxt(start, end, now)
        elif self.snd_nxt < self.tx.length:                      # rule 2
            self._send_new(min(self.seg, self.tx.length - self.snd_nxt), now)
        elif self.sacked and start < self.sacked[-1][0]:         # rule 3
            self._resend_above_rxt(start, end, now)
        else:
            return False
        return True

    def _resend_above_rxt(self, start: int, end: int, now: float) -> None:
        """Resend the hole [start, end) at or above HighRxt, one segment at
        most, and move HighRxt past it; the bytes it skips are SACKed."""
        end = min(end, start + self.seg)
        self._sacked_below_rxt += start - self.high_rxt
        self.high_rxt = end
        self._resend(start, end, now)

    def _resend(self, start: int, end: int, now: float) -> None:
        self._emit_data(start, end - start, now)
        self.stats["retransmits"] += 1
        self._resends.append((start, end, self.snd_nxt))

    def _end_recovery(self) -> None:
        self.in_recovery = False
        self.high_rxt = self.snd_una
        self._sacked_below_rxt = 0
        self._resends.clear()
        self._relost.clear()

    # -- RTO --------------------------------------------------------------------------

    def _arm_rto(self, now: float) -> None:
        """Set the deadline to now + rto.  A wake-up is scheduled only when
        none is live or the deadline moved before it (after a backoff and a
        reset); the one it replaces is orphaned and does nothing."""
        self._rto_at = at = now + self.rto
        if self._rto_wake is None or at < self._rto_wake:
            self._rto_wake = at
            self.queue.schedule(at, self._on_rto)

    def _reset_rto(self, now: float) -> None:
        self.rto = self.RTO_BASE
        self._rto_at = None

    def _on_rto(self, now: float) -> None:
        if now != self._rto_wake or self.dead:
            return  # an orphaned wake-up, or a dead endpoint
        self._rto_wake = None
        if self._rto_at is None:
            return
        if self._rto_at > now:
            self._rto_wake = self._rto_at
            self.queue.schedule(self._rto_at, self._on_rto)
            return
        self._rto_at = None
        if (self.syn_sent and not self.established) or self.synack_unacked:
            self.syn_retries += 1
            if self.syn_retries > self.MAX_HANDSHAKE_RETRIES:
                self.dead = True
                self.app.on_reset(now)
                self._check_terminal()
                return
            self.rto = min(self.rto * 2, self.RTO_MAX)
            if self.synack_unacked:
                self._send_synack(now)
            else:
                self._send_syn(now)
            self._arm_rto(now)
            return
        data_outstanding = self.snd_una < self.snd_nxt
        fin_outstanding = self.fin_sent and not self.fin_acked
        if not data_outstanding and not fin_outstanding:
            return
        self.stats["rto_fires"] += 1
        self.rto = min(self.rto * 2, self.RTO_MAX)
        self.ssthresh = max(self.cwnd / 2, 2.0)
        self.cwnd = 1.0
        self._end_recovery()
        if data_outstanding:
            n = min(self.seg, self.snd_nxt - self.snd_una)
            self._emit_data(self.snd_una, n, now)
            self.stats["retransmits"] += 1
        else:
            self.fin_retries += 1
            if self.fin_retries > self.MAX_FIN_RETRIES:
                self.fin_acked = True  # give up; the peer state is gone
                self._check_terminal()
                return
            self._emit_fin(now)
        self._arm_rto(now)

    # -- receiver ------------------------------------------------------------------------

    def _seq_off(self, seq: int) -> int:
        """A peer's seq as an offset in the received stream, read against
        rcv_nxt (`unwrap`); below 0 it is stale."""
        return unwrap(seq - self.rcv_isn - 1, self.rcv_nxt)

    def _process_data(self, pkt: Packet, now: float) -> None:
        off = self._seq_off(pkt.seq)
        if off < 0:
            return
        data = pkt.payload
        if off < self.rcv_nxt:
            data = data[self.rcv_nxt - off:]
            off = self.rcv_nxt
        if data:
            if off == self.rcv_nxt:
                self._deliver(data, now)
                if self.ooo:
                    rest = take_fragments(self.ooo, self.rcv_nxt)
                    if rest:
                        self._deliver(rest, now)
            else:
                add_fragment(self.ooo, off, data)
        self._ack(now)

    def _deliver(self, chunk: bytes, now: float) -> None:
        self.rcv_nxt += len(chunk)
        self.stats["bytes_delivered"] += len(chunk)
        self.app.on_data(chunk, now)
        if self.peer_fin_off is not None and not self.peer_fin_rcvd \
                and self.rcv_nxt >= self.peer_fin_off:
            self.peer_fin_rcvd = True
            self.app.on_peer_fin(now)

    def _process_fin(self, pkt: Packet, now: float) -> None:
        fin_off = self._seq_off(pkt.seq) + len(pkt.payload)
        if fin_off < 0:
            return
        self.peer_fin_off = fin_off
        if self.rcv_nxt >= fin_off and not self.peer_fin_rcvd:
            self.peer_fin_rcvd = True
            self._ack(now)
            self.app.on_peer_fin(now)
        else:
            self._ack(now)

    def _ack_value(self) -> int:
        n = self.rcv_nxt
        if self.peer_fin_rcvd:
            n += 1
        return seq_add(seq_add(self.rcv_isn, 1), n)

    def _sack_option(self) -> TcpOptions:
        if not self.ooo:
            return EMPTY_OPTIONS
        base = seq_add(self.rcv_isn, 1)
        blocks = tuple((seq_add(base, off), seq_add(base, off + len(run)))
                       for off, run in self.ooo[:MAX_SACK_BLOCKS])
        return TcpOptions(None, False, blocks)  # (mss, sack_permitted, sack_blocks)

    def _ack(self, now: float) -> None:
        # once sent, the FIN occupies the sequence number after the data
        # (RFC 9293 §3.4), and later segments carry the one past it
        self.transmit(Packet(self.key,
                             seq_add(seq_add(self.isn, 1), self.snd_nxt + int(self.fin_sent)),
                             self._ack_value(), TcpFlags.ACK, 65535,
                             self._sack_option()), now)
        self.stats["acks_tx"] += 1
