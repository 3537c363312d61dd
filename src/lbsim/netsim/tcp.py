"""Miniature TCP endpoint: reliability, SACK, fast retransmit, RTO, and a
NewReno-shaped congestion window.  No RTT estimation (fixed RTO base with
exponential backoff), no window scaling (the advertised window is ignored;
cwnd is the limit), receive buffer unbounded.

The transmit stream can mix literal bytes with generated spans, so multi-
megabyte response bodies never materialize wholesale: segments are
rendered from (offset, length) on demand, retransmissions included.

Loss recovery keeps its SACK state incrementally instead of rescanning the
window on every ACK.  The sender's scoreboard, `sacked`, is a sorted list
of disjoint, non-touching [lo, hi) blocks; a recovery resend walks it with
one pointer, crosses runs of already-resent holes in one jump each, and
stops at the first hole not yet resent (the idea of RFC 6675's NextSeg,
without its IsLost rule: every unSACKed segment below snd_nxt counts as a
hole).  The receiver keeps the merged [lo, hi) spans of its out-of-order
segments, `ooo_spans`, next to the segments themselves; the SACK option is
their first four, and a fold drops the spans it delivers.
"""

from __future__ import annotations

from bisect import bisect_left
from operator import itemgetter
from typing import Callable, Optional

from ..packet import (
    MAX_SACK_BLOCKS,
    FlowKey,
    Packet,
    TcpFlags,
    TcpOptions,
    seq_add,
    seq_sub,
)

_STALE_WINDOW = 1 << 30  # offsets beyond this are stale/corrupt; ignore
_span_hi = itemgetter(1)


class TxStream:
    """Outbound byte stream assembled from literal and generated chunks."""

    def __init__(self):
        self._chunks: list[tuple[int, int, object]] = []  # (start, end, src)
        self.length = 0

    def append_bytes(self, data: bytes) -> None:
        self._chunks.append((self.length, self.length + len(data), data))
        self.length += len(data)

    def append_generated(self, gen: Callable[[int, int], bytes], n: int) -> None:
        self._chunks.append((self.length, self.length + n, gen))
        self.length += n

    def read(self, off: int, n: int) -> bytes:
        end = min(off + n, self.length)
        parts = []
        for start, stop, src in self._chunks:
            if stop <= off or start >= end:
                continue
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
        self.in_recovery = False
        self.recover = 0
        self.sacked: list[list[int]] = []     # disjoint sorted [lo, hi) offsets
        # positions resent in this recovery: each maps to a later position p
        # such that every seg-stride position in [key, p) is resent too
        self._retx_marks: dict[int, int] = {}

        # receiver state
        self.rcv_isn = 0
        self.rcv_nxt = 0
        self.ooo: dict[int, bytes] = {}       # out-of-order segments by offset
        self.ooo_spans: list[list[int]] = []  # merged [lo, hi) of ooo, sorted
        self.peer_fin_off: Optional[int] = None
        self.peer_fin_rcvd = False

        self.established = False
        self.syn_sent = False
        self.fin_pending = False
        self.fin_sent = False
        self.fin_acked = False
        self.fin_retries = 0
        self.syn_retries = 0
        self.dead = False
        self.terminal = False

        self.rto = self.RTO_BASE
        self._rto_gen = 0
        self._rto_armed = False

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
        """Server side: adopt the peer ISN from its SYN and answer."""
        self.rcv_isn = syn.seq
        if syn.options.mss:
            self.seg = min(self.mss, syn.options.mss)
        self.established = True
        self._send_synack(now)

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
        window = int(self.cwnd * self.seg)
        sent = False
        while self.snd_nxt < self.tx.length and self.snd_nxt - self.snd_una < window:
            n = min(self.seg, self.tx.length - self.snd_nxt,
                    window - (self.snd_nxt - self.snd_una))
            if n <= 0:
                break
            self._emit_data(self.snd_nxt, n, now)
            self.snd_nxt += n
            sent = True
        if (self.fin_pending and not self.fin_sent
                and self.snd_nxt == self.tx.length
                and self.snd_una == self.snd_nxt):
            self._emit_fin(now)
            sent = True
        if sent:
            self._arm_rto(now)

    def _emit_data(self, off: int, n: int, now: float) -> None:
        payload = self.tx.read(off, n)
        self.transmit(Packet(key=self.key, seq=seq_add(seq_add(self.isn, 1), off),
                             ack=self._ack_value(), flags=TcpFlags.ACK | TcpFlags.PSH,
                             payload=payload), now)
        self.stats["segments_tx"] += 1

    def _emit_fin(self, now: float) -> None:
        self.fin_sent = True
        self.transmit(Packet(key=self.key,
                             seq=seq_add(seq_add(self.isn, 1), self.tx.length),
                             ack=self._ack_value(), flags=TcpFlags.FIN | TcpFlags.ACK),
                      now)

    def _process_ack(self, pkt: Packet, now: float) -> None:
        ack_off = seq_sub(pkt.ack, seq_add(self.isn, 1))
        if ack_off > _STALE_WINDOW:
            return
        if self.fin_sent and ack_off >= self.tx.length + 1:
            if not self.fin_acked:
                self.fin_acked = True
                self.snd_una = self.tx.length
                self._reset_rto(now)
            return
        if ack_off > self.snd_nxt:
            return
        for l, r in pkt.options.sack_blocks:
            lo = seq_sub(l, seq_add(self.isn, 1))
            hi = seq_sub(r, seq_add(self.isn, 1))
            if lo < hi <= _STALE_WINDOW:
                self._merge_sacked(lo, hi)

        if ack_off > self.snd_una:
            self.snd_una = ack_off
            self.dup_acks = 0
            self._reset_rto(now)
            self.sacked = [[lo, hi] for lo, hi in self.sacked if hi > ack_off]
            if self.in_recovery:
                if ack_off >= self.recover:
                    self.in_recovery = False
                    self.cwnd = max(self.ssthresh, 2.0)
                    self._retx_marks.clear()
                else:
                    self._retransmit_hole(now)  # partial ACK: next hole
            elif self.cwnd < self.ssthresh:
                self.cwnd = min(self.cwnd + 1, self.MAX_CWND)
            else:
                self.cwnd = min(self.cwnd + 1 / self.cwnd, self.MAX_CWND)
            if (self.snd_una < self.snd_nxt) or (self.fin_sent and not self.fin_acked):
                self._arm_rto(now)
            self._pump(now)
            return

        outstanding = self.snd_una < self.snd_nxt or (self.fin_sent and not self.fin_acked)
        if not pkt.payload and not pkt.fin and ack_off == self.snd_una and outstanding:
            self.dup_acks += 1
            if not self.in_recovery and self.dup_acks >= 3:
                self._fast_retransmit(now)
            elif self.in_recovery:
                self.cwnd = min(self.cwnd + 1, self.MAX_CWND)
                self._retransmit_hole(now)
                self._pump(now)

    def _merge_sacked(self, lo: int, hi: int) -> None:
        spans = [[lo, hi]]
        for l, r in self.sacked:
            if r < lo or l > hi:
                spans.append([l, r])
            else:
                spans[0][0] = min(spans[0][0], l)
                spans[0][1] = max(spans[0][1], r)
        self.sacked = sorted(spans)

    def _fast_retransmit(self, now: float) -> None:
        self.ssthresh = max(self.cwnd / 2, 2.0)
        self.cwnd = self.ssthresh + 3
        self.in_recovery = True
        self.recover = self.snd_nxt
        self._retx_marks.clear()
        self.stats["fast_retransmits"] += 1
        self._retransmit_hole(now)
        self._arm_rto(now)

    def _retransmit_hole(self, now: float) -> None:
        """Resend the first hole not yet resent in this recovery.  The holes
        are the positions a walk from snd_una to snd_nxt visits: it jumps
        over a SACK block that covers it and otherwise steps by seg; the
        ones in `_retx_marks` were resent.  `sacked` is sorted and disjoint,
        so one block pointer keeps up with the walk, and runs of resent
        holes are crossed in one jump."""
        blocks, marks, seg = self.sacked, self._retx_marks, self.seg
        i, n_blocks = 0, len(blocks)
        pos = self.snd_una
        while pos < self.snd_nxt:
            while i < n_blocks and blocks[i][1] <= pos:
                i += 1
            if i < n_blocks and blocks[i][0] <= pos:
                pos = blocks[i][1]
                continue
            if pos not in marks:
                marks[pos] = pos + seg
                n = min(seg, self.snd_nxt - pos)
                self._emit_data(pos, n, now)
                self.stats["retransmits"] += 1
                return
            end = self._resent_run_end(pos)
            if i < n_blocks and end > blocks[i][0]:
                # stop at the walk's first position in or past the next block
                end = pos - (pos - blocks[i][0]) // seg * seg
            pos = end
        # everything below snd_nxt is SACKed; if the FIN is what is missing,
        # re-emit it
        if self.fin_sent and not self.fin_acked and self.snd_una == self.tx.length:
            self._emit_fin(now)

    def _resent_run_end(self, pos: int) -> int:
        """The first position past the run of resent holes that starts at
        `pos`, stepping by seg; links on the way are shortened to it."""
        marks = self._retx_marks
        path = []
        while pos in marks:
            path.append(pos)
            pos = marks[pos]
        for p in path:
            marks[p] = pos
        return pos

    # -- RTO --------------------------------------------------------------------------

    def _arm_rto(self, now: float) -> None:
        self._rto_gen += 1
        self._rto_armed = True
        gen = self._rto_gen
        self.queue.schedule(now + self.rto, self._on_rto, gen)

    def _reset_rto(self, now: float) -> None:
        self.rto = self.RTO_BASE
        self._rto_gen += 1
        self._rto_armed = False

    def _on_rto(self, now: float, gen: int) -> None:
        if gen != self._rto_gen or self.dead:
            return
        self._rto_armed = False
        if self.syn_sent and not self.established:
            self.syn_retries += 1
            if self.syn_retries > self.MAX_HANDSHAKE_RETRIES:
                self.dead = True
                self.app.on_reset(now)
                self._check_terminal()
                return
            self.rto = min(self.rto * 2, self.RTO_MAX)
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
        self.in_recovery = False
        self._retx_marks.clear()
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

    def _process_data(self, pkt: Packet, now: float) -> None:
        off = seq_sub(pkt.seq, seq_add(self.rcv_isn, 1))
        if off > _STALE_WINDOW:
            return
        data = pkt.payload
        if off < self.rcv_nxt:
            data = data[self.rcv_nxt - off:]
            off = self.rcv_nxt
        if data:
            if off == self.rcv_nxt:
                self._deliver(data, now)
                self._fold_ooo(now)
            elif off not in self.ooo or len(self.ooo[off]) < len(data):
                self.ooo[off] = data
                self._add_span(off, off + len(data))
        self._ack(now)

    def _add_span(self, lo: int, hi: int) -> None:
        """Merge [lo, hi) into `ooo_spans`; touching spans merge too."""
        spans = self.ooo_spans
        i = bisect_left(spans, lo, key=_span_hi)  # first span with hi >= lo
        j = i
        while j < len(spans) and spans[j][0] <= hi:
            j += 1
        if i < j:
            lo = min(lo, spans[i][0])
            hi = max(hi, spans[j - 1][1])
        spans[i:j] = [[lo, hi]]

    def _fold_ooo(self, now: float) -> None:
        spans = self.ooo_spans
        if not spans or spans[0][0] > self.rcv_nxt:
            return
        # Delivery only moves rcv_nxt forward, so one ascending pass folds
        # every segment that becomes in-order.
        for o in sorted(self.ooo):
            if o > self.rcv_nxt:
                break
            chunk = self.ooo.pop(o)
            if o + len(chunk) > self.rcv_nxt:
                self._deliver(chunk[self.rcv_nxt - o:], now)
        # The folded spans are the ones that now end at or below rcv_nxt;
        # the rest start above it, since spans neither overlap nor touch.
        i = 0
        while i < len(spans) and spans[i][1] <= self.rcv_nxt:
            i += 1
        del spans[:i]

    def _deliver(self, chunk: bytes, now: float) -> None:
        self.rcv_nxt += len(chunk)
        self.stats["bytes_delivered"] += len(chunk)
        self.app.on_data(chunk, now)
        if self.peer_fin_off is not None and not self.peer_fin_rcvd \
                and self.rcv_nxt >= self.peer_fin_off:
            self.peer_fin_rcvd = True
            self.app.on_peer_fin(now)

    def _process_fin(self, pkt: Packet, now: float) -> None:
        fin_off = seq_sub(pkt.seq_end(), seq_add(self.rcv_isn, 1)) - 1
        if fin_off > _STALE_WINDOW:
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
        if not self.ooo_spans:
            return TcpOptions()
        base = seq_add(self.rcv_isn, 1)
        blocks = tuple((seq_add(base, lo), seq_add(base, hi))
                       for lo, hi in self.ooo_spans[:MAX_SACK_BLOCKS])
        return TcpOptions(sack_blocks=blocks)

    def _ack(self, now: float) -> None:
        self.transmit(Packet(key=self.key,
                             seq=seq_add(seq_add(self.isn, 1), self.snd_nxt),
                             ack=self._ack_value(), flags=TcpFlags.ACK,
                             options=self._sack_option()), now)
        self.stats["acks_tx"] += 1
