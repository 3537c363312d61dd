"""Packet data model and 32-bit sequence arithmetic.

Everything else in the package trades in these types.  Packets are immutable
`NamedTuple`s: rewriting a header means building a new packet (positionally
on the per-packet paths, or with `_replace`), so they can be freely shared
across simulated cores.  No packet is ever turned into bytes: the simulator
passes these values from hop to hop.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from operator import itemgetter
from typing import NamedTuple, Optional

SEQ_MOD = 1 << 32
SEQ_HALF = 1 << 31
MAX_SACK_BLOCKS = 4

PROTO_TCP = 6


class MalformedPacketError(ValueError):
    """Raised by Packet.validate() for a packet whose fields no TCP header
    could carry."""


class TcpFlags:
    """TCP flag bits as plain ints: `Packet.flags` is an int, and masks
    like `TcpFlags.ACK | TcpFlags.PSH` stay ints."""

    SYN = 0x01
    ACK = 0x02
    FIN = 0x04
    RST = 0x08
    PSH = 0x10


# ---------------------------------------------------------------------------
# 32-bit sequence arithmetic, for the positions a packet carries.


def seq_add(a: int, b: int) -> int:
    return (a + b) & 0xFFFFFFFF


def seq_sub(a: int, b: int) -> int:
    return (a - b) & 0xFFFFFFFF


UNWRAP_BELOW = 1 << 24  # no window is scaled: nothing still in flight lies further back
UNWRAP_ABOVE = SEQ_MOD - UNWRAP_BELOW


def unwrap(x32: int, ref: int) -> int:
    """The offset congruent to x32 mod 2^32 in [ref - UNWRAP_BELOW, ref +
    UNWRAP_ABOVE): a packet's seq or ACK read against an offset of its stream."""
    lo = ref - UNWRAP_BELOW
    return lo + ((x32 - lo) & 0xFFFFFFFF)


class FlowKey(NamedTuple):
    """TCP 5-tuple.  NamedTuple gives hashing and a total order for free."""

    src_addr: int
    dst_addr: int
    src_port: int
    dst_port: int
    proto: int = PROTO_TCP

    def reverse(self) -> "FlowKey":
        return FlowKey(self.dst_addr, self.src_addr, self.dst_port,
                       self.src_port, self.proto)

    def pack(self) -> int:
        """Pack into a 104-bit int (used by the connection table's hashing)."""
        return ((self.src_addr << 72) | (self.dst_addr << 40)
                | (self.src_port << 24) | (self.dst_port << 8) | self.proto)

    @staticmethod
    def unpack(v: int) -> "FlowKey":
        return FlowKey((v >> 72) & 0xFFFFFFFF, (v >> 40) & 0xFFFFFFFF,
                       (v >> 24) & 0xFFFF, (v >> 8) & 0xFFFF, v & 0xFF)


class TcpOptions(NamedTuple):
    mss: Optional[int] = None
    sack_permitted: bool = False
    sack_blocks: tuple[tuple[int, int], ...] = ()


EMPTY_OPTIONS = TcpOptions()


class Packet(NamedTuple):
    """One simplified TCP/IP datagram.  Being a tuple, a packet equals any
    tuple with the same items and can be unpacked: compare packets only
    with packets.

    Invariants (checked by validate()):
      * non-empty payload implies SYN and RST are clear
      * every SACK block satisfies left < right in wrapping order
    """

    key: FlowKey
    seq: int = 0
    ack: int = 0
    flags: int = 0
    window: int = 65535
    options: TcpOptions = EMPTY_OPTIONS
    payload: bytes = b""

    def validate(self) -> None:
        if not (0 <= self.seq < SEQ_MOD and 0 <= self.ack < SEQ_MOD):
            raise MalformedPacketError("seq/ack out of 32-bit range")
        if not (0 <= self.window < (1 << 16)):
            raise MalformedPacketError("window out of 16-bit range")
        if self.payload and (self.flags & (TcpFlags.SYN | TcpFlags.RST)):
            raise MalformedPacketError("payload on SYN/RST packet")
        if len(self.options.sack_blocks) > MAX_SACK_BLOCKS:
            raise MalformedPacketError("too many SACK blocks")
        for l, r in self.options.sack_blocks:
            if l == r or seq_sub(r, l) >= SEQ_HALF:
                raise MalformedPacketError(f"SACK block [{l},{r}) not ordered")
        if self.options.mss is not None and not (0 < self.options.mss < (1 << 16)):
            raise MalformedPacketError("MSS out of 16-bit range")

    # Convenience predicates; the per-packet paths (SpliceAgent.handle_packet,
    # MiniTcpEndpoint.on_segment) test flag bits directly.
    @property
    def syn(self) -> bool:
        return bool(self.flags & TcpFlags.SYN)

    @property
    def fin(self) -> bool:
        return bool(self.flags & TcpFlags.FIN)

    @property
    def rst(self) -> bool:
        return bool(self.flags & TcpFlags.RST)

    def seq_end(self) -> int:
        """Sequence number after this segment (payload plus SYN/FIN)."""
        n = len(self.payload)
        if self.flags & (TcpFlags.SYN | TcpFlags.FIN):
            n += 1
        return seq_add(self.seq, n)


# ---------------------------------------------------------------------------
# Out-of-order bytes, as a receiver keeps them: a list of (offset, bytes)
# runs, sorted, disjoint and not touching.  The agent's head buffers and the
# endpoints' receivers share these two functions.


def _run_end(run: tuple[int, bytes]) -> int:
    return run[0] + len(run[1])


_run_start = itemgetter(0)


def add_fragment(frags: list[tuple[int, bytes]], off: int, chunk: bytes) -> None:
    """Merge `chunk`, at stream offset `off`, into the runs `frags`: it
    joins every run it overlaps or touches."""
    hi = off + len(chunk)
    i = bisect_left(frags, off, key=_run_end)  # the first run ending at or past off
    j = i
    while j < len(frags) and frags[j][0] <= hi:
        j += 1
    if i < j:
        first_off, first = frags[i]
        last_off, last = frags[j - 1]
        chunk = first[:max(0, off - first_off)] + chunk + last[hi - last_off:]
        off = min(off, first_off)
    frags[i:j] = [(off, chunk)]


def take_fragments(frags: list[tuple[int, bytes]], end: int) -> bytes:
    """Remove the runs that start at or below `end`, where a stream's
    contiguous bytes end, and return the bytes they hold past it.  Runs do
    not touch, so only the last of them can reach past `end`."""
    n = bisect_right(frags, end, key=_run_start)
    if not n:
        return b""
    off, run = frags[n - 1]
    del frags[:n]
    return run[end - off:]


def addr_str(addr: int) -> str:
    return ".".join(str((addr >> s) & 0xFF) for s in (24, 16, 8, 0))
