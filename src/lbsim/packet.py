"""Packet data model and 32-bit sequence arithmetic.

Everything else in the package trades in these types.  Packets are immutable
`NamedTuple`s: rewriting a header means building a new packet (positionally
on the per-packet paths, or with `_replace`), so they can be freely shared
across simulated cores.  No packet is ever turned into bytes: the simulator
passes these values from hop to hop.
"""

from __future__ import annotations

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


def addr_str(addr: int) -> str:
    return ".".join(str((addr >> s) & 0xFF) for s in (24, 16, 8, 0))
