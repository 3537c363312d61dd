"""Packet data model, wrapping 32-bit sequence arithmetic, and the trace codec.

Everything else in the package trades in these types.  Packets are immutable
values: rewriting a header means building a new packet (dataclasses.replace),
so they can be freely shared across simulated cores.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, replace
from typing import Iterable, NamedTuple, Optional

SEQ_MOD = 1 << 32
SEQ_HALF = 1 << 31
MAX_SACK_BLOCKS = 4

PROTO_TCP = 6


class MalformedPacketError(ValueError):
    """Raised when decode() is fed bytes that are not a valid encoded packet."""


class TcpFlags:
    """TCP flag bits as plain ints: `Packet.flags` is an int, and masks
    like `TcpFlags.ACK | TcpFlags.PSH` stay ints."""

    SYN = 0x01
    ACK = 0x02
    FIN = 0x04
    RST = 0x08
    PSH = 0x10


# ---------------------------------------------------------------------------
# Wrapping 32-bit sequence arithmetic (serial-number order).


def seq_add(a: int, b: int) -> int:
    return (a + b) & 0xFFFFFFFF


def seq_sub(a: int, b: int) -> int:
    return (a - b) & 0xFFFFFFFF


def seq_lt(a: int, b: int) -> bool:
    """True iff a precedes b in modulo-2^32 serial-number order."""
    return a != b and seq_sub(b, a) < SEQ_HALF


def seq_le(a: int, b: int) -> bool:
    return a == b or seq_lt(a, b)


def seq_gt(a: int, b: int) -> bool:
    return seq_lt(b, a)

def seq_ge(a: int, b: int) -> bool:
    return a == b or seq_lt(b, a)


def seq_max(a: int, b: int) -> int:
    return b if seq_lt(a, b) else a


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


@dataclass(frozen=True, slots=True)
class TcpOptions:
    mss: Optional[int] = None
    sack_permitted: bool = False
    sack_blocks: tuple[tuple[int, int], ...] = ()

    def __bool__(self) -> bool:
        return bool(self.mss is not None or self.sack_permitted or self.sack_blocks)


EMPTY_OPTIONS = TcpOptions()


@dataclass(frozen=True, slots=True)
class Packet:
    """One simplified TCP/IP datagram.

    Invariants (checked by validate(), enforced by the codec):
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
            if not seq_lt(l, r):
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

    def with_(self, **kw) -> "Packet":
        return replace(self, **kw)


# ---------------------------------------------------------------------------
# Binary codec.  Fixed 32-byte big-endian header (`_HDR`), then TLV
# options, then payload.

_HDR = struct.Struct(">IIHHBBHIIIHH")
HEADER_SIZE = _HDR.size  # 32
assert HEADER_SIZE == 32

_OPT_MSS = 1
_OPT_SACK_PERMITTED = 2
_OPT_SACK_BLOCKS = 3


def encode(p: Packet) -> bytes:
    p.validate()
    opts = bytearray()
    if p.options.mss is not None:
        opts += struct.pack(">BBH", _OPT_MSS, 2, p.options.mss)
    if p.options.sack_permitted:
        opts += struct.pack(">BB", _OPT_SACK_PERMITTED, 0)
    if p.options.sack_blocks:
        opts += struct.pack(">BB", _OPT_SACK_BLOCKS, 8 * len(p.options.sack_blocks))
        for l, r in p.options.sack_blocks:
            opts += struct.pack(">II", l, r)
    hdr = _HDR.pack(p.key.src_addr, p.key.dst_addr, p.key.src_port,
                    p.key.dst_port, p.key.proto, p.flags, p.window,
                    p.seq, p.ack, len(p.payload), len(opts), 0)
    return hdr + bytes(opts) + p.payload


def decode(buf: bytes) -> Packet:
    if len(buf) < HEADER_SIZE:
        raise MalformedPacketError(f"short packet: {len(buf)} bytes")
    (src, dst, sport, dport, proto, flags, window,
     seq, ack, plen, optlen, _rsvd) = _HDR.unpack_from(buf)
    if len(buf) != HEADER_SIZE + optlen + plen:
        raise MalformedPacketError("length fields disagree with buffer size")
    if flags & ~0x1F:
        raise MalformedPacketError(f"unknown flag bits 0x{flags:02x}")
    mss = None
    sack_permitted = False
    sack_blocks: tuple[tuple[int, int], ...] = ()
    off, end = HEADER_SIZE, HEADER_SIZE + optlen
    while off < end:
        if end - off < 2:
            raise MalformedPacketError("truncated option header")
        t, ln = buf[off], buf[off + 1]
        off += 2
        if end - off < ln:
            raise MalformedPacketError("truncated option value")
        if t == _OPT_MSS:
            if ln != 2:
                raise MalformedPacketError("bad MSS option length")
            (mss,) = struct.unpack_from(">H", buf, off)
        elif t == _OPT_SACK_PERMITTED:
            if ln != 0:
                raise MalformedPacketError("bad SACK-permitted option length")
            sack_permitted = True
        elif t == _OPT_SACK_BLOCKS:
            if ln % 8 or ln // 8 > MAX_SACK_BLOCKS:
                raise MalformedPacketError("bad SACK blocks option length")
            sack_blocks = tuple(struct.unpack_from(">II", buf, off + 8 * i)
                                for i in range(ln // 8))
        else:
            raise MalformedPacketError(f"unknown option type {t}")
        off += ln
    pkt = Packet(key=FlowKey(src, dst, sport, dport, proto), seq=seq, ack=ack,
                 flags=flags, window=window,
                 options=TcpOptions(mss, sack_permitted, sack_blocks),
                 payload=bytes(buf[end:end + plen]))
    pkt.validate()
    return pkt


# ---------------------------------------------------------------------------
# Trace files: u64le record count, then per record u64le timestamp (ns),
# u32le length, encoded packet bytes.


def write_trace(path, records: Iterable[tuple[int, Packet]]) -> int:
    recs = [(ts, encode(p)) for ts, p in records]
    with open(path, "wb") as f:
        f.write(struct.pack("<Q", len(recs)))
        for ts, blob in recs:
            f.write(struct.pack("<QI", ts, len(blob)))
            f.write(blob)
    return len(recs)


def read_trace(path) -> list[tuple[int, Packet]]:
    with open(path, "rb") as f:
        data = f.read()
    if len(data) < 8:
        raise MalformedPacketError("trace shorter than its header")
    (count,) = struct.unpack_from("<Q", data)
    out = []
    off = 8
    for _ in range(count):
        if len(data) - off < 12:
            raise MalformedPacketError("truncated trace record header")
        ts, ln = struct.unpack_from("<QI", data, off)
        off += 12
        if len(data) - off < ln:
            raise MalformedPacketError("truncated trace record body")
        out.append((ts, decode(data[off:off + ln])))
        off += ln
    if off != len(data):
        raise MalformedPacketError("trailing bytes after last trace record")
    return out


def addr_str(addr: int) -> str:
    return ".".join(str((addr >> s) & 0xFF) for s in (24, 16, 8, 0))


def parse_addr(text: str) -> int:
    parts = text.strip().split(".")
    if len(parts) != 4 or not all(p.isdigit() and 0 <= int(p) <= 255 for p in parts):
        raise ValueError(f"bad IPv4 address {text!r}")
    a, b, c, d = (int(p) for p in parts)
    return (a << 24) | (b << 16) | (c << 8) | d
