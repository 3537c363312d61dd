"""The lightweight forwarding agent: TCP splicing with header insertion.

A connection is bridged, not terminated: after the backend handshake the
agent forwards packets between the two TCP connections while rewriting
sequence and ACK numbers.  Inserted header bytes shift the two sequence
spaces apart.  An entry keeps a base shift, the bytes of insertions that can
no longer affect a packet, plus a short list of live insertion points; every
mapping starts from the base and scans the live points.  A point is folded
into the base once no packet can still fall below its end (see
InsertionPoint), so a keep-alive connection holds at most the point of the
request in flight, however many requests it carries.

The agent buffers only what it must: a request head until it is complete
(the first one until the backend answers), and the inserted bytes until the
server ACKs them.  Everything else is forwarded as it arrives, and endpoint
TCP recovers it.  The only payload this agent ever retransmits is inserted
bytes, and only when the client resends the bytes around them: a client
segment that covers an unACKed insertion's point carries it again
(`_emit_spliced`).

The request parser's state is the entry's `head_buf`: while it is set, a
head is open and its bytes collect there; once the head is complete, it
leaves with the bytes buffered after it, and with no `head_buf` the agent
passes a body through up to `body_end`.  Every head, the first included,
takes that one path.  A head buffer, request or response, has one bound:
it clips what it is given at REQUEST_HEAD_CAP bytes past its base, and a
head is over the cap only when the buffer is full with no head end in it:
a request's connection is then reset, and a response is never offloaded.
The bytes a completing segment carries past the cap are not lost; the
walk goes on with them after the head.  A head's body length follows RFC
9112 section 6.3: a request with any Transfer-Encoding or an invalid
Content-Length resets the connection, and a response framed so is never
offloaded.

The client bytes one packet releases leave as one run of segments that is
contiguous at the server: the client bytes with each insertion woven in
before its head's final CRLF, cut only at eff_mss.  A short request and
its insertion are one segment, and the server ACKs it once.

Positions.  Every position an entry keeps is an unbounded offset from the
byte after an ISN, in the client stream (`fwd_hi`, `body_end`, the head
buffer, `sender_off`, `client_fin`), the receiver stream, which is the
client's with the insertions woven in (`recv_start`, `recv_end`), or the
server stream (`client_acked`, `relayed_hi`, `fold_after`, `server_fin`,
the response's), which the client sees shifted by a constant.  `unwrap`
reads a packet's seq or ACK against a reference no later position lies far
below: `fwd_hi` for client seqs, `fwd_hi + total_inserted` for server ACKs
and SACK edges, `client_acked` for server seqs and client ACKs.  Modulo-2^32
arithmetic remains only there, where a packet is built, and in the constant
deltas the engine's rules share with the worker's rewrite.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass, field
from enum import Enum, auto
from typing import Callable, Optional, Sequence

from .conntable import CuckooTable, TableFullError, mix64
from .packet import (
    EMPTY_OPTIONS,
    FlowKey,
    Packet,
    TcpFlags,
    TcpOptions,
    add_fragment,
    addr_str,
    seq_add,
    seq_sub,
    take_fragments,
    unwrap,
)

_SYN_ACK_RST = TcpFlags.SYN | TcpFlags.ACK | TcpFlags.RST
_SYN_RST = TcpFlags.SYN | TcpFlags.RST

REQUEST_HEAD_CAP = 16384  # bytes a head buffer holds; a head must end within them
MAX_LENGTH_DIGITS = 18  # significant digits of a valid Content-Length; every such value fits 63 bits
HEAD_TERMINATOR = b"\r\n\r\n"


class SpliceState(Enum):
    FRONT_ESTABLISHED = auto()
    SYN_SENT = auto()
    ESTABLISHED = auto()


@dataclass
class InsertionPoint:
    """One content insertion into the client-to-server stream.

    sender_off is a client-stream offset.  The receiver sees the inserted
    bytes at [recv_start, recv_end) where recv_start = sender_off + cum_before.

    The bytes are held until a server ACK reaches recv_end, for the one
    path that resends them: a client segment that covers sender_off again
    before then carries them again (`_emit_spliced`).  When a server
    ACK first passes recv_end, fold_after records the server-stream offset
    one past the highest server byte the agent has relayed or holds, or the
    client's ACK if that is higher.  Every server byte at or beyond it
    reached the client with an ACK at or past sender_off: through the
    agent, it followed that server ACK on a FIFO link and carries a higher
    ACK (a hold keeps the worker's packets in arrival order and releases
    them before any hairpin of their flow, see offload.py); through the
    flow engine, it carries the ACK of the whole request, as the server
    rule hits only packets that ACK the forwarded request's end.
    So once the client ACKs such a byte, it has taken in an ACK at or past
    sender_off, and a TCP client sends no later segment that starts below
    it; server ACKs only grow, so none falls at or below recv_end again.
    The point can no longer affect a packet and is folded into the entry's
    base shift, unless packets held behind the offload latch, sent before
    that client ACK, still wait to be replayed.  The server ACK has to pass
    recv_end, not reach it: one exactly at recv_end is suppressed
    (classify_ack's "inside"), so the client may still resend the request
    from its start, and a later ACK there must still be suppressed.
    """

    sender_off: int
    data: Optional[bytes]              # None once the server ACKed recv_end
    length: int
    cum_before: int
    sent: bool = False
    fold_after: Optional[int] = None   # server-stream offset, see above

    @property
    def acked(self) -> bool:
        return self.data is None

    @property
    def recv_start(self) -> int:
        return self.sender_off + self.cum_before

    @property
    def recv_end(self) -> int:
        return self.sender_off + self.cum_before + self.length


# ---------------------------------------------------------------------------
# Pure mapping helpers, on stream offsets.  `base` is the byte count of
# folded insertions; the answers hold for offsets past the folded points,
# which are the only ones that still occur.


def map_pos_c2s(points: Sequence[InsertionPoint], p: int, base: int = 0) -> int:
    """Client-stream offset -> receiver-stream offset.  Inserted bytes at
    offsets <= p precede client byte p."""
    shift = base
    for pt in points:
        if pt.sender_off <= p:
            shift += pt.length
        else:
            break
    return p + shift


def client_bytes_below(points: Sequence[InsertionPoint], a: int, base: int = 0) -> int:
    """Count of client bytes among receiver-stream positions [0, a)."""
    inserted = base
    for pt in points:
        if pt.recv_end <= a:
            inserted += pt.length
        elif pt.recv_start < a:
            inserted += a - pt.recv_start
        else:
            break
    return a - inserted


def classify_ack(points: Sequence[InsertionPoint], a: int,
                 base: int = 0) -> tuple[str, int, Optional[int]]:
    """Classify a receiver-space cumulative ack offset against the inserted
    regions: ("forward" | "at_start" | "inside", forwarded_offset, index
    into points).  Mirrors the contract of oracles.classify_ack."""
    inserted = base
    for idx, pt in enumerate(points):
        s, e = pt.recv_start, pt.recv_end
        if a == s:
            return "at_start", a - inserted, idx
        if s < a <= e:
            return "inside", s - inserted, idx
        if a < s:
            break
        inserted += pt.length
    return "forward", a - inserted, None


def map_sack_block_s2c(points: Sequence[InsertionPoint], left: int, right: int,
                       base: int = 0) -> Optional[tuple[int, int]]:
    """Receiver-space SACK block -> client-space block; None when the block
    covers inserted bytes only."""
    lo = client_bytes_below(points, left, base)
    hi = client_bytes_below(points, right, base)
    if lo == hi:
        return None
    return lo, hi


class FramingError(ValueError):
    """A message head whose body length RFC 9112 section 6.3 does not give
    by a valid Content-Length."""


class ShardViolation(RuntimeError):
    """A packet of a flow reached a worker other than the entry's owner:
    the port-shard steering and the agent disagree."""


class StreamBuf:
    """Byte reassembly at a fixed base offset: a contiguous prefix plus
    out-of-order runs past it (`add_fragment`).  Every chunk is clipped to
    [base, base + cap), so the prefix and the runs hold at most cap bytes
    together; duplicates and overlaps are tolerated.  `full` tells when the
    prefix holds all cap bytes: a head with no end in it is over the cap."""

    def __init__(self, base: int = 0, cap: Optional[int] = None):
        self.base = base
        self.data = bytearray()
        self.fragments: list[tuple[int, bytes]] = []  # (offset, bytes) runs
        self.cap = cap

    @property
    def end(self) -> int:
        return self.base + len(self.data)

    @property
    def full(self) -> bool:
        return self.cap is not None and len(self.data) >= self.cap

    def add(self, off: int, chunk: bytes) -> None:
        end = self.end
        lo, hi = max(off, end), off + len(chunk)
        if self.cap is not None:
            hi = min(hi, self.base + self.cap)
        if hi <= lo:
            return
        chunk = chunk[lo - off:hi - off]
        if lo == end:
            self.data += chunk
            self.data += take_fragments(self.fragments, self.end)
        else:
            add_fragment(self.fragments, lo, chunk)


# ---------------------------------------------------------------------------
# Routing configuration.


@dataclass(frozen=True)
class HeaderEdit:
    name: str
    value: str  # literal, or "$client_addr" for the client's address

    def render(self, client_addr: int) -> bytes:
        value = self.value.replace("$client_addr", addr_str(client_addr))
        return f"{self.name}: {value}\r\n".encode()


@dataclass(frozen=True)
class Backend:
    addr: int
    port: int


@dataclass(frozen=True)
class RouteRule:
    prefix: bytes
    pool: str
    edits: tuple[HeaderEdit, ...] = ()


class RouteTable:
    """Longest-prefix URL routing over configured pools.  A flow's backend
    is a seeded hash of its client's address and port, as in Maglev
    (Eisenbud et al., NSDI 2016): no routing state changes after __init__."""

    def __init__(self, rules: Sequence[RouteRule], pools: dict[str, Sequence[Backend]],
                 default_pool: str, seed: int = 0):
        if default_pool not in pools:
            raise ValueError(f"default pool {default_pool!r} not defined")
        for rule in rules:
            if rule.pool not in pools:
                raise ValueError(f"rule {rule.prefix!r} names unknown pool {rule.pool!r}")
        for name, members in pools.items():
            if not members:
                raise ValueError(f"pool {name!r} is empty")
        self.rules = sorted(rules, key=lambda r: -len(r.prefix))  # longest first, stable
        self.pools = {name: list(members) for name, members in pools.items()}
        self.default_pool = default_pool
        self.seed = seed

    def match(self, path: bytes) -> RouteRule:
        for rule in self.rules:
            if path.startswith(rule.prefix):
                return rule
        return RouteRule(prefix=b"", pool=self.default_pool)

    def pick_backend(self, pool: str, key: FlowKey) -> Backend:
        members = self.pools[pool]
        # mix64 reads 64 bits: the address and port fit them, key.pack() does not
        h = mix64(((key.src_addr << 16) | key.src_port) ^ self.seed)
        return members[h % len(members)]


# ---------------------------------------------------------------------------
# SYN cookies: [24-bit keyed hash | 3-bit MSS index | 5-bit epoch] packed
# into the ISN, validated against the current and previous epoch.

COOKIE_MSS_TABLE = (536, 1220, 1460, 4380, 8960, 16384, 32768, 65000)
COOKIE_EPOCH_SECONDS = 64.0


class SynCookie:
    def __init__(self, secret: bytes):
        self.secret = secret

    @staticmethod
    def _epoch(now: float) -> int:
        return int(now // COOKIE_EPOCH_SECONDS)

    def _digest(self, key: FlowKey, epoch: int) -> int:
        h = hashlib.blake2b(
            struct.pack(">IIHHBq", key.src_addr, key.dst_addr, key.src_port,
                        key.dst_port, key.proto, epoch),
            key=self.secret, digest_size=3)
        return int.from_bytes(h.digest(), "big")

    @staticmethod
    def _mss_index(mss: Optional[int]) -> int:
        if mss is None:
            return 0
        best = 0
        for i, v in enumerate(COOKIE_MSS_TABLE):
            if v <= mss:
                best = i
        return best

    def make(self, key: FlowKey, mss: Optional[int], now: float) -> int:
        epoch = self._epoch(now)
        return ((self._digest(key, epoch) << 8)
                | (self._mss_index(mss) << 5)
                | (epoch & 0x1F))

    def check(self, key: FlowKey, isn: int, now: float) -> Optional[int]:
        """Return the encoded MSS when isn is a valid cookie, else None."""
        epoch_bits = isn & 0x1F
        for epoch in (self._epoch(now), self._epoch(now) - 1):
            if epoch < 0 or (epoch & 0x1F) != epoch_bits:
                continue
            if (isn >> 8) & 0xFFFFFF == self._digest(key, epoch):
                return COOKIE_MSS_TABLE[(isn >> 5) & 0x7]
        return None


# ---------------------------------------------------------------------------
# Connection entry and the agent.


@dataclass
class ConnEntry:
    state: SpliceState
    client_key: FlowKey            # client -> VIP as seen on ingress
    isn_client: int
    isn_lb_front: int
    isn_lb_back: int = 0
    isn_server: int = 0
    server_key: Optional[FlowKey] = None   # LB -> backend
    eff_mss: int = 1460
    owner_worker: int = 0

    insertions: list[InsertionPoint] = field(default_factory=list)  # live only
    total_inserted: int = 0

    # c2s request parsing (offsets in the client stream)
    head_buf: Optional[StreamBuf] = None  # the open head from its base; None: in a body
    body_end: int = 0                  # where the body being passed ends
    heads: int = 0                     # request heads parsed
    fwd_hi: int = 0                    # past the highest client byte forwarded
    client_window: int = 65535

    # s2c (offsets in the server stream)
    client_acked: int = 0              # the client's cumulative ACK
    relayed_hi: int = 0                # past the server bytes and FIN the agent relayed or holds
    resp_head_buf: Optional[StreamBuf] = None  # the next response head from its base
    resp_end: Optional[int] = None     # where the current response ends
    resp_len: Optional[int] = None     # Content-Length of the current response
    resp_tracker_dead: bool = False    # unparseable/chunked: never offload again
    resp_index: int = 0

    # offload rule lifecycle (driven by the offload manager).  The pair's
    # rules match `server_in_key` and `client_key`, so the keys name them.
    # `offloaded` is set from install until both rules are gone, and while
    # it is set the connection is latched: client bytes past fwd_hi are held
    # in `deferred` until the pair is re-targeted at them or gone.
    offloaded: bool = False
    retarget_due: bool = False         # the pair's response is complete: re-target on the next request
    deferred: list[Packet] = field(default_factory=list)
    # while a pair's first install is not ready: the worker's packets toward
    # the client, in arrival order, at most the client's window of payload,
    # for the manager to emit at the ready time (see offload.py); None when
    # no hold is open
    held: Optional[list[Packet]] = None

    client_fin: Optional[int] = None   # client-stream offset of the client's FIN
    server_fin: Optional[int] = None   # server-stream offset of the server's FIN
    client_fin_acked: bool = False
    closed: bool = False

    @property
    def server_in_key(self) -> FlowKey:
        assert self.server_key is not None
        return self.server_key.reverse()

    @property
    def folded(self) -> int:
        """Bytes inserted by folded points: the base shift of every map."""
        pts = self.insertions
        return pts[0].cum_before if pts else self.total_inserted

    # A packet's positions as offsets, and back (see "Positions" above).
    def client_off(self, seq: int) -> int:  # a client seq
        return unwrap(seq - self.isn_client - 1, self.fwd_hi)

    def recv_off(self, ack: int) -> int:  # a server ACK or SACK edge
        return unwrap(ack - self.isn_lb_back - 1, self.fwd_hi + self.total_inserted)

    def server_off(self, seq: int) -> int:  # a server seq
        return unwrap(seq - self.isn_server - 1, self.client_acked)

    def seq_to_server(self, off: int) -> int:  # a client-stream offset, in server space
        return seq_add(self.isn_lb_back, 1 + map_pos_c2s(self.insertions, off, self.folded))

    def ack_to_server(self) -> int:  # the client's cumulative ACK, in server space
        return seq_add(self.isn_server, 1 + self.client_acked)

    def ack_to_client(self, a: int) -> int:  # a receiver offset, as the client-space ACK
        return seq_add(self.isn_client, 1 + client_bytes_below(self.insertions, a, self.folded))


def map_seq_c2s(entry: ConnEntry, seq_in: int) -> int:
    """Absolute client-space sequence number -> server-space."""
    return entry.seq_to_server(entry.client_off(seq_in))


def _note_server_ack(entry: ConnEntry, a: int) -> None:
    """A server ACK at receiver offset a releases the inserted bytes it
    reaches the end of, marks the points it passes for folding, and may
    show the client's FIN taken in."""
    if entry.client_fin is not None and \
            a > map_pos_c2s(entry.insertions, entry.client_fin, entry.folded):
        entry.client_fin_acked = True
    for pt in entry.insertions:
        if a < pt.recv_end:
            break
        pt.data = None
        if pt.fold_after is None and a > pt.recv_end:
            pt.fold_after = max(entry.relayed_hi, entry.client_acked)


def rewrite_s2c(entry: ConnEntry, pkt: Packet, a: Optional[int] = None) -> Packet:
    """A server packet as the worker relays it to the client (data, FIN or
    pure ACK, `SpliceAgent.on_server_packet`), computed without changing
    the entry: address swap, constant seq shift (no insertions
    server->client), the ACK clamped to the last client byte fully
    covered, SACK blocks mapped to client space.  `a` is the packet's ACK
    as a receiver offset, when the caller has read it."""
    if a is None:
        a = entry.recv_off(pkt.ack)
    # fields in order (key, seq, ack, flags, window, options, payload): the
    # per-packet paths build packets positionally, the cheapest way to
    # build a NamedTuple
    return Packet(entry.client_key.reverse(),
                  seq_add(pkt.seq, seq_sub(entry.isn_lb_front, entry.isn_server)),
                  entry.ack_to_client(a), pkt.flags, pkt.window,
                  _options_s2c(entry, pkt.options), pkt.payload)


def _options_s2c(entry: ConnEntry, options: TcpOptions) -> TcpOptions:
    """A server packet's options toward the client: SACK blocks mapped to
    client space, or the options themselves when they carry none."""
    if not options.sack_blocks:
        return options
    cbase = entry.isn_client + 1
    out = []
    for l, r in options.sack_blocks:
        mapped = map_sack_block_s2c(entry.insertions, entry.recv_off(l),
                                    entry.recv_off(r), entry.folded)
        if mapped is not None:
            out.append((seq_add(cbase, mapped[0]), seq_add(cbase, mapped[1])))
    return TcpOptions(None, False, tuple(out))  # (mss, sack_permitted, sack_blocks)


class SpliceAgent:
    """Per-LB forwarding logic.  One instance serves all simulated workers;
    entries are confined to their owner worker by the port-shard steering,
    which handle_packet checks (ShardViolation).  A flow's output depends
    only on its own packets and on NIC-wide rule state."""

    def __init__(self, table: CuckooTable, routes: RouteTable, vip_addr: int,
                 vip_port: int, lb_addr: int, mss: int, cookie_secret: bytes,
                 shard_of: Callable[[int], int]):
        self.table = table
        self.routes = routes
        self.vip_addr = vip_addr
        self.vip_port = vip_port
        self.lb_addr = lb_addr
        self.mss = mss
        self.cookie = SynCookie(cookie_secret)
        self.shard_of = shard_of
        self.offload = None  # the offload manager wires itself in when built
        self.response_observer = None  # optional (entry, now) metrics hook
        self._used_ports: set[tuple[int, int, int]] = set()
        self.counters = {
            "syn_rx": 0, "synack_tx": 0, "entries_created": 0, "resets_tx": 0,
            "c2s_data_pkts": 0, "s2c_data_pkts": 0, "acks_suppressed": 0,
            "inserted_bytes_tx": 0, "inserted_bytes_retx": 0,
            "forwarded_payload_bytes": 0, "entries_removed": 0,
            "cookie_failures": 0, "deferred_pkts": 0, "ttl_sweeps": 0,
        }

    # -- dispatch --------------------------------------------------------------

    def handle_packet(self, pkt: Packet, now: float, worker_id: int = 0) -> list[Packet]:
        """A client SYN is answered statelessly.  Every other packet is
        looked up once; a packet of a known, open flow must reach the
        entry's owner, and then goes to its handler."""
        flags = pkt.flags
        if flags & _SYN_ACK_RST == TcpFlags.SYN:
            self.counters["syn_rx"] += 1
            return [self.on_client_syn(pkt, now)]
        entry = self.table.lookup(pkt.key, now)
        if entry is None:
            if pkt.payload and not flags & _SYN_RST and self._is_to_vip(pkt.key):
                return self._on_first_client_data(pkt, now)
            return []  # handshake ACKs, and stray or stale packets: stateless
        if entry.owner_worker != worker_id:
            raise ShardViolation(
                f"flow {pkt.key} reached worker {worker_id}, owned by {entry.owner_worker}")
        if flags & _SYN_RST:
            if flags & TcpFlags.RST:
                return self._on_rst(pkt, entry, now)
            if pkt.key == entry.client_key:
                return []  # a client's SYN on a known flow: no backend ISN in it
            return self.on_backend_synack(pkt, entry, now)
        if pkt.key == entry.client_key:
            return self._on_client_packet(pkt, entry, now)
        return self.on_server_packet(pkt, entry, now)

    def _is_to_vip(self, key: FlowKey) -> bool:
        return key.dst_addr == self.vip_addr and key.dst_port == self.vip_port

    # -- connection setup --------------------------------------------------------

    def on_client_syn(self, pkt: Packet, now: float) -> Packet:
        """Stateless SYNACK: the ISN is a SYN cookie; options mirror what the
        backends speak (their MSS, SACK permitted)."""
        isn = self.cookie.make(pkt.key, pkt.options.mss, now)
        self.counters["synack_tx"] += 1
        return Packet(key=pkt.key.reverse(), seq=isn, ack=seq_add(pkt.seq, 1),
                      flags=TcpFlags.SYN | TcpFlags.ACK,
                      options=TcpOptions(mss=self.mss, sack_permitted=True))

    def _on_first_client_data(self, pkt: Packet, now: float) -> list[Packet]:
        cookie_mss = self.cookie.check(pkt.key, seq_sub(pkt.ack, 1), now)
        if cookie_mss is None:
            self.counters["cookie_failures"] += 1
            return [self._rst_for(pkt)]
        entry = ConnEntry(
            state=SpliceState.FRONT_ESTABLISHED,
            client_key=pkt.key,
            isn_client=seq_sub(pkt.seq, 1),
            isn_lb_front=seq_sub(pkt.ack, 1),
            eff_mss=min(cookie_mss, self.mss),
            owner_worker=self.shard_of(pkt.key.src_port),
        )
        entry.head_buf = StreamBuf(base=0, cap=REQUEST_HEAD_CAP)
        entry.resp_head_buf = StreamBuf(base=0, cap=REQUEST_HEAD_CAP)
        try:
            self.table.insert(pkt.key, entry, now)
        except TableFullError:
            return [self._rst_for(pkt)]
        self.counters["entries_created"] += 1
        return self._on_client_packet(pkt, entry, now)

    def on_backend_synack(self, pkt: Packet, entry: ConnEntry, now: float) -> list[Packet]:
        if entry.state is SpliceState.ESTABLISHED:
            # duplicate SYNACK: our ACK was lost; re-ACK, never re-flush
            return [self._pure_ack_to_server(entry)]
        entry.isn_server = pkt.seq
        entry.state = SpliceState.ESTABLISHED
        # the parser takes the first head from the buffer it waited in, and
        # a client FIN that came meanwhile follows it
        buf = entry.head_buf
        out = [self._pure_ack_to_server(entry)] + \
            self._ingest_new_data(bytes(buf.data), buf.base, entry, now)
        if entry.client_fin is not None and not entry.closed:
            out.append(self._fin_to_server(entry))
        return out

    def _pure_ack_to_server(self, entry: ConnEntry) -> Packet:
        return Packet(key=entry.server_key, seq=entry.seq_to_server(entry.fwd_hi),
                      ack=entry.ack_to_server(), flags=TcpFlags.ACK,
                      window=entry.client_window)

    def _rst_for(self, pkt: Packet) -> Packet:
        self.counters["resets_tx"] += 1
        return Packet(key=pkt.key.reverse(), seq=pkt.ack, ack=pkt.seq_end(),
                      flags=TcpFlags.RST | TcpFlags.ACK)

    # -- client-side packets -------------------------------------------------------

    def _on_client_packet(self, pkt: Packet, entry: ConnEntry, now: float) -> list[Packet]:
        flags = pkt.flags
        entry.client_window = pkt.window
        if flags & TcpFlags.ACK:
            acked = entry.client_acked = max(entry.client_acked, unwrap(
                pkt.ack - entry.isn_lb_front - 1, entry.client_acked))
            # fold the points this ACK shows to be past (see InsertionPoint)
            pts = entry.insertions
            while pts and pts[0].fold_after is not None and not entry.deferred \
                    and acked > pts[0].fold_after:
                del pts[0]
        if pkt.payload:
            self.counters["c2s_data_pkts"] += 1
            out = self.on_client_data(pkt, entry, now)
        elif (flags & (TcpFlags.ACK | TcpFlags.FIN)) == TcpFlags.ACK:
            out = self.on_client_ack(pkt, entry, now)
        else:
            out = []
        if flags & TcpFlags.FIN and not entry.closed:
            out += self._on_client_fin(pkt, entry, now)
        self._check_response_complete(entry, now)
        self._maybe_close(entry, now)
        return out

    def on_client_data(self, pkt: Packet, entry: ConnEntry, now: float) -> list[Packet]:
        off = entry.client_off(pkt.seq)
        end = off + len(pkt.payload)

        if entry.state is not SpliceState.ESTABLISHED:
            if entry.state is SpliceState.SYN_SENT and end <= entry.head_buf.end:
                # the client resends: the backend SYN or its SYNACK may be
                # lost, and the agent keeps no timer of its own to resend it
                return [self._backend_syn(entry)]
            entry.head_buf.add(off, pkt.payload)
            if entry.state is SpliceState.FRONT_ESTABLISHED:
                return self._try_route(entry, now)
            return []

        if entry.offloaded and end > entry.fwd_hi:
            # the offload pair still matches the previous request's end; hold
            # the next request (its piggybacked ACK effects already ran)
            entry.deferred.append(pkt)
            self.counters["deferred_pkts"] += 1
            self.offload.on_request_held(entry, now)
            return []
        return self._pass_client_data(pkt, off, entry, now)

    def _pass_client_data(self, pkt: Packet, off: int, entry: ConnEntry,
                          now: float) -> list[Packet]:
        """Client bytes at client-stream offset off, past the latch."""
        if off + len(pkt.payload) <= entry.fwd_hi:
            # pure retransmission: re-fragment; unACKed insertions inside the
            # covered range ride along again
            return self._emit_spliced(entry, pkt.payload, off, now)
        return self._ingest_new_data(pkt.payload, off, entry, now)

    def replay_deferred(self, entry: ConnEntry, now: float) -> list[Packet]:
        """Run packets held behind the offload-rule latch, past it (called by
        the offload manager to re-target the pair, or once it is gone)."""
        out: list[Packet] = []
        deferred, entry.deferred = entry.deferred, []
        for pkt in deferred:
            if not entry.closed:
                out += self._pass_client_data(pkt, entry.client_off(pkt.seq), entry, now)
        return out

    def _try_route(self, entry: ConnEntry, now: float) -> list[Packet]:
        """Once the first head is complete, its path picks the backend: open
        the server side with a SYN.  The head stays buffered until the
        SYNACK, which hands it to the parser.  A head whose framing is
        invalid resets the client and opens no backend connection, and so
        do a full buffer with no head end, a client FIN past a buffered
        stream with no head end, a backend with no free port in the
        client's shard and a table with no room for the server's key."""
        buf = entry.head_buf
        head_end = self._head_complete(buf)
        if head_end is None:
            if buf.full or (entry.client_fin is not None and buf.end >= entry.client_fin):
                return self._abort(entry, now)  # over the cap, or no head before the FIN
            return []
        head = bytes(buf.data[:head_end - buf.base])
        try:
            _content_length(head)
        except FramingError:
            return self._abort(entry, now)
        path = _request_path(head)
        backend = self.routes.pick_backend(self.routes.match(path).pool, entry.client_key)
        port = self._alloc_port(entry.client_key.src_port, backend)
        if port is None:
            return self._abort(entry, now)
        entry.server_key = FlowKey(self.lb_addr, backend.addr, port, backend.port)
        entry.isn_lb_back = self._backend_isn(entry)
        try:
            self.table.insert(entry.server_in_key, entry, now)
        except TableFullError:
            return self._abort(entry, now)
        entry.state = SpliceState.SYN_SENT
        return [self._backend_syn(entry)]

    def _backend_syn(self, entry: ConnEntry) -> Packet:
        return Packet(key=entry.server_key, seq=entry.isn_lb_back, flags=TcpFlags.SYN,
                      options=TcpOptions(mss=self.mss, sack_permitted=True))

    @staticmethod
    def _head_complete(buf: StreamBuf) -> Optional[int]:
        """Stream offset one past the CRLFCRLF terminator, or None."""
        i = buf.data.find(HEAD_TERMINATOR)
        if i < 0:
            return None
        return buf.base + i + len(HEAD_TERMINATOR)

    def _finish_head(self, entry: ConnEntry, head_end: int) -> None:
        """The open request head is complete: set where its body ends, and
        build this request's insertion from its route's edits.  Raises
        FramingError for a Transfer-Encoding or an invalid Content-Length."""
        buf = entry.head_buf
        head = bytes(buf.data[:head_end - buf.base])
        entry.body_end = head_end + (_content_length(head) or 0)
        entry.heads += 1
        inserted = b"".join(e.render(entry.client_key.src_addr)
                            for e in self.routes.match(_request_path(head)).edits)
        if inserted:
            sender_off = head_end - 2  # just before the final CRLF
            assert not entry.insertions or sender_off > entry.insertions[-1].sender_off
            entry.insertions.append(InsertionPoint(
                sender_off=sender_off, data=inserted, length=len(inserted),
                cum_before=entry.total_inserted))
            entry.total_inserted += len(inserted)

    def _ingest_new_data(self, data: bytes, off: int, entry: ConnEntry,
                         now: float) -> list[Packet]:
        """Walk fresh client bytes through the parse state (see the module
        docstring): an open head buffers them; a complete head leaves with
        the bytes buffered after it and the rest of `data` that the cap
        clipped, its insertion inside it; a body is forwarded as it
        arrives.  The bytes that leave are contiguous in the client
        stream, each head's buffer starting where the body before it ends,
        so they leave in one `_emit_spliced` run.  A full head buffer with
        no head end, or a head with invalid framing, resets the
        connection."""
        pieces: list[bytes] = []
        start, base, end = off, off, off + len(data)
        while off < end:
            buf = entry.head_buf
            if buf is not None:
                buf.add(off, data[off - base:])
                head_end = self._head_complete(buf)
                if head_end is None:
                    if buf.full:
                        return self._abort(entry, now)
                    break
                try:
                    self._finish_head(entry, head_end)
                except FramingError:
                    return self._abort(entry, now)
                entry.head_buf = None
                data = bytes(buf.data) + data[buf.end - base:]
                base = off = buf.base
                end = max(end, buf.end)
                if not pieces:
                    start = off
            elif off < entry.body_end:
                take = min(end, entry.body_end)
                pieces.append(data[off - base:take - base])
                off = take
            else:
                entry.head_buf = StreamBuf(base=entry.body_end, cap=REQUEST_HEAD_CAP)
        if not pieces:
            return []
        return self._emit_spliced(entry, b"".join(pieces), start, now)

    def _emit_spliced(self, entry: ConnEntry, data: bytes, data_off: int,
                      now: float) -> list[Packet]:
        """Forward client bytes [data_off, data_off+len) toward the server
        as one run of eff_mss segments, contiguous at the receiver: the
        client bytes with the insertion bytes woven in at their points
        when they are unsent, or unACKed and re-covered by a
        retransmission.  The run breaks only around an insertion that is
        sent and not re-sent, whose receiver bytes it skips."""
        out: list[Packet] = []
        lo, hi = data_off, data_off + len(data)
        retx_below = entry.fwd_hi  # positions below this were forwarded before
        run: list[bytes] = []
        run_off = None  # receiver offset where the run starts
        cursor = lo
        for pt in entry.insertions:
            o = pt.sender_off
            if o < lo or o >= hi:
                continue
            if run_off is None:
                run_off = pt.recv_start - (o - lo)
            run.append(data[cursor - lo:o - lo])
            cursor = o
            if not pt.sent or (not pt.acked and o < retx_below):
                run.append(pt.data)
                self.counters["inserted_bytes_retx" if pt.sent else "inserted_bytes_tx"] \
                    += pt.length
                pt.sent = True
            else:
                out += self._segments(entry, b"".join(run), run_off)
                run, run_off = [], pt.recv_end
        run.append(data[cursor - lo:])
        if run_off is None:
            run_off = map_pos_c2s(entry.insertions, lo, entry.folded)
        out += self._segments(entry, b"".join(run), run_off)
        self.counters["forwarded_payload_bytes"] += hi - lo
        entry.fwd_hi = max(entry.fwd_hi, hi)
        return out

    def _segments(self, entry: ConnEntry, data: bytes, recv_off: int) -> list[Packet]:
        """Bytes that start at receiver offset recv_off, cut into segments of
        at most eff_mss toward the server."""
        mss = entry.eff_mss
        seq = seq_add(entry.isn_lb_back, 1 + recv_off)
        ack = entry.ack_to_server()
        flags, window = TcpFlags.ACK | TcpFlags.PSH, entry.client_window
        # built positionally, as in rewrite_s2c
        return [Packet(entry.server_key, seq_add(seq, i), ack, flags, window,
                       EMPTY_OPTIONS, data[i:i + mss])
                for i in range(0, len(data), mss)]

    def on_client_ack(self, pkt: Packet, entry: ConnEntry, now: float) -> list[Packet]:
        """Pure ACK from the client: constant-delta rewrite (it acknowledges
        the response stream, which has no insertions), SACK blocks included.
        An offload's client rule applies the same delta to the ACK and to
        every SACK edge in the engine, so past its `ready_at` the worker
        sees only the pure ACKs at a seq the rule does not match, or with a
        SACK block below the ACK."""
        if entry.state is not SpliceState.ESTABLISHED:
            return []
        delta = seq_sub(entry.isn_server, entry.isn_lb_front)
        blocks = pkt.options.sack_blocks
        # built positionally, as in rewrite_s2c; options are (mss,
        # sack_permitted, sack_blocks)
        options = EMPTY_OPTIONS if not blocks else TcpOptions(
            None, False, tuple((seq_add(l, delta), seq_add(r, delta)) for l, r in blocks))
        return [Packet(entry.server_key, entry.seq_to_server(entry.fwd_hi),
                       seq_add(pkt.ack, delta), TcpFlags.ACK, pkt.window, options)]

    def _on_client_fin(self, pkt: Packet, entry: ConnEntry, now: float) -> list[Packet]:
        """Relay the client's FIN once the backend connection is
        established; `on_backend_synack` relays one that came before.
        Before routing, a FIN past a buffered stream with no head end
        resets the client (`_try_route`)."""
        entry.client_fin = entry.client_off(pkt.seq) + len(pkt.payload)
        if entry.state is SpliceState.ESTABLISHED:
            return [self._fin_to_server(entry)]
        if entry.state is SpliceState.FRONT_ESTABLISHED:
            return self._try_route(entry, now)
        return []

    def _fin_to_server(self, entry: ConnEntry) -> Packet:
        return Packet(key=entry.server_key, seq=entry.seq_to_server(entry.client_fin),
                      ack=entry.ack_to_server(), flags=TcpFlags.FIN | TcpFlags.ACK,
                      window=entry.client_window)

    # -- server-side packets --------------------------------------------------------

    def on_server_packet(self, pkt: Packet, entry: ConnEntry, now: float) -> list[Packet]:
        """A server packet leaves as `rewrite_s2c` builds it, the rewrite
        the offload's server rule applies on a hit, after its payload is
        tracked while a response head may be open and its ACK is noted.
        The one exception is the worker's own: a pure ACK inside or at the
        end of an inserted region is suppressed.  One parked at an unACKed
        insertion's start reaches the client as a duplicate ACK at its
        sender_off, so the client's own fast retransmit or RTO resends from
        there, and `_emit_spliced` weaves the insertion back in: the agent
        resends inserted bytes on that path only.  The output waits while a
        hold is open (`ConnEntry.held`, `OffloadManager.hold`)."""
        if entry.state is not SpliceState.ESTABLISHED:
            return []
        payload, fin = pkt.payload, pkt.flags & TcpFlags.FIN
        if payload or fin:
            off = entry.server_off(pkt.seq)
            end = off + len(payload)
            if payload:
                self.counters["s2c_data_pkts"] += 1
                self.counters["forwarded_payload_bytes"] += len(payload)
                if entry.resp_end is None and not entry.resp_tracker_dead:
                    self._track_response(pkt, off, entry, now)
                entry.relayed_hi = max(entry.relayed_hi, end)
            if fin:
                # before the ACK is noted: fold_after reads relayed_hi
                entry.server_fin = end
                entry.relayed_hi = max(entry.relayed_hi, end + 1)
        elif not pkt.flags & TcpFlags.ACK:
            return []
        a = entry.recv_off(pkt.ack)
        _note_server_ack(entry, a)
        if not (payload or fin) and \
                classify_ack(entry.insertions, a, entry.folded)[0] == "inside":
            self.counters["acks_suppressed"] += 1
            out = []
        else:
            out = [rewrite_s2c(entry, pkt, a)]
        self._maybe_close(entry, now)
        if entry.held is not None and out:
            return self.offload.hold(entry, out)
        return out

    def _track_response(self, pkt: Packet, off: int, entry: ConnEntry, now: float) -> None:
        """Parse a response head from a server segment at offset off; the
        caller checks that a head may be open (no `resp_end`, tracker live)."""
        buf = entry.resp_head_buf
        buf.add(off, pkt.payload)
        head_end = self._head_complete(buf)
        if head_end is None:
            if buf.full:
                self._tracker_dead(entry, now)  # over the cap with no head end
            return
        try:
            length = _content_length(bytes(buf.data[:head_end - buf.base]))
        except FramingError:
            length = None
        if length is None:
            self._tracker_dead(entry, now)  # unframed by a length: never offload
            return
        entry.resp_len = length
        entry.resp_end = head_end + length
        self.offload.on_resp_len_known(entry, length, now)

    def _tracker_dead(self, entry: ConnEntry, now: float) -> None:
        entry.resp_tracker_dead = True
        self.offload.on_tracker_dead(entry, now)

    def _check_response_complete(self, entry: ConnEntry, now: float) -> None:
        if entry.resp_end is None:
            return
        if entry.client_acked >= entry.resp_end:
            if self.response_observer is not None:
                self.response_observer(entry, now)
            # re-arm for the next response on this connection
            entry.resp_head_buf = StreamBuf(base=entry.resp_end, cap=REQUEST_HEAD_CAP)
            entry.resp_end = None
            entry.resp_len = None
            entry.resp_index += 1
            self.offload.on_response_complete(entry, now)

    # -- teardown ---------------------------------------------------------------

    def _on_rst(self, pkt: Packet, entry: ConnEntry, now: float) -> list[Packet]:
        if pkt.key == entry.client_key:
            out = [] if entry.server_key is None else \
                [Packet(key=entry.server_key, seq=map_seq_c2s(entry, pkt.seq),
                        flags=TcpFlags.RST)]
        else:
            out = [Packet(key=entry.client_key.reverse(),
                          seq=seq_add(pkt.seq, seq_sub(entry.isn_lb_front, entry.isn_server)),
                          flags=TcpFlags.RST)]
        self.remove_entry(entry, now)
        return out

    def _maybe_close(self, entry: ConnEntry, now: float) -> None:
        if entry.client_fin_acked and entry.server_fin is not None \
                and entry.client_acked > entry.server_fin:
            self.remove_entry(entry, now)

    def _abort(self, entry: ConnEntry, now: float) -> list[Packet]:
        """Reset the client, and the backend once its SYN went out, and drop
        the entry.  The client's RST carries the highest client-facing seq
        that may have been sent: past the server bytes the agent relayed or
        holds, or the client's ACK if that is higher, or, while an offload pair lives
        and the response's end is known, past that end, the last byte the
        server rule may have hairpinned.  Mid-response the client's RCV.NXT
        may lie below that, so a client that checks an RST's seq exactly
        (RFC 5961) answers it with a challenge ACK; the RST is never below
        a byte the client took in."""
        self.counters["resets_tx"] += 1
        off = max(entry.relayed_hi, entry.client_acked)
        if entry.offloaded and entry.resp_end is not None:
            off = max(off, entry.resp_end)
        out = [Packet(key=entry.client_key.reverse(),
                      seq=seq_add(entry.isn_lb_front, 1 + off), flags=TcpFlags.RST)]
        if entry.state is not SpliceState.FRONT_ESTABLISHED:
            out.append(Packet(key=entry.server_key,
                              seq=seq_add(entry.isn_lb_back, 1), flags=TcpFlags.RST))
        self.remove_entry(entry, now)
        return out

    def remove_entry(self, entry: ConnEntry, now: float) -> None:
        if entry.closed:
            return
        entry.closed = True
        self.table.remove(entry.client_key)
        if entry.server_key is not None:
            self.table.remove(entry.server_in_key)
            sk = entry.server_key
            self._used_ports.discard((sk.src_port, sk.dst_addr, sk.dst_port))
        self.counters["entries_removed"] += 1
        self.offload.on_entry_removed(entry, now)

    def sweep(self, now: float) -> int:
        """TTL sweep; evicting one direction's key drops the sibling too."""
        evicted = self.table.sweep_expired(now)
        n = 0
        for _, entry in evicted:
            if not entry.closed:
                self.remove_entry(entry, now)
                n += 1
        self.counters["ttl_sweeps"] += 1
        return n

    # -- helpers -----------------------------------------------------------------

    def _alloc_port(self, client_port: int, backend: Backend) -> Optional[int]:
        """Backend-facing source port in the same steering shard as the
        client's port, so both directions of the spliced connection land on
        one worker.  Prefers the client's own port (NAT-style preservation).
        None when every port of the shard is in use toward this backend."""
        shard = self.shard_of(client_port)
        p = client_port
        for _ in range(65536):
            if p >= 1024 and self.shard_of(p) == shard and \
                    (p, backend.addr, backend.port) not in self._used_ports:
                self._used_ports.add((p, backend.addr, backend.port))
                return p
            p = p + 1 if p < 65535 else 1024
        return None

    def _backend_isn(self, entry: ConnEntry) -> int:
        ck, sk = entry.client_key, entry.server_key
        h = hashlib.blake2b(struct.pack(">IHIH", ck.src_addr, ck.src_port,
                                        sk.dst_addr, sk.dst_port),
                            key=self.cookie.secret, digest_size=4)
        return int.from_bytes(h.digest(), "big")


def _request_path(head: bytes) -> bytes:
    parts = head.split(b"\r\n", 1)[0].split(b" ")
    return parts[1] if len(parts) >= 2 else b"/"


def _content_length(head: bytes) -> Optional[int]:
    """The body length a head's Content-Length gives (RFC 9112 section 6.3),
    or None when it has none.  FramingError for any Transfer-Encoding, or
    for a Content-Length that is not digits, that has more than
    MAX_LENGTH_DIGITS significant digits, or that conflicts with another
    (a repeated equal value is one length, RFC 9110 section 8.6)."""
    length = None
    for line in head.split(b"\r\n")[1:]:
        if not line:
            break
        name, _, value = line.partition(b":")
        name = name.strip().lower()
        if name == b"transfer-encoding":
            raise FramingError("Transfer-Encoding")
        if name == b"content-length":
            for item in value.split(b","):
                item = item.strip()
                digits = item.lstrip(b"0") or b"0"
                if not item.isdigit() or len(digits) > MAX_LENGTH_DIGITS \
                        or (length is not None and int(digits) != length):
                    raise FramingError(f"Content-Length {value!r}")
                length = int(digits)
    return length
