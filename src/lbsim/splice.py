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

The agent buffers only what it must: the request head until a backend is
chosen, and the inserted bytes until the server ACKs them.  Everything else
is forwarded as it arrives, and endpoint TCP recovers it.  The only payload
this agent ever retransmits is inserted bytes.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass, field
from enum import Enum, auto
from typing import Callable, Optional, Sequence

from .conntable import CuckooTable
from .packet import (
    FlowKey,
    Packet,
    TcpFlags,
    TcpOptions,
    addr_str,
    seq_add,
    seq_ge,
    seq_gt,
    seq_max,
    seq_sub,
)

REQUEST_HEAD_CAP = 16384
DUP_ACK_RETRANSMIT_THRESHOLD = 3
HEAD_TERMINATOR = b"\r\n\r\n"


class SpliceState(Enum):
    FRONT_ESTABLISHED = auto()
    SYN_SENT = auto()
    ESTABLISHED = auto()


@dataclass
class InsertionPoint:
    """One content insertion into the client-to-server stream.

    sender_off is a 0-based byte offset in the client's stream (relative to
    ISN+1).  The receiver sees the inserted bytes at [recv_start, recv_end)
    where recv_start = sender_off + cum_before.

    The bytes are held until a server ACK reaches recv_end.  When a server
    ACK first passes recv_end, fold_after records the client-facing
    sequence number one past the highest server byte the agent has relayed,
    or the client's ACK if that is higher.  Every server byte at or beyond
    it reached the client with an ACK at or past sender_off: through the
    agent, it followed that server ACK on a FIFO link and carries a higher
    ACK; through the flow engine, it carries the ACK of the whole request,
    as a rule exists only while the response to a received request is sent.
    So once the client ACKs such a byte, it has taken in an ACK at or past
    sender_off, and a TCP client sends no later segment that starts below
    it; server ACKs only grow, so none falls at or below recv_end again.
    The point can no longer affect a packet and is folded into the entry's
    base shift, unless packets held behind the offload latch, sent before
    that client ACK, still wait to be replayed.  The server ACK has to pass recv_end, not reach it: one
    exactly at recv_end is suppressed (classify_ack's "inside"), so the
    client may still resend the request from its start, and a later ACK
    there must still be suppressed.
    """

    sender_off: int
    data: Optional[bytes]              # None once the server ACKed recv_end
    length: int
    cum_before: int
    sent: bool = False
    dup_ack_count: int = 0
    fold_after: Optional[int] = None   # absolute client-facing seq

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
# Pure mapping helpers.  These work on stream offsets (plain ints); the
# agent converts to and from absolute sequence numbers at its edges.  `base`
# is the byte count of folded insertions; the answers hold for offsets past
# the folded points, which are the only ones that still occur.


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


class BufferCapExceeded(RuntimeError):
    pass


class ShardViolation(RuntimeError):
    """A packet of a flow reached a worker other than the entry's owner:
    the port-shard steering and the agent disagree."""


class StreamBuf:
    """Byte reassembly at a fixed base offset: a contiguous prefix plus
    out-of-order fragments.  Duplicates and overlaps are tolerated; bytes
    below base are clipped."""

    def __init__(self, base: int = 0, cap: Optional[int] = None):
        self.base = base
        self.data = bytearray()
        self.fragments: dict[int, bytes] = {}
        self.cap = cap

    @property
    def end(self) -> int:
        return self.base + len(self.data)

    def add(self, off: int, chunk: bytes) -> None:
        if not chunk or off + len(chunk) <= self.end:
            return
        if off < self.base:
            chunk = chunk[self.base - off:]
            off = self.base
        if off <= self.end:
            self.data += chunk[self.end - off:]
            self._fold_fragments()
        elif len(chunk) > len(self.fragments.get(off, b"")):
            self.fragments[off] = chunk  # keep the longer of two at one offset
        if self.cap is not None and len(self.data) > self.cap:
            raise BufferCapExceeded(f"reassembly buffer over {self.cap} bytes")

    def _fold_fragments(self) -> None:
        # Folding only moves `end` forward, so one ascending pass folds every
        # fragment that becomes reachable.
        for foff in sorted(self.fragments):
            if foff > self.end:
                break
            frag = self.fragments.pop(foff)
            if foff + len(frag) > self.end:
                self.data += frag[self.end - foff:]


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
    weight: int = 1


@dataclass(frozen=True)
class RouteRule:
    prefix: bytes
    pool: str
    edits: tuple[HeaderEdit, ...] = ()


class RouteTable:
    """Longest-prefix URL routing over configured pools; deterministic
    weighted round-robin inside a pool (rotation offset from the seed)."""

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
        self._rr: dict[str, int] = {}
        self._expanded: dict[str, list[Backend]] = {}
        for name, members in self.pools.items():
            expanded = [b for b in members for _ in range(max(1, b.weight))]
            self._expanded[name] = expanded
            self._rr[name] = seed % len(expanded)

    def match(self, path: bytes) -> RouteRule:
        for rule in self.rules:
            if path.startswith(rule.prefix):
                return rule
        return RouteRule(prefix=b"", pool=self.default_pool)

    def pick_backend(self, pool: str) -> Backend:
        expanded = self._expanded[pool]
        i = self._rr[pool]
        self._rr[pool] = (i + 1) % len(expanded)
        return expanded[i]


# ---------------------------------------------------------------------------
# SYN cookies: [24-bit keyed hash | 3-bit MSS index | 5-bit epoch] packed
# into the ISN, validated against the current and previous epoch.

COOKIE_MSS_TABLE = (536, 1220, 1460, 4380, 8960, 16384, 32768, 65000)


class SynCookie:
    def __init__(self, secret: bytes, epoch_seconds: float = 64.0):
        self.secret = secret
        self.epoch_seconds = epoch_seconds

    def _epoch(self, now: float) -> int:
        return int(now // self.epoch_seconds)

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


class _ParseMode(Enum):
    HEAD = auto()
    BODY = auto()


@dataclass
class ConnEntry:
    state: SpliceState
    client_key: FlowKey            # client -> VIP as seen on ingress
    backend: Backend
    isn_client: int
    isn_lb_front: int
    isn_lb_back: int = 0
    isn_server: int = 0
    server_key: Optional[FlowKey] = None   # LB -> backend
    eff_mss: int = 1460
    owner_worker: int = 0

    insertions: list[InsertionPoint] = field(default_factory=list)  # live only
    total_inserted: int = 0
    pending_request: Optional[StreamBuf] = None  # pre-backend client bytes

    # c2s request parsing (offsets in the client stream)
    parse_mode: _ParseMode = _ParseMode.HEAD
    parse_off: int = 0                 # where the current request head starts
    head_buf: Optional[StreamBuf] = None
    body_end: int = 0
    route: Optional[RouteRule] = None
    fwd_hi: int = 0                    # highest client offset forwarded
    client_ack_front: int = 0          # latest cumulative ack from the client
    relayed_hi: int = 0                # client-facing seq past the server bytes relayed
    client_window: int = 65535
    request_index: int = 0

    # s2c response tracking (offsets in the server stream)
    resp_head_at: int = 0
    resp_head_buf: Optional[StreamBuf] = None
    resp_end: Optional[int] = None     # stream offset where current response ends
    resp_len: Optional[int] = None     # Content-Length of the current response
    resp_tracker_dead: bool = False    # unparseable/chunked: never offload again
    resp_signaled: bool = False
    resp_index: int = 0
    resp_worker_pkts: int = 0          # s2c data packets workers saw this response

    # offload rule lifecycle (driven by the offload manager)
    offload_rule: Optional[int] = None
    latched: bool = False              # next request held until rule removed
    deferred: list[Packet] = field(default_factory=list)

    client_fin: Optional[int] = None   # absolute client-space FIN seq
    server_fin: Optional[int] = None   # absolute server-space FIN seq
    client_fin_acked: bool = False
    server_fin_acked: bool = False
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


def map_seq_c2s(entry: ConnEntry, seq_in: int) -> int:
    """Absolute client-space sequence number -> server-space."""
    p = seq_sub(seq_in, seq_add(entry.isn_client, 1))
    return seq_add(seq_add(entry.isn_lb_back, 1),
                   map_pos_c2s(entry.insertions, p, entry.folded))


def _note_server_ack(entry: ConnEntry, a: int) -> None:
    """A server ACK at receiver offset a releases the inserted bytes it
    reaches the end of, and marks the points it passes for folding."""
    for pt in entry.insertions:
        if a < pt.recv_end:
            break
        pt.data = None
        if pt.fold_after is None and a > pt.recv_end:
            pt.fold_after = seq_max(entry.relayed_hi, entry.client_ack_front)


def map_ack_s2c(entry: ConnEntry, ack_in: int) -> tuple[str, int, Optional[int]]:
    """Map a server pure ACK into client space: classify_ack's kind and
    point index, with the forwarded offset as an absolute client-space ACK.
    Besides _note_server_ack's effects, progress past an insertion's start
    ends its run of duplicate ACKs."""
    a = seq_sub(ack_in, seq_add(entry.isn_lb_back, 1))
    _note_server_ack(entry, a)
    for pt in entry.insertions:
        if a <= pt.recv_start:
            break
        pt.dup_ack_count = 0
    kind, fwd, idx = classify_ack(entry.insertions, a, entry.folded)
    return kind, seq_add(seq_add(entry.isn_client, 1), fwd), idx


def clamped_ack_s2c(entry: ConnEntry, ack_in: int) -> int:
    """ACK-field rewrite for server data segments: never suppressed, the
    value clamps to the last client byte fully covered."""
    a = seq_sub(ack_in, seq_add(entry.isn_lb_back, 1))
    _note_server_ack(entry, a)
    return seq_add(seq_add(entry.isn_client, 1),
                   client_bytes_below(entry.insertions, a, entry.folded))


class SpliceAgent:
    """Per-LB forwarding logic.  One instance serves all simulated workers;
    entries are confined to their owner worker by the port-shard steering,
    which handle_packet checks (ShardViolation)."""

    def __init__(self, table: CuckooTable, routes: RouteTable, vip_addr: int,
                 vip_port: int, lb_addr: int, mss: int, cookie_secret: bytes,
                 shard_of: Callable[[int], int], head_cap: int = REQUEST_HEAD_CAP):
        self.table = table
        self.routes = routes
        self.vip_addr = vip_addr
        self.vip_port = vip_port
        self.lb_addr = lb_addr
        self.mss = mss
        self.cookie = SynCookie(cookie_secret)
        self.shard_of = shard_of
        self.head_cap = head_cap
        self.offload = None  # wired by the simulator when offload is enabled
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
        flags = pkt.flags
        if flags & TcpFlags.RST:
            return self._on_rst(pkt, now)
        if flags & TcpFlags.SYN:
            if not flags & TcpFlags.ACK:
                self.counters["syn_rx"] += 1
                return [self.on_client_syn(pkt, now)]
            entry = self.table.lookup(pkt.key, now)
            if entry is None or entry.closed:
                return []  # SYNACK for an unknown flow
            return self.on_backend_synack(pkt, entry, now)

        entry = self.table.lookup(pkt.key, now)
        if entry is None:
            if pkt.payload and self._is_to_vip(pkt.key):
                return self._on_first_client_data(pkt, now)
            return []  # pre-data handshake ACKs and stale packets: stateless
        if entry.closed:
            return []
        if entry.owner_worker != worker_id:
            raise ShardViolation(
                f"flow {pkt.key} reached worker {worker_id}, owned by {entry.owner_worker}")
        if pkt.key == entry.client_key:
            return self._on_client_packet(pkt, entry, now)
        return self._on_server_packet(pkt, entry, now)

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
            backend=Backend(0, 0),
            isn_client=seq_sub(pkt.seq, 1),
            isn_lb_front=seq_sub(pkt.ack, 1),
            eff_mss=min(cookie_mss, self.mss),
            owner_worker=self.shard_of(pkt.key.src_port),
        )
        entry.pending_request = StreamBuf(base=0, cap=self.head_cap)
        entry.head_buf = entry.pending_request
        entry.resp_head_buf = StreamBuf(base=0, cap=self.head_cap)
        entry.client_ack_front = entry.relayed_hi = pkt.ack
        self.table.insert(pkt.key, entry, now)
        self.counters["entries_created"] += 1
        return self._on_client_packet(pkt, entry, now)

    def on_backend_synack(self, pkt: Packet, entry: ConnEntry, now: float) -> list[Packet]:
        if entry.state is SpliceState.ESTABLISHED:
            # duplicate SYNACK: our ACK was lost; re-ACK, never re-flush
            return [self._pure_ack_to_server(entry)]
        if entry.state is not SpliceState.SYN_SENT:
            return []
        entry.isn_server = pkt.seq
        entry.state = SpliceState.ESTABLISHED
        out = [Packet(key=entry.server_key, seq=seq_add(entry.isn_lb_back, 1),
                      ack=seq_add(entry.isn_server, 1), flags=TcpFlags.ACK,
                      window=entry.client_window)]
        pending = entry.pending_request
        flushed = bytes(pending.data)
        out += self._emit_spliced(entry, flushed, 0, now)
        # pending buffers released; inserted bytes live on in their points
        entry.pending_request = None
        entry.head_buf = None
        return out

    def _pure_ack_to_server(self, entry: ConnEntry) -> Packet:
        spliced_next = map_pos_c2s(entry.insertions, entry.fwd_hi, entry.folded)
        return Packet(key=entry.server_key,
                      seq=seq_add(seq_add(entry.isn_lb_back, 1), spliced_next),
                      ack=self._front_to_back_ack(entry),
                      flags=TcpFlags.ACK, window=entry.client_window)

    def _front_to_back_ack(self, entry: ConnEntry) -> int:
        if entry.state is not SpliceState.ESTABLISHED:
            return 0
        return seq_add(entry.client_ack_front,
                       seq_sub(entry.isn_server, entry.isn_lb_front))

    def _rst_for(self, pkt: Packet) -> Packet:
        self.counters["resets_tx"] += 1
        return Packet(key=pkt.key.reverse(), seq=pkt.ack, ack=pkt.seq_end(),
                      flags=TcpFlags.RST | TcpFlags.ACK)

    # -- client-side packets -------------------------------------------------------

    def _on_client_packet(self, pkt: Packet, entry: ConnEntry, now: float) -> list[Packet]:
        flags = pkt.flags
        entry.client_window = pkt.window
        if flags & TcpFlags.ACK:
            entry.client_ack_front = seq_max(entry.client_ack_front, pkt.ack)
            # fold the points this ACK shows to be past (see InsertionPoint)
            pts = entry.insertions
            while pts and pts[0].fold_after is not None and not entry.deferred \
                    and seq_gt(entry.client_ack_front, pts[0].fold_after):
                del pts[0]
            if (entry.server_fin is not None and not entry.server_fin_acked
                    and entry.state is SpliceState.ESTABLISHED):
                fin_front = seq_add(entry.server_fin,
                                    seq_sub(entry.isn_lb_front, entry.isn_server))
                if seq_ge(entry.client_ack_front, seq_add(fin_front, 1)):
                    entry.server_fin_acked = True
        out: list[Packet] = []
        if pkt.payload:
            self.counters["c2s_data_pkts"] += 1
            out += self.on_client_data(pkt, entry, now)
        elif (flags & (TcpFlags.ACK | TcpFlags.FIN)) == TcpFlags.ACK:
            out += self.on_client_ack(pkt, entry, now)
        if flags & TcpFlags.FIN:
            out += self._on_client_fin(pkt, entry, now)
        self._check_response_complete(entry, now)
        self._maybe_close(entry, now)
        return out

    def on_client_data(self, pkt: Packet, entry: ConnEntry, now: float) -> list[Packet]:
        off = seq_sub(pkt.seq, seq_add(entry.isn_client, 1))
        end = off + len(pkt.payload)

        if entry.state in (SpliceState.FRONT_ESTABLISHED, SpliceState.SYN_SENT):
            try:
                entry.pending_request.add(off, pkt.payload)
            except BufferCapExceeded:
                return self._abort(pkt, entry, now)
            if entry.state is SpliceState.FRONT_ESTABLISHED:
                return self._try_route(entry, now)
            return []

        if entry.latched and end > entry.fwd_hi:
            # a prior offload rule is still being removed; hold the next
            # request (its piggybacked ACK effects already ran)
            entry.deferred.append(pkt)
            self.counters["deferred_pkts"] += 1
            return []
        if end <= entry.fwd_hi:
            # pure retransmission: re-fragment; unACKed insertions inside the
            # covered range ride along again
            return self._emit_spliced(entry, pkt.payload, off, now)
        try:
            return self._ingest_new_data(pkt.payload, off, entry, now)
        except BufferCapExceeded:
            return self._abort(pkt, entry, now)

    def replay_deferred(self, entry: ConnEntry, now: float) -> list[Packet]:
        """Run packets held behind the offload-rule latch (called by the
        offload manager once the rule is gone)."""
        out: list[Packet] = []
        deferred, entry.deferred = entry.deferred, []
        for pkt in deferred:
            if not entry.closed:
                out += self.on_client_data(pkt, entry, now)
        return out

    def _try_route(self, entry: ConnEntry, now: float) -> list[Packet]:
        head_end = self._head_complete(entry.head_buf, entry.parse_off)
        if head_end is None:
            return []
        self._finish_head(entry, head_end)
        backend = self.routes.pick_backend(entry.route.pool)
        entry.backend = backend
        port = self._alloc_port(entry.client_key.src_port, backend)
        entry.server_key = FlowKey(self.lb_addr, backend.addr, port, backend.port)
        entry.isn_lb_back = self._backend_isn(entry)
        entry.state = SpliceState.SYN_SENT
        self.table.insert(entry.server_in_key, entry, now)
        return [Packet(key=entry.server_key, seq=entry.isn_lb_back,
                       flags=TcpFlags.SYN,
                       options=TcpOptions(mss=self.mss, sack_permitted=True))]

    @staticmethod
    def _head_complete(buf: StreamBuf, head_start: int) -> Optional[int]:
        """Stream offset one past the CRLFCRLF terminator, or None."""
        i = bytes(buf.data[head_start - buf.base:]).find(HEAD_TERMINATOR)
        if i < 0:
            return None
        return head_start + i + len(HEAD_TERMINATOR)

    def _finish_head(self, entry: ConnEntry, head_end: int) -> None:
        """A request head is contiguous and complete: pick the route, build
        this request's insertion, switch to body passing."""
        base = entry.head_buf.base
        head = bytes(entry.head_buf.data[entry.parse_off - base:head_end - base])
        parts = head.split(b"\r\n", 1)[0].split(b" ")
        path = parts[1] if len(parts) >= 2 else b"/"
        entry.route = self.routes.match(path)
        body_len = _content_length(head) or 0
        entry.body_end = head_end + body_len
        entry.parse_mode = _ParseMode.BODY

        inserted = b"".join(e.render(entry.client_key.src_addr)
                            for e in entry.route.edits)
        if inserted:
            sender_off = head_end - 2  # just before the final CRLF
            assert not entry.insertions or sender_off > entry.insertions[-1].sender_off
            entry.insertions.append(InsertionPoint(
                sender_off=sender_off, data=inserted, length=len(inserted),
                cum_before=entry.total_inserted))
            entry.total_inserted += len(inserted)
        entry.request_index += 1

    def _ingest_new_data(self, data: bytes, off: int, entry: ConnEntry,
                         now: float) -> list[Packet]:
        """Walk fresh client bytes through the per-request parse state:
        heads are buffered until complete (insertions land inside them),
        bodies are forwarded as they arrive."""
        out: list[Packet] = []
        base = off
        end = off + len(data)
        while off < end:
            if entry.parse_mode is _ParseMode.BODY:
                if off < entry.body_end:
                    take = min(end, entry.body_end)
                    out += self._emit_spliced(entry, data[off - base:take - base],
                                              off, now)
                    off = take
                    continue
                entry.parse_mode = _ParseMode.HEAD
                entry.parse_off = entry.body_end
                entry.head_buf = StreamBuf(base=entry.body_end, cap=self.head_cap)
                continue
            # HEAD mode: everything from here lands in the head buffer; if the
            # head completes, its range (and any buffered tail) is processed
            entry.head_buf.add(off, data[off - base:])
            head_end = self._head_complete(entry.head_buf, entry.parse_off)
            if head_end is None:
                return out
            buf = entry.head_buf
            head = bytes(buf.data[entry.parse_off - buf.base:head_end - buf.base])
            tail = bytes(buf.data[head_end - buf.base:])
            head_start = entry.parse_off
            self._finish_head(entry, head_end)
            out += self._emit_spliced(entry, head, head_start, now)
            entry.head_buf = None
            if tail:
                out += self._ingest_new_data(tail, head_end, entry, now)
            return out
        return out

    def _emit_spliced(self, entry: ConnEntry, data: bytes, data_off: int,
                      now: float) -> list[Packet]:
        """Forward client bytes [data_off, data_off+len) toward the server,
        splitting at insertion points and weaving in insertion bytes that
        are unsent, or unACKed and re-covered by a retransmission."""
        out: list[Packet] = []
        lo, hi = data_off, data_off + len(data)
        retx_below = entry.fwd_hi  # positions below this were forwarded before
        cursor = lo
        for pt in entry.insertions:
            o = pt.sender_off
            if o < lo or o >= hi:
                continue
            if o > cursor:
                out += self._data_packets(entry, data, lo, cursor, o)
                cursor = o
            if not pt.sent or (not pt.acked and o < retx_below):
                out += self._insertion_packets(entry, pt, retransmit=pt.sent)
                pt.sent = True
        if cursor < hi:
            out += self._data_packets(entry, data, lo, cursor, hi)
        entry.fwd_hi = max(entry.fwd_hi, hi)
        return out

    def _data_packets(self, entry: ConnEntry, data: bytes, data_base: int,
                      lo: int, hi: int) -> list[Packet]:
        out = []
        mss = entry.eff_mss
        ack = self._front_to_back_ack(entry)
        base = entry.folded
        pos = lo
        while pos < hi:
            n = min(mss, hi - pos)
            payload = bytes(data[pos - data_base:pos - data_base + n])
            out.append(Packet(
                key=entry.server_key,
                seq=seq_add(seq_add(entry.isn_lb_back, 1),
                            map_pos_c2s(entry.insertions, pos, base)),
                ack=ack, flags=TcpFlags.ACK | TcpFlags.PSH,
                window=entry.client_window, payload=payload))
            self.counters["forwarded_payload_bytes"] += n
            pos += n
        return out

    def _insertion_packets(self, entry: ConnEntry, pt: InsertionPoint,
                           retransmit: bool) -> list[Packet]:
        assert pt.data is not None
        out = []
        mss = entry.eff_mss
        ack = self._front_to_back_ack(entry)
        for i in range(0, pt.length, mss):
            chunk = pt.data[i:i + mss]
            out.append(Packet(
                key=entry.server_key,
                seq=seq_add(seq_add(entry.isn_lb_back, 1), pt.recv_start + i),
                ack=ack, flags=TcpFlags.ACK | TcpFlags.PSH,
                window=entry.client_window, payload=chunk))
        self.counters["inserted_bytes_retx" if retransmit else "inserted_bytes_tx"] \
            += pt.length
        return out

    def on_client_ack(self, pkt: Packet, entry: ConnEntry, now: float) -> list[Packet]:
        """Pure ACK from the client: constant-delta rewrite (it acknowledges
        the response stream, which has no insertions), SACK blocks included."""
        if entry.state is not SpliceState.ESTABLISHED:
            return []
        delta = seq_sub(entry.isn_server, entry.isn_lb_front)
        blocks = tuple((seq_add(l, delta), seq_add(r, delta))
                       for l, r in pkt.options.sack_blocks)
        return [Packet(key=entry.server_key,
                       seq=seq_add(seq_add(entry.isn_lb_back, 1),
                                   map_pos_c2s(entry.insertions, entry.fwd_hi,
                                               entry.folded)),
                       ack=seq_add(pkt.ack, delta), flags=TcpFlags.ACK,
                       window=pkt.window,
                       options=TcpOptions(sack_blocks=blocks))]

    def _on_client_fin(self, pkt: Packet, entry: ConnEntry, now: float) -> list[Packet]:
        if entry.state is not SpliceState.ESTABLISHED:
            # half-open teardown: nothing spliced yet, drop state quietly
            self.remove_entry(entry, now)
            return []
        fin_seq = seq_add(pkt.seq, len(pkt.payload))
        entry.client_fin = fin_seq
        return [Packet(key=entry.server_key, seq=map_seq_c2s(entry, fin_seq),
                       ack=self._front_to_back_ack(entry),
                       flags=TcpFlags.FIN | TcpFlags.ACK,
                       window=entry.client_window)]

    # -- server-side packets --------------------------------------------------------

    def _on_server_packet(self, pkt: Packet, entry: ConnEntry, now: float) -> list[Packet]:
        if entry.state is not SpliceState.ESTABLISHED:
            return []
        flags = pkt.flags
        if flags & TcpFlags.ACK and entry.client_fin is not None \
                and not entry.client_fin_acked:
            fin_back = map_seq_c2s(entry, entry.client_fin)
            if seq_ge(pkt.ack, seq_add(fin_back, 1)):
                entry.client_fin_acked = True
        out: list[Packet] = []
        if pkt.payload:
            self.counters["s2c_data_pkts"] += 1
            entry.resp_worker_pkts += 1
            out += self.on_server_data(pkt, entry, now)
        elif (flags & (TcpFlags.ACK | TcpFlags.FIN)) == TcpFlags.ACK:
            out += self.on_server_ack(pkt, entry, now)
        if flags & TcpFlags.FIN:
            out += self._on_server_fin(pkt, entry, now)
        self._maybe_close(entry, now)
        return out

    def on_server_data(self, pkt: Packet, entry: ConnEntry, now: float) -> list[Packet]:
        """Rewrite a response data segment toward the client: address swap,
        constant seq shift (no insertions server->client), clamped ACK."""
        self._track_response(pkt, entry, now)
        seq_out = seq_add(pkt.seq, seq_sub(entry.isn_lb_front, entry.isn_server))
        entry.relayed_hi = seq_max(entry.relayed_hi, seq_add(seq_out, len(pkt.payload)))
        ack_out = clamped_ack_s2c(entry, pkt.ack)
        if pkt.options.sack_blocks:
            options = TcpOptions(
                sack_blocks=self._sack_blocks_to_client(entry, pkt.options.sack_blocks))
        else:
            options = pkt.options
        self.counters["forwarded_payload_bytes"] += len(pkt.payload)
        return [Packet(key=entry.client_key.reverse(), seq=seq_out, ack=ack_out,
                       flags=pkt.flags, window=pkt.window, options=options,
                       payload=pkt.payload)]

    def on_server_ack(self, pkt: Packet, entry: ConnEntry, now: float) -> list[Packet]:
        """Pure ACK from the server.  One inside or at the end of an inserted
        region is suppressed; the third in a row parked at an unACKed
        insertion's start retransmits that insertion; the rest are relayed
        with the ACK mapped to client space."""
        kind, ack_out, idx = map_ack_s2c(entry, pkt.ack)
        if kind == "inside":
            self.counters["acks_suppressed"] += 1
            return []
        if kind == "at_start":
            pt = entry.insertions[idx]
            if not pt.acked:
                pt.dup_ack_count += 1
                if pt.dup_ack_count >= DUP_ACK_RETRANSMIT_THRESHOLD:
                    pt.dup_ack_count = 0
                    return self._insertion_packets(entry, pt, retransmit=True)
        if pkt.options.sack_blocks:
            options = TcpOptions(
                sack_blocks=self._sack_blocks_to_client(entry, pkt.options.sack_blocks))
        else:
            options = pkt.options
        return [Packet(key=entry.client_key.reverse(),
                       seq=seq_add(pkt.seq, seq_sub(entry.isn_lb_front, entry.isn_server)),
                       ack=ack_out, flags=TcpFlags.ACK, window=pkt.window,
                       options=options)]

    def _sack_blocks_to_client(self, entry: ConnEntry,
                               blocks: tuple[tuple[int, int], ...]
                               ) -> tuple[tuple[int, int], ...]:
        if not blocks:
            return ()
        base = seq_add(entry.isn_lb_back, 1)
        cbase = seq_add(entry.isn_client, 1)
        folded = entry.folded
        out = []
        for l, r in blocks:
            mapped = map_sack_block_s2c(entry.insertions,
                                        seq_sub(l, base), seq_sub(r, base), folded)
            if mapped is not None:
                out.append((seq_add(cbase, mapped[0]), seq_add(cbase, mapped[1])))
        return tuple(out)

    def _track_response(self, pkt: Packet, entry: ConnEntry, now: float) -> None:
        if entry.resp_tracker_dead or entry.resp_end is not None:
            return
        off = seq_sub(pkt.seq, seq_add(entry.isn_server, 1))
        buf = entry.resp_head_buf
        if off + len(pkt.payload) <= entry.resp_head_at:
            return
        try:
            buf.add(off, pkt.payload)
        except BufferCapExceeded:
            entry.resp_tracker_dead = True
            return
        head_end = self._head_complete(buf, entry.resp_head_at)
        if head_end is None:
            return
        head = bytes(buf.data[entry.resp_head_at - buf.base:head_end - buf.base])
        length = _content_length(head)
        if length is None:
            entry.resp_tracker_dead = True  # chunked or lengthless: never offload
            return
        entry.resp_len = length
        entry.resp_end = head_end + length
        entry.resp_signaled = False
        if self.offload is not None:
            self.offload.on_resp_len_known(entry, length, now)

    def _check_response_complete(self, entry: ConnEntry, now: float) -> None:
        if entry.resp_end is None or entry.resp_signaled:
            return
        acked = seq_sub(entry.client_ack_front, seq_add(entry.isn_lb_front, 1))
        if acked >= entry.resp_end:
            entry.resp_signaled = True
            if self.response_observer is not None:
                self.response_observer(entry, now)
            if self.offload is not None:
                self.offload.on_response_complete(entry, now)
            # re-arm for the next response on this connection
            entry.resp_head_at = entry.resp_end
            entry.resp_head_buf = StreamBuf(base=entry.resp_end, cap=self.head_cap)
            entry.resp_end = None
            entry.resp_len = None
            entry.resp_index += 1
            entry.resp_worker_pkts = 0

    def _on_server_fin(self, pkt: Packet, entry: ConnEntry, now: float) -> list[Packet]:
        entry.server_fin = seq_add(pkt.seq, len(pkt.payload))
        fin_front = seq_add(entry.server_fin, seq_sub(entry.isn_lb_front, entry.isn_server))
        entry.relayed_hi = seq_max(entry.relayed_hi, seq_add(fin_front, 1))
        return [Packet(key=entry.client_key.reverse(), seq=fin_front,
                       ack=clamped_ack_s2c(entry, pkt.ack),
                       flags=TcpFlags.FIN | TcpFlags.ACK, window=pkt.window)]

    # -- teardown ---------------------------------------------------------------

    def _on_rst(self, pkt: Packet, now: float) -> list[Packet]:
        entry = self.table.lookup(pkt.key, now)
        if entry is None or entry.closed:
            return []
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
        if (entry.client_fin is not None and entry.server_fin is not None
                and entry.client_fin_acked and entry.server_fin_acked):
            self.remove_entry(entry, now)

    def _abort(self, pkt: Packet, entry: ConnEntry, now: float) -> list[Packet]:
        out = [self._rst_for(pkt)]
        if entry.server_key is not None:
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
            self._used_ports.discard((entry.server_key.src_port,
                                      entry.backend.addr, entry.backend.port))
        self.counters["entries_removed"] += 1
        if self.offload is not None:
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

    def _alloc_port(self, client_port: int, backend: Backend) -> int:
        """Backend-facing source port in the same steering shard as the
        client's port, so both directions of the spliced connection land on
        one worker.  Prefers the client's own port (NAT-style preservation)."""
        shard = self.shard_of(client_port)
        p = client_port
        for _ in range(65536):
            if p >= 1024 and self.shard_of(p) == shard and \
                    (p, backend.addr, backend.port) not in self._used_ports:
                self._used_ports.add((p, backend.addr, backend.port))
                return p
            p = p + 1 if p < 65535 else 1024
        raise RuntimeError("backend port space exhausted")

    def _backend_isn(self, entry: ConnEntry) -> int:
        h = hashlib.blake2b(struct.pack(">IHIH", entry.client_key.src_addr,
                                        entry.client_key.src_port,
                                        entry.backend.addr, entry.backend.port),
                            key=self.cookie.secret, digest_size=4)
        return int.from_bytes(h.digest(), "big")


def _content_length(head: bytes) -> Optional[int]:
    for line in head.split(b"\r\n")[1:]:
        if not line:
            break
        name, _, value = line.partition(b":")
        if name.strip().lower() == b"content-length":
            try:
                return int(value.strip())
            except ValueError:
                return None
    return None
