"""HTTP request/response applications on top of the mini TCP endpoints.

Response bodies are generated, not stored: byte i of a body is a pure
function of (seed, i) — a 16-byte positional stamp at every 4 KiB page
boundary, seeded filler elsewhere.  The client knows the seed (it put it in
the request path), regenerates the expected bytes for every delivered
chunk, and compares exactly.  Stream equality checks are therefore O(1) in
memory and catch any corruption, reordering, or misplacement the splicing
path could introduce.
"""

from __future__ import annotations

import random
import struct
from dataclasses import dataclass, field
from typing import Callable, Optional

from .tcp import AppCallbacks, MiniTcpEndpoint

PAGE = 4096
STAMP = 16
_PAGE_STAMP = struct.Struct("<QQ")  # (seed, page index): a page's first STAMP bytes
HEAD_END = b"\r\n\r\n"


def make_body(seed: int) -> Callable[[int, int], bytes]:
    """The generator `gen(off, n)` of bytes [off, off + n) of the body of
    `seed`: byte i is byte i % PAGE of page i // PAGE's stamp (the seed and
    the page index, as little-endian u64s) when i % PAGE < STAMP, and of
    one seeded filler page otherwise."""
    seed64 = seed & 0xFFFFFFFFFFFFFFFF
    filler = random.Random(seed64).randbytes(PAGE)

    def gen(off: int, n: int) -> bytes:
        q = off % PAGE
        if q >= STAMP and q + n <= PAGE:
            return filler[q:q + n]  # inside one page, past its stamp
        # filler page slices, then the stamp of each page start covered
        out = bytearray()
        pos = off
        end = off + n
        while pos < end:
            p, q = divmod(pos, PAGE)
            take = min(end - pos, PAGE - q)
            at = len(out)
            out += filler[q:q + take]
            if q < STAMP:
                head = _PAGE_STAMP.pack(seed64, p)[q:q + take]
                out[at:at + len(head)] = head
            pos += take
        return bytes(out)

    return gen


def with_head(head: bytes, body: Callable[[int, int], bytes]) -> Callable[[int, int], bytes]:
    """The generator of `head` followed by `body`: a response is one span
    of the endpoint's stream, so its head leaves in its body's first
    segment."""
    h = len(head)

    def gen(off: int, n: int) -> bytes:
        if off >= h:
            return body(off - h, n)
        return head[off:off + n] + body(0, max(0, off + n - h))

    return gen


def response_head(body_len: int) -> bytes:
    return b"HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n" % body_len


def request_bytes(path: bytes) -> bytes:
    return b"GET %s HTTP/1.1\r\nHost: lb\r\n\r\n" % path


@dataclass
class RequestSpec:
    path: bytes
    size: int
    body_seed: int


@dataclass
class RequestRecord:
    size: int
    t_sent: float
    t_done: Optional[float] = None
    bytes_ok: int = 0
    mismatches: int = 0

    @property
    def fct(self) -> Optional[float]:
        return None if self.t_done is None else self.t_done - self.t_sent


class HttpClientSession(AppCallbacks):
    """Issues sequential keep-alive GETs, verifies every response byte."""

    def __init__(self, requests: list[RequestSpec], close_when_done: bool = True):
        self.requests = requests
        self.close_when_done = close_when_done
        self.endpoint: Optional[MiniTcpEndpoint] = None
        self.records: list[RequestRecord] = []
        self.sent_transcript = bytearray()
        self.current = -1
        self._head_buf = bytearray()
        self._body_left = 0
        self._body_off = 0
        self._body_gen: Optional[Callable] = None
        self._expected_head = b""
        self.head_errors = 0
        self.done = False
        self.reset = False

    def on_connected(self, now: float) -> None:
        self._next_request(now)

    def _next_request(self, now: float) -> None:
        self.current += 1
        if self.current >= len(self.requests):
            self.done = True
            if self.close_when_done:
                self.endpoint.close(now)
            return
        spec = self.requests[self.current]
        data = request_bytes(spec.path)
        self.sent_transcript += data
        self.records.append(RequestRecord(size=spec.size, t_sent=now))
        self._head_buf.clear()
        self._expected_head = response_head(spec.size)
        self._body_left = spec.size
        self._body_off = 0
        self._body_gen = make_body(spec.body_seed)
        self.endpoint.send_bytes(data, now)

    def on_data(self, chunk: bytes, now: float) -> None:
        view = memoryview(chunk)
        while len(view):
            if len(self._head_buf) < len(self._expected_head):
                need = len(self._expected_head) - len(self._head_buf)
                take = min(need, len(view))
                self._head_buf += view[:take]
                view = view[take:]
                if len(self._head_buf) == len(self._expected_head):
                    if bytes(self._head_buf) != self._expected_head:
                        self.head_errors += 1
                continue
            rec = self.records[self.current]
            take = min(self._body_left, len(view))
            got = bytes(view[:take])
            expected = self._body_gen(self._body_off, take)
            if got == expected:
                rec.bytes_ok += take
            else:
                rec.mismatches += sum(a != b for a, b in zip(got, expected))
            self._body_off += take
            self._body_left -= take
            view = view[take:]
            if self._body_left == 0:
                rec.t_done = now
                self._next_request(now)

    def on_reset(self, now: float) -> None:
        self.reset = True
        self.done = True

    def on_peer_fin(self, now: float) -> None:
        if not self.done:
            return
        self.endpoint.close(now)

    @property
    def clean(self) -> bool:
        return (not self.reset and self.head_errors == 0
                and all(r.t_done is not None and r.mismatches == 0
                        and r.bytes_ok == r.size for r in self.records)
                and len(self.records) == len(self.requests))


class HttpServerSession(AppCallbacks):
    """Static-file-style backend: parses `/.../s/<size>/<seed>/<i>` paths and
    responds with a generated body of exactly <size> bytes."""

    def __init__(self):
        self.endpoint: Optional[MiniTcpEndpoint] = None
        self.transcript = bytearray()
        self._buf = bytearray()

    def on_data(self, chunk: bytes, now: float) -> None:
        self.transcript += chunk
        self._buf += chunk
        while True:
            i = self._buf.find(HEAD_END)
            if i < 0:
                return
            head = bytes(self._buf[:i + len(HEAD_END)])
            del self._buf[:i + len(HEAD_END)]
            self._respond(head, now)

    def _respond(self, head: bytes, now: float) -> None:
        try:
            path = head.split(b"\r\n", 1)[0].split(b" ")[1]
            parts = path.split(b"/")
            k = parts.index(b"s")
            size = int(parts[k + 1])
            seed = int(parts[k + 2])
        except (IndexError, ValueError):
            self.endpoint.send_bytes(
                b"HTTP/1.1 400 Bad Request\r\nContent-Length: 0\r\n\r\n", now)
            return
        head = response_head(size)
        self.endpoint.send_generated(with_head(head, make_body(seed)), len(head) + size, now)

    def on_peer_fin(self, now: float) -> None:
        self.endpoint.close(now)
