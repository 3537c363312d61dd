"""Point-to-point simplex link: propagation latency, serialization delay
from bandwidth, seeded per-packet Bernoulli loss.  FIFO per direction."""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

from ..packet import Packet
from .events import EventQueue

WIRE_OVERHEAD_BYTES = 58  # Ethernet + IP + TCP framing approximation


@dataclass(frozen=True)
class LinkParams:
    latency: float = 50e-6        # propagation, seconds
    gbps: float = 10.0
    loss: float = 0.0             # per-packet drop probability


class Link:
    """`tx_packets` and `tx_bytes` count every packet and payload byte
    offered to `send()`, delivered or not; `dropped` and `dropped_bytes`
    count the packets and payload bytes the loss draw took out of them."""

    def __init__(self, queue: EventQueue, params: LinkParams, seed: int,
                 deliver: Callable[[float, Packet], None]):
        self.queue = queue
        self.params = params
        self.deliver = deliver
        self._rng = random.Random(seed)
        self._bytes_per_sec = params.gbps * 1e9 / 8
        self._free_at = 0.0
        self.tx_packets = 0
        self.tx_bytes = 0
        self.dropped = 0
        self.dropped_bytes = 0

    def wire_time(self, pkt: Packet) -> float:
        return (len(pkt.payload) + WIRE_OVERHEAD_BYTES) / self._bytes_per_sec

    def send(self, pkt: Packet, now: float) -> None:
        self.tx_packets += 1
        self.tx_bytes += len(pkt.payload)
        if self.params.loss > 0 and self._rng.random() < self.params.loss:
            self.dropped += 1
            self.dropped_bytes += len(pkt.payload)
            return
        start = max(now, self._free_at)
        ser = self.wire_time(pkt)
        self._free_at = start + ser
        self.queue.schedule(self._free_at + self.params.latency, self.deliver, pkt)
