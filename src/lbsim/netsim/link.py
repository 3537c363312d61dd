"""Point-to-point simplex link: propagation latency, serialization delay
from bandwidth, seeded per-packet Bernoulli loss.  FIFO per direction.

Every link has the same LATENCY (50 us of propagation) and BYTES_PER_SEC
(10 Gbps); only its loss rate is set per link, in LinkParams."""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

from ..packet import Packet
from .events import EventQueue

WIRE_OVERHEAD_BYTES = 58  # Ethernet + IP + TCP framing approximation
LATENCY = 50e-6  # propagation, seconds
BYTES_PER_SEC = 10e9 / 8


@dataclass(frozen=True)
class LinkParams:
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
        self._free_at = 0.0
        self.tx_packets = 0
        self.tx_bytes = 0
        self.dropped = 0
        self.dropped_bytes = 0

    def send(self, pkt: Packet, now: float) -> None:
        size = len(pkt.payload)
        self.tx_packets += 1
        self.tx_bytes += size
        loss = self.params.loss
        if loss > 0 and self._rng.random() < loss:
            self.dropped += 1
            self.dropped_bytes += size
            return
        start = now if now > self._free_at else self._free_at
        self._free_at = start + (size + WIRE_OVERHEAD_BYTES) / BYTES_PER_SEC
        self.queue.schedule(self._free_at + LATENCY, self.deliver, pkt)
