"""Topology wiring and the simulation runner.

Router-on-a-stick: clients and backends hang off the load balancer's single
ingress, modeled as one full-duplex link per side.  Every packet enters
through the flow engine; engine misses go to the steered worker, which runs
the splice agent.  Identical seeds replay identical event sequences.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from ..conntable import CuckooTable, TableConfig, mix64
from ..flow_engine import FlowEngine
from ..offload import OffloadManager, formula_threshold
from ..packet import FlowKey, Packet, TcpFlags
from ..splice import Backend, HeaderEdit, RouteRule, RouteTable, SpliceAgent
from .apps import HttpClientSession, HttpServerSession, RequestSpec
from .events import EventQueue
from .link import Link, LinkParams
from .tcp import MiniTcpEndpoint

VIP_ADDR = 0x0A0000FE          # 10.0.0.254
VIP_PORT = 80
LB_ADDR = 0x0A010001           # 10.1.0.1
CLIENT_ADDR_BASE = 0x0A020000  # 10.2.x.x
CLIENT_PORT_BASE = 10000
URL_PREFIX = b"/api"           # every request's path starts with it; its route edits the head
BACKENDS = (Backend(0x0A030001, 8080), Backend(0x0A030002, 8080))

# each offload_mode's threshold for the offload manager, from the MSS: the
# response bytes from which it offloads
OFFLOAD_THRESHOLDS = {"auto": formula_threshold, "always": lambda mss: 0.0,
                      "never": lambda mss: math.inf}


@dataclass(frozen=True)
class TopologyParams:
    n_workers: int = 4
    mss: int = 1460
    client_link: LinkParams = LinkParams()
    server_link: LinkParams = LinkParams()
    table_buckets: int = 4096
    sweep_interval: float = 30.0
    aged_poll_interval: float = 1.0


@dataclass(frozen=True)
class WorkloadParams:
    connections: int = 1
    requests_per_connection: tuple[int, int] = (1, 1)  # inclusive range
    sizes: tuple[tuple[int, float], ...] = ((1024, 1.0),)  # (bytes, weight)
    start_spacing: float = 200e-6


@dataclass(frozen=True)
class SimParams:
    topology: TopologyParams = TopologyParams()
    workload: WorkloadParams = WorkloadParams()
    offload_mode: str = "auto"          # a key of OFFLOAD_THRESHOLDS
    until: float = 300.0                # hard sim-time cap
    drain: float = 0.0                  # extra time after every endpoint has closed

    def __post_init__(self):
        if self.offload_mode not in OFFLOAD_THRESHOLDS:
            raise ValueError(f"unknown offload_mode {self.offload_mode!r}")


@dataclass
class ResponseEvent:
    """A response the worker saw complete, at `t`: on the client's ACK of
    its last byte or, when the engine hairpinned that ACK, on the client's
    next request or FIN (an offloaded response on a connection that stays
    idle is not logged).  Pipelined responses one ACK passes are one event,
    with the last one's `resp_len`; `index` counts the events before it."""
    conn: int
    index: int
    resp_len: int
    offloaded: bool
    t: float


class _ClientHost:
    def __init__(self):
        # by the key the endpoint's packets arrive on: its own key reversed
        self.endpoints: dict[FlowKey, MiniTcpEndpoint] = {}

    def deliver(self, now: float, pkt: Packet) -> None:
        ep = self.endpoints.get(pkt.key)
        if ep is not None:
            ep.on_segment(pkt, now)


class _ServerHost:
    def __init__(self, sim):
        self.sim = sim
        # by arriving key, as _ClientHost.endpoints; sessions by local key
        self.endpoints: dict[FlowKey, MiniTcpEndpoint] = {}
        self.sessions: dict[FlowKey, HttpServerSession] = {}

    def deliver(self, now: float, pkt: Packet) -> None:
        ep = self.endpoints.get(pkt.key)
        if ep is None:
            if not pkt.syn or (pkt.flags & TcpFlags.ACK):
                return
            local = pkt.key.reverse()
            session = HttpServerSession()
            isn = mix64(self.sim.seed ^ local.pack() ^ 0x5E4E4) & 0xFFFFFFFF
            ep = self.sim.new_endpoint(local, isn, self.sim.link_s2lb.send, session)
            session.endpoint = ep
            self.endpoints[pkt.key] = ep
            self.sessions[local] = session
            ep.accept(pkt, now)
            return
        ep.on_segment(pkt, now)


class Simulation:
    def __init__(self, params: SimParams, seed: int):
        self.params = params
        self.seed = seed
        topo = params.topology
        self.queue = EventQueue()

        self.engine = FlowEngine(n_workers=topo.n_workers, vips=[(VIP_ADDR, VIP_PORT)])

        self.table = CuckooTable(TableConfig(bucket_count=topo.table_buckets))
        self.routes = self._default_routes()
        self.agent = SpliceAgent(
            self.table, self.routes, vip_addr=VIP_ADDR, vip_port=VIP_PORT,
            lb_addr=LB_ADDR, mss=topo.mss,
            cookie_secret=seed.to_bytes(8, "big", signed=False),
            shard_of=self.engine.shard_of)
        self.agent.response_observer = self._record_response

        self.offload_mgr = OffloadManager(
            self.engine, self.agent, OFFLOAD_THRESHOLDS[params.offload_mode](topo.mss),
            schedule=self.queue.schedule, emit=self._emit_from_worker)

        # wire: one full-duplex link pair per side of the stick
        self.client_host = _ClientHost()
        self.server_host = _ServerHost(self)
        self.link_c2lb = Link(self.queue, topo.client_link, mix64(seed ^ 1),
                              self._lb_ingress)
        self.link_lb2c = Link(self.queue, topo.client_link, mix64(seed ^ 2),
                              self.client_host.deliver)
        self.link_s2lb = Link(self.queue, topo.server_link, mix64(seed ^ 3),
                              self._lb_ingress)
        self.link_lb2s = Link(self.queue, topo.server_link, mix64(seed ^ 4),
                              self.server_host.deliver)

        self.sessions: list[HttpClientSession] = []
        self._live_endpoints = 0   # endpoints, both sides, not yet terminal
        self.response_log: list[ResponseEvent] = []
        self._build_workload()
        self._schedule_housekeeping()

    # -- construction ----------------------------------------------------------

    def _default_routes(self) -> RouteTable:
        return RouteTable(
            rules=[RouteRule(URL_PREFIX, "main",
                             (HeaderEdit("x-forwarded-for", "$client_addr"),))],
            pools={"main": list(BACKENDS)},
            default_pool="main", seed=self.seed)

    def _build_workload(self) -> None:
        rng = random.Random(mix64(self.seed ^ 0x770AD))
        wl = self.params.workload
        sizes = [s for s, _ in wl.sizes]
        weights = [w for _, w in wl.sizes]
        for i in range(wl.connections):
            lo, hi = wl.requests_per_connection
            n_req = rng.randint(lo, hi)
            specs = []
            for j in range(n_req):
                size = rng.choices(sizes, weights=weights)[0]
                body_seed = mix64((self.seed << 1) ^ (i * 131071 + j))
                path = b"%s/s/%d/%d/%d" % (URL_PREFIX, size, body_seed, j)
                specs.append(RequestSpec(path=path, size=size, body_seed=body_seed))
            session = HttpClientSession(specs)
            self.sessions.append(session)
            key = FlowKey(CLIENT_ADDR_BASE + 1 + i // 40000,
                          VIP_ADDR, CLIENT_PORT_BASE + i % 40000, VIP_PORT)
            isn = mix64(self.seed ^ key.pack() ^ 0xC11E47) & 0xFFFFFFFF
            ep = self.new_endpoint(key, isn, self.link_c2lb.send, session)
            session.endpoint = ep
            self.client_host.endpoints[key.reverse()] = ep
            self.queue.schedule(i * wl.start_spacing, ep.connect)

    def new_endpoint(self, key: FlowKey, isn: int, transmit, app) -> MiniTcpEndpoint:
        """An endpoint that the stop condition waits for."""
        self._live_endpoints += 1
        return MiniTcpEndpoint(self.queue, key, self.params.topology.mss, isn,
                               transmit, app=app, on_terminal=self._endpoint_terminal)

    def _endpoint_terminal(self) -> None:
        self._live_endpoints -= 1

    def _schedule_housekeeping(self) -> None:
        topo = self.params.topology

        def sweep(now):
            self.agent.sweep(now)
            if not self._finished():
                self.queue.schedule(now + topo.sweep_interval, sweep)

        def poll_aged(now):
            aged = self.engine.poll_aged(now)
            if aged:
                self.offload_mgr.on_rules_aged(aged, now)
            if not self._finished():
                self.queue.schedule(now + topo.aged_poll_interval, poll_aged)

        self.queue.schedule(topo.sweep_interval, sweep)
        self.queue.schedule(topo.aged_poll_interval, poll_aged)

    # -- datapath ---------------------------------------------------------------

    def _lb_ingress(self, now: float, pkt: Packet) -> None:
        pkt, worker = self.engine.process(pkt, now)
        if worker is None:  # hairpinned, rewritten by a rule
            self._emit(pkt, now)
            return
        for out in self.agent.handle_packet(pkt, now, worker):
            self._emit(out, now)

    def _emit(self, pkt: Packet, now: float) -> None:
        if pkt.key.dst_addr & 0xFFFF0000 == CLIENT_ADDR_BASE:
            self.link_lb2c.send(pkt, now)
        else:
            self.link_lb2s.send(pkt, now)

    def _emit_from_worker(self, pkts: list[Packet], now: float) -> None:
        for pkt in pkts:
            self._emit(pkt, now)

    def _record_response(self, entry, now: float) -> None:
        self.response_log.append(ResponseEvent(
            conn=entry.client_key.src_port - CLIENT_PORT_BASE,
            index=entry.resp_index,
            resp_len=entry.resp_len,
            offloaded=entry.offloaded,
            t=now))

    # -- running -----------------------------------------------------------------

    def _finished(self) -> bool:
        return self._live_endpoints == 0

    def run(self) -> "Simulation":
        """Run until every endpoint, client and backend, is terminal (closed
        cleanly or dead), then `drain` more seconds; never past `until`.
        A backend endpoint terminates only after the client's last ACK has
        crossed the LB, so the agent has seen the whole teardown.  A
        connection that never closes runs the simulation to `until`."""
        self.queue.run(until=self.params.until, stop=self._finished)
        if self.params.drain > 0:
            self.queue.run(until=min(self.queue.now + self.params.drain,
                                     self.params.until))
        return self

    # -- results -----------------------------------------------------------------

    def server_received_streams(self) -> dict[FlowKey, bytes]:
        return {k: bytes(s.transcript) for k, s in self.server_host.sessions.items()}
