"""Per-layer metrics from a traced live run.

Each layer is a module under `src/lbsim/`.  The traced run wraps the public
calls into each layer in spans (see spans.py), from the benchmark's own
process; no program file is touched.  Counts that the program keeps itself
(table relocations, TCP retransmits, offload rule installs, ...) are read
after the run.  An untraced run of the same input precedes every traced one;
the ratio of their wall times gives the tracing overhead.
"""

from __future__ import annotations

import gc
import statistics
import time
from collections import defaultdict

import spans
from checks import Ledger, NondeterminismError
from workloads import module

LAYERS = ("netsim.sim", "netsim.events", "netsim.link", "netsim.tcp", "netsim.apps",
          "flow_engine", "splice", "conntable", "offload")

# spans whose own self time is reported, besides each layer's total
REPORTED_SPANS = ("netsim.sim.stop_check", "netsim.link.send", "netsim.tcp.on_segment",
                  "netsim.apps.on_data", "flow_engine.process", "splice.handle_packet",
                  "conntable.lookup", "conntable.insert", "conntable.sweep")


def trace_targets(tracer: spans.Tracer, counters: dict) -> list:
    """(span name, owner, attribute, optional inner wrapper) for the
    public calls into each layer.  Class methods are wrapped, because the
    simulator binds some of them while it is being constructed."""
    events, link, tcp, apps, sim = (module("netsim." + m) for m in
                                    ("events", "link", "tcp", "apps", "sim"))
    fe, sp, ct, off = (module(m) for m in ("flow_engine", "splice", "conntable", "offload"))

    def generated(make_body):
        return lambda seed: tracer.wrap("netsim.apps.generate", make_body(seed))

    def counting_outputs(handle):
        def handle_packet(self, *args):
            out = handle(self, *args)
            counters["splice_out"] += len(out)
            return out
        return handle_packet

    live_keys: set[int] = set()

    def note_load(table):
        slots = table.config.bucket_count * table.config.slots_per_bucket
        counters["peak_load"] = max(counters["peak_load"], len(live_keys) / slots)

    def inserting(insert):
        def wrapped(self, key, *args, **kwargs):
            insert(self, key, *args, **kwargs)
            live_keys.add(key.pack())
            note_load(self)
        return wrapped

    def removing(remove):
        def wrapped(self, key):
            found = remove(self, key)
            live_keys.discard(key.pack())
            return found
        return wrapped

    def sweeping(sweep_expired):
        def wrapped(self, now):
            evicted = sweep_expired(self, now)
            for key, _ in evicted:
                live_keys.discard(key.pack())
            return evicted
        return wrapped

    return [
        ("netsim.events.run", events.EventQueue, "run", None),
        ("netsim.events.schedule", events.EventQueue, "schedule", None),
        ("netsim.sim.stop_check", sim.Simulation, "_finished", None),
        ("netsim.sim.lb_ingress", sim.Simulation, "_lb_ingress", None),
        ("netsim.sim.client_deliver", sim._ClientHost, "deliver", None),
        ("netsim.sim.server_deliver", sim._ServerHost, "deliver", None),
        ("netsim.link.send", link.Link, "send", None),
        ("netsim.tcp.on_segment", tcp.MiniTcpEndpoint, "on_segment", None),
        ("netsim.tcp.on_rto", tcp.MiniTcpEndpoint, "_on_rto", None),
        ("netsim.tcp.connect", tcp.MiniTcpEndpoint, "connect", None),
        ("netsim.tcp.send_bytes", tcp.MiniTcpEndpoint, "send_bytes", None),
        ("netsim.tcp.send_generated", tcp.MiniTcpEndpoint, "send_generated", None),
        ("netsim.tcp.close", tcp.MiniTcpEndpoint, "close", None),
        ("netsim.apps.on_data", apps.HttpClientSession, "on_data", None),
        ("netsim.apps.on_data", apps.HttpServerSession, "on_data", None),
        ("netsim.apps.on_connected", apps.HttpClientSession, "on_connected", None),
        ("netsim.apps.on_peer_fin", apps.HttpClientSession, "on_peer_fin", None),
        ("netsim.apps.on_peer_fin", apps.HttpServerSession, "on_peer_fin", None),
        ("netsim.apps.make_body", apps, "make_body", generated),
        ("flow_engine.process", fe.FlowEngine, "process", None),
        ("flow_engine.insert_rules", fe.FlowEngine, "insert_rules", None),
        ("flow_engine.delete_rules", fe.FlowEngine, "delete_rules", None),
        ("flow_engine.poll_aged", fe.FlowEngine, "poll_aged", None),
        ("splice.handle_packet", sp.SpliceAgent, "handle_packet", counting_outputs),
        ("splice.sweep", sp.SpliceAgent, "sweep", None),
        ("splice.replay_deferred", sp.SpliceAgent, "replay_deferred", None),
        ("conntable.lookup", ct.CuckooTable, "lookup", None),
        ("conntable.insert", ct.CuckooTable, "insert", inserting),
        ("conntable.remove", ct.CuckooTable, "remove", removing),
        ("conntable.sweep", ct.CuckooTable, "sweep_expired", sweeping),
        ("offload.on_resp_len_known", off.OffloadManager, "on_resp_len_known", None),
        ("offload.on_response_complete", off.OffloadManager, "on_response_complete", None),
        ("offload.on_entry_removed", off.OffloadManager, "on_entry_removed", None),
        ("offload.on_rules_aged", off.OffloadManager, "on_rules_aged", None),
        ("offload.on_timer", off.OffloadManager, "_on_timer", None),
        ("offload.deletion_done", off.OffloadManager, "_deletion_done", None),
    ]


def traced_run(ledger: Ledger, sub):
    """One live run with spans on; returns its outcome, simulation, tracer
    and hook counters."""
    tracer = spans.Tracer()
    counters = {"splice_out": 0, "peak_load": 0.0}
    with spans.patched(tracer, trace_targets(tracer, counters)):
        sim = ledger.sim_mod.Simulation(sub.params, sub.seed)
        tracer.reset()  # spans recorded while constructing are not part of the run
        outcome, sim, _ = ledger.run(sub, sim=sim)
    return outcome, sim, tracer, counters


def per_layer(ledger: Ledger, sub, seconds: float, report) -> dict:
    """Alternate untraced and traced runs of one sub-run until
    `seconds` have passed; times are medians over the pairs, counts come
    from the first traced run (they repeat exactly)."""
    samples: dict[str, list[float]] = defaultdict(list)
    durations: list[float] = []
    started = time.perf_counter()
    first = None
    while True:
        t0 = time.perf_counter()
        gc.disable()  # as in the end-to-end runs; GC would land in a random span
        try:
            plain, _, _ = ledger.run(sub)
            traced, sim, tracer, counters = traced_run(ledger, sub)
        finally:
            gc.enable()
        if plain.digest != traced.digest:
            raise NondeterminismError("the traced run's LB egress differs from the untraced run's")
        layer_self = {layer: tracer.layer_self_s(layer) for layer in LAYERS}
        unattributed = traced.wall - tracer.root_s
        samples["trace.overhead_share"].append(traced.wall / plain.wall - 1)
        samples["trace.unattributed_share"].append(unattributed / traced.wall)
        samples["netsim.events.per_s"].append(plain.events / plain.wall)
        for layer, self_s in layer_self.items():
            samples[f"{layer}.self_s"].append(self_s)
        for name in REPORTED_SPANS:
            samples[f"{name}.self_s"].append(tracer.self_s(name))
        if first is None:
            first = (traced, sim, tracer, counters)
            report(f"self-time check: layers {sum(layer_self.values()):.4f} s + unattributed "
                   f"{unattributed:.4f} s = {sum(layer_self.values()) + unattributed:.4f} s; "
                   f"traced wall {traced.wall:.4f} s; untraced wall {plain.wall:.4f} s")
        del sim, tracer
        gc.collect()
        durations.append(time.perf_counter() - t0)
        if time.perf_counter() - started + statistics.median(durations) > seconds:
            break
    report(f"traced pairs: {len(durations)}")
    return layer_metrics(samples, *first)


def layer_metrics(samples, outcome, sim, tracer, counters) -> dict:
    v = outcome.verdict
    es, ts, agent = sim.engine.stats, sim.table.stats, sim.agent.counters
    eps = [*sim.client_host.endpoints.values(), *sim.server_host.endpoints.values()]
    off = sim.offload_mgr.stats if sim.offload_mgr else defaultdict(int)
    links = (sim.link_c2lb, sim.link_lb2c, sim.link_s2lb, sim.link_lb2s)

    def unit(name):
        return "ratio" if name.startswith("trace.") else "1/s" if name.endswith("per_s") else "s"

    values = {name: (statistics.median(xs), unit(name)) for name, xs in samples.items()}
    values.update({
        "netsim.sim.stop_check.calls": (tracer.calls("netsim.sim.stop_check"), "count"),
        "netsim.events.count": (outcome.events, "count"),
        "netsim.link.send.calls": (tracer.calls("netsim.link.send"), "count"),
        "netsim.link.dropped": (sum(link.dropped for link in links), "pkt"),
        "netsim.tcp.on_segment.calls": (tracer.calls("netsim.tcp.on_segment"), "count"),
        "netsim.tcp.retransmits": (sum(ep.stats["retransmits"] for ep in eps), "count"),
        "netsim.tcp.fast_retransmits": (sum(ep.stats["fast_retransmits"] for ep in eps), "count"),
        "netsim.tcp.rto_fires": (sum(ep.stats["rto_fires"] for ep in eps), "count"),
        "netsim.apps.on_data.calls": (tracer.calls("netsim.apps.on_data"), "count"),
        "netsim.apps.verified_bytes": (outcome.verified_bytes, "bytes"),
        "flow_engine.process.calls": (tracer.calls("flow_engine.process"), "count"),
        "flow_engine.hit_share": (es.matched / max(1, outcome.ingress), "ratio"),
        "flow_engine.sack_diverted": (es.sack_diverted, "pkt"),
        "flow_engine.rules_inserted": (es.rules_inserted, "count"),
        "flow_engine.rules_deleted": (es.rules_deleted, "count"),
        "splice.handle_packet.calls": (tracer.calls("splice.handle_packet"), "count"),
        "splice.out_per_in": (counters["splice_out"]
                              / max(1, tracer.calls("splice.handle_packet")), "ratio"),
        "splice.acks_suppressed": (agent["acks_suppressed"], "pkt"),
        "splice.inserted_bytes_retx": (agent["inserted_bytes_retx"], "bytes"),
        "splice.cookie_failures": (agent["cookie_failures"], "count"),
        "conntable.lookup.calls": (tracer.calls("conntable.lookup"), "count"),
        "conntable.insert.calls": (tracer.calls("conntable.insert"), "count"),
        "conntable.remove.calls": (tracer.calls("conntable.remove"), "count"),
        "conntable.relocations": (ts.relocations, "count"),
        "conntable.read_retries": (ts.read_retries, "count"),
        "conntable.insert_failures": (ts.insert_failures, "count"),
        "conntable.peak_load": (counters["peak_load"], "ratio"),
        "offload.calls": (tracer.layer_calls("offload"), "count"),
        "offload.rules_installed": (off["rules_installed"], "count"),
        "offload.delete_batches": (off["delete_batches"], "count"),
        "offload.latch_waits": (off["latch_waits"], "count"),
        "offload.rule_updates_per_resp": ((es.rules_inserted + es.rules_deleted)
                                          / max(1, v.verified), "1/resp"),
        "drain.table_keys": (outcome.leftovers["table_keys"], "count"),
        "drain.engine_rules": (outcome.leftovers["engine_rules"], "count"),
        "drain.pending_deletes": (outcome.leftovers["pending_deletes"], "count"),
        "drain.backend_ports": (outcome.leftovers["backend_ports"], "count"),
        "drain_leftovers": (sum(outcome.leftovers.values()), "count"),
        "failed_req_ratio": ((v.attempted - v.verified) / max(1, v.attempted), "ratio"),
    })
    return {k: {"value": x, "unit": u} for k, (x, u) in sorted(values.items())}
