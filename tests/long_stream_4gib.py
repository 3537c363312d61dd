"""End-to-end run of one connection that carries one 4.5 GiB response, so
both stream positions and the agent's offsets pass 2^32, in offload modes
`auto` and `never`.  Pytest does not collect it (no `test_` prefix): it
takes minutes.  Run it by hand:

    PYTHONPATH=src python3 tests/long_stream_4gib.py [auto] [never]

Each mode runs in its own process, so the peak RSS it prints is its own.
A mode passes when the client got every response byte as generated, the
backend got the request with its insertion, every endpoint closed cleanly,
and after the drain no table entry, live engine rule, pending delete or
backend port is left.  It prints wall time, events processed and peak RSS.
"""

import resource
import subprocess
import sys
import time

from lbsim.netsim import Simulation, SimParams, WorkloadParams
from test_netsim import assert_streams_equal

SIZE = 9 << 29  # 4.5 GiB
MODES = ("auto", "never")


def run(mode: str) -> None:
    params = SimParams(workload=WorkloadParams(connections=1, sizes=((SIZE, 1.0),)),
                       offload_mode=mode, drain=30.0)
    t0 = time.perf_counter()
    sim = Simulation(params, seed=1).run()
    wall = time.perf_counter() - t0
    assert_streams_equal(sim)
    endpoints = [s.endpoint for s in sim.sessions] + list(sim.server_host.endpoints.values())
    assert all(ep.closed_cleanly for ep in endpoints)
    assert sim.queue.now < params.until
    now = sim.queue.now
    leftovers = {
        "table_keys": len(sim.table),
        "engine_rules": sum(r.gone_at is None or r.gone_at > now
                            for r in sim.engine.rules.values()),
        "pending_deletes": len(sim.offload_mgr.pending),
        "backend_ports": len(sim.agent._used_ports)}
    assert not any(leftovers.values()), leftovers
    rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    fct = sim.sessions[0].records[0].fct
    print(f"{mode}: ok, {SIZE} bytes in {fct:.3f} simulated s; wall {wall:.1f} s, "
          f"{sim.queue.processed} events ({sim.queue.processed / wall:.0f}/s), "
          f"peak RSS {rss_mib:.1f} MiB, offloaded {sim.offload_mgr.stats['rules_installed'] > 0}")


if __name__ == "__main__":
    if len(sys.argv) == 2 and sys.argv[1].startswith("--one="):
        run(sys.argv[1][len("--one="):])
    else:
        modes = sys.argv[1:] or MODES
        failed = [m for m in modes
                  if subprocess.run([sys.executable, __file__, f"--one={m}"]).returncode]
        sys.exit(f"failed: {' '.join(failed)}" if failed else 0)
