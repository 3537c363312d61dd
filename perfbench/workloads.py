"""The benchmark's workloads, and the loader for the `lbsim` package in `src/`.

Every workload uses MSS 1460 and offload mode `auto`.  Connections start on
a fixed schedule (open loop); requests within a connection are closed loop:
the client sends its next request when the previous response completes.
"""

from __future__ import annotations

import hashlib
import importlib
import sys
from dataclasses import dataclass
from pathlib import Path
from types import ModuleType

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

KIB = 1024
MIB = 1024 * KIB


class MissingProgram(RuntimeError):
    """The `lbsim` sources are not next to the benchmark."""


def load_lbsim() -> ModuleType:
    """Import `lbsim` afresh from `src/` and return `lbsim.netsim.sim`.

    Every call drops the modules a previous call loaded, so the import can be
    timed more than once in one process.  `lbsim/netsim/__init__.py` exports
    a `run` that `sim.py` does not define, so importing the package raises;
    by then every submodule has loaded, and the simulator is taken from
    `sys.modules`.  The normal import is tried first, so this keeps working
    once the package exports what it has.
    """
    if not (SRC / "lbsim" / "__init__.py").is_file():
        raise MissingProgram(f"no lbsim package under {SRC}")
    for name in [m for m in sys.modules if m == "lbsim" or m.startswith("lbsim.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    try:
        importlib.import_module("lbsim.netsim")
    except ImportError:
        if "lbsim.netsim.sim" not in sys.modules:
            raise
    sim = sys.modules["lbsim.netsim.sim"]
    if not Path(sim.__file__).resolve().is_relative_to(SRC):
        raise MissingProgram(f"lbsim was imported from {sim.__file__}, not {SRC}")
    return sim


def module(name: str) -> ModuleType:
    """An `lbsim` submodule loaded by the last `load_lbsim()`."""
    return sys.modules[f"lbsim.{name}"]


@dataclass(frozen=True)
class Part:
    """Connections whose responses come from one size mix."""
    sizes: tuple[tuple[int, float], ...]  # (response bytes, weight)
    weight: float                        # share of the workload's responses
    sub_runs: int                        # simulations of this part in one input


@dataclass(frozen=True)
class SubRun:
    """One simulation of an input: which part, its seed, its parameters."""
    part: int
    seed: int
    params: object


@dataclass(frozen=True)
class Workload:
    name: str
    connections: int                     # per simulation
    requests: tuple[int, int]            # per connection, inclusive
    parts: tuple[Part, ...]
    loss: float = 0.0                    # per packet, on both links
    start_spacing: float = 200e-6        # seconds between connection starts
    table_buckets: int = 4096
    drain: float = 30.0                  # simulated seconds after the last session ends

    def sub_runs(self, sim: ModuleType, seed: int, scale: float = 1.0) -> list[SubRun]:
        """The simulations that make the input `seed` names, each with its
        own seed derived from `seed`.  `scale` multiplies the connection
        count; the table shrinks with it (to a power of two), so that its
        load factor stays where the full-size workload puts it."""
        conns = max(1, round(self.connections * scale))
        buckets = self.table_buckets
        while buckets > 2 and buckets / 2 >= self.table_buckets * scale:
            buckets //= 2
        link = sim.LinkParams(loss=self.loss)
        topology = sim.TopologyParams(mss=1460, client_link=link, server_link=link,
                                      table_buckets=buckets)
        out = []
        for p, part in enumerate(self.parts):
            params = sim.SimParams(
                topology=topology,
                workload=sim.WorkloadParams(connections=conns,
                                            requests_per_connection=self.requests,
                                            sizes=part.sizes,
                                            start_spacing=self.start_spacing),
                offload_mode="auto", drain=self.drain, until=900.0)
            for k in range(part.sub_runs):
                digest = hashlib.blake2b(b"%d/%d/%d" % (seed, p, k), digest_size=7).digest()
                out.append(SubRun(p, int.from_bytes(digest, "big"), params))
        return out


WORKLOADS = {w.name: w for w in (
    Workload(
        name="short_keepalive",
        connections=100, requests=(8, 32),
        parts=(Part(((1 * KIB, 3.0), (16 * KIB, 1.0)), weight=1.0, sub_runs=3),),
        start_spacing=20e-6, table_buckets=64),
    Workload(
        name="bulk_offload",
        connections=3, requests=(1, 3),
        parts=(Part(((4 * MIB, 1.0),), weight=3.0, sub_runs=3),
               Part(((2 * MIB, 1.0),), weight=1.0, sub_runs=1))),
    Workload(
        name="lossy_mixed",
        connections=3, requests=(1, 3),
        parts=(Part(((2 * MIB, 1.0),), weight=1.0, sub_runs=3),
               Part(((256 * KIB, 1.0),), weight=2.0, sub_runs=2),
               Part(((16 * KIB, 1.0),), weight=4.0, sub_runs=2)),
        loss=0.01),
)}
