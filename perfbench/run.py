"""Benchmark of lbsim: live simulation, LB-only replay, per-layer traced run.

    python3 perfbench/run.py --workload short_keepalive --seed 1 --seconds 40 --trace 0

`--workload all` runs every workload, each in its own process.  A seed names
one input: a fixed set of simulations (sub-runs), each with its own
simulation seed derived from `--seed`.

With `--trace 0` the run first simulates the first sub-run once without
hooks, to read the peak RSS; then it cycles through the sub-runs until
`--seconds` have passed (at least once through all of them), each time
running the live `Simulation` with its LB ingress captured, then REPLAYS
LB-only replays of that capture.  With `--trace 1` it alternates untraced
and traced runs of the first sub-run and reports the per-layer metrics
(layers.py).  Every live run is checked byte for byte (checks.py).  The
last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`; the lines before it report each metric
with its unit, and what the JSON has no room for.  See README.md.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import resource
import statistics
import subprocess
import sys
import time
import traceback

import replay
from checks import Ledger
from layers import per_layer
from workloads import WORKLOADS, MissingProgram, load_lbsim

SETUP_SAMPLES = 9
REPLAYS = 2              # replays of each live run's capture
PERCENTILES = (50, 75, 90, 95, 99, 99.9, 99.99)
TAIL_MIN_BEYOND = 10


def tail(fcts: list[float]) -> tuple[float, float, float, int]:
    """(p50, tail percentile, tail value, n): the tail is the highest of
    PERCENTILES with at least TAIL_MIN_BEYOND samples beyond it (p50 when
    there are too few samples for any higher one)."""
    xs = sorted(fcts)
    n = len(xs)
    if not n:
        return math.nan, 50, math.nan, 0
    best = max((p for p in PERCENTILES if n - math.ceil(p / 100 * n) >= TAIL_MIN_BEYOND),
               default=50)

    def at(p):
        return xs[max(1, math.ceil(p / 100 * n)) - 1]

    return at(50), best, at(best), n


def setup(workload, seed: int, scale: float):
    """Time `lbsim` import plus construction of the first sub-run's
    `Simulation`, up to its first event, SETUP_SAMPLES times.  Returns the
    last import, which the runs use, and each sample in seconds and in
    reference seconds (replay.Pacer), from snippets timed around it."""
    samples, ref_samples = [], []
    for _ in range(SETUP_SAMPLES):
        before = replay.snippet_seconds()
        t0 = time.perf_counter()
        sim_mod = load_lbsim()
        sub = workload.sub_runs(sim_mod, seed, scale)[0]
        sim_mod.Simulation(sub.params, sub.seed)
        wall = time.perf_counter() - t0
        snippet = (before + replay.snippet_seconds()) / 2
        samples.append(wall)
        ref_samples.append(wall * replay.REF_SNIPPET_S / snippet)
        gc.collect()
    return sim_mod, samples, ref_samples


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(ledger: Ledger, workload, subs: list, seconds: float, setup_s: float,
               report) -> tuple[dict, int]:
    """Cycle through the sub-runs until `seconds` have passed, at least once.
    Each sub-run's live run and replays are timed with the cyclic garbage
    collector paused (as `timeit` does): otherwise every full collection
    walks the capture lists, which belong to the benchmark.  Rates use each
    sub-run's fastest time in reference seconds (replay.Pacer)."""
    started = time.perf_counter()
    ledger.run(subs[0], capture=False)
    gc.collect()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    n = len(subs)
    best_live, best_ref_live, best_replay = [math.inf] * n, [math.inf] * n, [math.inf] * n
    last = [0.0] * n
    live_digests, replay_digests, mismatched = [], [], 0
    k = 0
    while True:
        t0 = time.perf_counter()
        i = k % n
        sub = subs[i]
        gc.disable()
        try:
            live, sim, cap = ledger.run(sub)
            del sim
            for _ in range(REPLAYS):
                out, wall = replay.replay(ledger.sim_mod, sub.params, sub.seed, cap,
                                          until=live.end)
                mismatched += replay.mismatches(cap.egress, out)
                best_replay[i] = min(best_replay[i], wall)
        finally:
            gc.enable()
        if k < n:
            live_digests.append(live.digest)
            replay_digests.append(replay.digest(out))
        best_live[i] = min(best_live[i], live.wall)
        best_ref_live[i] = min(best_ref_live[i], live.ref_wall)
        del cap, out
        gc.collect()
        last[i] = time.perf_counter() - t0
        k += 1
        if k >= n and time.perf_counter() - started + last[k % n] > seconds:
            break

    firsts = [ledger.first(sub.seed) for sub in subs]
    ingress = sum(o.ingress for o in firsts)
    verified = sum(o.verdict.verified for o in firsts)
    attempted = sum(o.verdict.attempted for o in firsts)
    leftovers = {kind: sum(o.leftovers[kind] for o in firsts) for kind in firsts[0].leftovers}
    p50, tail_p, tail_v, n_fct = tail([t for o in firsts for t in o.verdict.fcts])
    per_part = []
    for p, part in enumerate(workload.parts):
        mine = [o for sub, o in zip(subs, firsts) if sub.part == p]
        per_part.append((part.weight, sum(o.misses for o in mine)
                         / max(1, sum(o.verdict.verified for o in mine))))
    worker_per_resp = sum(w * x for w, x in per_part) / sum(w for w, _ in per_part)

    def combined(digests):
        return hashlib.blake2b("".join(digests).encode(), digest_size=16).hexdigest()

    report(f"live runs: {k} over {n} sub-runs; fastest live wall s: "
           + " ".join(f"{x:.3f}" for x in best_live) + f"; unscaled sim_pkts_per_s "
           f"{ingress / sum(best_live):.1f} pkt/s")
    report(f"replay digest {combined(replay_digests)}, live LB egress digest "
           f"{combined(live_digests)}, packets that differ: {mismatched}")
    report(f"sim_req_per_s = {verified / sum(best_live):.4f} req/s (higher is better; "
           f"{verified} verified requests over the sub-runs' fastest live wall times)")
    report(f"fct_p50_ms = {p50 * 1e3:.4f} ms (lower is better; n={n_fct})")
    report(f"fct_tail_ms = {tail_v * 1e3:.4f} ms (lower is better; p{tail_p}, "
           f"{n_fct - math.ceil(tail_p / 100 * n_fct)} of n={n_fct} samples beyond it)")
    report(f"failed_req_ratio = {(attempted - verified) / attempted} ratio (lower is better; "
           f"{attempted - verified} of {attempted})")
    report(f"drain_leftovers = {sum(leftovers.values())} count (lower is better; "
           + ", ".join(f"{kind} {x}" for kind, x in leftovers.items()) + ")")
    report("worker packets per response by part: "
           + ", ".join(f"{x:.3f} (weight {w:g})" for w, x in per_part))
    metrics = {
        "setup_s": metric(setup_s, "s"),
        "sim_pkts_per_s": metric(ingress / sum(best_ref_live), "pkt/ref_s"),
        "lb_replay_pps": metric(ingress / sum(best_replay), "pkt/ref_s"),
        "peak_rss_mb": metric(peak_rss_mb, "MiB"),
        "worker_pkts_per_resp": metric(worker_per_resp, "pkt"),
    }
    return metrics, mismatched


def run_all(args) -> int:
    codes = []
    for name in WORKLOADS:
        print(f"== {name}", flush=True)
        codes.append(subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--scale", str(args.scale)]).returncode)
    return max(codes)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", type=float, default=1.0,
                    help="multiplies each sub-run's connection count (tests use a small one)")
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args)

    def report(line: str) -> None:
        print(f"[{args.workload} seed={args.seed}] {line}", flush=True)

    workload = WORKLOADS[args.workload]
    try:
        sim_mod, setup_samples, ref_setup_samples = setup(workload, args.seed, args.scale)
    except (MissingProgram, ImportError) as e:
        print(f"cannot load the program: {e}", file=sys.stderr)
        return 2
    subs = workload.sub_runs(sim_mod, args.seed, args.scale)
    topo = subs[0].params.topology
    report(f"{len(subs)} sub-runs of {subs[0].params.workload.connections} connections, "
           f"table_buckets {topo.table_buckets}, loss {workload.loss}; "
           "setup samples s: " + " ".join(f"{x:.4f}" for x in setup_samples)
           + "; in reference s: " + " ".join(f"{x:.4f}" for x in ref_setup_samples))
    ledger = Ledger(sim_mod)
    mismatched = 0
    try:
        if args.trace:
            metrics = per_layer(ledger, subs[0], args.seconds, report)
        else:
            metrics, mismatched = end_to_end(ledger, workload, subs, args.seconds,
                                             statistics.median(ref_setup_samples), report)
    except Exception:
        # the program raised, or ran differently on the same input: this
        # workload run failed, and its traceback is the record
        traceback.print_exc()
        attempted = ledger.attempted + ledger.in_flight
        print(json.dumps({"correct": False, "attempted": max(1, attempted),
                          "failed": ledger.failed + ledger.in_flight, "metrics": {}}))
        return 1
    for note in ledger.notes:
        report("note: " + note)
    for name, m in metrics.items():
        report(f"{name} = {m['value']} {m['unit']}")
    correct = ledger.wrong == 0 and mismatched == 0
    print(json.dumps({"correct": correct, "attempted": ledger.attempted,
                      "failed": ledger.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
