"""Tests of the benchmark itself: a tiny-size run of every workload through
the same command the benchmark is run with, and unit tests of its parts.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

import replay
import run
import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = "0.05"  # each sub-run keeps one connection or a few


def bench(workload: str, trace: int) -> tuple[int, list[str]]:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0", "--trace", str(trace), "--scale", TINY],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    return proc.returncode, proc.stdout.splitlines()


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_prints_every_metric_with_its_unit(workload, trace, section):
    code, lines = bench(workload, trace)
    result = json.loads(lines[-1])
    assert code == 0, lines[-20:]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    assert 0 <= result["failed"] <= result["attempted"]
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: m["unit"] for k, m in result["metrics"].items()} == expected
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)) and math.isfinite(m["value"]), name
        assert any(line.endswith(f"{name} = {m['value']} {m['unit']}") for line in lines)
    if trace == 0:
        digests = next(line for line in lines if "replay digest" in line)
        assert digests.endswith("packets that differ: 0")
        for name in ("sim_req_per_s", "fct_p50_ms", "fct_tail_ms", "failed_req_ratio",
                     "drain_leftovers"):
            assert any(f"] {name} = " in line for line in lines), name


def test_spec_names_the_workloads_the_benchmark_has():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def test_without_the_program_it_fails_without_a_result(monkeypatch, capsys):
    monkeypatch.setattr(workloads, "SRC", ROOT / "no-such-dir")
    assert run.main(["--workload", "bulk_offload", "--seed", "1", "--seconds", "1"]) != 0
    assert "{" not in capsys.readouterr().out


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    xs = [float(i) for i in range(1, 101)]           # 1..100
    assert run.tail(xs) == (50.0, 90, 90.0, 100)     # p95 has only 5 beyond
    assert run.tail(xs[:15])[1] == 50                # too few for any higher one


def test_self_times_and_unattributed_add_up_to_the_wall_time():
    tracer = spans.Tracer()

    class Layer:
        def inner(self):
            return sum(range(2000))

        def outer(self):
            return self.inner() + self.inner()

    targets = [("a.outer", Layer, "outer", None), ("b.inner", Layer, "inner", None)]
    with spans.patched(tracer, targets):
        Layer().outer()
        assert tracer.calls("b.inner") == 2
    assert Layer.outer.__name__ == "outer"            # restored
    total = tracer.spans["a.outer"][1]
    assert tracer.layer_self_s("a") + tracer.layer_self_s("b") == pytest.approx(total)
    assert tracer.root_s == total


def test_pacer_runs_snippets_on_packet_1_and_every_200th_and_scales_them_out():
    pacer = replay.Pacer()
    for _ in range(401):
        pacer.tick()
    assert pacer.snippets == 3                        # packets 1, 201, 401
    mean = pacer.spent / pacer.snippets
    wall = pacer.spent + 1.0
    assert pacer.scaled(wall) == pytest.approx(replay.REF_SNIPPET_S / mean)
    assert replay.Pacer().scaled(2.5) == 2.5          # no packets, no scaling
