"""Quick self-check of the benchmark harness at tiny sizes.

    python3 benchmarks/selfcheck.py

Runs every workload with its sample budgets divided by 100 for about a
second, untraced and traced twice, and checks that the harness reports
exactly the metrics BENCHMARK.json names, that every op passes, that the
traced counts repeat at a fixed seed, and that no span has negative self
time. It also checks the span arithmetic and the tail rule on hand-made
inputs, and that run.py refuses to run without hamsim sources. Prints one
PASS/FAIL line per check; exits 0 only if all pass. Takes about 10 s.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys

import numpy as np

import spans
from harness import OpRecord, Run, run_workload, tail_latency
from workloads import HERE, ROOT, WORKLOADS, OpResult, import_hamsim

SCALE = 100
SECONDS = 0.5
EXACT_COUNTS = ("pauli.apply.calls", "rng.derived_rng.calls", "statevector.run_plan.calls")

results = []


def check(name: str, ok: bool, detail: str = "") -> None:
    results.append(ok)
    print(f"{'PASS' if ok else 'FAIL'} {name}{': ' + detail if detail else ''}", flush=True)


def synthetic_spans() -> None:
    # parent 0 on thread 1 spans [0, 10]; a same-thread child covers [0.5, 1];
    # worker children on thread 2 and 3 cover [1, 5] and [3, 8] (union 7)
    cols = {
        "sid": np.arange(4), "parent": np.array([-1, 0, 0, 0]),
        "name": np.zeros(4, dtype=np.int64), "t0": np.array([0.0, 0.5, 1.0, 3.0]),
        "t1": np.array([10.0, 1.0, 5.0, 8.0]), "thread": np.array([1, 1, 2, 3]),
    }
    got = spans.self_times(cols)
    check("self-time-union", np.allclose(got, [2.5, 0.5, 4.0, 5.0]), f"{got.tolist()}")


def tail_rule() -> None:
    value, pct, n = tail_latency(list(range(30)))
    check("tail-30-ops", (value, n) == (19, 30) and math.isclose(pct, 200 / 3),
          f"p{pct:.1f} = {value}")
    value, pct, n = tail_latency([3.0, 1.0, 2.0])
    check("tail-few-ops", (value, pct) == (3.0, 100.0), f"p{pct:.0f} = {value}")


def replay_mismatch() -> None:
    a = OpRecord(0, "warm-up", 0.0, OpResult([], (1.0,)))
    b = OpRecord(0, "timed", 0.0, OpResult([], (float(np.nextafter(1.0, 2.0)),)))
    Run.expect_same(b, a, "replay")
    check("replay-mismatch-fails-op", bool(b.problems), str(b.problems))


def bare_checkout() -> None:
    bare = HERE / "out" / "selfcheck-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "single_state", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180,
    )
    shutil.rmtree(bare, ignore_errors=True)
    check("bare-checkout-refused", proc.returncode != 0 and "{" not in proc.stdout,
          f"exit {proc.returncode}")


def workloads(hs, spec) -> None:
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    check("workload-names", {w["name"] for w in spec["workloads"]} <= set(WORKLOADS))
    for name, cls in WORKLOADS.items():
        plain = run_workload(hs, cls(SCALE), 7, SECONDS, False, setup_repeats=1)
        units = {k: u for k, (_, u) in plain["metrics"].items()}
        values = [v for v, _ in plain["metrics"].values()]
        check(f"{name}-untraced", plain["failed"] == 0 and units == e2e
              and all(math.isfinite(v) and v > 0 for v in values),
              f"{plain['attempted']} ops, failures {plain['detail']['failures']}")
        traced = [run_workload(hs, cls(SCALE), 7, SECONDS, True) for _ in range(2)]
        units = {k: u for k, (_, u) in traced[0]["metrics"].items()}
        check(f"{name}-traced", all(t["failed"] == 0 for t in traced) and units == layer,
              f"{traced[0]['attempted']} ops")
        counts = [[t["metrics"][c][0] for c in EXACT_COUNTS] for t in traced]
        check(f"{name}-counts-repeat", counts[0] == counts[1] and counts[0][0] > 0,
              f"{dict(zip(EXACT_COUNTS, counts[0]))}")
        with spans.Tracer() as tracer:
            tracer.start_op(0)
            workload = cls(SCALE)
            workload.op(hs, workload.load_model(hs), 7)
        lowest = float(spans.self_times(tracer.arrays()).min())
        check(f"{name}-self-times", lowest > -1e-6, f"lowest {lowest:.2e} s")


def main() -> int:
    hs = import_hamsim()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    synthetic_spans()
    tail_rule()
    replay_mismatch()
    workloads(hs, spec)
    bare_checkout()
    print(f"{sum(results)}/{len(results)} checks passed")
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
