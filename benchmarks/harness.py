"""One benchmark run: set-up timing, the closed loop, checks and metrics.

A run is a closed loop with one client: ops run back to back in the main
thread, op i with master seed `seed + i`, until `seconds` have passed. Before
the loop, op 0 runs once untimed; it lets lazy set-up finish and is the
reference for the determinism checks (the timed op 0 must equal it bit for
bit, and on workloads with a thread check op 0 at threads=1 must equal it
too). A traced run first runs untraced ops for half the time, then the first of
them (at most TRACED_OPS_MAX) again under the tracer, so the tracing overhead
compares like with like.
"""

from __future__ import annotations

import hashlib
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

import spans
from workloads import HERE, ROOT, OpResult

SETUP_REPEATS = 5
# The traced phase replays at most this many of the untraced ops; a
# single_state op records about 140,000 spans.
TRACED_OPS_MAX = 8
PROBE = HERE / "setup_probe.py"


@dataclass
class OpRecord:
    index: int
    phase: str
    wall_s: float
    result: OpResult | None
    problems: list = field(default_factory=list)


def measure_setup(name: str, repeats: int) -> list:
    """Wall time from spawning a fresh interpreter until it has imported
    hamsim and built the workload's model, once per repeat."""
    times = []
    for _ in range(repeats):
        t0 = perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(PROBE), name], stdout=subprocess.PIPE, text=True
        )
        try:
            line = proc.stdout.readline()
            elapsed = perf_counter() - t0
        finally:
            proc.stdout.close()
            rc = proc.wait(timeout=120)
        if rc != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up probe for {name} exited {rc} after {line!r}")
        times.append(elapsed)
    return times


def tail_latency(latencies: list) -> tuple:
    """(value, percentile, op count): the highest percentile with 10 ops
    beyond it, or the maximum when fewer than 11 ops ran."""
    xs = sorted(latencies)
    n = len(xs)
    if n < 11:
        return xs[-1], 100.0, n
    return xs[n - 11], 100.0 * (n - 10) / n, n


def _read_first(path, default=None):
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return default


def _l3_bytes():
    base = "/sys/devices/system/cpu/cpu0/cache"
    for index in range(8):
        if _read_first(f"{base}/index{index}/level") == "3":
            size = _read_first(f"{base}/index{index}/size", "")
            units = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}
            if size and size[-1] in units:
                return int(size[:-1]) * units[size[-1]]
            return int(size) if size.isdigit() else None
    return None


def _ram_bytes():
    for line in (_read_first("/proc/meminfo", "") or "").splitlines():
        if line.startswith("MemTotal:"):
            return int(line.split()[1]) * 1024
    return None


def _git_commit():
    """HEAD of the checkout, or None when it is not a git repository."""
    head = _read_first(ROOT / ".git" / "HEAD")
    if head is None or not head.startswith("ref: "):
        return head
    ref = head[5:]
    commit = _read_first(ROOT / ".git" / ref)
    if commit:
        return commit
    for line in (_read_first(ROOT / ".git" / "packed-refs", "") or "").splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return None


def _src_digest() -> str:
    digest = hashlib.sha256()
    src = ROOT / "src"
    for path in sorted(p for p in src.rglob("*") if p.is_file() and "__pycache__" not in p.parts):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def manifest(hs, workload, model, seed: int, seconds: float, trace: bool) -> dict:
    import scipy

    l3 = _l3_bytes()
    block = workload.state_block_bytes(model)
    return {
        "machine": {
            "nproc": os.cpu_count(),
            "usable_cpus": len(os.sched_getaffinity(0)),
            "ram_bytes": _ram_bytes(),
            "l3_bytes": l3,
        },
        "software": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "hamsim": hs.__version__,
            "git_commit": _git_commit(),
            "src_sha256": _src_digest(),
        },
        "input": {
            "workload": workload.name,
            "seed": seed,
            "seconds": seconds,
            "trace": int(trace),
            "n_qubits": model.n_qubits,
            "n_terms": model.n_terms,
            "lambda": model.lam,
            "threads": workload.threads,
            # rows x 2^(n+1) amplitudes x 16 B for the largest estimate's
            # requested batch, before any chunking: arithmetic, not measured
            "state_block_bytes_computed": block,
            "state_block_over_l3_computed": block / l3 if l3 else None,
        },
    }


class Run:
    """Executes ops of one workload and keeps a record of each attempt."""

    def __init__(self, hs, workload, model, exact: float, seed: int):
        self.hs = hs
        self.workload = workload
        self.model = model
        self.exact = exact
        self.seed = seed
        self.records: list[OpRecord] = []

    def op(self, index: int, phase: str, threads: int | None = None) -> OpRecord:
        t0 = perf_counter()
        try:
            result = self.workload.op(self.hs, self.model, self.seed + index, threads)
        except Exception:  # a failing op is counted, and the loop goes on
            rec = OpRecord(index, phase, perf_counter() - t0, None,
                           [traceback.format_exc(limit=3)])
        else:
            rec = OpRecord(index, phase, perf_counter() - t0, result)
            rec.problems.extend(self.workload.check(result, self.exact))
        self.records.append(rec)
        return rec

    def loop(self, phase: str, seconds: float | None = None, count: int | None = None,
             tracer=None) -> list:
        """Ops 0, 1, ... back to back until `seconds` pass or `count` ran."""
        recs = []
        start = perf_counter()
        while True:
            if tracer is not None:
                tracer.start_op(len(recs))
            recs.append(self.op(len(recs), phase))
            if count is not None:
                if len(recs) >= count:
                    return recs
            elif perf_counter() - start >= seconds:
                return recs

    @staticmethod
    def expect_same(rec: OpRecord, reference: OpRecord, what: str) -> None:
        if rec.result is None or reference.result is None:
            rec.problems.append(f"{what}: no result to compare")
        elif rec.result.fingerprint != reference.result.fingerprint:
            rec.problems.append(f"{what}: results are not bit-identical")

    @property
    def attempted(self) -> int:
        return len(self.records)

    @property
    def failed(self) -> int:
        return sum(1 for rec in self.records if rec.problems)


def _end_to_end(run: Run, warm: OpRecord, seconds: float, setup_times: list) -> tuple:
    timed = run.loop("timed", seconds=seconds)
    run.expect_same(timed[0], warm, "replay of op 0")
    latencies = [rec.wall_s for rec in timed]
    ok = [rec.result for rec in timed if rec.result is not None]
    tail, tail_pct, n_ops = tail_latency(latencies)
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "circuits_per_s": (sum(r.circuits for r in ok) / sum(latencies), "circuits/s"),
        "latency_p50_s": (statistics.median(latencies), "s"),
        "latency_tail_s": (tail, "s"),
        "time_to_stderr_0.01_s": (
            statistics.median(r.time_to_stderr() for r in ok) if ok else float("inf"), "s"
        ),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }
    walls: dict = {}
    for r in ok:
        for est in r.estimates:
            walls.setdefault(est.method, []).append(est.wall_s)
    detail = {
        "setup_times_s": setup_times,
        "latency_tail": {"percentile": tail_pct, "ops": n_ops},
        "latencies_s": latencies,
        "method_wall_s": {m: statistics.median(v) for m, v in walls.items()},
    }
    return metrics, detail


def _per_layer(run: Run, warm: OpRecord, seconds: float, spans_path) -> tuple:
    untraced = run.loop("untraced", seconds=seconds / 2)
    with spans.Tracer() as tracer:
        traced = run.loop("traced", count=min(len(untraced), TRACED_OPS_MAX), tracer=tracer)
    run.expect_same(untraced[0], warm, "replay of op 0")
    run.expect_same(traced[0], warm, "traced replay of op 0")
    wall_untraced = sum(rec.wall_s for rec in untraced[: len(traced)])
    wall_traced = sum(rec.wall_s for rec in traced)
    columns = tracer.arrays()
    if spans_path is not None:
        tracer.save(spans_path)
    op0_circuits = traced[0].result.circuits if traced[0].result is not None else 0
    metrics, breakdown = spans.layer_metrics(columns, len(traced), op0_circuits)
    metrics["trace.overhead_frac"] = (wall_traced / wall_untraced - 1.0, "ratio")
    detail = {
        "traced_ops": len(traced),
        "wall_untraced_s": wall_untraced,
        "wall_traced_s": wall_traced,
        "spans": int(columns["sid"].size),
        "self_s_per_op_by_method": breakdown,
    }
    return metrics, detail


def run_workload(hs, workload, seed: int, seconds: float, trace: bool,
                 setup_repeats: int = SETUP_REPEATS, spans_path=None) -> dict:
    """Run one workload and return its metrics and everything behind them."""
    setup_times = [] if trace else measure_setup(workload.name, setup_repeats)
    model = workload.load_model(hs)
    exact = workload.reference(model)
    run = Run(hs, workload, model, exact, seed)

    warm = run.op(0, "warm-up")
    if workload.thread_check:
        single = run.op(0, "threads=1", threads=1)
        run.expect_same(single, warm, f"threads=1 vs threads={workload.threads}")

    if trace:
        metrics, detail = _per_layer(run, warm, seconds, spans_path)
    else:
        metrics, detail = _end_to_end(run, warm, seconds, setup_times)
    detail["exact_reference"] = exact
    detail["failures"] = [
        {"index": rec.index, "phase": rec.phase, "problems": rec.problems}
        for rec in run.records if rec.problems
    ]
    return {
        "manifest": manifest(hs, workload, model, seed, seconds, trace),
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
        "detail": detail,
    }
