"""The benchmark's workloads: model set-up, one op, and the checks on its outputs.

Every op calls only names that `hamsim` exports, plus `hamsim.cli.main`, and
looks them up on the module at call time so that the traced run sees them
wrapped. Each op takes its master seed from the caller (the workload seed
plus the op index). `scale` divides every sample budget; the benchmark runs
at scale 1 and the self-check at tiny sizes.
"""

from __future__ import annotations

import io
import json
import math
import sys
from contextlib import redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PINNED_ANALYZE = HERE / "data" / "analyze_chain4q.csv"

N_SEGMENTS = 16
N_SHOT = 100
# An estimate passes when |value - exact| <= Z_ALLOWANCE * stderr + the
# method's pinned systematic error.
Z_ALLOWANCE = 5.0
AMP_BYTES = 16
# Acceptance criterion 10's correction budgets: samples per (s, b) variant.
CRITERION10_BUCKETS = {(2,): 12000, (3,): 2000, (4,): 500, (2, 2): 2000}


class ProgramMissing(RuntimeError):
    """The checkout holds no hamsim sources to benchmark."""


def import_hamsim():
    """Import hamsim from the checkout's own `src/`, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "hamsim" / "__init__.py").is_file():
        raise ProgramMissing(f"no hamsim package under {src}")
    sys.path.insert(0, str(src))
    import hamsim
    import hamsim.cli  # noqa: F401  (the single_state op drives the CLI)

    if Path(hamsim.__file__).resolve().parent != (src / "hamsim").resolve():
        raise ProgramMissing(f"hamsim imported from {hamsim.__file__}, not {src}")
    return hamsim


def chain4_path(hs) -> str:
    from importlib import resources

    return str(resources.files(hs.__name__).joinpath("data/chain_4q.txt"))


def chain12_text(n: int = 12) -> str:
    """0.45 X_i X_{i+1} for i < n-1 and 0.375 Z_i for every i."""
    xx = [f"0.45 {'I' * i}XX{'I' * (n - i - 2)}" for i in range(n - 1)]
    z = [f"0.375 {'I' * i}Z{'I' * (n - i - 1)}" for i in range(n)]
    return "\n".join(xx + z) + "\n"


def exact_expectation(model, t: float, observable: str) -> float:
    """<+|e^{-iHt} Q e^{iHt}|+> by SciPy expm_multiply on the sparse H.

    hamsim's dense oracle stops at 3 qubits, so the benchmark computes its
    own reference; it is not part of any timed region.
    """
    import scipy.sparse as sp
    from scipy.sparse.linalg import expm_multiply

    paulis = {
        "I": sp.identity(2, dtype=complex, format="csr"),
        "X": sp.csr_matrix(np.array([[0, 1], [1, 0]], dtype=complex)),
        "Y": sp.csr_matrix(np.array([[0, -1j], [1j, 0]], dtype=complex)),
        "Z": sp.csr_matrix(np.array([[1, 0], [0, -1]], dtype=complex)),
    }

    def dense_string(axes):
        mat = paulis[axes[0]]
        for axis in axes[1:]:
            mat = sp.kron(mat, paulis[axis], format="csr")
        return mat

    h = sum(term.coefficient * dense_string(term.axes) for term in model.terms)
    n = model.n_qubits
    psi = np.full(1 << n, 2.0 ** (-n / 2), dtype=complex)
    out = expm_multiply(1j * t * h.tocsc(), psi)
    return float(np.vdot(out, dense_string(observable) @ out).real)


def expected_qswift_plans(order: int, n_sample_0: int, buckets: dict) -> int:
    """Circuits a qSWIFT run must report for the requested budgets.

    Bucket n_vec belongs to order K when sum(n_vec) <= 2K - 2 and has
    2^(sum(n_vec) + len(n_vec)) (s, b) variants.
    """
    total = n_sample_0
    for n_vec, n in buckets.items():
        xi = sum(n_vec)
        if xi <= 2 * order - 2:
            total += 2 ** (xi + len(n_vec)) * n
    return total


@dataclass
class Estimate:
    """One estimate an op produced, with what the checks need."""

    method: str
    value: float
    stderr: float
    plan_count: int
    expected_plans: int
    wall_s: float
    sum_ok: bool = True  # value == baseline + sum of buckets, where reported


@dataclass
class OpResult:
    estimates: list
    fingerprint: tuple  # compared for bit-identical replays

    @property
    def circuits(self) -> int:
        return sum(e.plan_count for e in self.estimates)

    def time_to_stderr(self, target: float = 0.01) -> float:
        """Sum of wall_s * (stderr / target)^2: the time to reach `target`."""
        return sum(e.wall_s * (e.stderr / target) ** 2 for e in self.estimates)


def _report_estimate(method, report, expected, wall) -> Estimate:
    return Estimate(
        method=method,
        value=report.value,
        stderr=report.stderr,
        plan_count=report.plan_count,
        expected_plans=expected,
        wall_s=wall,
        sum_ok=report.value == report.baseline + sum(report.bucket_values.values()),
    )


def check_estimates(estimates, exact: float, systematic: dict) -> list:
    problems = []
    for est in estimates:
        if not (math.isfinite(est.value) and math.isfinite(est.stderr)):
            problems.append(f"{est.method}: non-finite estimate {est.value} +- {est.stderr}")
            continue
        if not est.sum_ok:
            problems.append(f"{est.method}: value != baseline + sum of buckets")
        if est.plan_count != est.expected_plans:
            problems.append(
                f"{est.method}: plan_count {est.plan_count} != requested {est.expected_plans}"
            )
        allowance = Z_ALLOWANCE * est.stderr + systematic[est.method]
        miss = abs(est.value - exact)
        if miss > allowance:
            problems.append(
                f"{est.method}: |{est.value:.5f} - exact {exact:.5f}| = {miss:.5f} "
                f"> allowance {allowance:.5f}"
            )
    return problems


class Workload:
    """Shared parts: the exact reference and the estimate checks.

    Subclasses set name, t, threads, thread_check, systematic and, in
    __init__, batch_rows (rows of the largest state batch an op requests).
    """

    observable = "ZIII"
    thread_check = False
    threads = 1

    def reference(self, model) -> float:
        return exact_expectation(model, self.t, self.observable)

    def state_block_bytes(self, model) -> int:
        return self.batch_rows * (2 << model.n_qubits) * AMP_BYTES

    def check(self, result: OpResult, exact: float) -> list:
        return check_estimates(result.estimates, exact, self.systematic)


class Chain4Trial(Workload):
    """One bias-ordering trial of acceptance criterion 10 on chain_4q."""

    name = "chain4_trial"
    t = 1.0
    # |mean - exact| per method with a margin. Means over seeds 0..19 at the
    # first benchmarked commit, exact 0.26326: qDRIFT 0.1989, K=2 0.2506,
    # K=3 0.2626 (each +- 0.0004), all-order 0.266 +- 0.004 (unbiased).
    systematic = {"qdrift": 0.070, "qswift2": 0.016, "qswift3": 0.004, "all_order": 0.0}

    def __init__(self, scale: int = 1):
        self.n_sample_0 = self.batch_rows = max(1, 20000 // scale)
        self.buckets = {k: max(1, v // scale) for k, v in CRITERION10_BUCKETS.items()}

    def load_model(self, hs):
        return hs.load_hamiltonian(chain4_path(hs))

    def op(self, hs, model, seed: int, threads: int | None = None) -> OpResult:
        base = dict(n_segments=N_SEGMENTS, n_sample_0=self.n_sample_0, n_shot_0=N_SHOT,
                    seed=seed, threads=threads or self.threads)
        estimates, reports = [], []
        t0 = perf_counter()
        report = hs.estimate_qdrift(model, self.t, hs.EstimatorConfig(order=1, **base))
        estimates.append(_report_estimate("qdrift", report, self.n_sample_0,
                                          perf_counter() - t0))
        reports.append(report)
        for order in (2, 3):
            t0 = perf_counter()
            config = hs.EstimatorConfig(order=order, bucket_samples=self.buckets, **base)
            report = hs.estimate_qswift(model, self.t, config)
            expected = expected_qswift_plans(order, self.n_sample_0, self.buckets)
            estimates.append(_report_estimate(f"qswift{order}", report, expected,
                                              perf_counter() - t0))
            reports.append(report)
        t0 = perf_counter()
        stats = hs.all_order_stats(model, self.t, N_SEGMENTS, self.n_sample_0, seed)
        estimates.append(Estimate("all_order", stats.value, stats.stderr, stats.n_sample,
                                  self.n_sample_0, perf_counter() - t0))
        reports.append(stats)
        return OpResult(estimates=estimates, fingerprint=tuple(reports))


class Chain12Wide(Workload):
    """qSWIFT K=2 on a generated 12-qubit XX+Z chain, two worker threads."""

    name = "chain12_wide"
    t = 0.30
    threads = 2
    thread_check = True
    observable = "Z" + "I" * 11
    # mean over seeds 0..19 at the first benchmarked commit: 0.0323 +- 0.0025
    # against exact 0.02969
    systematic = {"qswift2": 0.010}

    def __init__(self, scale: int = 1):
        self.n_sample_0 = self.batch_rows = max(1, 2000 // scale)
        self.buckets = {(2,): max(1, 250 // scale)}

    def load_model(self, hs):
        return hs.parse_hamiltonian(chain12_text())

    def op(self, hs, model, seed: int, threads: int | None = None) -> OpResult:
        config = hs.EstimatorConfig(
            n_segments=N_SEGMENTS, order=2, n_sample_0=self.n_sample_0, n_shot_0=N_SHOT,
            seed=seed, bucket_samples=self.buckets, threads=threads or self.threads,
        )
        t0 = perf_counter()
        report = hs.estimate_qswift(model, self.t, config)
        wall = perf_counter() - t0
        expected = expected_qswift_plans(2, self.n_sample_0, self.buckets)
        est = _report_estimate("qswift2", report, expected, wall)
        return OpResult(estimates=[est], fingerprint=(report,))


class SingleState(Workload):
    """CLI-driven op on the one-plan-at-a-time path, the oracle and the bounds."""

    name = "single_state"
    t = 1.0
    # Trotter reports carry no stderr, so the allowance uses the binomial
    # shot noise sqrt((1 - v^2) / shots) plus these pins, which also cover
    # the product-formula error and rtrotter's plan-to-plan variance. Means
    # over seeds 0..19: rtrotter 0.2633, trotter 0.2642 (each +- 0.0014).
    systematic = {"rtrotter": 0.005, "trotter": 0.005}
    analyze_args = ("--t-grid", "log:10:1e5:9",
                    "--methods", "qdrift,qswift2,qswift3,qswift4,ts_best")

    def __init__(self, scale: int = 1):
        self.samples = max(1, 200 // scale)
        self.batch_rows = 1
        self.pinned_csv = None

    def load_model(self, hs):
        return hs.load_hamiltonian(chain4_path(hs))

    def commands(self, hs, seed: int) -> list:
        path = chain4_path(hs)
        sim = ["simulate", "--hamiltonian", path, "--order", "2", "--segments",
               str(N_SEGMENTS), "--samples", str(self.samples), "--shots", str(N_SHOT),
               "--seed", str(seed)]
        return [
            sim + ["--method", "rtrotter"],
            sim + ["--method", "trotter"],
            ["verify", "--suite", "all"],
            ["analyze", "--hamiltonian", path, *self.analyze_args],
        ]

    def op(self, hs, model, seed: int, threads: int | None = None) -> OpResult:
        runs, estimates = [], []
        for argv in self.commands(hs, seed):
            buf = io.StringIO()
            t0 = perf_counter()
            with redirect_stdout(buf):
                try:
                    rc = hs.cli.main(argv)
                except SystemExit as exc:
                    rc = exc.code
            wall = perf_counter() - t0
            runs.append((argv[0], rc, buf.getvalue()))
            if argv[0] == "simulate" and rc == 0:
                report = json.loads(buf.getvalue())
                method = argv[-1]
                value = report["value"]
                stderr = math.sqrt(max(1.0 - value * value, 0.0) / report["shot_count"])
                plans = self.samples if method == "rtrotter" else 1
                estimates.append(
                    Estimate(method, value, stderr, report["plan_count"], plans, wall)
                )
        return OpResult(estimates=estimates, fingerprint=tuple(runs))

    def check(self, result: OpResult, exact: float) -> list:
        problems = [f"{cmd} exited {rc}" for cmd, rc, _ in result.fingerprint if rc != 0]
        if self.pinned_csv is None:
            self.pinned_csv = PINNED_ANALYZE.read_text(encoding="utf-8")
        if result.fingerprint[3][2] != self.pinned_csv:
            problems.append(f"analyze CSV differs from {PINNED_ANALYZE.name}")
        return problems + check_estimates(result.estimates, exact, self.systematic)


WORKLOADS = {cls.name: cls for cls in (Chain4Trial, Chain12Wide, SingleState)}
