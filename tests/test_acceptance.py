"""Release gate: ten end-to-end checks, one printed verdict line each.

Each test prints `acceptance NN: PASS/FAIL (detail)` so the suite log carries
a one-line verdict per check next to the pytest outcome.
"""

import time
from importlib import resources
from math import exp

import numpy as np
from scipy.linalg import expm

from hamsim import (
    EstimatorConfig,
    all_order_b,
    all_order_stats,
    channel_distance_surrogate,
    correction_terms,
    estimate_qdrift,
    estimate_qswift,
    eval_correction_exact,
    ideal_channel,
    liouvillian_term,
    load_hamiltonian,
    mixture,
    parse_hamiltonian,
    qdrift_bound,
    qdrift_channel,
    qswift_bound,
    qswift_channel,
    script_l_n,
    swift_unitary,
    sweep_table,
    tau,
)

REF = parse_hamiltonian("0.5 X\n0.3 Z\n")
REF_T = 1.25  # lambda = 0.8, so lambda * t = 1
PAULI_Z = np.diag([1.0, -1.0]).astype(complex)

PAULI_1Q = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def dense_string(axes: str) -> np.ndarray:
    mat = np.array([[1.0 + 0j]])
    for ax in axes:
        mat = np.kron(mat, PAULI_1Q[ax])
    return mat


def plus_density(n_qubits: int) -> np.ndarray:
    d = 2**n_qubits
    return np.full((d, d), 1.0 / d, dtype=complex)


def oracle_value(channel, rho, q_dense) -> float:
    return float(np.trace(q_dense @ channel.apply(rho)).real)


def _gate(num: int, ok: bool, detail: str):
    print(f"acceptance {num:02d}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_01_exhaustive_bucket_equals_dense_oracle():
    started = time.perf_counter()
    n_seg = 3
    tau_angle = tau(REF, REF_T, n_seg)
    term = correction_terms(REF, REF_T, n_seg, 2)[0]
    got = eval_correction_exact(REF, REF_T, n_seg, term)
    corr = mixture([script_l_n(REF, 2)], qdrift_channel(REF, tau_angle), n_seg)
    want = 0.5 * tau_angle**2 * oracle_value(corr, plus_density(1), PAULI_Z)
    elapsed = time.perf_counter() - started
    diff = abs(got - want)
    _gate(
        1,
        diff <= 1e-9 and elapsed < 10.0,
        f"bucket (2) exhaustive vs dense diff {diff:.2e}, {elapsed:.2f} s",
    )


def test_criterion_02_channel_matches_unrolled_second_order():
    n_seg = 8
    tau_angle = tau(REF, REF_T, n_seg)
    base = qdrift_channel(REF, tau_angle)
    l2 = script_l_n(REF, 2).matrix
    want = base.power(n_seg).matrix.copy()
    for r in range(n_seg):
        want += (
            0.5
            * tau_angle**2
            * (base.power(n_seg - 1 - r).matrix @ l2 @ base.power(r).matrix)
        )
    got = qswift_channel(REF, REF_T, n_seg, 2).matrix
    diff = float(np.linalg.norm(got - want))
    _gate(2, diff <= 1e-10, f"unrolled order-2 channel Frobenius diff {diff:.2e}")


def test_criterion_03_error_scaling_slopes():
    started = time.perf_counter()
    grid = np.array([32, 64, 128, 256])
    rho = plus_density(1)
    q_ideal = oracle_value(ideal_channel(REF, REF_T), rho, PAULI_Z)
    slopes = {}
    for order in (1, 2, 3):
        errs = [
            abs(oracle_value(qswift_channel(REF, REF_T, int(n), order), rho, PAULI_Z) - q_ideal)
            for n in grid
        ]
        slopes[order] = float(np.polyfit(np.log(grid), np.log(errs), 1)[0])
    elapsed = time.perf_counter() - started
    ok = all(abs(slopes[k] + k) <= 0.3 for k in (1, 2, 3)) and elapsed < 30.0
    detail = ", ".join(f"K={k}: {slopes[k]:.3f}" for k in (1, 2, 3))
    _gate(3, ok, f"log-log slopes {detail}, {elapsed:.2f} s")


def test_criterion_04_surrogate_below_analytic_bound():
    t = 0.75  # lambda * t = 0.6 keeps every N in the informative region
    lambda_t = REF.lam * t
    ideal = ideal_channel(REF, t)
    worst = -np.inf
    for order in (1, 2, 3):
        for n_seg in (16, 32, 64):
            surrogate = channel_distance_surrogate(
                ideal, qswift_channel(REF, t, n_seg, order)
            )
            bound = qswift_bound(lambda_t, n_seg, order)
            worst = max(worst, surrogate / bound)
    _gate(4, worst <= 1.0, f"max surrogate/bound ratio {worst:.3f} at lambda*t = 0.6")


def test_criterion_05_gate_ratio_moderate_precision():
    started = time.perf_counter()
    table = sweep_table(
        [10.0, 1e3, 1e5], ["qdrift", "qswift3"], 1e-3, lam=1.0, lam_max=1.0, n_terms=2
    )
    gates = {(row.t, row.method): row.gates for row in table.rows}
    ratios = [gates[(t, "qdrift")] / gates[(t, "qswift3")] for t in (10.0, 1e3, 1e5)]
    elapsed = time.perf_counter() - started
    ok = all(5 <= r <= 30 for r in ratios) and elapsed < 1.0
    _gate(5, ok, f"N ratios {[f'{r:.1f}' for r in ratios]}, {elapsed:.3f} s")


def test_criterion_06_gate_ratio_high_precision():
    table = sweep_table(
        [10.0, 1e3, 1e5],
        ["qdrift", "qswift3", "qswift6"],
        1e-6,
        lam=1.0,
        lam_max=1.0,
        n_terms=2,
    )
    gates = {(row.t, row.method): row.gates for row in table.rows}
    r3 = [gates[(t, "qdrift")] / gates[(t, "qswift3")] for t in (10.0, 1e3, 1e5)]
    r6 = [gates[(t, "qdrift")] / gates[(t, "qswift6")] for t in (10.0, 1e3, 1e5)]
    ok = all(300 <= r <= 3000 for r in r3) and all(3000 <= r <= 30000 for r in r6)
    _gate(6, ok, f"order-3 ratios {[f'{r:.0f}' for r in r3]}, order-6 {[f'{r:.0f}' for r in r6]}")


def test_criterion_07_swift_branch_sum_is_generator_action():
    rng = np.random.default_rng(7)
    worst = 0.0
    for axes in "IXYZ":
        for sign_text in ("", "-"):
            model = parse_hamiltonian(f"{sign_text}1.0 {axes}")
            term = model.terms[0]
            block = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            rho_ext = np.zeros((4, 4), dtype=complex)
            rho_ext[:2, 2:] = block
            rho_ext[2:, :2] = block.conj().T
            total = np.zeros_like(rho_ext)
            for b in (0, 1):
                s = swift_unitary(term, b)
                total += s @ rho_ext @ s.conj().T
            want = liouvillian_term(model, 1).apply(block)
            worst = max(worst, float(np.abs(total[:2, 2:] - want).max()))
    _gate(7, worst <= 1e-12, f"max block-action deviation {worst:.2e} over signed I,X,Y,Z")


def test_criterion_08_all_order_unbiased_and_normalized():
    n_seg, n_sample = 8, 10**6
    res = all_order_stats(REF, REF_T, n_seg, n_sample, rng_seed=42)
    q_ideal = oracle_value(ideal_channel(REF, REF_T), plus_density(1), PAULI_Z)
    pull = abs(res.value - q_ideal) / res.stderr
    tau_angle = tau(REF, REF_T, n_seg)
    b_closed = 1.0 + 2.0 * (exp(2.0 * tau_angle) - 1.0 - 2.0 * tau_angle)
    b_diff = abs(all_order_b(tau_angle) - b_closed)
    ok = pull <= 4.0 and b_diff <= 1e-12
    _gate(8, ok, f"pull {pull:.2f} sigma over 1e6 samples, B series vs closed form {b_diff:.1e}")


def test_criterion_09_baseline_bias_within_bound():
    rho = plus_density(1)
    q_ideal = oracle_value(ideal_channel(REF, REF_T), rho, PAULI_Z)
    lambda_t = REF.lam * REF_T
    details = []
    ok = True
    for n_seg in (16, 64):
        chan = qdrift_channel(REF, tau(REF, REF_T, n_seg)).power(n_seg)
        bias = abs(oracle_value(chan, rho, PAULI_Z) - q_ideal)
        limit = 2.0 * qdrift_bound(lambda_t, n_seg)
        ok = ok and bias <= limit
        details.append(f"N={n_seg}: {bias:.2e} <= {limit:.2e}")
    _gate(9, ok, "; ".join(details))


def test_criterion_10_bias_ordering_on_bundled_chain():
    started = time.perf_counter()
    path = resources.files("hamsim").joinpath("data/chain_4q.txt")
    model = load_hamiltonian(str(path))
    t, n_seg = 1.0, 16

    h = sum(term.coefficient * dense_string(term.axes) for term in model.terms)
    u = expm(1j * h * t)
    rho = plus_density(4)
    q_mat = dense_string("ZIII")
    q_exact = float(np.trace(q_mat @ (u @ rho @ u.conj().T)).real)

    buckets = {(2,): 12000, (3,): 2000, (4,): 500, (2, 2): 2000}
    errors = {"qdrift": [], "qswift2": [], "qswift3": []}
    for seed in range(6):
        base = dict(n_segments=n_seg, n_sample_0=20000, n_shot_0=100, seed=seed)
        # orders nest: order 1 is the baseline and order 2 adds the (2,)
        # bucket, on the same streams as their own runs
        report = estimate_qswift(
            model, t, EstimatorConfig(order=3, bucket_samples=buckets, **base)
        )
        got1 = report.baseline
        got2 = report.baseline + report.bucket_values[(2,)]
        got3 = report.value
        if seed == 0:
            assert got1 == estimate_qdrift(model, t, EstimatorConfig(order=1, **base)).value
            assert got2 == estimate_qswift(
                model, t, EstimatorConfig(order=2, bucket_samples=buckets, **base)
            ).value
        errors["qdrift"].append(abs(got1 - q_exact))
        errors["qswift2"].append(abs(got2 - q_exact))
        errors["qswift3"].append(abs(got3 - q_exact))
    med = {name: float(np.median(vals)) for name, vals in errors.items()}
    elapsed = time.perf_counter() - started
    ok = med["qswift3"] < med["qswift2"] < med["qdrift"] and elapsed < 600.0
    _gate(
        10,
        ok,
        f"median errors qdrift {med['qdrift']:.4f} > qswift2 {med['qswift2']:.4f} "
        f"> qswift3 {med['qswift3']:.4f}, 6 trials, {elapsed:.0f} s",
    )
