"""Named self-checks wiring the sampled paths to the dense oracle.

Each check is independent and returns a CheckResult; the CLI `verify`
command runs a suite and reports one line per check. The checks rebuild
channels from the statevector executor where possible, so a sign slip in
the gate implementations shows up here even when the dense oracle is
internally consistent.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._pauli import pauli_matrix
from .bounds import qdrift_bound, qswift_bound, solve_min_n
from .compiler import GatePlan, TimeOp, all_order_b, correction_terms, qdrift_plan
from .errors import VacuousRegion
from .estimator import (
    all_order_stats,
    eval_correction_exact,
    exact_qdrift_value,
    plan_budget,
)
from .exact_channels import (
    Superoperator,
    dense_hamiltonian,
    ideal_channel,
    mixture,
    qdrift_channel,
    qswift_channel,
    random_pure_density,
    script_l_n,
    term_unitary,
)
from .hamiltonian import HamiltonianModel, PauliTerm, parse_hamiltonian, tau, to_text
from .statevector import State, apply_swift_op, run_plan

REFERENCE_TEXT = "0.5 X\n0.3 Z\n"


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _reference_model() -> HamiltonianModel:
    return parse_hamiltonian(REFERENCE_TEXT)


def _observable_matrix(model: HamiltonianModel) -> np.ndarray:
    return pauli_matrix("Z" + "I" * (model.n_qubits - 1))


def _plus_density(n_qubits: int) -> np.ndarray:
    dim = 1 << n_qubits
    return np.full((dim, dim), 1.0 / dim, dtype=complex)


def _oracle_value(model: HamiltonianModel, channel: Superoperator) -> float:
    rho = _plus_density(model.n_qubits)
    q_mat = _observable_matrix(model)
    return float(np.trace(q_mat @ channel.apply(rho)).real)


def check_parse_roundtrip() -> CheckResult:
    model = _reference_model()
    again = parse_hamiltonian(to_text(model))
    same = again.terms == model.terms and abs(again.lam - model.lam) < 1e-15
    return CheckResult("parse-roundtrip", same, f"L={model.n_terms}, lambda={model.lam}")


def check_channel_trace() -> CheckResult:
    model = _reference_model()
    rng = np.random.default_rng(11)
    worst = 0.0
    for chan in (
        qdrift_channel(model, tau(model, 1.25, 4)),
        qswift_channel(model, 1.25, 4, order=2),
        ideal_channel(model, 1.25),
    ):
        for _ in range(4):
            rho = random_pure_density(model.n_qubits, rng)
            out = chan.apply(rho)
            worst = max(
                worst,
                abs(np.trace(out).real - 1.0),
                float(np.abs(out - out.conj().T).max()),
            )
    return CheckResult("channel-trace-preservation", worst < 1e-12, f"max deviation {worst:.2e}")


def check_qswift2_unroll() -> CheckResult:
    model = _reference_model()
    t, n_seg = 1.25, 4
    tau_angle = tau(model, t, n_seg)
    seg = qdrift_channel(model, tau_angle)
    l2 = script_l_n(model, 2)
    unrolled = seg.power(n_seg).matrix.copy()
    for r in range(n_seg):
        unrolled += (
            0.5 * tau_angle**2
            * (seg.power(n_seg - 1 - r) @ l2 @ seg.power(r)).matrix
        )
    built = qswift_channel(model, t, n_seg, order=2).matrix
    err = float(np.linalg.norm(built - unrolled))
    return CheckResult("qswift2-unroll", err < 1e-10, f"frobenius error {err:.2e}")


def _swift_conjugation_sum(term: PauliTerm) -> list[np.ndarray]:
    """U_b matrices rebuilt column-by-column from the statevector executor."""
    dim = 2 ** (term.n_qubits + 1)
    mats = []
    for b in (0, 1):
        cols = []
        for i in range(dim):
            amps = np.zeros(dim, dtype=complex)
            amps[i] = 1.0
            out = apply_swift_op(State(amps, term.n_qubits), term, b)
            cols.append(out.amplitudes)
        mats.append(np.column_stack(cols))
    return mats


def check_swift_sum() -> CheckResult:
    """Sum of the two swift variants acts as i[H, .] on off-diagonal
    ancilla blocks, for every signed one-qubit generator."""
    worst = 0.0
    rng = np.random.default_rng(23)
    for axes in "IXYZ":
        for sign in (1, -1):
            term = PauliTerm(axes=axes, strength=1.0, sign=sign)
            h_mat = sign * pauli_matrix(axes)
            u0, u1 = _swift_conjugation_sum(term)
            for _ in range(3):
                block = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
                rho = np.zeros((4, 4), dtype=complex)
                rho[:2, 2:] = block
                rho[2:, :2] = block.conj().T
                total = u0 @ rho @ u0.conj().T + u1 @ rho @ u1.conj().T
                want01 = 1j * (h_mat @ block - block @ h_mat)
                worst = max(
                    worst,
                    float(np.abs(total[:2, 2:] - want01).max()),
                    float(np.abs(total[2:, :2] - want01.conj().T).max()),
                )
    return CheckResult("swift-sum", worst < 1e-12, f"max block deviation {worst:.2e}")


def check_time_op_vs_unitary() -> CheckResult:
    model = _reference_model()
    rng = np.random.default_rng(5)
    tau_angle = 0.3
    ells = rng.integers(1, model.n_terms + 1, size=6)
    ops = tuple(TimeOp(int(e), model.term(int(e)).sign * tau_angle) for e in ells)
    plan = GatePlan(ops=ops, n_segments=6, method_tag="QDRIFT")
    dim = 2**model.n_qubits
    vec = rng.normal(size=2 * dim) + 1j * rng.normal(size=2 * dim)
    vec /= np.linalg.norm(vec)
    state = run_plan(State(vec.copy(), model.n_qubits), plan, model)
    u_total = np.eye(dim, dtype=complex)
    for e in ells:
        u_total = term_unitary(model.term(int(e)), tau_angle) @ u_total
    want = np.concatenate([u_total @ vec[:dim], u_total @ vec[dim:]])
    err = float(np.abs(state.amplitudes - want).max())
    return CheckResult("time-op-vs-unitary", err < 1e-12, f"max amplitude error {err:.2e}")


def check_exhaustive_baseline() -> CheckResult:
    model = _reference_model()
    t, n_seg = 1.25, 3
    sampled = exact_qdrift_value(model, t, n_seg)
    oracle = _oracle_value(model, qdrift_channel(model, tau(model, t, n_seg)).power(n_seg))
    err = abs(sampled - oracle)
    return CheckResult("exhaustive-baseline", err < 1e-10, f"|diff| = {err:.2e}")


def check_exhaustive_bucket() -> CheckResult:
    model = _reference_model()
    t, n_seg = 1.25, 3
    term = correction_terms(model, t, n_seg, order=2)[0]
    enumerated = eval_correction_exact(model, t, n_seg, term)
    tau_angle = tau(model, t, n_seg)
    seg = qdrift_channel(model, tau_angle)
    chan = mixture([script_l_n(model, 2)], seg, n_seg)
    oracle = 0.5 * tau_angle**2 * _oracle_value(model, chan)
    err = abs(enumerated - oracle)
    return CheckResult("exhaustive-bucket", err < 1e-9, f"|diff| = {err:.2e}")


def check_all_order_b() -> CheckResult:
    worst = 0.0
    for tau_angle in (0.05, 0.125, 0.4, 1.0):
        closed = 1.0 + 2.0 * (np.exp(2.0 * tau_angle) - 1.0 - 2.0 * tau_angle)
        worst = max(worst, abs(all_order_b(tau_angle) - closed))
    return CheckResult("all-order-multiplier", worst < 1e-12, f"max |B - closed form| {worst:.2e}")


def check_all_order_small() -> CheckResult:
    model = _reference_model()
    t, n_seg, n_sample = 1.25, 4, 40000
    stats = all_order_stats(model, t, n_seg, n_sample, rng_seed=902)
    oracle = _oracle_value(model, ideal_channel(model, t))
    gap = abs(stats.value - oracle)
    limit = 5.0 * stats.stderr
    return CheckResult(
        "all-order-consistency", gap <= limit,
        f"|estimate - oracle| = {gap:.4f}, 5*stderr = {limit:.4f}",
    )


def check_qdrift_bias() -> CheckResult:
    model = _reference_model()
    t = 1.25
    lambda_t = model.lam * t
    ok = True
    details = []
    for n_seg in (16, 64):
        approx = _oracle_value(
            model, qdrift_channel(model, tau(model, t, n_seg)).power(n_seg)
        )
        exact = _oracle_value(model, ideal_channel(model, t))
        bias = abs(approx - exact)
        limit = 2.0 * qdrift_bound(lambda_t, n_seg)
        ok = ok and bias <= limit
        details.append(f"N={n_seg}: bias {bias:.2e} vs {limit:.2e}")
    return CheckResult("baseline-bias-bound", ok, "; ".join(details))


def check_bound_boundary() -> CheckResult:
    ok = True
    details = []
    for method, lt, eps, order in (
        ("qdrift", 1.0, 1e-3, None),
        ("qdrift", 10.0, 1e-4, None),
        ("qswift", 1.0, 1e-3, 3),
        ("qswift", 10.0, 1e-6, 2),
    ):
        n_min = solve_min_n(method, lt, eps, order=order)
        fn = (lambda n: qdrift_bound(lt, n)) if method == "qdrift" else (
            lambda n: qswift_bound(lt, n, order)
        )
        at = fn(n_min)
        try:
            before = fn(n_min - 1)
            tight = before > eps
        except (VacuousRegion, ValueError):
            tight = True
        ok = ok and at <= eps and tight
        details.append(f"{method}{order or ''}@{lt}: N={n_min}")
    return CheckResult("solver-boundary", ok, "; ".join(details))


def check_budget_shape() -> CheckResult:
    model = _reference_model()
    table = plan_budget(model, 1.25, 100, 3, epsilon_total=0.1)
    labels = [row.label for row in table.rows]
    want = ["baseline", "2", "3", "2,2", "4"]
    ok = sorted(labels) == sorted(want)
    half = plan_budget(model, 1.25, 100, 3, epsilon_total=0.05)
    ratio = half.rows[0].n_sample / table.rows[0].n_sample
    ok = ok and abs(ratio - 4.0) < 0.01
    return CheckResult("budget-shape", ok, f"buckets {labels}, halving ratio {ratio:.2f}")


def check_plan_replay() -> CheckResult:
    from .compiler import plan_from_text, plan_to_text

    model = _reference_model()
    plan = qdrift_plan(model, 1.25, 8, rng_seed=3)
    replayed = plan_from_text(plan_to_text(plan), plan.n_segments)
    rng = np.random.default_rng(8)
    dim = 2 ** (model.n_qubits + 1)
    vec = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    vec /= np.linalg.norm(vec)
    a = run_plan(State(vec.copy(), model.n_qubits), plan, model).amplitudes
    b = run_plan(State(vec.copy(), model.n_qubits), replayed, model).amplitudes
    err = float(np.abs(a - b).max())
    return CheckResult("plan-serialization", err == 0.0, f"replay deviation {err:.2e}")


CORE_CHECKS = (
    check_parse_roundtrip,
    check_channel_trace,
    check_qswift2_unroll,
    check_swift_sum,
    check_time_op_vs_unitary,
    check_exhaustive_baseline,
    check_exhaustive_bucket,
    check_all_order_b,
    check_all_order_small,
    check_qdrift_bias,
    check_bound_boundary,
    check_budget_shape,
    check_plan_replay,
)


def run_core_suite() -> list[CheckResult]:
    return [check() for check in CORE_CHECKS]


def fitted_slopes(max_order: int = 3) -> dict[int, float]:
    """Log-log slope of the exact-channel error |q - q^(K)| against N.

    The systematic error of the order-K construction decays as N^(-K), so
    the fitted slope should sit near -K for each order.
    """
    model = _reference_model()
    t = 1.25
    grid = np.array([8, 16, 32, 64])
    exact = _oracle_value(model, ideal_channel(model, t))
    slopes = {}
    for order in range(1, max_order + 1):
        errs = []
        for n_seg in grid:
            approx = _oracle_value(model, qswift_channel(model, t, int(n_seg), order))
            errs.append(abs(approx - exact))
        slope = float(np.polyfit(np.log(grid), np.log(errs), 1)[0])
        slopes[order] = slope
    return slopes


def run_slopes_suite(max_order: int = 3) -> list[CheckResult]:
    results = []
    for order, slope in fitted_slopes(max_order).items():
        results.append(
            CheckResult(
                f"error-slope-order-{order}",
                abs(slope + order) <= 0.3,
                f"fitted slope {slope:.3f}, target {-order}",
            )
        )
    return results
