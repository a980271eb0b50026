"""Named self-checks wiring the sampled paths to the dense oracle.

Each check is independent and returns a CheckResult; the CLI `verify`
command runs a suite and reports one line per check. The checks rebuild
channels from the statevector executor where possible, and the gate checks
evolve through `Kernel.evolve` on both of its schedules, the ones that
produce reports, the grouped one with its sort, copies and final scatter,
so a sign slip in the gate implementations shows up here even when the
dense oracle is internally consistent.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._pauli import pauli_matrix
from .bounds import qdrift_bound, qswift_bound, solve_min_n
from .compiler import all_order_b, correction_terms, signed_angles, swift_codes
from .errors import VacuousRegion
from .estimator import (
    all_order_stats,
    eval_correction_exact,
    exact_qdrift_value,
    plan_budget,
)
from .exact_channels import (
    Superoperator,
    ideal_channel,
    mixture,
    plus_input_expectation,
    qdrift_channel,
    qswift_channel,
    qswift_levels,
    random_pure_density,
    script_l_n,
    term_unitary,
)
from .hamiltonian import HamiltonianModel, PauliTerm, parse_hamiltonian, tau, to_text
from .statevector import ROW_SCHEDULE_AMPS, Kernel, run_plan

REFERENCE_TEXT = "0.5 X\n0.3 Z\n"


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _reference_model() -> HamiltonianModel:
    return parse_hamiltonian(REFERENCE_TEXT)


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


def _kernel_matrices(model: HamiltonianModel, codes, thetas) -> list[np.ndarray]:
    """Full-register unitary of one row of op codes, rebuilt column by column
    by Kernel.evolve from the basis rows, once per schedule: the basis rows
    alone are a per-row tile, tiled past ROW_SCHEDULE_AMPS a grouped one,
    which sorts and copies its one-code columns like any other."""
    kernel = Kernel(model)
    dim = 2 << model.n_qubits
    mats = []
    for reps in (1, ROW_SCHEDULE_AMPS // dim**2 + 1):
        states = np.tile(np.eye(dim, dtype=complex), (reps, 1))
        kernel.evolve(states, np.tile(codes, (len(states), 1)), thetas)
        mats.append(states[:dim].T)
    return mats


def check_swift_sum() -> CheckResult:
    """Sum of the two swift variants acts as i[H, .] on off-diagonal
    ancilla blocks, for every signed one-qubit generator."""
    worst = 0.0
    rng = np.random.default_rng(23)
    for axes in "IXYZ":
        for sign in (1, -1):
            model = HamiltonianModel((PauliTerm(axes=axes, strength=1.0, sign=sign),))
            h_mat = sign * pauli_matrix(axes)
            u0s, u1s = (_kernel_matrices(model, [swift_codes(1, b, 0)], [0.0]) for b in (0, 1))
            for _ in range(3):
                block = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
                rho = np.zeros((4, 4), dtype=complex)
                rho[:2, 2:] = block
                rho[2:, :2] = block.conj().T
                want01 = 1j * (h_mat @ block - block @ h_mat)
                for u0, u1 in zip(u0s, u1s):
                    total = u0 @ rho @ u0.conj().T + u1 @ rho @ u1.conj().T
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
    u_total = np.eye(2**model.n_qubits, dtype=complex)
    for e in ells:
        u_total = term_unitary(model.term(int(e)), tau_angle) @ u_total
    want = np.kron(np.eye(2), u_total)  # the idle ancilla
    thetas = signed_angles(model, tau_angle)
    err = max(float(np.abs(u - want).max()) for u in _kernel_matrices(model, ells - 1, thetas))
    return CheckResult("time-op-vs-unitary", err < 1e-12, f"max amplitude error {err:.2e}")


def check_exhaustive_baseline() -> CheckResult:
    model = _reference_model()
    t, n_seg = 1.25, 3
    sampled = exact_qdrift_value(model, t, n_seg)
    oracle = plus_input_expectation(qdrift_channel(model, tau(model, t, n_seg)).power(n_seg))
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
    oracle = 0.5 * tau_angle**2 * plus_input_expectation(chan)
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
    oracle = plus_input_expectation(ideal_channel(model, t))
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
    exact = plus_input_expectation(ideal_channel(model, t))
    for n_seg in (16, 64):
        approx = plus_input_expectation(
            qdrift_channel(model, tau(model, t, n_seg)).power(n_seg)
        )
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
    from .compiler import draw_qdrift, plan_from_codes, plan_from_text, plan_to_text

    model = _reference_model()
    codes = draw_qdrift(model, 8, 1, np.random.default_rng(3))
    plan = plan_from_codes(model, codes[0], signed_angles(model, tau(model, 1.25, 8)), 8, "QDRIFT")
    replayed = plan_from_text(plan_to_text(plan), plan.n_segments)
    rng = np.random.default_rng(8)
    dim = 2 ** (model.n_qubits + 1)
    vec = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    vec /= np.linalg.norm(vec)
    err = float(np.abs(run_plan(vec, plan, model) - run_plan(vec, replayed, model)).max())
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


def fitted_slopes() -> dict[int, float]:
    """Log-log slope of the exact-channel error |q - q^(K)| against N.

    The systematic error of the order-K construction decays as N^(-K), so
    the fitted slope should sit near -K for each order (N >= 32 here).
    Every order K <= 3 reads its channel as the first 2K - 1 levels of one
    `qswift_levels` column per N, and the tau-free moment generators L^(n)
    are built once for the whole grid.
    """
    model = _reference_model()
    t = 1.25
    k_max = 3
    grid = np.array([32, 64, 128, 256])
    exact = plus_input_expectation(ideal_channel(model, t))
    moments = {n: script_l_n(model, n).matrix for n in range(2, 2 * k_max - 1)}
    errs = {order: [] for order in range(1, k_max + 1)}
    for n_seg in grid:
        levels = qswift_levels(model, t, int(n_seg), k_max, moments)
        for order, order_errs in errs.items():
            channel = Superoperator(levels[: 2 * order - 1].sum(axis=0), model.n_qubits)
            order_errs.append(abs(plus_input_expectation(channel) - exact))
    return {
        order: float(np.polyfit(np.log(grid), np.log(order_errs), 1)[0])
        for order, order_errs in errs.items()
    }


def run_slopes_suite() -> list[CheckResult]:
    results = []
    for order, slope in fitted_slopes().items():
        results.append(
            CheckResult(
                f"error-slope-order-{order}",
                abs(slope + order) <= 0.3,
                f"fitted slope {slope:.3f}, target {-order}",
            )
        )
    return results
