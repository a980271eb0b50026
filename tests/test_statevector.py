"""Statevector engine versus dense linear-algebra oracles."""

import tracemalloc
from importlib import resources

import numpy as np
import pytest
from scipy.linalg import expm

from hamsim import (
    HamiltonianModel,
    PauliTerm,
    WidthOverflow,
    load_hamiltonian,
    parse_hamiltonian,
    run_plan,
)
from hamsim import statevector
from hamsim.compiler import PAD, GatePlan, SwiftOp, TimeOp, plan_codes, trotter_plan
from hamsim.exact_channels import term_unitary
from hamsim.statevector import Kernel, apply_pauli_rotation, expectation, prepare_plus_input
from oracle_helpers import swift_unitary

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


def random_state(n_qubits: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=1 << (n_qubits + 1)) + 1j * rng.normal(size=1 << (n_qubits + 1))
    return amps / np.linalg.norm(amps)


def test_prepare_plus_input_layout():
    state = prepare_plus_input(2)
    assert state.shape == (8,)
    assert np.linalg.norm(state) == pytest.approx(1.0, abs=1e-15)
    assert np.allclose(state, np.full(8, 1 / np.sqrt(8)))


def test_prepare_plus_input_width_limits():
    with pytest.raises(WidthOverflow):
        prepare_plus_input(0)
    with pytest.raises(WidthOverflow):
        prepare_plus_input(22)
    assert prepare_plus_input(21).shape == (1 << 22,)


def test_state_shape_validation():
    # every single-state entry point wants the 2^(n+1) amplitudes
    model = parse_hamiltonian("0.5 XZ")
    plan = GatePlan(ops=(TimeOp(1, 0.1),))
    for amps in (np.zeros(4, dtype=complex), np.zeros((1, 8), dtype=complex)):
        with pytest.raises(ValueError, match="amplitude vector has shape"):
            run_plan(amps, plan, model)
        with pytest.raises(ValueError, match="amplitude vector has shape"):
            apply_pauli_rotation(amps, "XZ", 0.1)
        with pytest.raises(ValueError, match="amplitude vector has shape"):
            expectation(amps, "XZ")


def test_observable_validation():
    with pytest.raises(ValueError):
        expectation(random_state(2, 0), "XQ")
    with pytest.raises(ValueError):
        expectation(random_state(2, 0), "Z")
    with pytest.raises(ValueError):
        apply_pauli_rotation(random_state(2, 0), "Z", 0.1)
    state = random_state(2, 0)
    assert expectation(state, "zx", ancilla_x=True) == expectation(state, "ZX", ancilla_x=True)


@pytest.mark.parametrize("axes", ["X", "Y", "Z", "XY", "ZI", "IYX"])
def test_pauli_rotation_matches_expm(axes):
    n = len(axes)
    theta = 0.37
    state = random_state(n, seed=11)
    got = apply_pauli_rotation(state, axes, theta)
    u_sys = expm(1j * theta * dense_string(axes))
    u_full = np.kron(np.eye(2), u_sys)
    assert np.allclose(got, u_full @ state, atol=1e-12)


@pytest.mark.parametrize("axes", ["X", "ZY"])
@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("b", [0, 1])
def test_swift_op_matches_block_unitary(axes, sign, b):
    # code T + b T + 0 of a one-term model is its branch-b swift operator;
    # one row is a per-row tile, rows past ROW_SCHEDULE_AMPS a grouped one
    term = PauliTerm(axes=axes, strength=1.0, sign=sign)
    state = random_state(len(axes), seed=7)
    want = swift_unitary(term, b) @ state
    kernel = Kernel(HamiltonianModel((term,)))
    for m in (1, statevector.ROW_SCHEDULE_AMPS // want.size + 1):
        rows = np.tile(state, (m, 1))
        kernel.evolve(rows, np.full((m, 1), 1 + b), [0.0])
        assert np.allclose(rows, want, atol=1e-12)


@pytest.mark.parametrize("with_x", [False, True])
def test_expectation_matches_dense(with_x):
    axes = "ZX"
    state = random_state(2, seed=19)
    obs_sys = dense_string(axes)
    anc = dense_string("X") if with_x else np.eye(2)
    dense = np.kron(anc, obs_sys)
    want = np.vdot(state, dense @ state).real
    got = expectation(state, axes, ancilla_x=with_x)
    assert got == pytest.approx(want, abs=1e-12)


def test_expectation_ancilla_x_on_product_input_reads_system_value():
    # |+> ancilla times |+>^n: the cross term is real and equals <Q>
    state = prepare_plus_input(2)
    assert expectation(state, "XX", ancilla_x=True) == pytest.approx(1.0)
    assert expectation(state, "XZ", ancilla_x=True) == pytest.approx(0.0)


def test_run_plan_matches_dense_product():
    model = parse_hamiltonian("0.5 XZ\n-0.3 ZI\n0.2 YY")
    plan = GatePlan(
        ops=(
            TimeOp(ell=1, angle=0.11),
            SwiftOp(ell=2, b=0),
            TimeOp(ell=3, angle=-0.07),
            SwiftOp(ell=1, b=1),
            TimeOp(ell=2, angle=0.4),
        ),
    )
    dim = 1 << model.n_qubits
    total = np.eye(2 * dim, dtype=complex)
    for op in plan.ops:
        term = model.term(op.ell)
        if isinstance(op, TimeOp):
            u = np.kron(np.eye(2), expm(1j * op.angle * dense_string(term.axes)))
        else:
            h = term.sign * dense_string(term.axes)
            if op.b == 0:
                u = np.block(
                    [[np.eye(dim), np.zeros((dim, dim))], [np.zeros((dim, dim)), 1j * h]]
                )
            else:
                u = np.block(
                    [[h, np.zeros((dim, dim))], [np.zeros((dim, dim)), -1j * np.eye(dim)]]
                )
        total = u @ total
    state = random_state(model.n_qubits, seed=23)
    got = run_plan(state, plan, model)
    assert np.allclose(got, total @ state, atol=1e-12)


SPLIT_MODEL = parse_hamiltonian("0.5 XZ\n-0.3 ZI\n0.2 YY")
SPLIT_PLANS = {
    "suzuki4": trotter_plan(SPLIT_MODEL, 0.9, 2, 4),
    "hand": GatePlan(
        ops=(TimeOp(2, 0.3), SwiftOp(1, 0), TimeOp(2, 0.3), TimeOp(1, 0.2),
             TimeOp(2, -0.5), SwiftOp(3, 1), TimeOp(1, 0.2), TimeOp(2, 0.3)),
    ),
}


@pytest.mark.parametrize("name", sorted(SPLIT_PLANS))
def test_split_plans_match_dense_product(name):
    # a term at a second angle starts a new code row; run_plan evolves the
    # rows in turn
    model, plan = SPLIT_MODEL, SPLIT_PLANS[name]
    assert len(plan_codes(plan, model.n_terms)) > 1
    total = np.eye(2 << model.n_qubits, dtype=complex)
    for op in plan.ops:
        term = model.term(op.ell)
        if isinstance(op, TimeOp):
            u = np.kron(np.eye(2), term_unitary(term, term.sign * op.angle))
        else:
            u = swift_unitary(term, op.b)
        total = u @ total
    state = random_state(model.n_qubits, seed=29)
    assert np.abs(run_plan(state, plan, model) - total @ state).max() <= 1e-12


def test_run_plan_refuses_plans_that_cannot_run():
    model = parse_hamiltonian("0.5 XZ")
    state = random_state(2, seed=3)
    for op in (TimeOp(1, float("nan")), TimeOp(1, float("inf")), "T 1 0.1"):
        plan = GatePlan(ops=(op,))
        with pytest.raises((TypeError, ValueError)):
            run_plan(state, plan, model)


def test_run_plan_time_op_angle_is_bare():
    # the sign lives in the stored angle, not in run_plan
    model = parse_hamiltonian("-0.5 X")
    plan = GatePlan(ops=(TimeOp(ell=1, angle=0.3),))
    state = random_state(1, seed=1)
    got = run_plan(state, plan, model)
    want = apply_pauli_rotation(state, "X", 0.3)
    assert np.allclose(got, want, atol=1e-15)


def test_kernel_swift_codes_need_the_ancilla():
    # codes 0 and 1 are time operators, 2 the branch-0 swift operator of term 0
    kernel = Kernel(parse_hamiltonian("1.0 XI\n0.5 ZZ"))
    with pytest.raises(ValueError, match="ancilla"):
        kernel.evolve(kernel.fresh(2, ancilla=False), np.array([[0], [2]]), [0.1, 0.2])


SCHEDULE_MODELS = {
    "chain_4q": load_hamiltonian(str(resources.files("hamsim").joinpath("data/chain_4q.txt"))),
    "reference_1q": parse_hamiltonian("0.5 X\n0.3 Z"),
    # Y terms, negative coefficients, flip-only, sign-only and mixed terms:
    # every record kind, swift branches with sign -1 among them
    "two_qubit_y": parse_hamiltonian("0.5 XY\n-0.3 ZZ\n0.2 YI\n-0.4 IX\n0.1 YZ"),
}
# a 12-qubit XX+Z chain: one full-register row holds 2^13 amplitudes
CHAIN_12Q = parse_hamiltonian("\n".join(
    [f"0.45 {'I' * i}XX{'I' * (10 - i)}" for i in range(11)]
    + [f"0.375 {'I' * i}Z{'I' * (11 - i)}" for i in range(12)]))


@pytest.mark.parametrize("name", sorted(SCHEDULE_MODELS))
def test_kernel_schedules_give_identical_states(name, monkeypatch):
    # ROW_SCHEDULE_AMPS = 0 sends every tile to the grouped schedule, a
    # bound above every tile sends it to the per-row one. Every entry of
    # the per-row tables has one zero component, so the two agree bit for
    # bit: time, swift and PAD codes on full rows, time, branch-1 swift and
    # PAD codes on rows without the ancilla, where branch 0 still raises.
    # The per-row schedule gathers its table rows for blocks of columns; the
    # 40 x 300 tiles and the one-row tiles of 8,000 columns (a
    # deterministic plan's shape) span several blocks
    row_amps = statevector.ROW_SCHEDULE_AMPS
    model = SCHEDULE_MODELS[name]
    kernel = Kernel(model)
    n_terms = model.n_terms
    rng = np.random.default_rng(31)
    thetas = rng.uniform(-np.pi, np.pi, n_terms).tolist()
    for m, cols in ((60, 17), (40, 300), (1, 8000)):
        mixed = rng.integers(PAD, 3 * n_terms, size=(m, cols))
        idle = np.where(mixed // n_terms == 1, mixed + n_terms, mixed)  # branch 0 -> 1
        for width, codes in ((2 << model.n_qubits, mixed), (1 << model.n_qubits, idle)):
            # 40 table bytes per amplitude and column: P, C and A
            assert cols == 17 or 40 * m * width * cols > 2 * statevector.ROW_BLOCK_BYTES
            start = rng.normal(size=(m, width)) + 1j * rng.normal(size=(m, width))
            rows = {}
            for bound in (0, 1 << 40):
                monkeypatch.setattr(statevector, "ROW_SCHEDULE_AMPS", bound)
                rows[bound] = start.copy()
                kernel.evolve(rows[bound], codes, thetas)
            assert not np.array_equal(rows[0], start)
            assert np.array_equal(rows[0], rows[1 << 40])
        for bound in (0, 1 << 40):
            monkeypatch.setattr(statevector, "ROW_SCHEDULE_AMPS", bound)
            with pytest.raises(ValueError, match="^swift operators need the ancilla$"):
                kernel.evolve(kernel.fresh(m, ancilla=False), mixed, thetas)
    # A randomized-Trotter tile as the benchmark runs it: 200 plans of 224
    # time-only columns on 2^n amplitudes, which chain_4q gathers in 112
    # table blocks of 2 columns, and one column more, so that the last
    # block is short
    width = 1 << model.n_qubits
    # columns per table block, as Kernel.evolve takes them
    step = max(1, statevector.ROW_BLOCK_BYTES // (40 * 200 * width))
    assert 225 % step != 0
    for cols in (224, 225):
        codes = rng.integers(0, n_terms, size=(200, cols))
        start = rng.normal(size=(200, width)) + 1j * rng.normal(size=(200, width))
        rows = {}
        for bound in (0, 1 << 40):
            monkeypatch.setattr(statevector, "ROW_SCHEDULE_AMPS", bound)
            rows[bound] = start.copy()
            kernel.evolve(rows[bound], codes, thetas)
        assert not np.array_equal(rows[0], start)
        assert np.array_equal(rows[0], rows[1 << 40])
    # The grouped schedule's edge cases, on 4 (reference_1q), 16 and 32
    # (chain_4q) amplitudes per row: no columns, all-PAD columns, columns
    # that are one whole-tile group, one-row tiles, and one, two or three
    # sorted columns, so that the rows end in the caller's array or in the
    # partner buffer; and, as verify's time-op check evolves, one code row
    # tiled over a tile above ROW_SCHEDULE_AMPS, every column one group.
    # The caller's array holds the result
    for width, top in ((2 << model.n_qubits, 3 * n_terms), (1 << model.n_qubits, n_terms)):
        for m in (1, 50, row_amps // width + 1):
            mixed = rng.integers(PAD, top, size=(m, 3))
            same, pad = np.full((m, 1), top - 1), np.full((m, 1), PAD)
            cases = {
                "no columns": mixed[:, :0],
                "all PAD": np.hstack([pad, pad]),
                "one code": np.hstack([same, pad, same]),
                "one sorted": np.hstack([pad, mixed[:, :1], same]),
                "two sorted": np.hstack([mixed[:, :1], same, mixed[:, 1:2]]),
                "three sorted": np.hstack([mixed[:, :1], pad, mixed[:, 1:], same]),
                "one row tiled": np.tile(mixed[:1], (m, 1)),
            }
            for case, codes in cases.items():
                start = rng.normal(size=(m, width)) + 1j * rng.normal(size=(m, width))
                rows = {}
                for bound in (0, 1 << 40):
                    monkeypatch.setattr(statevector, "ROW_SCHEDULE_AMPS", bound)
                    rows[bound] = start.copy()
                    kernel.evolve(rows[bound], codes, thetas)
                moved = (codes != PAD).any()
                assert moved != np.array_equal(rows[0], start), (width, m, case)
                assert np.array_equal(rows[0], rows[1 << 40]), (width, m, case)
    # One row wider than ROW_SCHEDULE_AMPS, as deterministic Trotter plans
    # and run_plan evolve at 12 qubits and up: the grouped schedule applies
    # every code to the row in place, == the per-row schedule
    wide = Kernel(CHAIN_12Q)
    top = 3 * CHAIN_12Q.n_terms
    codes = rng.integers(PAD, top, size=(1, 40))
    wide_thetas = rng.uniform(-np.pi, np.pi, CHAIN_12Q.n_terms).tolist()
    start = rng.normal(size=(1, 2 << 12)) + 1j * rng.normal(size=(1, 2 << 12))
    assert start.size > row_amps
    rows = {}
    for bound in (row_amps, 1 << 40):
        monkeypatch.setattr(statevector, "ROW_SCHEDULE_AMPS", bound)
        rows[bound] = start.copy()
        wide.evolve(rows[bound], codes, wide_thetas)
    assert not np.array_equal(rows[row_amps], start)
    assert np.array_equal(rows[row_amps], rows[1 << 40])


def test_kernel_keeps_no_per_term_tables():
    # A Kernel keeps each term's bitmask action, not its 2^n permutation and
    # sign tables: at 10 qubits those cost up to 16 KiB a term, about 16 MiB
    # for these 2,000 terms
    rng = np.random.default_rng(7)
    letters = np.array(list("IXYZ"))
    axes = {"".join(rng.choice(letters, 10)) for _ in range(2000)} - {"I" * 10}
    model = HamiltonianModel(tuple(PauliTerm(a, 1.0) for a in sorted(axes)))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        kernel = Kernel(model)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert kernel.n_terms == len(axes)
    assert retained < 2 << 20
