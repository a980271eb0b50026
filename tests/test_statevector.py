"""Statevector engine versus dense linear-algebra oracles."""

import numpy as np
import pytest
from scipy.linalg import expm

from hamsim import (
    GatePlan,
    Observable,
    PauliTerm,
    State,
    SwiftOp,
    TimeOp,
    WidthOverflow,
    apply_pauli_rotation,
    apply_swift_op,
    expectation,
    parse_hamiltonian,
    prepare_plus_input,
    run_plan,
)

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


def random_state(n_qubits: int, seed: int) -> State:
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=1 << (n_qubits + 1)) + 1j * rng.normal(size=1 << (n_qubits + 1))
    amps /= np.linalg.norm(amps)
    return State(amplitudes=amps, n_qubits=n_qubits)


def test_prepare_plus_input_layout():
    state = prepare_plus_input(2)
    assert state.amplitudes.shape == (8,)
    assert state.norm == pytest.approx(1.0, abs=1e-15)
    assert np.allclose(state.amplitudes, np.full(8, 1 / np.sqrt(8)))
    zero = prepare_plus_input(2, system_zero=True)
    want = np.zeros(8)
    want[0] = want[4] = 1 / np.sqrt(2)
    assert np.allclose(zero.amplitudes, want)


def test_prepare_plus_input_width_limits():
    with pytest.raises(WidthOverflow):
        prepare_plus_input(0)
    with pytest.raises(WidthOverflow):
        prepare_plus_input(22)
    assert prepare_plus_input(21).n_qubits == 21


def test_state_shape_validation():
    with pytest.raises(ValueError):
        State(amplitudes=np.zeros(4, dtype=complex), n_qubits=2)


def test_observable_validation():
    with pytest.raises(ValueError):
        Observable(axes="XQ")
    with pytest.raises(ValueError):
        expectation(random_state(2, 0), Observable(axes="Z"))


@pytest.mark.parametrize("axes", ["X", "Y", "Z", "XY", "ZI", "IYX"])
def test_pauli_rotation_matches_expm(axes):
    n = len(axes)
    theta = 0.37
    state = random_state(n, seed=11)
    got = apply_pauli_rotation(state, axes, theta)
    u_sys = expm(1j * theta * dense_string(axes))
    u_full = np.kron(np.eye(2), u_sys)
    assert np.allclose(got.amplitudes, u_full @ state.amplitudes, atol=1e-12)


@pytest.mark.parametrize("axes", ["X", "ZY"])
@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("b", [0, 1])
def test_swift_op_matches_block_unitary(axes, sign, b):
    n = len(axes)
    dim = 1 << n
    h = sign * dense_string(axes)
    if b == 0:
        u_full = np.block(
            [[np.eye(dim), np.zeros((dim, dim))], [np.zeros((dim, dim)), 1j * h]]
        )
    else:
        u_full = np.block(
            [[h, np.zeros((dim, dim))], [np.zeros((dim, dim)), -1j * np.eye(dim)]]
        )
    term = PauliTerm(axes=axes, strength=1.0, sign=sign)
    state = random_state(n, seed=7)
    got = apply_swift_op(state, term, b)
    assert np.allclose(got.amplitudes, u_full @ state.amplitudes, atol=1e-12)


def test_swift_op_rejects_bad_branch():
    with pytest.raises(ValueError):
        apply_swift_op(random_state(1, 0), PauliTerm("X", 1.0), 2)


@pytest.mark.parametrize("with_x", [False, True])
def test_expectation_matches_dense(with_x):
    axes = "ZX"
    state = random_state(2, seed=19)
    obs_sys = dense_string(axes)
    anc = dense_string("X") if with_x else np.eye(2)
    dense = np.kron(anc, obs_sys)
    want = np.vdot(state.amplitudes, dense @ state.amplitudes).real
    got = expectation(state, Observable(axes=axes, with_ancilla_x=with_x))
    assert got == pytest.approx(want, abs=1e-12)


def test_expectation_ancilla_x_on_product_input_reads_system_value():
    # |+> ancilla times |0...0>: the cross term is real and equals <Q>
    state = prepare_plus_input(2, system_zero=True)
    assert expectation(state, Observable("ZZ", with_ancilla_x=True)) == pytest.approx(1.0)
    assert expectation(state, Observable("XZ", with_ancilla_x=True)) == pytest.approx(0.0)


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
        n_segments=5,
        method_tag="TEST",
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
    assert np.allclose(got.amplitudes, total @ state.amplitudes, atol=1e-12)


def test_run_plan_time_op_angle_is_bare():
    # the sign lives in the stored angle, not in run_plan
    model = parse_hamiltonian("-0.5 X")
    plan = GatePlan(ops=(TimeOp(ell=1, angle=0.3),), n_segments=1, method_tag="TEST")
    state = random_state(1, seed=1)
    got = run_plan(state, plan, model)
    want = apply_pauli_rotation(state, "X", 0.3)
    assert np.allclose(got.amplitudes, want.amplitudes, atol=1e-15)
