"""Statevector execution on an ancilla-extended register: the package's one executor.

The register always holds n_qubits + 1 qubits with the ancilla at qubit 0
(the most significant bit), so the two ancilla blocks of the amplitude
vector are contiguous halves. Time operators act on the system register
only; swift operators act on both. Total width is capped at 22 qubits.

All execution lives here: `Kernel` evolves batches of rows (one amplitude
vector each) from the index arrays that `compiler` draws, one
`PauliAction.apply` per group of rows sharing a term, and `read_rows` is
the one exact readout. The single-state functions are batches of one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._pauli import AXES, PauliAction, pauli_action
from .compiler import SegmentDraw, SwiftDraw, SwiftOp, TimeOp, validate_plan
from .errors import WidthOverflow
from .hamiltonian import HamiltonianModel, PauliTerm

MAX_TOTAL_QUBITS = 22


@dataclass(frozen=True)
class State:
    """Pure state of the ancilla-extended register (2^(n+1) amplitudes)."""

    amplitudes: np.ndarray
    n_qubits: int

    def __post_init__(self):
        expected = 1 << (self.n_qubits + 1)
        if self.amplitudes.shape != (expected,):
            raise ValueError(
                f"amplitude vector has shape {self.amplitudes.shape}, "
                f"expected ({expected},)"
            )

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))


@dataclass(frozen=True)
class Observable:
    """Pauli-string observable Q on the system register.

    with_ancilla_x measures X (x) Q on the extended register instead of
    I (x) Q; that is the readout the swift-operator corrections need.
    """

    axes: str
    with_ancilla_x: bool = False

    def __post_init__(self):
        if not self.axes or any(c not in AXES for c in self.axes):
            raise ValueError(f"invalid observable axes {self.axes!r}")

    @property
    def n_qubits(self) -> int:
        return len(self.axes)


def prepare_plus_input(n_qubits: int, system_zero: bool = False) -> State:
    """|+> ancilla tensor (|+>^n or |0>^n) as the default circuit input."""
    if n_qubits < 1 or n_qubits + 1 > MAX_TOTAL_QUBITS:
        raise WidthOverflow(
            f"system width {n_qubits} outside [1, {MAX_TOTAL_QUBITS - 1}]"
        )
    half = 1 << n_qubits
    system = np.zeros(half, dtype=complex)
    if system_zero:
        system[0] = 1.0
    else:
        system[:] = 1.0 / np.sqrt(half)
    amps = np.concatenate([system, system]) / np.sqrt(2.0)
    return State(amplitudes=amps, n_qubits=n_qubits)


# ---------------------------------------------------------------------------
# Row functions: every amplitude update and readout in the package.

def rotate_rows(states: np.ndarray, rows, action: PauliAction, theta: float) -> None:
    """e^{i theta P} = cos(theta) + i sin(theta) P on the given rows, with
    `action` P on the system qubits of the extended register."""
    sub = states[rows]
    states[rows] = np.cos(theta) * sub + 1j * np.sin(theta) * action.apply(sub)


def swift_rows(states: np.ndarray, rows, action: PauliAction, sign: int, b: int) -> None:
    """Swift operator S^(b) for H_ell = sign * P, `action` P on the system.

    Net unitaries (ancilla block form): S^(0) = diag(I, i H_ell) and
    S^(1) = diag(H_ell, -i I). Their channel actions on the ancilla
    off-diagonal blocks are rho -> (-i rho H, +i H rho) for b = 0 and
    rho -> (+i H rho, -i rho H) for b = 1, so the two sum to i[H, .].
    """
    half = states.shape[1] // 2
    sub = states[rows]
    if b == 0:
        sub[:, half:] = 1j * sign * action.apply(sub[:, half:])
    else:
        sub[:, :half] = sign * action.apply(sub[:, :half])
        sub[:, half:] = -1j * sub[:, half:]
    states[rows] = sub


def read_rows(states: np.ndarray, action: PauliAction, ancilla_x: bool) -> np.ndarray:
    """Exact <X (x) Q> (ancilla_x) or <I (x) Q> per row, Q the system `action`;
    raises ValueError on a non-real value, which means a broken evolution."""
    half = action.dim
    lower, upper = states[:, :half], states[:, half:]
    q_low = action.apply(lower)
    q_up = action.apply(upper)
    if ancilla_x:
        vals = np.einsum("ij,ij->i", lower.conj(), q_up)
        vals = vals + np.einsum("ij,ij->i", upper.conj(), q_low)
    else:
        vals = np.einsum("ij,ij->i", lower.conj(), q_low)
        vals = vals + np.einsum("ij,ij->i", upper.conj(), q_up)
    worst = float(np.abs(vals.imag).max(initial=0.0))
    if worst > 1e-10:
        raise ValueError(f"non-real Pauli expectation (imag {worst:.3e})")
    return vals.real


class Kernel:
    """Batched executor for one model, observable and input state.

    Term indices in the arrays are 0-based; plan instructions are 1-based.
    """

    def __init__(
        self, model: HamiltonianModel, observable_axes: str | None = None,
        system_zero: bool = False,
    ):
        n = model.n_qubits
        self.n_qubits = n
        self.n_terms = model.n_terms
        self.system_zero = system_zero
        self.signs = [term.sign for term in model.terms]
        self.sys_actions = [pauli_action(term.axes, width=n) for term in model.terms]
        self.full_actions = [
            pauli_action(term.axes, width=n + 1, start=1) for term in model.terms
        ]
        self.obs_action = pauli_action(observable_axes or "Z" + "I" * (n - 1), width=n)

    def fresh(self, m: int) -> np.ndarray:
        """m rows of the input state."""
        init = prepare_plus_input(self.n_qubits, system_zero=self.system_zero)
        return np.tile(init.amplitudes, (m, 1))

    def read(self, states: np.ndarray, ancilla_x: bool) -> np.ndarray:
        return read_rows(states, self.obs_action, ancilla_x)

    def rotate(self, states, rows, terms, thetas) -> None:
        """Row rows[i] gets e^{i thetas[terms[i]] P_terms[i]}."""
        for ell0 in range(self.n_terms):
            sel = rows[terms == ell0]
            if sel.size:
                rotate_rows(states, sel, self.full_actions[ell0], thetas[ell0])

    def swift(self, states, rows, terms, b: int) -> None:
        """Row rows[i] gets the branch-b swift operator of term terms[i]."""
        for ell0 in range(self.n_terms):
            sel = rows[terms == ell0]
            if sel.size:
                swift_rows(states, sel, self.sys_actions[ell0], self.signs[ell0], b)

    def time_ops(self, states, terms: np.ndarray, thetas) -> None:
        """Column c of terms (m, C) is every row's c-th time operator."""
        rows = np.arange(terms.shape[0])
        for col in range(terms.shape[1]):
            self.rotate(states, rows, terms[:, col], thetas)

    def swift_variant(self, states, draw: SwiftDraw, b_vecs, thetas) -> None:
        """One correction variant: per segment, block rows apply their parts'
        swift operators with branches b_vecs[j], all other rows a filler."""
        free = draw.filler_slots()
        for seg in range(free.shape[1]):
            for j, b_vec in enumerate(b_vecs):
                rows_j = np.flatnonzero(draw.sigma[:, j] == seg)
                if not rows_j.size:
                    continue
                for step, b in enumerate(b_vec):
                    self.swift(states, rows_j, draw.parts[j][rows_j, step], b)
            filler_rows = np.flatnonzero(free[:, seg])
            if filler_rows.size:
                self.rotate(states, filler_rows, draw.fillers[filler_rows, seg], thetas)

    def all_order_segment(self, states, signs, draw: SegmentDraw, thetas) -> None:
        """One all-order segment; block rows also fold (-1)^s into signs."""
        self.rotate(states, draw.time_rows, draw.time_terms, thetas)
        for block in draw.blocks:
            signs[block.rows] *= 1.0 - 2.0 * block.s
            for step in range(block.terms.shape[1]):
                for b in (0, 1):
                    hit = block.b[:, step] == b
                    self.swift(states, block.rows[hit], block.terms[hit, step], b)

    def run(self, states: np.ndarray, ops) -> None:
        """Apply one validated instruction list to every row, in order."""
        rows = slice(None)
        for op in ops:
            ell0 = op.ell - 1
            if isinstance(op, TimeOp):
                rotate_rows(states, rows, self.full_actions[ell0], op.angle)
            elif isinstance(op, SwiftOp):
                swift_rows(states, rows, self.sys_actions[ell0], self.signs[ell0], op.b)
            else:
                raise TypeError(f"unknown instruction {op!r}")


# ---------------------------------------------------------------------------
# Single-state API: batches of one over the row functions.

def apply_pauli_rotation(state: State, axes: str, theta: float) -> State:
    """Apply e^{i theta P} with P the bare system Pauli string `axes`.

    Plan TimeOp angles are stored with the term sign already folded in and
    execute through this bare rotation.
    """
    rows = state.amplitudes[None, :].copy()
    action = pauli_action(axes, width=state.n_qubits + 1, start=1)
    rotate_rows(rows, slice(None), action, theta)
    return State(amplitudes=rows[0], n_qubits=state.n_qubits)


def apply_swift_op(state: State, term: PauliTerm, b: int) -> State:
    """Apply the swift operator S^(b) for H_ell = sign * P (see swift_rows)."""
    if b not in (0, 1):
        raise ValueError("swift branch b must be 0 or 1")
    rows = state.amplitudes[None, :].copy()
    swift_rows(rows, slice(None), pauli_action(term.axes, width=state.n_qubits), term.sign, b)
    return State(amplitudes=rows[0], n_qubits=state.n_qubits)


def expectation(state: State, observable: Observable) -> float:
    """Exact <O> for O = X (x) Q or I (x) Q; the value is real for Paulis."""
    if observable.n_qubits != state.n_qubits:
        raise ValueError("observable width does not match the state")
    action = pauli_action(observable.axes, width=state.n_qubits)
    return float(read_rows(state.amplitudes[None, :], action, observable.with_ancilla_x)[0])


def run_plan(state: State, plan, model: HamiltonianModel) -> State:
    """Execute a compiled GatePlan instruction list in application order."""
    validate_plan(plan, model)
    rows = state.amplitudes[None, :].copy()
    Kernel(model).run(rows, plan.ops)
    return State(amplitudes=rows[0], n_qubits=state.n_qubits)
