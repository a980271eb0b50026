"""Statevector execution on an ancilla-extended register: the package's one executor.

The register always holds n_qubits + 1 qubits with the ancilla at qubit 0
(the most significant bit), so the two ancilla blocks of the amplitude
vector are contiguous halves. Every circuit starts from |+>^(n+1), the |+>
ancilla times |+>^n. Time operators act on the system register only; swift
operators act on both. Total width is capped at 22 qubits.

All execution lives here. `Kernel.evolve` runs batches of rows (one
amplitude vector each) from the op codes that `compiler` builds out of its
draws: a small integer per instruction naming a time operator, a swift
operator with its branch, or a pad. It has two schedules, chosen by tile
size alone. Tiles of more than ROW_SCHEDULE_AMPS (2^12) amplitudes group,
per column of codes, the rows that share an op, and each group is one call
of the row functions `rotate_rows` / `swift_rows`, which update a
contiguous block of rows in place from a precomputed permutation and
phase: the tile ping-pongs with a partner buffer, each column copying
every group into its own contiguous slot of the other. Smaller tiles, where
those calls cost more than their amplitudes, update every row at once per
column as A * psi + C * psi[P], from one (A, C, P) table row per code.
Every entry of A and C has one exactly zero component, so each product
rounds as the row functions' do and both schedules give bit-identical
states: reports do not depend on which one runs. Rows whose ancilla stays
idle (qDRIFT baselines, Trotter) evolve on 2^n amplitudes instead of
2^(n+1).
`Kernel.read` is the one exact readout, in cache-sized blocks. Every circuit
runs through `Kernel.evolve`: the single-state functions take and return
plain amplitude arrays and evolve them as batches of one, a plan as the
code rows of `compiler.plan_codes` and a bare rotation as a one-term model.
"""

from __future__ import annotations

import numpy as np

from ._pauli import pauli_action, system_observable
from .compiler import CODE_DTYPE, check_code_range, plan_codes, validate_plan
from .errors import WidthOverflow
from .hamiltonian import HamiltonianModel, PauliTerm

MAX_TOTAL_QUBITS = 22
READ_BLOCK_BYTES = 512 << 10
# Largest tile (rows x row width) that Kernel.evolve runs on the per-row
# schedule; measured crossover, see the README's "Library" section.
ROW_SCHEDULE_AMPS = 1 << 12
# Bytes of (A, C, P) table rows the per-row schedule gathers at once, for a
# block of columns: a one-row plan takes its columns in one or few blocks
ROW_BLOCK_BYTES = 256 << 10


def prepare_plus_input(n_qubits: int) -> np.ndarray:
    """|+>^(n+1), the |+> ancilla times |+>^n: the circuit input's
    2^(n+1) amplitudes."""
    if n_qubits < 1 or n_qubits + 1 > MAX_TOTAL_QUBITS:
        raise WidthOverflow(
            f"system width {n_qubits} outside [1, {MAX_TOTAL_QUBITS - 1}]"
        )
    system = np.full(1 << n_qubits, 1.0 / np.sqrt(1 << n_qubits), dtype=complex)
    return np.concatenate([system, system]) / np.sqrt(2.0)


# ---------------------------------------------------------------------------
# Row functions: every amplitude update in the package. A row is
# either the full 2^(n+1) register or, when the ancilla stays idle in |+>,
# one 2^n half: both halves of such a row are equal, so either stands for it.

def rotate_rows(rows: np.ndarray, perm, coef: np.ndarray, cos: float) -> None:
    """psi <- cos * psi + coef * psi[perm] on every 2^n half of a contiguous
    block of rows, in place. With P psi = unit * signs * psi[perm] and
    coef = i sin(theta) * unit * signs this is e^{i theta P}."""
    halves = rows.reshape(-1, coef.shape[0])
    if perm is None:
        gathered = halves * coef
    else:
        gathered = np.take(halves, perm, axis=1)
        gathered *= coef
    rows *= cos
    rows += gathered.reshape(rows.shape)


def swift_rows(rows: np.ndarray, perm, coef: np.ndarray, b: int) -> None:
    """Swift operator S^(b) of H_ell = sign * P on a block of full-register
    rows, in place, with coef * psi[perm] = i H_ell psi (b = 0) or H_ell psi
    (b = 1).

    Net unitaries (ancilla block form): S^(0) = diag(I, i H_ell) and
    S^(1) = diag(H_ell, -i I). Their channel actions on the ancilla
    off-diagonal blocks are rho -> (-i rho H, +i H rho) for b = 0 and
    rho -> (+i H rho, -i rho H) for b = 1, so the two sum to i[H, .].
    """
    half = rows.shape[1] // 2
    part = rows[:, half:] if b == 0 else rows[:, :half]
    if b:
        rows[:, half:] *= -1j
    gathered = part if perm is None else np.take(part, perm, axis=1)
    np.multiply(gathered, coef, out=part)


class Kernel:
    """Batched executor for one model and observable.

    Rows evolve from op codes: with T terms, code ell < T is the time
    operator e^{i thetas[ell] P_ell}, code T + b T + ell the branch-b swift
    operator of term ell, and -1 a no-op pad. Term indices are 0-based;
    plan instructions are 1-based.
    """

    def __init__(self, model: HamiltonianModel, observable_axes: str | None = None):
        n = model.n_qubits
        check_code_range(model.n_terms)
        self.n_qubits = n
        self.n_terms = model.n_terms
        self.signs = [term.sign for term in model.terms]
        self.factors = [pauli_action(term.axes).factors() for term in model.terms]
        self.obs_action = pauli_action(system_observable(observable_axes, n))

    def fresh(self, m: int, ancilla: bool = True) -> np.ndarray:
        """m rows of the input state, without the idle ancilla unless `ancilla`."""
        init = prepare_plus_input(self.n_qubits)
        return np.tile(init if ancilla else init[: init.size // 2], (m, 1))

    def read(self, states: np.ndarray, ancilla_x: bool) -> np.ndarray:
        """Exact <X (x) Q> (ancilla_x) or <I (x) Q> per row, Q the observable;
        raises ValueError on a non-real value, which means a broken evolution.
        A 2^n row (idle ancilla) reads 2 <psi|Q|psi>, the sum of its two equal
        halves under either operator. Rows are read in blocks of at most
        READ_BLOCK_BYTES (512 KiB), which keeps the conjugated and Pauli-applied
        copies small enough to stay in cache and be reused between blocks."""
        action = self.obs_action
        half = action.dim
        step = max(1, READ_BLOCK_BYTES // (states.shape[1] * states.itemsize))
        vals = np.empty(states.shape[0], dtype=complex)
        for lo in range(0, states.shape[0], step):
            rows = states[lo : lo + step]
            if states.shape[1] == half:
                vals[lo : lo + step] = 2 * np.einsum("ij,ij->i", rows.conj(), action.apply(rows))
                continue
            lower, upper = rows[:, :half], rows[:, half:]
            q_low, q_up = action.apply(lower), action.apply(upper)
            if ancilla_x:
                q_low, q_up = q_up, q_low
            vals[lo : lo + step] = (
                np.einsum("ij,ij->i", lower.conj(), q_low)
                + np.einsum("ij,ij->i", upper.conj(), q_up)
            )
        worst = float(np.abs(vals.imag).max(initial=0.0))
        if worst > 1e-10:
            raise ValueError(f"non-real Pauli expectation (imag {worst:.3e})")
        return vals.real

    def _coef(self, code: int, thetas) -> tuple:
        """(perm, coefficient, cosine or branch) of one op code: i sin(theta)
        P_ell and cos(theta) for rotate_rows, i H_ell (b = 0) or H_ell (b = 1)
        and b for swift_rows, H_ell = sign_ell P_ell."""
        kind, ell = divmod(code, self.n_terms)
        perm, unit, signs = self.factors[ell]
        if kind == 0:
            return perm, (1j * np.sin(thetas[ell]) * unit) * signs, np.cos(thetas[ell])
        b = kind - 1
        return perm, ((1j * self.signs[ell] if b == 0 else self.signs[ell]) * unit) * signs, b

    def _row_tables(self, codes, thetas, width: int) -> tuple:
        """(A, C, P) rows of the per-row schedule, one per code: code u maps
        a row to A[u] * psi + C[u] * psi[P[u]]. A time operator is (cos,
        coefficient, perm) on every 2^n half; a branch-b swift operator is
        (0, coefficient, perm) on ancilla half 1 - b and (1, 0, identity)
        (b = 0) or (-i, 0, identity) (b = 1) on the other; PAD is (1, 0,
        identity)."""
        dim = 1 << self.n_qubits
        ident = np.arange(width)
        a = np.ones((len(codes), width), dtype=complex)
        c = np.zeros_like(a)
        p = np.tile(ident, (len(codes), 1))
        for row, code in enumerate(codes):
            if code < 0:
                continue
            perm, coef, extra = self._coef(code, thetas)
            perm = ident[:dim] if perm is None else perm
            if code < self.n_terms:
                halves = range(0, width, dim)
                a[row] = extra
            elif width == dim:
                raise ValueError("swift operators need the ancilla")
            else:
                halves = [dim * (1 - extra)]
                a[row, halves[0] : halves[0] + dim] = 0
                if extra:
                    a[row, dim:] = -1j
            for lo in halves:
                c[row, lo : lo + dim] = coef
                p[row, lo : lo + dim] = perm + lo
        return a, c, p

    def evolve(self, states: np.ndarray, codes: np.ndarray, thetas, partner=None) -> None:
        """Row i gets the ops codes[i, 0], codes[i, 1], ... in order.

        Tiles of at most ROW_SCHEDULE_AMPS amplitudes take the per-row
        schedule: each column gathers, multiplies and adds every row at
        once from the table rows (`_row_tables`) of the codes the tile
        holds, themselves gathered by `take` for a block of columns at a
        time, at most ROW_BLOCK_BYTES (256 KiB) of them. Larger tiles take
        the grouped one: column by column, a stable radix argsort of the int16
        codes groups the rows that share an op, each group is copied into
        its contiguous slot of the partner buffer (`partner`, of the
        states' shape and dtype, or a new one) by one gather of the whole
        column, gets one row-function call there, and the buffers swap.
        After the last column one scatter restores input row order in
        `states`. Coefficients are built once per code per call. Both
        schedules give bit-identical states.
        """
        codes = np.asarray(codes, dtype=CODE_DTYPE)
        m, width = states.shape
        if states.size <= ROW_SCHEDULE_AMPS:
            shifted = codes + 1  # PAD -> 0
            present = np.flatnonzero(np.bincount(shifted.ravel(), minlength=3 * self.n_terms + 1))
            table_row = np.zeros(3 * self.n_terms + 1, dtype=np.intp)
            table_row[present] = np.arange(present.size)
            a, c, p = self._row_tables((present - 1).tolist(), thetas, width)
            offsets = np.arange(0, m * width, width)[:, None]
            cols = table_row[shifted.T]
            # P (intp), C and A (complex) bytes per amplitude of one column
            step = max(1, ROW_BLOCK_BYTES // (40 * states.size))
            for lo in range(0, len(cols), step):
                blk = cols[lo : lo + step]
                # take: one gather per table, without fancy indexing's set-up
                pb = p.take(blk, axis=0)
                pb += offsets
                cb, ab = c.take(blk, axis=0), a.take(blk, axis=0)
                for j in range(len(blk)):
                    gathered = states.reshape(-1)[pb[j]]
                    gathered *= cb[j]
                    states *= ab[j]
                    states += gathered
            return
        full = width == 2 << self.n_qubits
        coefs = {}

        def apply(code: int, rows: np.ndarray) -> None:
            if code < 0:
                return
            if code not in coefs:
                coefs[code] = self._coef(code, thetas)
            perm, coef, extra = coefs[code]
            if code < self.n_terms:
                rotate_rows(rows, perm, coef, extra)
            elif full:
                swift_rows(rows, perm, coef, extra)
            else:
                raise ValueError("swift operators need the ancilla")

        # src row i is input row where[i] (None: src is states, unsorted);
        # dst is the partner buffer
        src, where = states, None
        dst = np.empty_like(states) if partner is None else partner
        for col in codes.T.copy():
            current = col if where is None else col[where]
            order = np.argsort(current, kind="stable")
            ranked = current[order]
            cuts = (np.flatnonzero(ranked[1:] != ranked[:-1]) + 1).tolist()
            # every group lands in its contiguous slot; mode="clip" takes
            # straight into out, "raise" buffers
            np.take(src, order, axis=0, out=dst, mode="clip")
            for lo, hi in zip([0, *cuts], [*cuts, m]):
                apply(int(ranked[lo]), dst[lo:hi])
            where = order if where is None else where[order]
            src, dst = dst, src
        if where is not None:
            if src is states:  # sorted an even number of times: no overlap
                dst[...] = src
                src = dst
            states[where] = src


# ---------------------------------------------------------------------------
# Single-state API: 2^(n+1) amplitude arrays evolved as batches of one.

def _kernel_row(amplitudes, model: HamiltonianModel, observable_axes: str | None = None) -> tuple:
    """(Kernel of the model and observable, a (1, 2^(n+1)) complex copy of
    the amplitudes); ValueError for amplitudes of any other shape."""
    if np.shape(amplitudes) != (2 << model.n_qubits,):
        raise ValueError(f"amplitude vector has shape {np.shape(amplitudes)}, "
                         f"expected ({2 << model.n_qubits},)")
    return Kernel(model, observable_axes), np.array(amplitudes, dtype=complex, ndmin=2)


def _one_term(axes: str) -> HamiltonianModel:
    """The model P, P the system Pauli string `axes`."""
    return HamiltonianModel((PauliTerm(system_observable(axes, len(axes)), 1.0),))


def apply_pauli_rotation(amplitudes, axes: str, theta: float) -> np.ndarray:
    """Apply e^{i theta P}, P the bare system Pauli string `axes`: plan
    TimeOp angles carry the term sign and execute as this bare rotation."""
    kernel, row = _kernel_row(amplitudes, _one_term(axes))
    kernel.evolve(row, [[0]], [theta])
    return row[0]


def expectation(amplitudes, axes: str, ancilla_x: bool = False) -> float:
    """Exact <X (x) Q> (ancilla_x) or <I (x) Q>, Q the system Pauli string
    `axes`; the value is real for Paulis."""
    kernel, row = _kernel_row(amplitudes, _one_term(axes), axes)
    return float(kernel.read(row, ancilla_x)[0])


def run_plan(amplitudes, plan, model: HamiltonianModel) -> np.ndarray:
    """Execute a compiled GatePlan instruction list in application order."""
    validate_plan(plan, model)
    kernel, row = _kernel_row(amplitudes, model)
    for codes, thetas in plan_codes(plan, model.n_terms):
        kernel.evolve(row, codes, thetas)
    return row[0]
