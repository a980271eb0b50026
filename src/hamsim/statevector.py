"""Statevector execution on an ancilla-extended register: the package's one executor.

The register always holds n_qubits + 1 qubits with the ancilla at qubit 0
(the most significant bit), so the two ancilla blocks of the amplitude
vector are contiguous halves. Every circuit starts from |+>^(n+1), the |+>
ancilla times |+>^n. Time operators act on the system register only; swift
operators act on both. Total width is capped at 22 qubits.

All execution lives here. `Kernel.evolve` runs batches of rows (one
amplitude vector each) from the op codes that `compiler` builds out of its
draws: a small integer per instruction naming a time operator, a swift
operator with its branch, or a pad. `Kernel._op` alone says what a code
does to rows of a given width, as a record that the row function `op_rows`
applies. Rows whose ancilla stays idle (qDRIFT baselines, Trotter,
correction variants that leave it in |+>) evolve on 2^n amplitudes, where a
branch-1 swift code applies H_ell, its action on the lower half, and a
branch-0 code raises. Tiles of more than ROW_SCHEDULE_AMPS (2^12)
amplitudes group, per column of codes, the rows that share an op into one
`op_rows` call on a contiguous block: the tile ping-pongs with a partner
buffer, each column copying every group into its own slot of the other.
Smaller tiles, where those calls cost more than their amplitudes, update
every row at once per column as A * psi + C * psi[P], one (A, C, P) table
row per code filled from its record. Every entry of A and C has one exactly
zero component, so each product rounds as in `op_rows` and both schedules
give bit-identical states. `Kernel.read` is the one exact readout, in
cache-sized blocks. Every circuit runs through `Kernel.evolve`: the
single-state functions evolve plain amplitude arrays as batches of one, a
plan as the code rows of `compiler.plan_codes` and a bare rotation as a
one-term model.
"""

from __future__ import annotations

from functools import cache

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
# The row function: every amplitude update in the package. A row is either
# the full 2^(n+1) register or, when the ancilla stays idle in |+>, one 2^n
# half: both halves of such a row are equal, so either stands for it.

def op_rows(rows: np.ndarray, op: tuple) -> None:
    """Apply an op record (`Kernel._op`) to a contiguous block of rows in
    place. A time operator spans the row: psi <- cos * psi + coef *
    psi[perm], which is e^{i theta P} when P psi = unit * signs * psi[perm]
    and coef = i sin(theta) * unit * signs on every 2^n half. A swift
    operator sets its span, one ancilla half, to coef * psi[perm] and
    scales the rest of the row by `rest`, if any.

    Net swift unitaries of H_ell = sign * P (ancilla block form): S^(0) =
    diag(I, i H_ell) and S^(1) = diag(H_ell, -i I). Their actions on the
    ancilla off-diagonal blocks, rho -> (-i rho H, +i H rho) for b = 0 and
    rho -> (+i H rho, -i rho H) for b = 1, sum to i[H, .].
    """
    span, perm, coef, cos, rest = op
    part = rows if span is None else rows[:, span]
    gathered = part if perm is None else part.take(perm, axis=1)
    if cos is None:
        np.multiply(gathered, coef, out=part)
        if rest is not None:
            rows[:, span.stop :] *= rest
        return
    gathered = np.multiply(gathered, coef, out=None if perm is None else gathered)
    rows *= cos
    rows += gathered


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
        self.actions = [pauli_action(term.axes) for term in model.terms]
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

    def _op(self, code: int, thetas, width: int) -> tuple:
        """(span, perm, coef, cos, rest) of one op code on rows of `width`
        amplitudes, for `op_rows`. A time operator spans the whole row (span
        None) with perm and coef = i sin(theta) P_ell over it, coef a scalar
        when P_ell has no sign to apply, and cos(theta). A branch-b swift
        operator spans ancilla half 1 - b with coef = i H_ell (b = 0) or
        H_ell (b = 1), H_ell = sign_ell P_ell, and cos None; branch 1 has
        rest -i for the upper half, which a 2^n row lacks: its lower half
        alone takes H_ell. A branch-0 code on a 2^n row raises ValueError."""
        kind, ell = divmod(code, self.n_terms)
        perm, unit, signs = self.actions[ell].factors()
        dim = signs.size
        if kind == 0:
            coef = 1j * np.sin(thetas[ell]) * unit
            if self.actions[ell].sign_mask:
                coef = np.tile(coef * signs, width // dim)
            if perm is not None:
                perm = np.concatenate([perm + lo for lo in range(0, width, dim)])
            return None, perm, coef, np.cos(thetas[ell]), None
        b = kind - 1
        if width == dim and not b:
            raise ValueError("swift operators need the ancilla")
        coef = ((self.signs[ell] if b else 1j * self.signs[ell]) * unit) * signs
        return slice(dim * (1 - b), dim * (2 - b)), perm, coef, None, -1j if b else None

    def _row_tables(self, codes, thetas, width: int) -> tuple:
        """(A, C, P) rows of the per-row schedule, one per code: code u maps
        a row to A[u] * psi + C[u] * psi[P[u]]. On its record's span (the
        whole row when None) a code is (cos, coef, perm), cos 0 for a swift
        operator; above a span with a `rest` it is (rest, 0, identity), and
        elsewhere, as is PAD, (1, 0, identity)."""
        a = np.ones((len(codes), width), dtype=complex)
        c = np.zeros_like(a)
        p = np.tile(np.arange(width), (len(codes), 1))
        for row, code in enumerate(codes):
            if code < 0:
                continue
            span, perm, coef, cos, rest = self._op(code, thetas, width)
            span = span or slice(0, width)
            a[row, span] = 0 if cos is None else cos
            c[row, span] = coef
            if rest is not None:
                a[row, span.stop :] = rest
            if perm is not None:
                p[row, span] = perm + span.start
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
        column, gets one `op_rows` call there, and the buffers swap;
        one scatter then restores input row order in `states`, and one row
        takes every code in place. Records are built once per code per
        call. Both schedules give bit-identical states.
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
        # int8 keys, when every code fits, take one radix pass, not two
        key = np.int8 if 3 * self.n_terms <= 126 else CODE_DTYPE
        op = cache(lambda code: self._op(code, thetas, width))

        def apply(code: int, rows: np.ndarray) -> None:
            if code >= 0:
                op_rows(rows, op(code))

        if m == 1:  # nothing to group: every code applies in place
            for code in codes[0].tolist():
                apply(code, states)
            return
        # src row i is input row where[i] (None: src is states, unsorted);
        # dst is the partner buffer
        src, where = states, None
        dst = np.empty_like(states) if partner is None else partner
        for col in codes.T.copy():
            current = col if where is None else col[where]
            order = np.argsort(current.astype(key, copy=False), kind="stable")
            ranked = current[order]
            cuts = (np.flatnonzero(ranked[1:] != ranked[:-1]) + 1).tolist()
            # every group lands in its contiguous slot; mode="clip" takes
            # straight into out, "raise" buffers
            src.take(order, axis=0, out=dst, mode="clip")
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
