"""Dense superoperator oracle for small registers (up to 3 system qubits).

Vectorization is column-stacking throughout: vec(A rho B) = kron(B.T, A) vec(rho),
so the conjugation channel rho -> U rho U* has matrix kron(conj(U), U). This is
the reference implementation every randomized path is validated against; it is
deliberately dense and capped at 3 qubits, not a performance path. Ordered
sums over N segments (`mixture`, `qswift_channel`) are one block of the N-th
power of a block lower-triangular matrix (Van Loan's construction), so they
take any N and never enumerate interleavings or compositions. The ideal
evolution e^{iHt} comes from the eigendecomposition of the Hermitian H, so the
oracle, like the rest of the package, needs NumPy alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial

import numpy as np

from ._pauli import _kron, pauli_matrix, system_observable
from .errors import DimensionCap, OrderExceedsSegments
from .hamiltonian import HamiltonianModel, PauliTerm, tau

MAX_ORACLE_QUBITS = 3


def _check_width(n_qubits: int):
    if n_qubits > MAX_ORACLE_QUBITS:
        raise DimensionCap(
            f"dense oracle supports at most {MAX_ORACLE_QUBITS} system qubits, got {n_qubits}"
        )


@dataclass(frozen=True)
class Superoperator:
    """Linear map on vectorized density matrices of an n-qubit system."""

    matrix: np.ndarray
    n_qubits: int

    def __post_init__(self):
        _check_width(self.n_qubits)
        d2 = 4**self.n_qubits
        if self.matrix.shape != (d2, d2):
            raise ValueError(f"superoperator shape {self.matrix.shape} != ({d2}, {d2})")

    @property
    def dim(self) -> int:
        return 2**self.n_qubits

    def apply(self, rho: np.ndarray) -> np.ndarray:
        vec = np.asarray(rho, dtype=complex).reshape(-1, order="F")
        out = self.matrix @ vec
        return out.reshape((self.dim, self.dim), order="F")

    def __matmul__(self, other: "Superoperator") -> "Superoperator":
        """self after other (matrix product)."""
        return Superoperator(self.matrix @ other.matrix, self.n_qubits)

    def power(self, exponent: int) -> "Superoperator":
        return Superoperator(
            np.linalg.matrix_power(self.matrix, exponent), self.n_qubits
        )


def dense_hamiltonian(model: HamiltonianModel) -> np.ndarray:
    """Sum_ell h_ell * sign_ell * P_ell as a dense matrix."""
    _check_width(model.n_qubits)
    total = np.zeros((2**model.n_qubits,) * 2, dtype=complex)
    for term in model.terms:
        total += term.coefficient * pauli_matrix(term.axes)
    return total


def term_unitary(term: PauliTerm, theta: float) -> np.ndarray:
    """e^{i theta H_ell} for H_ell = sign * P, using P^2 = I."""
    _check_width(term.n_qubits)
    p = term.sign * pauli_matrix(term.axes)
    return np.cos(theta) * np.eye(p.shape[0]) + 1j * np.sin(theta) * p


def conjugation(u: np.ndarray, n_qubits: int) -> Superoperator:
    """Channel rho -> U rho U* as a superoperator."""
    return Superoperator(_kron(u.conj(), u), n_qubits)


def liouvillian_term(model: HamiltonianModel, ell: int) -> Superoperator:
    """L_ell(rho) = i(H_ell rho - rho H_ell)."""
    _check_width(model.n_qubits)
    term = model.term(ell)
    h = term.sign * pauli_matrix(term.axes)
    eye = np.eye(h.shape[0])
    mat = 1j * (_kron(eye, h) - _kron(h.T, eye))
    return Superoperator(mat, model.n_qubits)


def mean_liouvillian(model: HamiltonianModel) -> Superoperator:
    """L = sum_ell p_ell L_ell, the importance-weighted generator."""
    probs = model.probs
    total = sum(
        probs[ell - 1] * liouvillian_term(model, ell).matrix
        for ell in range(1, model.n_terms + 1)
    )
    return Superoperator(total, model.n_qubits)


def qdrift_channel(model: HamiltonianModel, tau_angle: float) -> Superoperator:
    """One-segment sampling channel sum_ell p_ell e^{L_ell tau}."""
    _check_width(model.n_qubits)
    probs = model.probs
    total = np.zeros((4**model.n_qubits,) * 2, dtype=complex)
    for ell in range(1, model.n_terms + 1):
        u = term_unitary(model.term(ell), tau_angle)
        total += probs[ell - 1] * _kron(u.conj(), u)
    return Superoperator(total, model.n_qubits)


def ideal_channel(model: HamiltonianModel, t: float) -> Superoperator:
    """Conjugation by e^{iHt} = V diag(e^{i lambda t}) V*, H = V diag(lambda) V*."""
    energies, v = np.linalg.eigh(dense_hamiltonian(model))
    return conjugation((v * np.exp(1j * energies * t)) @ v.conj().T, model.n_qubits)


def _block_power_column(diag: np.ndarray, below: dict, n_levels: int, power: int) -> np.ndarray:
    """Blocks (0..n_levels-1, 0) of M^power, stacked, where M is block
    lower-triangular with `diag` on every diagonal block and below[(i, j)]
    at block (i, j).

    Block (i, 0) sums, over every path of `power` steps from level 0 to
    level i, the ordered product of the blocks along it (first step rightmost).
    """
    d = diag.shape[0]
    m = _kron(np.eye(n_levels), diag)
    for (i, j), block in below.items():
        m[i * d : (i + 1) * d, j * d : (j + 1) * d] = block
    return np.linalg.matrix_power(m, power)[:, :d].reshape(n_levels, d, d)


def mixture(parts, filler: Superoperator, n_copies: int) -> Superoperator:
    """Sum over the C(N,k) order-preserving interleavings of parts into fillers.

    Slots 0..N-1 are in application order; part j sits at the j-th smallest
    chosen slot, so part 1 acts first (rightmost factor of each product).
    Computed as block (k, 0) of M^N with the filler on the diagonal of M and
    part j at block (j, j-1): O(log N) products, for any N.
    """
    k = len(parts)
    if k > n_copies:
        raise ValueError(f"{k} parts cannot interleave into {n_copies} slots")
    below = {(j + 1, j): part.matrix for j, part in enumerate(parts)}
    column = _block_power_column(filler.matrix, below, k + 1, n_copies)
    return Superoperator(column[k], filler.n_qubits)


def plus_input_expectation(channel: Superoperator, observable_axes: str | None = None) -> float:
    """Tr(Q channel(|+><+|^n)), Q the Pauli string `observable_axes` (default
    Z on qubit 0): the dense readout of the circuits' default input."""
    dim = channel.dim
    rho = np.full((dim, dim), 1.0 / dim, dtype=complex)
    q_mat = pauli_matrix(system_observable(observable_axes, channel.n_qubits))
    return float(np.trace(q_mat @ channel.apply(rho)).real)


def script_l_n(model: HamiltonianModel, n: int) -> Superoperator:
    """Moment-difference generator L^(n) = L^n - sum_ell p_ell L_ell^n."""
    if n < 2:
        raise ValueError("moment order must be >= 2")
    _check_width(model.n_qubits)
    probs = model.probs
    total = np.linalg.matrix_power(mean_liouvillian(model).matrix, n)
    for ell in range(1, model.n_terms + 1):
        total = total - probs[ell - 1] * np.linalg.matrix_power(
            liouvillian_term(model, ell).matrix, n
        )
    return Superoperator(total, model.n_qubits)


def qswift_levels(
    model: HamiltonianModel, t: float, n_segments: int, order: int, moments=None
) -> np.ndarray:
    """Order-K corrections by total moment order: the first block column of
    M^N, M with the qDRIFT segment channel E on its 2K - 1 diagonal blocks
    (one per xi) and tau^n / n! L^(n) at every block (xi + n, xi).

    Level xi sums E^N with tau^n / n! L^(n) moment corrections placed into
    ordered slots, over n_1 + ... + n_k = xi (every n_j >= 2). M is block
    lower-triangular, so the first 2K' - 1 levels are the order-K' column
    for every K' <= K. `moments` maps n to the tau-free L^(n) matrix, so
    callers at many N build each once; by default they are built here.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    if order > n_segments:
        raise OrderExceedsSegments(f"order {order} exceeds {n_segments} segments")
    tau_angle = tau(model, t, n_segments)
    base = qdrift_channel(model, tau_angle)
    n_levels = 2 * order - 1
    below = {}
    for n in range(2, n_levels):
        l_n = script_l_n(model, n).matrix if moments is None else moments[n]
        moment = tau_angle**n / factorial(n) * l_n
        below.update({(j + n, j): moment for j in range(n_levels - n)})
    return _block_power_column(base.matrix, below, n_levels, n_segments)


def qswift_channel(model: HamiltonianModel, t: float, n_segments: int, order: int) -> Superoperator:
    """Order-K corrected channel: the qDRIFT product plus every correction
    of total moment order xi <= 2K - 2, the sum of `qswift_levels`. order = 1
    is the plain qDRIFT product channel.
    """
    return Superoperator(qswift_levels(model, t, n_segments, order).sum(axis=0), model.n_qubits)


def random_pure_density(n_qubits: int, rng) -> np.ndarray:
    d = 2**n_qubits
    vec = rng.normal(size=d) + 1j * rng.normal(size=d)
    vec /= np.linalg.norm(vec)
    return np.outer(vec, vec.conj())
