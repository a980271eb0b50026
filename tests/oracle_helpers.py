"""Dense-oracle helpers and models that several test modules share.

The channel-distance helpers serve one-sided checks that an analytic bound
dominates a measured distance; the package itself never calls them, nor
the dense swift operators or the exhaustive order-K value.
"""

import numpy as np

from hamsim import (
    HamiltonianModel,
    PauliTerm,
    correction_terms,
    eval_correction_exact,
    parse_hamiltonian,
    random_pure_density,
)
from hamsim._pauli import pauli_matrix
from hamsim.compiler import BASELINE
from hamsim.exact_channels import Superoperator, _check_width

TWO_QUBIT = parse_hamiltonian("0.5 XZ\n0.3 ZI\n-0.2 YY")
THREE_QUBIT = parse_hamiltonian("0.5 XZI\n0.3 ZIY\n-0.2 YYX\n0.4 IZZ")


def choi_matrix(channel: Superoperator) -> np.ndarray:
    """Unnormalized Choi matrix sum_ij |i><j| (x) channel(|i><j|); PSD iff CP."""
    d = channel.dim
    out = np.zeros((d * d, d * d), dtype=complex)
    for i in range(d):
        for j in range(d):
            basis = np.zeros((d, d), dtype=complex)
            basis[i, j] = 1.0
            out[i * d : (i + 1) * d, j * d : (j + 1) * d] = channel.apply(basis)
    return out


def trace_distance(rho: np.ndarray, sigma: np.ndarray) -> float:
    """Half the nuclear norm of rho - sigma."""
    return 0.5 * float(np.linalg.norm(np.linalg.svd(rho - sigma, compute_uv=False), 1))


def channel_distance_surrogate(
    a: Superoperator, b: Superoperator, n_inputs: int = 20, rng_seed=7
) -> float:
    """Max output trace distance over a fixed set of random pure inputs.

    A lower bound on the diamond distance, used for one-sided checks that an
    analytic upper bound dominates.
    """
    rng = np.random.default_rng(rng_seed)
    worst = 0.0
    for _ in range(n_inputs):
        rho = random_pure_density(a.n_qubits, rng)
        worst = max(worst, trace_distance(a.apply(rho), b.apply(rho)))
    return worst


def swift_unitary(term: PauliTerm, b: int) -> np.ndarray:
    """Dense swift operator on the (n+1)-qubit register, ancilla first.

    Ancilla-block form: S^(0) = diag(I, i H_ell); S^(1) = diag(H_ell, -i I).
    """
    _check_width(term.n_qubits)
    if b not in (0, 1):
        raise ValueError("swift branch b must be 0 or 1")
    h = term.sign * pauli_matrix(term.axes)
    eye = np.eye(h.shape[0])
    zero = np.zeros_like(h)
    if b == 0:
        return np.block([[eye, zero], [zero, 1j * h]])
    return np.block([[h, zero], [zero, -1j * eye]])


def exact_qswift_value(
    model: HamiltonianModel,
    t: float,
    n_segments: int,
    order: int,
    observable_axes: str | None = None,
) -> float:
    """Exhaustive order-K value: enumerated baseline plus enumerated buckets."""
    return sum(
        eval_correction_exact(model, t, n_segments, term, observable_axes)
        for term in [BASELINE, *correction_terms(model, t, n_segments, order)]
    )
