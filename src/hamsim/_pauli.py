"""Pauli-string primitives shared by the statevector engine and the dense oracle.

Register convention used across the package: qubit 0 is the most significant
bit of the basis-state index, so a register of `width` qubits stores qubit q
at bit position `width - 1 - q`, and np.kron(A, B) composes operators as
A on the lower qubit indices, B on the higher ones. `pauli_action` strings
span the system register from qubit 0; the ancilla X of an X (x) Q
readout is a swap of the two ancilla halves (`statevector.Kernel.read`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce

import numpy as np

AXES = "IXYZ"

PAULI_1Q = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.kron of two matrices: each entry the same single product a_ij * b_kl,
    without np.kron's generic set-up."""
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(
        a.shape[0] * b.shape[0], a.shape[1] * b.shape[1])


def pauli_matrix(axes: str) -> np.ndarray:
    """Dense 2^n x 2^n matrix for a Pauli string, axes[0] on qubit 0 (MSB)."""
    if not axes or any(c not in AXES for c in axes):
        raise ValueError(f"invalid Pauli string {axes!r}")
    return reduce(_kron, (PAULI_1Q[c] for c in axes))


def system_observable(axes: str | None, n_qubits: int) -> str:
    """The observable rule of every entry point: `axes` upper-cased, one
    Pauli letter per system qubit, else ValueError; None is Z on qubit 0."""
    if axes is None:
        return "Z" + "I" * (n_qubits - 1)
    axes = axes.upper()
    if not axes or len(axes) != n_qubits or any(c not in AXES for c in axes):
        raise ValueError(f"observable {axes!r} is not one Pauli letter per system qubit")
    return axes


@lru_cache(maxsize=512)
def _parity_signs(mask: int, dim: int) -> np.ndarray:
    """signs[x] = (-1)^popcount(x & mask) for x in [0, dim)."""
    idx = np.arange(dim, dtype=np.uint64)
    parity = (np.bitwise_count(idx & np.uint64(mask)) & np.uint64(1)).astype(np.float64)
    return 1.0 - 2.0 * parity


@lru_cache(maxsize=512)
def _xor_perm(flip: int, dim: int) -> np.ndarray:
    return np.arange(dim) ^ flip


@dataclass(frozen=True)
class PauliAction:
    """Bitmask form of a Pauli string P on a `width`-qubit register.

    P|x> = scalar * signs[x] * |x XOR flip| with signs read off sign_mask,
    so applying P is one permutation plus a diagonal phase.
    """

    width: int
    flip: int
    scalar: complex
    sign_mask: int

    @property
    def dim(self) -> int:
        return 1 << self.width

    def apply(self, vec: np.ndarray) -> np.ndarray:
        """Return P @ vec without building the dense matrix.

        vec may be a single amplitude vector or any (..., 2^width) batch;
        the string acts along the last axis.
        """
        signs = _parity_signs(self.sign_mask, self.dim)
        phased = (self.scalar * signs) * vec
        if self.flip == 0:
            return phased
        return phased[..., _xor_perm(self.flip, self.dim)]

    def factors(self) -> tuple:
        """(perm, unit, signs) with (P vec)[x] = unit * signs[x] * vec[perm[x]];
        perm is None when P flips no bit. signs[perm] = (-1)^|flip & sign_mask|
        * signs folds into the unit scalar, so no permuted phase is stored."""
        signs = _parity_signs(self.sign_mask, self.dim)
        if self.flip == 0:
            return None, self.scalar, signs
        odd = bin(self.flip & self.sign_mask).count("1") % 2
        return _xor_perm(self.flip, self.dim), -self.scalar if odd else self.scalar, signs


def pauli_action(axes: str) -> PauliAction:
    """PauliAction for `axes` on a register of len(axes) qubits."""
    width = len(axes)
    flip = 0
    sign_mask = 0
    n_y = 0
    for q, axis in enumerate(axes):
        bit = 1 << (width - 1 - q)
        if axis == "X":
            flip |= bit
        elif axis == "Y":
            flip |= bit
            sign_mask |= bit
            n_y += 1
        elif axis == "Z":
            sign_mask |= bit
        elif axis != "I":
            raise ValueError(f"invalid Pauli axis {axis!r}")
    return PauliAction(width=width, flip=flip, scalar=1j**n_y, sign_mask=sign_mask)
