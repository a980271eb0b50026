"""Pauli-sum Hamiltonian model and its text format.

A model is H = sum_ell h_ell * H_ell with h_ell > 0 and H_ell = sign_ell * P_ell
a signed Pauli string. The text format is one `<coefficient> <axes>` pair per
line, `#` comments and blank lines allowed, axes case-insensitive. Duplicate
strings are merged by summing signed coefficients before sign folding.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import EmptyModel, InconsistentWidth, MalformedLine
from ._pauli import AXES

MERGE_ZERO_RTOL = 1e-15


@dataclass(frozen=True)
class PauliTerm:
    """One signed, positively weighted Pauli string h * (sign * P)."""

    axes: str
    strength: float
    sign: int = 1

    def __post_init__(self):
        if not self.axes or any(c not in AXES for c in self.axes):
            raise ValueError(f"invalid axes {self.axes!r}")
        if not self.strength > 0:
            raise ValueError("strength must be positive")
        if self.sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")

    @property
    def n_qubits(self) -> int:
        return len(self.axes)

    @property
    def coefficient(self) -> float:
        """Signed coefficient sign * strength."""
        return self.sign * self.strength


@dataclass(frozen=True)
class HamiltonianModel:
    """Pauli-sum Hamiltonian with its sampling distribution.

    lam is the strength sum (the qDRIFT lambda), lam_max the largest single
    strength, probs the importance weights h_ell / lam in term order.
    """

    terms: tuple[PauliTerm, ...]
    n_qubits: int = field(init=False)
    lam: float = field(init=False)
    lam_max: float = field(init=False)

    def __post_init__(self):
        if not self.terms:
            raise EmptyModel("model has no terms")
        widths = {term.n_qubits for term in self.terms}
        if len(widths) != 1:
            raise InconsistentWidth(f"mixed Pauli string widths {sorted(widths)}")
        object.__setattr__(self, "terms", tuple(self.terms))
        object.__setattr__(self, "n_qubits", self.terms[0].n_qubits)
        object.__setattr__(self, "lam", float(sum(t.strength for t in self.terms)))
        object.__setattr__(self, "lam_max", float(max(t.strength for t in self.terms)))

    @property
    def n_terms(self) -> int:
        return len(self.terms)

    @property
    def probs(self) -> np.ndarray:
        p = np.array([t.strength for t in self.terms]) / self.lam
        return p

    def term(self, ell: int) -> PauliTerm:
        """Term by 1-based index, matching plan instructions."""
        if not 1 <= ell <= self.n_terms:
            raise IndexError(f"term index {ell} outside [1, {self.n_terms}]")
        return self.terms[ell - 1]


def parse_hamiltonian(text: str) -> HamiltonianModel:
    """Parse the `<coefficient> <axes>` line format into a model.

    Raises MalformedLine / InconsistentWidth / EmptyModel. Terms whose merged
    coefficient is zero within 1e-15 of the raw strength sum are dropped;
    negative coefficients fold into the term sign. Identity strings are kept.
    """
    coeffs: dict[str, float] = {}
    width: int | None = None
    raw_sum = 0.0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        if len(fields) != 2:
            raise MalformedLine(lineno, raw, "expected `<coefficient> <axes>`")
        try:
            coeff = float(fields[0])
        except ValueError:
            raise MalformedLine(lineno, raw, f"bad coefficient {fields[0]!r}") from None
        if not np.isfinite(coeff):
            raise MalformedLine(lineno, raw, "coefficient must be finite")
        axes = fields[1].upper()
        if any(c not in AXES for c in axes):
            raise MalformedLine(lineno, raw, f"bad Pauli string {fields[1]!r}")
        if width is None:
            width = len(axes)
        elif len(axes) != width:
            raise InconsistentWidth(
                f"line {lineno}: width {len(axes)} != earlier width {width}"
            )
        raw_sum += abs(coeff)
        coeffs[axes] = coeffs.get(axes, 0.0) + coeff

    terms = []
    for axes, c in coeffs.items():
        if abs(c) <= MERGE_ZERO_RTOL * raw_sum:
            continue
        terms.append(PauliTerm(axes=axes, strength=abs(c), sign=1 if c > 0 else -1))
    if not terms:
        raise EmptyModel("no terms survive parsing and merging")
    return HamiltonianModel(terms=tuple(terms))


def load_hamiltonian(path) -> HamiltonianModel:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_hamiltonian(handle.read())


def to_text(model: HamiltonianModel) -> str:
    """Serialize so parse_hamiltonian round-trips the terms in order."""
    lines = [f"{term.coefficient!r} {term.axes}" for term in model.terms]
    return "\n".join(lines) + "\n"


def finite_time(t: float) -> float:
    """The evolution time t; ValueError when it is inf or nan."""
    if not np.isfinite(t):
        raise ValueError(f"evolution time t = {t!r} is not finite")
    return t


def tau(model: HamiltonianModel, t: float, n_segments: int) -> float:
    """Per-segment evolution angle lam * t / N."""
    if int(n_segments) != n_segments or n_segments < 1:
        raise ValueError("segment count must be a positive integer")
    return model.lam * finite_time(t) / n_segments
