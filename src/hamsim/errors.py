"""Exception types raised by the public API.

Every error the package raises deliberately derives from HamsimError so
callers (and the CLI) can distinguish contract violations from bugs.
"""

from __future__ import annotations


class HamsimError(Exception):
    """Base class for all package-specific errors."""


class MalformedLine(HamsimError):
    """A hamiltonian file line is not `<coefficient> <axes>`."""

    def __init__(self, lineno: int, line: str, reason: str):
        self.lineno = lineno
        self.line = line
        self.reason = reason
        super().__init__(f"line {lineno}: {reason}: {line!r}")


class InconsistentWidth(HamsimError):
    """Pauli strings in one file have different lengths."""


class EmptyModel(HamsimError):
    """No terms survive parsing and merging."""


class WidthOverflow(HamsimError):
    """Requested register is outside the supported qubit range."""


class DimensionCap(HamsimError):
    """Dense superoperator requested above the supported width."""


class CombinatorialCap(HamsimError):
    """An exhaustive enumeration oracle would run too many circuits."""


class OrderExceedsSegments(HamsimError):
    """Correction order K exceeds the segment count N."""


class AllOrderOverflow(HamsimError):
    """The all-order normalization B^N leaves the float range, or its blocks
    pass the largest size sampled (n = 500)."""


class CoefficientOverflow(HamsimError):
    """A correction bucket's coefficient C(N,k) tau^xi / prod(n_j!), or its
    square, which scales the bucket's variance, leaves the float range."""


class BudgetOverflow(HamsimError):
    """A sampling request exceeds the configured circuit budget."""


class VacuousRegion(HamsimError):
    """Analytic bound evaluated where it carries no information."""


class NoSolutionBelowCap(HamsimError):
    """No segment count below the search cap meets the target error."""
