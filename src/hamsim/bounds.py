"""Analytic systematic-error bounds and minimal-resource solvers.

The randomized-compilation bounds are constant-faithful: they evaluate the
closed-form expressions exactly. Product-formula counts implement the
standard 2k-order scaling with unit prefactor, so those rows compare
faithfully in shape but not in absolute constant.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from math import ceil, e, exp, isfinite

from .errors import NoSolutionBelowCap, VacuousRegion

N_CAP = 10**18


def eta(x: float, n_segments: int) -> float:
    """Prefactor (1/2)(1 + 1/(2ex)) / (1 - (2ex)^2/N) of the order-K bound.

    Defined only where (2ex)^2 < N; outside that region the bound carries
    no information and VacuousRegion is raised instead of extrapolating.
    """
    if x <= 0:
        raise ValueError("x must be positive")
    if n_segments < 1:
        raise ValueError("segment count must be >= 1")
    y = (2.0 * e * x) ** 2
    if y >= n_segments:
        raise VacuousRegion(f"(2ex)^2 = {y:.6g} >= N = {n_segments}")
    return 0.5 * (1.0 + 1.0 / (2.0 * e * x)) / (1.0 - y / n_segments)


def qswift_bound(lambda_t: float, n_segments: int, order: int) -> float:
    """eta(lambda t, N) * ((2e lambda t)^2 / N)^K."""
    if order < 1:
        raise ValueError("order must be >= 1")
    ratio = (2.0 * e * lambda_t) ** 2 / n_segments
    return eta(lambda_t, n_segments) * ratio**order


def qdrift_bound(lambda_t: float, n_segments: int) -> float:
    """2 (lambda t)^2 / N * exp(2 lambda t / N)."""
    if n_segments < 1:
        raise ValueError("segment count must be >= 1")
    exponent = 2.0 * lambda_t / n_segments
    if exponent > 700.0:  # would overflow float64; the bound is astronomically loose
        return float("inf")
    return 2.0 * lambda_t**2 / n_segments * exp(exponent)


def _bound_fn(method: str, lambda_t: float, order: int | None):
    """(first valid N, N -> bound) for a solver method name."""
    if method == "qdrift":
        return 1, lambda n: qdrift_bound(lambda_t, n)
    if method == "qswift":
        if order is None or order < 1:
            raise ValueError("qswift bound needs an order >= 1")
        first = int((2.0 * e * lambda_t) ** 2) + 1
        return first, lambda n: qswift_bound(lambda_t, n, order)
    raise ValueError(f"unknown bound method {method!r}")


def solve_min_n(
    method: str,
    lambda_t: float,
    epsilon: float,
    order: int | None = None,
    n_cap: int = N_CAP,
) -> int:
    """Smallest integer N with bound(N) <= epsilon.

    Exponential bracketing from the first non-vacuous N, then integer
    bisection; both bounds are monotone decreasing there, so the result
    satisfies bound(N) <= epsilon < bound(N - 1) whenever N - 1 is valid.
    """
    if not 0 < epsilon < 1:
        raise ValueError("epsilon must lie in (0, 1)")
    if lambda_t <= 0:
        raise ValueError("lambda_t must be positive")
    lo, fn = _bound_fn(method, lambda_t, order)
    if lo > n_cap:
        raise NoSolutionBelowCap(f"bound vacuous for all N <= {n_cap}")
    if fn(lo) <= epsilon:
        return lo
    hi = lo
    while fn(hi) > epsilon:
        if hi >= n_cap:
            raise NoSolutionBelowCap(f"no N <= {n_cap} reaches epsilon = {epsilon}")
        hi = min(hi * 2, n_cap)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if fn(mid) <= epsilon:
            hi = mid
        else:
            lo = mid
    return hi


def trotter_gate_count(
    n_terms: int, lam_max: float, t: float, epsilon: float, order: int
) -> int:
    """Exponential count r*alpha*L of the 2k-order product formula with unit
    prefactor; order=1 uses r = ceil((L Lambda t)^2 / epsilon)."""
    if min(n_terms, lam_max, t, epsilon) <= 0:
        raise ValueError("all inputs must be positive")
    if order == 1:
        reps = ceil((n_terms * lam_max * t) ** 2 / epsilon)
        return reps * n_terms
    if order % 2 or order < 2:
        raise ValueError("order must be 1 or an even integer")
    k = order // 2
    alpha = 2 * 5 ** (k - 1)
    x = alpha * n_terms * lam_max * t
    reps = ceil(x * (x / epsilon) ** (1.0 / (2 * k)))
    return reps * alpha * n_terms


def best_trotter_gate_count(n_terms: int, lam_max: float, t: float, epsilon: float) -> int:
    """Least count over orders 1, 2 and 4 that stay finite; OverflowError
    when none does."""
    counts = []
    for order in (1, 2, 4):
        try:
            counts.append(trotter_gate_count(n_terms, lam_max, t, epsilon, order))
        except OverflowError:
            continue
    if not counts:
        raise OverflowError(f"every product-formula count overflows at t = {t!r}")
    return min(counts)


@dataclass(frozen=True)
class BoundRow:
    t: float
    lambda_t: float
    method: str
    epsilon: float
    gates: int | None  # None marks a vacuous or above-cap point


@dataclass(frozen=True)
class BoundTable:
    rows: tuple

    @property
    def has_gaps(self) -> bool:
        return any(row.gates is None for row in self.rows)

    def to_csv(self) -> str:
        lines = ["t,lambda_t,method,epsilon,gates"]
        for row in self.rows:
            gates = "NA" if row.gates is None else str(row.gates)
            lines.append(f"{row.t!r},{row.lambda_t!r},{row.method},{row.epsilon!r},{gates}")
        return "\n".join(lines) + "\n"


_QSWIFT_NAME = re.compile(r"^qswift(\d+)$")


def _method_gates(
    method: str, lam: float, lam_max: float, n_terms: int, t: float, epsilon: float
) -> int | None:
    lambda_t = lam * t
    try:
        if method == "qdrift":
            return solve_min_n("qdrift", lambda_t, epsilon)
        match = _QSWIFT_NAME.match(method)
        if match:
            return solve_min_n("qswift", lambda_t, epsilon, order=int(match.group(1)))
        if method == "ts_best":
            return best_trotter_gate_count(n_terms, lam_max, t, epsilon)
        if method.startswith("ts"):
            return trotter_gate_count(n_terms, lam_max, t, epsilon, int(method[2:]))
    except (NoSolutionBelowCap, VacuousRegion, OverflowError):
        # an overflowing count is above every cap too
        return None
    raise ValueError(f"unknown method {method!r}")


def sweep_table(
    t_grid,
    methods,
    epsilon: float,
    *,
    lam: float,
    lam_max: float,
    n_terms: int,
) -> BoundTable:
    """Minimal gate counts per (t, method), t-major then method-minor.

    Randomized methods report the minimal segment count from their bounds;
    ts rows report exponential counts. Points where a bound is vacuous up
    to the solver cap, or whose count overflows a float, get gates=None
    (rendered NA in CSV). Every t, lam and lam_max must be finite.
    """
    t_grid = list(t_grid)
    methods = list(methods)
    if not t_grid or not methods:
        raise ValueError("grid and method list must be nonempty")
    for name, value in (("lambda", lam), ("Lambda", lam_max), *(("t", t) for t in t_grid)):
        if not isfinite(value):
            raise ValueError(f"{name} = {value!r} is not finite")
    rows = []
    for t in t_grid:
        for method in methods:
            gates = _method_gates(method, lam, lam_max, n_terms, t, epsilon)
            rows.append(
                BoundRow(t=t, lambda_t=lam * t, method=method, epsilon=epsilon, gates=gates)
            )
    return BoundTable(rows=tuple(rows))
