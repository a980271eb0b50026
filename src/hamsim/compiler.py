"""Compile Hamiltonian models into gate plans, and own every random draw.

Plans are flat instruction lists in application order (first instruction acts
first on the input state). TimeOp angles are bare Pauli-rotation angles with
the term sign already folded in, so the executor applies e^{i angle P}
without consulting the sign again. SwiftOp instructions name a term and a
branch b; the sign folds into the controlled part at execution time.

This module is the package's one sampler: the draw_* functions draw m
rows of 0-based term indices or op codes, consuming their generator in a
fixed order; every weighted draw is `draw_categorical`, `Generator.choice(p=)`
replayed from the same uniforms. `statevector.Kernel.evolve` executes rows
of op codes (CODE_DTYPE): with T terms, ell < T is a time operator on term
ell, T + b T + ell the branch-b swift operator of term ell, and PAD (-1)
nothing; `check_code_range` refuses models whose codes do not fit, more
than 10,922 terms, in `draw_qdrift`, `draw_trotter_terms` and
`draw_all_order_codes` before any code is written. The qDRIFT baseline is
the correction bucket BASELINE (k = 0: no blocks, one variant, coefficient
1), drawn by the same `draw_swift_variant`. qDRIFT and Trotter term arrays are already codes;
`SwiftDraw.codes` expands the correction draws (`idle_codes`, the lower
ancilla half of a variant whose ancilla idles), and `draw_all_order_codes`,
the one all-order draw, writes each segment's time codes, swift codes and
signs straight into the growing code array. `plan_from_codes`, the one
decoder, replays any drawn row of codes as a plan; its inverse `plan_codes`
turns any plan into rows of codes, so every plan executes on
`Kernel.evolve`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from math import comb, exp, factorial, inf, isfinite, lgamma, log
from sys import float_info

import numpy as np

from .errors import AllOrderOverflow, CoefficientOverflow, OrderExceedsSegments
from .hamiltonian import HamiltonianModel, finite_time, tau

B_SERIES_RTOL = 1e-15
CODE_DTYPE = np.int16
PAD = -1
# draw_categorical counts u >= edge over the cdf's edges, one pass over the
# uniforms per edge, instead of binary-searching them when there are at most
# COUNT_MAX_EDGES edges and at least COUNT_DRAWS_PER_EDGE uniforms per edge:
# measured crossovers, see the README's "Library" section
COUNT_MAX_EDGES = 64
COUNT_DRAWS_PER_EDGE = 256


def check_code_range(n_terms: int) -> None:
    """Raise ValueError unless every op code of an n_terms model, up to
    3 n_terms - 1, fits CODE_DTYPE: at most 10,922 terms."""
    if 3 * n_terms > np.iinfo(CODE_DTYPE).max:
        raise ValueError(f"{n_terms} terms overflow the op codes")


def swift_codes(n_terms: int, b, terms) -> np.ndarray:
    """Op codes T + b T + ell of branch-b swift operators on 0-based terms."""
    return n_terms * (1 + np.asarray(b)) + terms


@dataclass(frozen=True)
class TimeOp:
    """Rotation e^{i angle P_ell} on the system register; ell is 1-based."""

    ell: int
    angle: float


@dataclass(frozen=True)
class SwiftOp:
    """Swift operator S^(b) for term ell on the extended register."""

    ell: int
    b: int


@dataclass(frozen=True)
class GatePlan:
    ops: tuple


def validate_plan(plan: GatePlan, model: HamiltonianModel):
    """Raise if any instruction is not executable against the model:
    TypeError for one that is neither TimeOp nor SwiftOp, ValueError for
    a term outside the model, a non-finite angle or a branch not 0 or 1."""
    for op in plan.ops:
        if not isinstance(op, (TimeOp, SwiftOp)):
            raise TypeError(f"unknown instruction {op!r}")
        if not 1 <= op.ell <= model.n_terms:
            raise ValueError(f"instruction index {op.ell} outside [1, {model.n_terms}]")
        if isinstance(op, TimeOp) and not isfinite(op.angle):
            raise ValueError(f"time operator angle {op.angle!r} is not finite")
        if isinstance(op, SwiftOp) and op.b not in (0, 1):
            raise ValueError(f"swift branch {op.b} not in {{0, 1}}")


def plan_to_text(plan: GatePlan) -> str:
    """Line-oriented serialization: `T <ell> <angle>` / `S <ell> <b>`."""
    lines = [f"T {op.ell} {op.angle!r}" if isinstance(op, TimeOp) else f"S {op.ell} {op.b}"
             for op in plan.ops]
    return "\n".join(lines) + "\n"


def plan_from_text(text: str) -> GatePlan:
    """Parse plan_to_text output into the plan it serialized. Raises
    ValueError naming the line for an unknown instruction, a field that
    does not parse or a non-finite angle."""
    ops = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        fields = raw.split()
        if not fields:
            continue
        try:
            if fields[0] == "T" and len(fields) == 3:
                angle = float(fields[2])
                if not isfinite(angle):
                    raise ValueError(f"angle {fields[2]} is not finite")
                ops.append(TimeOp(ell=int(fields[1]), angle=angle))
            elif fields[0] == "S" and len(fields) == 3:
                ops.append(SwiftOp(ell=int(fields[1]), b=int(fields[2])))
            else:
                raise ValueError("bad plan instruction")
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc} in {raw!r}") from None
    return GatePlan(ops=tuple(ops))


def plan_from_codes(model: HamiltonianModel, codes_row, thetas) -> GatePlan:
    """One row of op codes as a plan: code ell < T is TimeOp(ell + 1,
    thetas[ell]), code T + b T + ell is SwiftOp(ell + 1, b), PAD is skipped."""
    ops = []
    for code in np.asarray(codes_row).tolist():
        if code == PAD:
            continue
        kind, ell = divmod(code, model.n_terms)
        ops.append(TimeOp(ell + 1, float(thetas[ell])) if kind == 0 else SwiftOp(ell + 1, kind - 1))
    return GatePlan(ops=tuple(ops))


def plan_codes(plan: GatePlan, n_terms: int) -> list[tuple]:
    """The plan as (codes, thetas) pairs in order, the inverse of
    plan_from_codes: codes a (1, L) CODE_DTYPE row, thetas[ell] the angle of
    term ell's time operators in it (0.0 where it has none). A new row
    starts only where a term's TimeOp angle differs from its angle in the
    current row."""
    rows = [([], {})]
    for op in plan.ops:
        ell = op.ell - 1
        if isinstance(op, TimeOp) and rows[-1][1].setdefault(ell, op.angle) != op.angle:
            rows.append(([], {ell: op.angle}))
        rows[-1][0].append(ell if isinstance(op, TimeOp) else swift_codes(n_terms, op.b, ell))
    return [(np.array([codes], dtype=CODE_DTYPE), [angles.get(ell, 0.0) for ell in range(n_terms)])
            for codes, angles in rows]


def signed_angles(model: HamiltonianModel, angle: float) -> list[float]:
    """Bare rotation angle sign_ell * angle of every term."""
    return (np.array([term.sign for term in model.terms]) * angle).tolist()


def _suzuki_fractions(order: int) -> list[float]:
    """Time fractions of the order-2 base segments composing one order-2k segment."""
    if order == 2:
        return [1.0]
    k = order // 2
    p = 1.0 / (4.0 - 4.0 ** (1.0 / (2 * k - 1)))
    inner = _suzuki_fractions(order - 2)
    return (
        [p * f for f in inner] * 2
        + [(1 - 4 * p) * f for f in inner]
        + [p * f for f in inner] * 2
    )


def _segment_ops(model: HamiltonianModel, step: float, order: int) -> list:
    """One product-formula segment evolving time `step`, in application order.

    Order 1 sweeps terms forward; order 2 is the palindrome reverse-half then
    forward-half at step/2; higher even orders recurse through the standard
    5-fold pattern, flattened to scaled order-2 segments.
    """
    indices = list(range(1, model.n_terms + 1))
    if order == 1:
        return [TimeOp(ell, model.term(ell).coefficient * step) for ell in indices]
    ops = []
    for frac in _suzuki_fractions(order):
        half = 0.5 * frac * step
        ops.extend(TimeOp(ell, model.term(ell).coefficient * half) for ell in reversed(indices))
        ops.extend(TimeOp(ell, model.term(ell).coefficient * half) for ell in indices)
    return ops


def trotter_plan(model: HamiltonianModel, t: float, r: int, order: int) -> GatePlan:
    """Deterministic product-formula plan: r repetitions of one segment."""
    if r < 1:
        raise ValueError("repetition count must be >= 1")
    if order != 1 and (order < 2 or order % 2):
        raise ValueError("order must be 1 or an even integer")
    step = finite_time(t) / r
    return GatePlan(ops=tuple(_segment_ops(model, step, order) * r))


def draw_trotter_terms(model: HamiltonianModel, r: int, order: int, rng, m: int = 1) -> np.ndarray:
    """(m, r L) CODE_DTYPE terms, one per instruction, of m randomized
    plans: a fresh permutation per segment, which order 2 mirrors to keep
    the second-order cancellation (2 r L columns)."""
    if order not in (1, 2):
        raise ValueError("randomized variant supports orders 1 and 2")
    check_code_range(model.n_terms)
    # one permuted() call over the m r segments draws the same rows, and
    # leaves rng in the same state, as m r permutation() calls; it shuffles
    # intp rows on a faster path than CODE_DTYPE ones, with the same draws
    table = np.broadcast_to(np.arange(model.n_terms), (m * r, model.n_terms))
    perms = rng.permuted(table, axis=1).reshape(m, r, model.n_terms)
    halves = [perms, perms[:, :, ::-1]] if order == 2 else [perms]
    return np.concatenate(halves, axis=2, dtype=CODE_DTYPE).reshape(m, -1)


def trotter_thetas(model: HamiltonianModel, t: float, r: int, order: int) -> list[float]:
    """Rotation angle of each term in every instruction of a randomized plan."""
    if r < 1:
        raise ValueError("repetition count must be >= 1")
    step = finite_time(t) / r
    step = step if order == 1 else 0.5 * step
    return (np.array([term.coefficient for term in model.terms]) * step).tolist()


def randomized_trotter_plan(
    model: HamiltonianModel, t: float, r: int, order: int, rng_seed
) -> GatePlan:
    """Product-formula plan with an independent term permutation per segment."""
    [terms] = draw_trotter_terms(model, r, order, np.random.default_rng(rng_seed))
    return plan_from_codes(model, terms, trotter_thetas(model, t, r, order))


def draw_categorical(p, size, rng) -> np.ndarray:
    """`rng.choice(len(p), size, p=p)` value for value as CODE_DTYPE, leaving
    rng in the same state: one uniform u per draw, index = the count of cdf
    entries <= u, the binary search `choice` runs itself. Short cdfs count
    instead: the cdf is nondecreasing and u < 1 = cdf[-1], so the count is
    that of the edges cdf[:-1] with u >= edge. Model draws pass
    check_code_range first, so every index fits."""
    cdf = np.cumsum(p)
    cdf /= cdf[-1]
    u = rng.random(size)
    n_edges = cdf.size - 1
    if n_edges > COUNT_MAX_EDGES or u.size < COUNT_DRAWS_PER_EDGE * n_edges:
        return cdf.searchsorted(u, side="right").astype(CODE_DTYPE)
    index = np.zeros(u.shape, dtype=CODE_DTYPE)
    for edge in cdf[:-1].tolist():
        index += u >= edge
    return index


def draw_qdrift(model: HamiltonianModel, n_segments: int, m: int, rng) -> np.ndarray:
    """(m, N) term indices (CODE_DTYPE) drawn iid from the importance weights."""
    check_code_range(model.n_terms)
    return draw_categorical(model.probs, (m, n_segments), rng)


@lru_cache(maxsize=4096)
def enumerate_g2(k: int, xi: int) -> tuple:
    """All ordered compositions of xi into k parts, each part >= 2."""
    if k < 1 or xi < 2:
        raise ValueError("need k >= 1 and xi >= 2")
    if xi < 2 * k:
        return ()
    if k == 1:
        return ((xi,),)
    out = []
    for first in range(2, xi - 2 * (k - 1) + 1):
        for rest in enumerate_g2(k - 1, xi - first):
            out.append((first,) + rest)
    return tuple(out)


@dataclass(frozen=True)
class CorrectionTerm:
    """One correction bucket (k, n_vec) with its scalar coefficient.

    coeff = C(N,k) * tau^xi / prod(n_j!). The exhaustively enumerated sign
    and branch choices the bucket averages over are exposed as generators.
    """

    k: int
    n_vec: tuple
    xi: int
    coeff: float

    def sign_vectors(self):
        """All s-vectors in {0,1}^k."""
        return product((0, 1), repeat=self.k)

    def b_vector_sets(self):
        """All tuples of branch vectors, one b-vector in {0,1}^{n_j} per block."""
        per_block = [tuple(product((0, 1), repeat=n)) for n in self.n_vec]
        return product(*per_block)

    @property
    def n_variants(self) -> int:
        """Count of (s, b) combinations: 2^(xi + k)."""
        return 2 ** (self.xi + self.k)

    @property
    def label(self) -> str:
        """Report and budget key: the n_vec parts joined by commas."""
        return ",".join(map(str, self.n_vec)) or "baseline"


# The qDRIFT product channel as the bucket without swift blocks.
BASELINE = CorrectionTerm(k=0, n_vec=(), xi=0, coeff=1.0)


def correction_terms(
    model: HamiltonianModel, t: float, n_segments: int, order: int
) -> list[CorrectionTerm]:
    """Buckets (xi in [2, 2K-2], k in [1, K], n_vec in G2) with coefficients;
    CoefficientOverflow when a coefficient or its square is not finite."""
    if order < 1:
        raise ValueError("order must be >= 1")
    if order > n_segments:
        raise OrderExceedsSegments(
            f"order {order} exceeds segment count {n_segments}"
        )
    tau_angle = tau(model, t, n_segments)
    out = []
    for xi in range(2, 2 * order - 1):
        for k in range(1, order + 1):
            for n_vec in enumerate_g2(k, xi):
                try:
                    coeff = comb(n_segments, k) * tau_angle**xi
                except OverflowError:
                    coeff = inf
                coeff = float(coeff / np.prod([factorial(n) for n in n_vec]))
                if not isfinite(coeff * coeff):
                    raise CoefficientOverflow(
                        f"bucket {','.join(map(str, n_vec))} coefficient C(N, k) tau^xi / "
                        f"prod(n_j!) overflows at tau = {tau_angle!r}"
                    )
                out.append(CorrectionTerm(k=k, n_vec=n_vec, xi=xi, coeff=coeff))
    return out


@dataclass(frozen=True)
class SwiftDraw:
    """m rows of one correction variant: sorted block slots sigma (m, k), a
    time-operator term per slot (m, N) used outside sigma, and block j's
    swift-operator terms parts[j] (m, n_j). The baseline has k = 0 and no
    parts."""

    sigma: np.ndarray
    fillers: np.ndarray
    parts: tuple

    def filler_slots(self) -> np.ndarray:
        """(m, N) mask of each row's slots outside sigma, the ones fillers fill."""
        free = np.ones(self.fillers.shape, dtype=bool)
        free[np.arange(len(free))[:, None], self.sigma] = False
        return free

    def codes(self, b_vecs, n_terms: int) -> np.ndarray:
        """(m, N - k + xi) op codes of the variant with branch vectors b_vecs:
        every row's slots in order, block j's slot expanded into its part's
        swift operators; the fillers alone when there are no parts."""
        if not self.parts:
            return self.fillers.astype(CODE_DTYPE, copy=False)
        m = self.fillers.shape[0]
        widths = np.ones(self.fillers.shape, dtype=np.int64)
        widths[np.arange(m)[:, None], self.sigma] = [part.shape[1] for part in self.parts]
        widths = widths.ravel()
        codes = np.repeat(self.fillers.astype(CODE_DTYPE, copy=False).ravel(), widths)
        branches = np.concatenate([np.asarray(b_vec) for b_vec in b_vecs])
        swift = swift_codes(n_terms, branches, np.concatenate(self.parts, axis=1))
        # block slots are the ones wider than one op (every n_j >= 2)
        codes[np.repeat(widths > 1, widths)] = swift.ravel()
        return codes.reshape(m, -1)

    def idle_codes(self, b_vecs, n_terms: int) -> np.ndarray:
        """Op codes of the variant's lower ancilla half when every part
        repeats one term over an even n_j, so that the ancilla idles: the
        fillers in slot order, block j's slot the branch-1 swift code of its
        term when b_vecs[j] has odd weight, else dropped."""
        codes = self.fillers.astype(CODE_DTYPE)
        keep = np.ones(codes.shape, dtype=bool)
        rows = np.arange(len(codes))
        for slot, part, b_vec in zip(self.sigma.T, self.parts, b_vecs):
            if sum(b_vec) % 2:
                codes[rows, slot] = swift_codes(n_terms, 1, part[:, 0])
            else:
                keep[rows, slot] = False
        return codes[keep].reshape(len(codes), -1)


def draw_swift_variant(
    model: HamiltonianModel, n_segments: int, term: CorrectionTerm, s_vec, m: int, rng
) -> SwiftDraw:
    """Uniform sorted k-subsets of slots (no draw when k = 0, so the baseline
    consumes rng as draw_qdrift does), then iid fillers, then per part iid
    indices (s_j = 0) or one shared index (s_j = 1).

    All N fillers are drawn although the k under sigma go unused: every
    later draw, and so every report, depends on that stream position."""
    k = term.k
    if k > n_segments:
        raise OrderExceedsSegments(f"bucket k={k} exceeds {n_segments} segments")
    sigma = np.zeros((m, 0), dtype=np.intp)
    if k:
        sigma = np.sort(np.argsort(rng.random((m, n_segments)), axis=1)[:, :k], axis=1)
    fillers = draw_qdrift(model, n_segments, m, rng)
    parts = []
    for s, n_j in zip(s_vec, term.n_vec):
        if s == 0:
            parts.append(draw_categorical(model.probs, (m, n_j), rng))
        else:
            one = draw_categorical(model.probs, (m, 1), rng)
            parts.append(np.repeat(one, n_j, axis=1))
    return SwiftDraw(sigma=sigma, fillers=fillers, parts=tuple(parts))


def all_order_b(tau_angle: float) -> float:
    """Normalization B = 1 + sum_{n>=2} 2^{n+1} tau^n / n!, summed to convergence.

    Equals 2 e^{2 tau} - 1 - 4 tau; the series is the definition used here.
    """
    return all_order_categories(tau_angle)[0]


def _block_weight(n: int, tau_angle: float) -> float:
    """beta(n) = 2^{n+1} tau^n / n!: the float expression wherever it is
    finite, else from lgamma in log space (inf past the float range)."""
    try:
        beta = 2.0 ** (n + 1) * tau_angle**n / factorial(n)
        if isfinite(beta):
            return beta
    except OverflowError:
        pass
    log_beta = (n + 1) * log(2.0) + n * log(tau_angle) - lgamma(n + 1)
    return exp(log_beta) if log_beta < log(float_info.max) else inf


def all_order_categories(tau_angle: float):
    """(B, block sizes, category probabilities) of one all-order segment:
    a time operator with probability 1/B, else a block of size n with
    beta(n)/B.

    One pass sums beta(n) into B from 1.0 until the first n > max(2, 2 tau)
    (past the mode of beta) with beta(n) < 1e-15 of the sum so far; the
    blocks kept are n = 2, 3, ... before the first such n with beta(n) <
    1e-15 B. The leftover 1 - sum (the dropped tail and rounding) folds
    into the largest category: the time operator below tau = 1/2, else the
    block at the mode of beta, where it moves the weight least; every other
    category keeps exactly its 1/B or beta(n)/B. Raises AllOrderOverflow
    when B is not finite or the blocks pass n = 500.
    """
    if tau_angle < 0:
        raise ValueError("tau must be nonnegative")
    past_mode = max(2.0, 2.0 * tau_angle)
    b_norm, betas = 1.0, []
    for n in range(2, 502):
        beta = _block_weight(n, tau_angle)
        betas.append(beta)
        b_norm += beta
        if n > past_mode and beta < B_SERIES_RTOL * b_norm:
            break
    else:
        raise AllOrderOverflow(f"all-order blocks at tau = {tau_angle!r} pass n = 500")
    if not isfinite(b_norm):
        raise AllOrderOverflow(f"all-order normalization B at tau = {tau_angle!r} overflows")
    # betas[i] is beta(i + 2); the blocks stop no later than the sum did
    stop = next(i for i, beta in enumerate(betas)
                if i + 2 > past_mode and beta < B_SERIES_RTOL * b_norm)
    sizes = list(range(2, stop + 2))
    cat_probs = np.array([1.0] + betas[:stop]) / b_norm
    cat_probs[np.argmax(cat_probs)] += 1.0 - cat_probs.sum()
    return b_norm, sizes, cat_probs


def draw_all_order_codes(
    model: HamiltonianModel, n_segments: int, block_sizes, cat_probs, m: int, rng
) -> tuple:
    """(m, L) op codes and trajectory signs of N all-order segments drawn in
    turn. Each segment draws its categories (0 a time operator, i a block
    of size block_sizes[i - 1]), then the time-operator terms, then per
    block size the sign bits s, branch bits b and terms from P_s^(n): iid
    for s = 0, one shared index for s = 1. Its ops go into one growing code
    array right after the row's earlier ops, PAD after its last, L the
    longest row; a block's sign (-1)^s multiplies its row's sign."""
    check_code_range(model.n_terms)
    probs = model.probs
    widths = np.array([1, *block_sizes])
    codes = np.full((m, 2 * n_segments), PAD, dtype=CODE_DTYPE)
    fill = np.zeros(m, dtype=np.intp)
    signs = np.ones(m)
    for _ in range(n_segments):
        cats = draw_categorical(cat_probs, m, rng)
        step = widths[cats]
        width = fill.max(initial=0) + step.max(initial=1)
        if width > codes.shape[1]:
            codes = np.pad(codes, ((0, 0), (0, width)), constant_values=PAD)
        rows = np.flatnonzero(cats == 0)
        codes[rows, fill[rows]] = draw_categorical(probs, rows.size, rng)  # size 0 draws no uniform
        for cat_id, n in enumerate(block_sizes, start=1):
            rows = np.flatnonzero(cats == cat_id)
            if not rows.size:
                continue
            s = rng.integers(0, 2, size=rows.size)
            b = rng.integers(0, 2, size=(rows.size, n))
            iid = draw_categorical(probs, (rows.size, n), rng)
            one = draw_categorical(probs, rows.size, rng)
            terms = np.where(s[:, None] == 1, one[:, None], iid)
            cols = fill[rows, None] + np.arange(n)
            codes[rows[:, None], cols] = swift_codes(model.n_terms, b, terms)
            signs[rows] *= 1.0 - 2.0 * s
        fill += step
    return codes[:, : fill.max(initial=0)], signs
