"""Compile Hamiltonian models into gate plans, and own every random draw.

Plans are flat instruction lists in application order (first instruction acts
first on the input state). TimeOp angles are bare Pauli-rotation angles with
the term sign already folded in, so the executor applies e^{i angle P}
without consulting the sign again. SwiftOp instructions name a term and a
branch b; the sign folds into the controlled part at execution time.

This module is the package's one sampler: the draw_* functions return
0-based term-index arrays for m rows, consuming their generator in a fixed
order, and `statevector.Kernel` executes them. The public samplers are
m = 1 draws materialised by the *_from_draw functions, which replay any
row of a batch as a plan.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from math import comb, factorial

import numpy as np

from ._rng import as_rng
from .errors import OrderExceedsSegments
from .hamiltonian import HamiltonianModel, tau

B_SERIES_RTOL = 1e-15


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
    n_segments: int
    method_tag: str

    @property
    def n_time_ops(self) -> int:
        return sum(isinstance(op, TimeOp) for op in self.ops)

    @property
    def n_swift_ops(self) -> int:
        return sum(isinstance(op, SwiftOp) for op in self.ops)


def validate_plan(plan: GatePlan, model: HamiltonianModel):
    """Raise if any instruction is not executable against the model."""
    for op in plan.ops:
        if not 1 <= op.ell <= model.n_terms:
            raise ValueError(f"instruction index {op.ell} outside [1, {model.n_terms}]")
        if isinstance(op, SwiftOp) and op.b not in (0, 1):
            raise ValueError(f"swift branch {op.b} not in {{0, 1}}")


def plan_to_text(plan: GatePlan) -> str:
    """Line-oriented serialization: `T <ell> <angle>` / `S <ell> <b>`."""
    lines = []
    for op in plan.ops:
        if isinstance(op, TimeOp):
            lines.append(f"T {op.ell} {op.angle!r}")
        else:
            lines.append(f"S {op.ell} {op.b}")
    return "\n".join(lines) + "\n"


def plan_from_text(text: str, n_segments: int, method_tag: str = "REPLAY") -> GatePlan:
    ops = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        fields = line.split()
        if fields[0] == "T" and len(fields) == 3:
            ops.append(TimeOp(ell=int(fields[1]), angle=float(fields[2])))
        elif fields[0] == "S" and len(fields) == 3:
            ops.append(SwiftOp(ell=int(fields[1]), b=int(fields[2])))
        else:
            raise ValueError(f"line {lineno}: bad plan instruction {raw!r}")
    return GatePlan(ops=tuple(ops), n_segments=n_segments, method_tag=method_tag)


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
    step = t / r
    segment = _segment_ops(model, step, order)
    tag = f"TS{order}"
    return GatePlan(ops=tuple(segment * r), n_segments=r, method_tag=tag)


def draw_trotter_terms(model: HamiltonianModel, r: int, order: int, rng) -> np.ndarray:
    """Term per instruction of one randomized plan: a fresh permutation per
    segment, which order 2 mirrors to keep the second-order cancellation."""
    if order not in (1, 2):
        raise ValueError("randomized variant supports orders 1 and 2")
    if r < 1:
        raise ValueError("repetition count must be >= 1")
    perms = [rng.permutation(model.n_terms) for _ in range(r)]
    if order == 2:
        perms = [np.concatenate([perm, perm[::-1]]) for perm in perms]
    return np.concatenate(perms)


def trotter_step(t: float, r: int, order: int) -> float:
    """Evolution time of every instruction in a randomized plan."""
    step = t / r
    return step if order == 1 else 0.5 * step


def randomized_trotter_plan(
    model: HamiltonianModel, t: float, r: int, order: int, rng_seed
) -> GatePlan:
    """Product-formula plan with an independent term permutation per segment."""
    terms = draw_trotter_terms(model, r, order, as_rng(rng_seed))
    step = trotter_step(t, r, order)
    ops = tuple(
        TimeOp(int(e) + 1, model.terms[e].coefficient * step) for e in terms
    )
    return GatePlan(ops=ops, n_segments=r, method_tag=f"RTS{order}")


def draw_qdrift(model: HamiltonianModel, n_segments: int, m: int, rng) -> np.ndarray:
    """(m, N) term indices drawn iid from the importance weights."""
    return rng.choice(model.n_terms, size=(m, n_segments), p=model.probs)


def qdrift_plan_from_draw(
    model: HamiltonianModel, t: float, terms: np.ndarray, row: int
) -> GatePlan:
    """Row `row` of a draw_qdrift batch as a plan."""
    n_segments = terms.shape[1]
    tau_angle = tau(model, t, n_segments)
    ops = tuple(
        TimeOp(int(e) + 1, model.terms[e].sign * tau_angle) for e in terms[row]
    )
    return GatePlan(ops=ops, n_segments=n_segments, method_tag="QDRIFT")


def qdrift_plan(model: HamiltonianModel, t: float, n_segments: int, rng_seed) -> GatePlan:
    """N time operators with ell drawn iid from the importance weights."""
    terms = draw_qdrift(model, n_segments, 1, as_rng(rng_seed))
    return qdrift_plan_from_draw(model, t, terms, 0)


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


def correction_terms(
    model: HamiltonianModel, t: float, n_segments: int, order: int
) -> list[CorrectionTerm]:
    """Buckets (xi in [2, 2K-2], k in [1, K], n_vec in G2) with coefficients."""
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
                coeff = comb(n_segments, k) * tau_angle**xi
                coeff /= np.prod([factorial(n) for n in n_vec])
                out.append(CorrectionTerm(k=k, n_vec=n_vec, xi=xi, coeff=float(coeff)))
    return out


def build_swift_plan(
    model: HamiltonianModel,
    t: float,
    n_segments: int,
    term: CorrectionTerm,
    s_vec,
    b_vecs,
    sigma,
    ell_vecs,
    fillers,
) -> GatePlan:
    """Assemble the interleaved plan for fully specified draws.

    sigma is the sorted tuple of block slots (application order); block j sits
    at the j-th smallest slot and applies its operators ell_1 first.
    """
    k = term.k
    if len(s_vec) != k or len(b_vecs) != k or len(sigma) != k or len(ell_vecs) != k:
        raise ValueError("draw shapes do not match the bucket")
    if len(fillers) != n_segments - k:
        raise ValueError("filler count must be N - k")
    if list(sigma) != sorted(set(sigma)) or sigma[0] < 0 or sigma[-1] >= n_segments:
        raise ValueError("sigma must be a sorted subset of segment slots")
    tau_angle = tau(model, t, n_segments)
    slot_to_block = {slot: j for j, slot in enumerate(sigma)}
    ops = []
    filler_iter = iter(fillers)
    for slot in range(n_segments):
        j = slot_to_block.get(slot)
        if j is None:
            ell = next(filler_iter)
            ops.append(TimeOp(ell, model.term(ell).sign * tau_angle))
        else:
            n_j = term.n_vec[j]
            if len(ell_vecs[j]) != n_j or len(b_vecs[j]) != n_j:
                raise ValueError("block draw length does not match n_vec")
            for ell, b in zip(ell_vecs[j], b_vecs[j]):
                ops.append(SwiftOp(int(ell), int(b)))
    return GatePlan(ops=tuple(ops), n_segments=n_segments, method_tag="QSWIFT")


@dataclass(frozen=True)
class SwiftDraw:
    """m rows of one correction variant: sorted block slots sigma (m, k), a
    time-operator term per slot (m, N) used outside sigma, and block j's
    swift-operator terms parts[j] (m, n_j)."""

    sigma: np.ndarray
    fillers: np.ndarray
    parts: tuple

    def filler_slots(self) -> np.ndarray:
        """(m, N) mask of each row's slots outside sigma, the ones fillers fill."""
        free = np.ones(self.fillers.shape, dtype=bool)
        free[np.arange(len(free))[:, None], self.sigma] = False
        return free


def draw_swift_variant(
    model: HamiltonianModel, n_segments: int, term: CorrectionTerm, s_vec, m: int, rng
) -> SwiftDraw:
    """Uniform sorted k-subsets of slots, then iid fillers, then per part iid
    indices (s_j = 0) or one shared index (s_j = 1)."""
    k = term.k
    if k > n_segments:
        raise OrderExceedsSegments(f"bucket k={k} exceeds {n_segments} segments")
    sigma = np.sort(np.argsort(rng.random((m, n_segments)), axis=1)[:, :k], axis=1)
    fillers = draw_qdrift(model, n_segments, m, rng)
    parts = []
    for s, n_j in zip(s_vec, term.n_vec):
        if s == 0:
            parts.append(rng.choice(model.n_terms, size=(m, n_j), p=model.probs))
        else:
            one = rng.choice(model.n_terms, size=(m, 1), p=model.probs)
            parts.append(np.repeat(one, n_j, axis=1))
    return SwiftDraw(sigma=sigma, fillers=fillers, parts=tuple(parts))


def swift_plan_from_draw(
    model: HamiltonianModel, t: float, term: CorrectionTerm, s_vec, b_vecs,
    draw: SwiftDraw, row: int,
) -> GatePlan:
    """Row `row` of a draw_swift_variant batch as the bucket circuit."""
    sigma = tuple(int(x) for x in draw.sigma[row])
    n_segments = draw.fillers.shape[1]
    fillers = tuple(int(e) + 1 for e in draw.fillers[row][draw.filler_slots()[row]])
    ell_vecs = tuple(tuple(int(e) + 1 for e in part[row]) for part in draw.parts)
    return build_swift_plan(
        model, t, n_segments, term, s_vec, b_vecs, sigma, ell_vecs, fillers
    )


def sample_swift_plan(
    model: HamiltonianModel,
    t: float,
    n_segments: int,
    term: CorrectionTerm,
    s_vec,
    b_vecs,
    rng_seed,
) -> GatePlan:
    """Draw (sigma, ell-vectors, fillers) and assemble the bucket circuit."""
    draw = draw_swift_variant(model, n_segments, term, s_vec, 1, as_rng(rng_seed))
    return swift_plan_from_draw(model, t, term, s_vec, b_vecs, draw, 0)


def all_order_b(tau_angle: float) -> float:
    """Normalization B = 1 + sum_{n>=2} 2^{n+1} tau^n / n!, summed to convergence.

    Equals 2 e^{2 tau} - 1 - 4 tau; the series is the definition used here.
    """
    if tau_angle < 0:
        raise ValueError("tau must be nonnegative")
    total = 1.0
    n = 2
    while True:
        beta = 2.0 ** (n + 1) * tau_angle**n / factorial(n)
        total += beta
        if beta < B_SERIES_RTOL * total and n > 2:
            return total
        if n > 500:
            return total
        n += 1


def all_order_categories(tau_angle: float):
    """(B, block sizes, category probabilities) of one all-order segment:
    a time operator with probability 1/B, else a block of size n with
    beta(n)/B; the < 1e-15 of block mass left out folds into the former."""
    b_norm = all_order_b(tau_angle)
    sizes, weights = [], []
    n = 2
    while True:
        beta = 2.0 ** (n + 1) * tau_angle**n / factorial(n)
        if (beta < B_SERIES_RTOL * b_norm and n > 2) or n > 500:
            break
        sizes.append(n)
        weights.append(beta / b_norm)
        n += 1
    cat_probs = np.array([1.0 / b_norm] + weights)
    cat_probs[0] += 1.0 - cat_probs.sum()
    return b_norm, sizes, cat_probs


@dataclass(frozen=True)
class SwiftBlock:
    """Rows of a segment batch that drew one block size, with their sign
    bits s (r,), branch bits b (r, n) and terms (r, n)."""

    rows: np.ndarray
    s: np.ndarray
    b: np.ndarray
    terms: np.ndarray


@dataclass(frozen=True)
class SegmentDraw:
    """One all-order segment for m rows: time-operator rows and terms, and a
    SwiftBlock per drawn block size."""

    time_rows: np.ndarray
    time_terms: np.ndarray
    blocks: tuple


def draw_all_order_segment(
    model: HamiltonianModel, block_sizes, cat_probs, m: int, rng
) -> SegmentDraw:
    """Categories, then time-operator terms, then per block size s, b and
    terms from P_s^(n): iid for s = 0, one shared index for s = 1."""
    probs = model.probs
    cats = rng.choice(len(cat_probs), size=m, p=cat_probs)
    time_rows = np.flatnonzero(cats == 0)
    time_terms = np.zeros(0, dtype=np.int64)
    if time_rows.size:
        time_terms = rng.choice(model.n_terms, size=time_rows.size, p=probs)
    blocks = []
    for cat_id, n in enumerate(block_sizes, start=1):
        rows = np.flatnonzero(cats == cat_id)
        if not rows.size:
            continue
        s = rng.integers(0, 2, size=rows.size)
        b = rng.integers(0, 2, size=(rows.size, n))
        iid = rng.choice(model.n_terms, size=(rows.size, n), p=probs)
        one = rng.choice(model.n_terms, size=rows.size, p=probs)
        terms = np.where(s[:, None] == 1, one[:, None], iid)
        blocks.append(SwiftBlock(rows=rows, s=s, b=b, terms=terms))
    return SegmentDraw(time_rows=time_rows, time_terms=time_terms, blocks=tuple(blocks))


@dataclass(frozen=True)
class AllOrderSegment:
    """One importance-sampled segment: its sign weight and instructions."""

    sign: int
    ops: tuple


def all_order_segment_from_draw(
    model: HamiltonianModel, tau_angle: float, draw: SegmentDraw, row: int
) -> AllOrderSegment:
    """Row `row` of a draw_all_order_segment batch as instructions."""
    hit = np.flatnonzero(draw.time_rows == row)
    if hit.size:
        ell = int(draw.time_terms[hit[0]]) + 1
        return AllOrderSegment(sign=1, ops=(TimeOp(ell, model.term(ell).sign * tau_angle),))
    for block in draw.blocks:
        hit = np.flatnonzero(block.rows == row)
        if hit.size:
            i = hit[0]
            ops = tuple(SwiftOp(int(e) + 1, int(b)) for e, b in zip(block.terms[i], block.b[i]))
            return AllOrderSegment(sign=1 - 2 * int(block.s[i]), ops=ops)
    raise IndexError(f"row {row} is not in the draw")


def sample_all_order_segment(
    model: HamiltonianModel, tau_angle: float, rng_seed
) -> AllOrderSegment:
    """Draw a qDRIFT segment with probability 1/B, else an n-swift block
    with sign (-1)^s, uniform s and branch bits (see draw_all_order_segment)."""
    _, block_sizes, cat_probs = all_order_categories(tau_angle)
    draw = draw_all_order_segment(model, block_sizes, cat_probs, 1, as_rng(rng_seed))
    return all_order_segment_from_draw(model, tau_angle, draw, 0)
