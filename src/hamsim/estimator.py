"""Monte Carlo observable estimation for compiled randomized plans.

Estimators own streams, budgets, shot readout and reduction: the `compiler`
draw layer fills batches of rows from streams derived as (seed, stream
labels, variant, chunk), a `statevector.Kernel` evolves and reads them, and
shots are simulated binomially from the exact expectations. Reduction order
is fixed by variant and chunk index, so reports are bit-identical for any
worker count. The exhaustive *_exact oracles evolve every draw of the
support as a weighted row through the same Kernel calls.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from itertools import combinations
from math import ceil, comb, prod, sqrt

import numpy as np

from ._rng import derived_rng
from .compiler import (
    CorrectionTerm,
    SwiftDraw,
    all_order_categories,
    correction_terms,
    draw_all_order_segment,
    draw_qdrift,
    draw_swift_variant,
    draw_trotter_terms,
    trotter_plan,
    trotter_step,
)
from .errors import BudgetOverflow, CombinatorialCap
from .hamiltonian import HamiltonianModel, tau
from .statevector import Kernel, Observable

# Stream labels separating the independent sampling contexts under one seed.
_STREAM_BASELINE = 0
_STREAM_BUCKET = 1
_STREAM_ALL_ORDER = 2
_STREAM_TROTTER = 3
_SUB_PLAN = 0
_SUB_SHOT = 1

ENUMERATION_CAP = 10**6
_BATCH_CHUNK = 1 << 15


def _worker_count(explicit: int | None) -> int:
    if explicit is not None:
        return max(1, explicit)
    env = os.environ.get("HAMSIM_THREADS", "")
    try:
        return max(1, int(env))
    except ValueError:
        return 1


def _map_indexed(fn, count: int, threads: int) -> list:
    """fn(i) for i in range(count), order-preserving, optionally threaded."""
    if threads <= 1 or count <= 1:
        return [fn(i) for i in range(count)]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, range(count)))


@dataclass(frozen=True)
class EstimatorConfig:
    """Budgets, seed, and readout selection for one estimation run.

    observable may be an axes string or an Observable; only its axes are
    used, the ancilla-X flag is chosen by context (corrections measure the
    ancilla-dressed operator, baselines measure the system operator).
    bucket_samples/bucket_shots override counts per n_vec.
    """

    n_segments: int
    order: int = 1
    n_sample_0: int = 100
    n_shot_0: int = 100
    seed: int = 42
    observable: object | None = None
    system_zero: bool = False
    bucket_samples: dict = field(default_factory=dict)
    bucket_shots: dict = field(default_factory=dict)
    circuit_cap: int = 10**7
    threads: int | None = None

    def __post_init__(self):
        if self.n_segments < 1:
            raise ValueError("segment count must be >= 1")
        if self.order < 1:
            raise ValueError("order must be >= 1")
        if self.order > self.n_segments:
            raise ValueError("order must not exceed the segment count")
        if self.n_sample_0 < 1 or self.n_shot_0 < 1:
            raise ValueError("sample and shot counts must be >= 1")

    def observable_axes(self, model: HamiltonianModel) -> str:
        obs = self.observable
        if obs is None:
            return "Z" + "I" * (model.n_qubits - 1)
        axes = obs.axes if isinstance(obs, Observable) else str(obs)
        if len(axes) != model.n_qubits:
            raise ValueError("observable width does not match the model")
        return axes.upper()

    def n_sample(self, n_vec: tuple) -> int:
        return max(1, int(self.bucket_samples.get(n_vec, self.n_sample_0)))

    def n_shot(self, n_vec: tuple) -> int:
        return max(1, int(self.bucket_shots.get(n_vec, self.n_shot_0)))


@dataclass
class EstimateReport:
    """Estimate with its decomposition: value = baseline + sum of buckets."""

    method: str
    value: float
    baseline: float
    bucket_values: dict
    stderr: float
    plan_count: int
    shot_count: int
    seed: int
    budgets: dict
    exact_reference: float | None = None

    def to_json_dict(self) -> dict:
        out = {
            "method": self.method,
            "value": self.value,
            "baseline": self.baseline,
            "buckets": {
                ",".join(map(str, key)): val for key, val in self.bucket_values.items()
            },
            "stderr": self.stderr,
            "plan_count": self.plan_count,
            "shot_count": self.shot_count,
            "seeds": {"master": self.seed},
            "budgets": self.budgets,
        }
        if self.exact_reference is not None:
            out["exact_reference"] = self.exact_reference
        return out


# ---------------------------------------------------------------------------
# Sampled estimators: compiler draws evolved on a Kernel, read with shots.

def _shot_means(vals: np.ndarray, n_shot: int, rng) -> np.ndarray:
    """Per-row mean of n_shot +/-1 outcomes with P(+1) = (1 + <O>)/2."""
    p_plus = np.clip(0.5 * (1.0 + vals), 0.0, 1.0)
    hits = rng.binomial(n_shot, p_plus)
    return 2.0 * hits / n_shot - 1.0


def _chunk_sizes(total: int):
    """(chunk index, first row, rows) covering range(total) in _BATCH_CHUNK steps."""
    for idx, start in enumerate(range(0, total, _BATCH_CHUNK)):
        yield idx, start, min(_BATCH_CHUNK, total - start)


def _signed_angles(model: HamiltonianModel, angle: float) -> list[float]:
    """Bare rotation angle sign_ell * angle of every term."""
    return (np.array([term.sign for term in model.terms]) * angle).tolist()


def _pooled_stats(chunks) -> tuple[float, float, int]:
    """(mean, variance of the mean, count) over per-chunk value arrays."""
    total = 0.0
    total_sq = 0.0
    count = 0
    for vals in chunks:
        total += float(vals.sum())
        total_sq += float((vals**2).sum())
        count += vals.size
    mean = total / count
    if count > 1:
        var = max(total_sq - count * mean**2, 0.0) / (count - 1)
        return mean, var / count, count
    return mean, 0.0, count


def estimate_qdrift(model: HamiltonianModel, t: float, config: EstimatorConfig) -> EstimateReport:
    """Sampled product-of-segments baseline estimate of Tr(Q U(rho)).

    The ancilla stays idle; the system observable is read with n_shot_0
    simulated shots per sampled plan.
    """
    kernel = Kernel(model, config.observable_axes(model), config.system_zero)
    thetas = _signed_angles(model, tau(model, t, config.n_segments))
    n = config.n_sample_0

    def one_chunk(args):
        idx, _, size = args
        rng = derived_rng(config.seed, _STREAM_BASELINE, idx)
        states = kernel.fresh(size)
        kernel.time_ops(states, draw_qdrift(model, config.n_segments, size, rng), thetas)
        return _shot_means(kernel.read(states, ancilla_x=False), config.n_shot_0, rng)

    baseline, var, count = _pooled_stats(map(one_chunk, _chunk_sizes(n)))
    return EstimateReport(
        method="QDRIFT",
        value=baseline,
        baseline=baseline,
        bucket_values={},
        stderr=sqrt(var),
        plan_count=count,
        shot_count=count * config.n_shot_0,
        seed=config.seed,
        budgets={"baseline": {"n_sample": n, "n_shot": config.n_shot_0}},
    )


def _eval_correction_stats(
    model: HamiltonianModel, t: float, term: CorrectionTerm, config: EstimatorConfig
):
    """(value, variance, plan_count, shot_count) for one correction bucket.

    The bucket value is coeff times the signed sum over all (s, b)
    combinations of averaged ancilla-dressed expectations. Every variant is
    evaluated with its own derived stream; variants may run on worker
    threads, and the signed reduction follows variant order regardless of
    thread count.
    """
    n_sample = config.n_sample(term.n_vec)
    n_shot = config.n_shot(term.n_vec)
    total_circuits = term.n_variants * n_sample
    if total_circuits > config.circuit_cap:
        raise BudgetOverflow(
            f"bucket {term.n_vec} needs {total_circuits} circuits, cap {config.circuit_cap}"
        )
    kernel = Kernel(model, config.observable_axes(model), config.system_zero)
    thetas = _signed_angles(model, tau(model, t, config.n_segments))
    variants = [
        (s_vec, b_vecs)
        for s_vec in term.sign_vectors()
        for b_vecs in term.b_vector_sets()
    ]

    def one_variant(vid: int):
        s_vec, b_vecs = variants[vid]

        def one_chunk(args):
            idx, _, size = args
            rng = derived_rng(
                config.seed, _STREAM_BUCKET, term.k, term.xi, *term.n_vec, vid, idx
            )
            draw = draw_swift_variant(model, config.n_segments, term, s_vec, size, rng)
            states = kernel.fresh(size)
            kernel.swift_variant(states, draw, b_vecs, thetas)
            return _shot_means(kernel.read(states, ancilla_x=True), n_shot, rng)

        return _pooled_stats(map(one_chunk, _chunk_sizes(n_sample)))

    results = _map_indexed(one_variant, len(variants), _worker_count(config.threads))
    signed_sum = 0.0
    var_sum = 0.0
    for (s_vec, _), (mean, var, _) in zip(variants, results):
        sign = -1.0 if sum(s_vec) % 2 else 1.0
        signed_sum += sign * mean
        var_sum += var
    value = term.coeff * signed_sum
    variance = term.coeff**2 * var_sum
    return value, variance, total_circuits, total_circuits * n_shot


def estimate_qswift(model: HamiltonianModel, t: float, config: EstimatorConfig) -> EstimateReport:
    """Order-K estimate: sampled baseline plus every correction bucket."""
    base = estimate_qdrift(model, t, config)
    buckets = {}
    budgets = dict(base.budgets)
    var_total = base.stderr**2
    plan_count = base.plan_count
    shot_count = base.shot_count
    for term in correction_terms(model, t, config.n_segments, config.order):
        value, variance, plans, shots = _eval_correction_stats(model, t, term, config)
        buckets[term.n_vec] = value
        var_total += variance
        plan_count += plans
        shot_count += shots
        budgets[",".join(map(str, term.n_vec))] = {
            "n_sample": config.n_sample(term.n_vec),
            "n_shot": config.n_shot(term.n_vec),
            "coeff": term.coeff,
        }
    return EstimateReport(
        method=f"QSWIFT{config.order}" if config.order > 1 else "QDRIFT",
        value=base.baseline + sum(buckets.values()),
        baseline=base.baseline,
        bucket_values=buckets,
        stderr=sqrt(var_total),
        plan_count=plan_count,
        shot_count=shot_count,
        seed=config.seed,
        budgets=budgets,
    )


def estimate_trotter(
    model: HamiltonianModel,
    t: float,
    r: int,
    order: int,
    randomized: bool,
    config: EstimatorConfig,
) -> EstimateReport:
    """Product-formula estimate.

    Randomized: n_sample_0 plans evolve as rows, plan i with its own plan
    and shot streams; stderr is that of the per-plan shot means.
    Deterministic: one plan, a batch of one, pools n_sample_0 * n_shot_0
    shots; stderr is the binomial sqrt((1 - v^2) / shots).
    """
    kernel = Kernel(model, config.observable_axes(model), config.system_zero)
    seed = config.seed
    if randomized:
        coefficients = np.array([term.coefficient for term in model.terms])
        thetas = (coefficients * trotter_step(t, r, order)).tolist()
        chunks = []
        for _, first, size in _chunk_sizes(config.n_sample_0):
            plan_ids = range(first, first + size)
            terms = np.stack([
                draw_trotter_terms(model, r, order, derived_rng(seed, _STREAM_TROTTER, i, _SUB_PLAN))
                for i in plan_ids
            ])
            states = kernel.fresh(size)
            kernel.time_ops(states, terms, thetas)
            vals = kernel.read(states, ancilla_x=False)
            chunks.extend(
                _shot_means(vals[row : row + 1], config.n_shot_0,
                            derived_rng(seed, _STREAM_TROTTER, i, _SUB_SHOT))
                for row, i in enumerate(plan_ids)
            )
        value, var, plans = _pooled_stats([np.concatenate(chunks)])
        method, stderr, shots = f"RTS{order}", sqrt(var), config.n_shot_0
    else:
        plan = trotter_plan(model, t, r, order)
        states = kernel.fresh(1)
        kernel.run(states, plan.ops)
        plans, shots = 1, config.n_shot_0 * config.n_sample_0
        rng = derived_rng(seed, _STREAM_TROTTER, 0, _SUB_SHOT)
        value = float(_shot_means(kernel.read(states, ancilla_x=False), shots, rng)[0])
        stderr = sqrt(max(1.0 - value**2, 0.0) / shots)
        method = plan.method_tag
    return EstimateReport(
        method=method,
        value=value,
        baseline=value,
        bucket_values={},
        stderr=stderr,
        plan_count=plans,
        shot_count=plans * shots,
        seed=seed,
        budgets={"baseline": {"n_sample": plans, "n_shot": shots}},
    )


# ---------------------------------------------------------------------------
# Exhaustive enumeration: every random draw replaced by its weighted support.

def _digits(sizes, start: int, size: int) -> np.ndarray:
    """Enumeration rows start.. as digits in itertools.product order."""
    return np.stack(np.unravel_index(np.arange(start, start + size), sizes), axis=1)


def exact_qdrift_value(
    model: HamiltonianModel,
    t: float,
    n_segments: int,
    observable_axes: str | None = None,
    system_zero: bool = False,
) -> float:
    """Baseline value with all plans enumerated by their probabilities."""
    n_plans = model.n_terms**n_segments
    if n_plans > ENUMERATION_CAP:
        raise CombinatorialCap(
            f"{model.n_terms}^{n_segments} plans exceed {ENUMERATION_CAP}"
        )
    kernel = Kernel(model, observable_axes, system_zero)
    thetas = _signed_angles(model, tau(model, t, n_segments))
    probs = model.probs
    total = 0.0
    for _, start, size in _chunk_sizes(n_plans):
        terms = _digits([model.n_terms] * n_segments, start, size)
        states = kernel.fresh(size)
        kernel.time_ops(states, terms, thetas)
        total += float(probs[terms].prod(axis=1) @ kernel.read(states, ancilla_x=False))
    return total


def eval_correction_exact(
    model: HamiltonianModel,
    t: float,
    n_segments: int,
    term: CorrectionTerm,
    observable_axes: str | None = None,
    system_zero: bool = False,
) -> float:
    """Bucket value with sigma, index, and filler draws fully enumerated.

    Expectations are exact (no shot simulation), so this equals the bucket's
    dense-oracle value up to floating-point error.
    """
    k = term.k
    n_terms = model.n_terms
    slots = np.array(list(combinations(range(n_segments), k)))
    n_slots = comb(n_segments, k)
    size_est = (
        term.n_variants
        * n_slots
        * n_terms ** (n_segments - k)
        * n_terms ** sum(term.n_vec)
    )
    if size_est > ENUMERATION_CAP:
        raise CombinatorialCap(f"exhaustive bucket would enumerate ~{size_est} circuits")
    kernel = Kernel(model, observable_axes, system_zero)
    thetas = _signed_angles(model, tau(model, t, n_segments))
    probs = model.probs
    total = 0.0
    for s_vec in term.sign_vectors():
        sign = -1.0 if sum(s_vec) % 2 else 1.0
        # digits: block slots, then each part's indices (one shared index
        # when s_j = 1), then the N - k fillers in slot order
        widths = [n_j if s == 0 else 1 for s, n_j in zip(s_vec, term.n_vec)]
        sizes = [n_slots] + [n_terms] * (sum(widths) + n_segments - k)
        for _, start, size in _chunk_sizes(prod(sizes)):
            digits = _digits(sizes, start, size)
            weights = probs[digits[:, 1:]].prod(axis=1)
            sigma = slots[digits[:, 0]]
            parts, col = [], 1
            for width, n_j in zip(widths, term.n_vec):
                parts.append(np.repeat(digits[:, col : col + width], n_j // width, axis=1))
                col += width
            draw = SwiftDraw(sigma, np.zeros((size, n_segments), dtype=np.int64), tuple(parts))
            draw.fillers[draw.filler_slots()] = digits[:, col:].ravel()
            for b_vecs in term.b_vector_sets():
                states = kernel.fresh(size)
                kernel.swift_variant(states, draw, b_vecs, thetas)
                total += sign * float(weights @ kernel.read(states, ancilla_x=True))
    return term.coeff * total / n_slots


def exact_qswift_value(
    model: HamiltonianModel,
    t: float,
    n_segments: int,
    order: int,
    observable_axes: str | None = None,
    system_zero: bool = False,
) -> float:
    """Exhaustive order-K value: enumerated baseline plus enumerated buckets."""
    total = exact_qdrift_value(model, t, n_segments, observable_axes, system_zero)
    for term in correction_terms(model, t, n_segments, order):
        total += eval_correction_exact(
            model, t, n_segments, term, observable_axes, system_zero
        )
    return total


# ---------------------------------------------------------------------------
# All-order estimator (zero systematic error), batched over trajectories.

@dataclass(frozen=True)
class AllOrderResult:
    value: float
    stderr: float
    b_power: float
    n_sample: int


def all_order_stats(
    model: HamiltonianModel,
    t: float,
    n_segments: int,
    n_sample: int,
    rng_seed,
    observable_axes: str | None = None,
    system_zero: bool = False,
) -> AllOrderResult:
    """Mean and standard error of the rescaled signed estimator.

    Each segment draws a plain time operator with probability 1/B or a
    swift block of size n with probability beta(n)/B; trajectory signs
    track the s draws and the mean is rescaled by B^N. Expectations are
    read exactly per trajectory.
    """
    if n_sample < 1 or n_segments < 1:
        raise ValueError("need n_sample >= 1 and N >= 1")
    if not isinstance(rng_seed, (int, np.integer)):
        raise TypeError("all-order sampling derives per-chunk streams, pass an int seed")
    kernel = Kernel(model, observable_axes, system_zero)
    tau_angle = tau(model, t, n_segments)
    thetas = _signed_angles(model, tau_angle)
    b_norm, block_sizes, cat_probs = all_order_categories(tau_angle)


    def one_chunk(args):
        chunk_idx, _, m = args
        rng = derived_rng(int(rng_seed), _STREAM_ALL_ORDER, chunk_idx)
        states = kernel.fresh(m)
        signs = np.ones(m)
        for _seg in range(n_segments):
            draw = draw_all_order_segment(model, block_sizes, cat_probs, m, rng)
            kernel.all_order_segment(states, signs, draw, thetas)
        return signs * kernel.read(states, ancilla_x=True)

    mean, var, _ = _pooled_stats(map(one_chunk, _chunk_sizes(n_sample)))
    b_power = b_norm**n_segments
    return AllOrderResult(
        value=b_power * mean, stderr=b_power * sqrt(var), b_power=b_power, n_sample=n_sample
    )


def estimate_all_order(
    model: HamiltonianModel, t: float, n_segments: int, n_sample: int, rng_seed
) -> float:
    """Zero-systematic-error estimate of Tr(Q U(rho)); see all_order_stats."""
    return all_order_stats(model, t, n_segments, n_sample, rng_seed).value


# ---------------------------------------------------------------------------
# Sampling-budget planner.

@dataclass(frozen=True)
class BudgetRow:
    label: str
    k: int
    coeff: float
    n_sample: int
    circuits: int


@dataclass(frozen=True)
class BudgetTable:
    rows: tuple
    n_total: int
    epsilon_total: float
    epsilon_per_term: float

    def to_json_dict(self) -> dict:
        return {
            "epsilon_total": self.epsilon_total,
            "epsilon_per_term": self.epsilon_per_term,
            "rows": [
                {
                    "bucket": row.label,
                    "k": row.k,
                    "coeff": row.coeff,
                    "n_sample": row.n_sample,
                    "circuits": row.circuits,
                }
                for row in self.rows
            ],
            "n_total": self.n_total,
        }

    def to_text(self) -> str:
        lines = [f"{'bucket':>10} {'k':>3} {'coeff':>14} {'n_sample':>12} {'circuits':>14}"]
        for row in self.rows:
            lines.append(
                f"{row.label:>10} {row.k:>3} {row.coeff:>14.6g} "
                f"{row.n_sample:>12} {row.circuits:>14}"
            )
        lines.append(f"total circuits: {self.n_total}")
        return "\n".join(lines)


def plan_budget(
    model: HamiltonianModel, t: float, n_segments: int, order: int, epsilon_total: float
) -> BudgetTable:
    """Variance-balanced budgets: the statistical error target splits evenly
    across the baseline and every bucket, each bucket pays for its 2^(xi+k)
    sign/branch combinations, and sample counts scale with coeff^2."""
    if epsilon_total <= 0:
        raise ValueError("epsilon must be positive")
    terms = correction_terms(model, t, n_segments, order)
    eps = epsilon_total / sqrt(order + 1)
    n_sample_0 = ceil(1.0 / eps**2)
    rows = [BudgetRow(label="baseline", k=0, coeff=1.0,
                      n_sample=n_sample_0, circuits=n_sample_0)]
    total = n_sample_0
    for term in terms:
        variants = term.n_variants
        n_samp = max(1, ceil(term.coeff**2 * variants / eps**2))
        circuits = variants * n_samp
        rows.append(
            BudgetRow(
                label=",".join(map(str, term.n_vec)),
                k=term.k,
                coeff=term.coeff,
                n_sample=n_samp,
                circuits=circuits,
            )
        )
        total += circuits
    return BudgetTable(
        rows=tuple(rows),
        n_total=total,
        epsilon_total=epsilon_total,
        epsilon_per_term=eps,
    )
