"""Monte Carlo observable estimation for compiled randomized plans.

Every sampled estimator returns an `EstimateReport`: `_estimate` builds it
for qDRIFT and order-K qSWIFT, `_one_row` for all-order and Trotter.

Estimators own streams, budgets, shot readout and reduction. The `compiler`
draw layer fills rows from streams derived as (seed, stream labels, variant,
chunk of 32,768 rows) and turns them into op codes; `Kernel.evolve` runs
them in tiles of at most 8,192 rows and 2 MiB of amplitudes, and each
unit's shots are drawn binomially from the exact expectations on its own
stream. The qDRIFT baseline is the k = 0 bucket `BASELINE`; it and every
variant whose ancilla idles evolve on 2^n amplitudes. A row's value
depends on its codes alone, so rows that repeat within one evolve call
evolve once: `_evolve_read` keys each row by its codes when they pack into
an int64 and copies each distinct row's value to its repeats. Jobs (a
bucket's batch of units, an all-order or randomized Trotter chunk) return
per-row arrays. Work of more than one batch of amplitudes maps over a pool
of one forked process per usable CPU (`taskset` limits it), as jobs or,
within one evolve, as equal runs of its distinct rows; the caller reduces
in order, so reports are the same for any tiles and workers.

Every circuit starts from |+>^(n+1); a run chooses only N, K, the budgets,
the seed and the observable (`EstimatorConfig`).
"""

from __future__ import annotations

import atexit
import os
import threading
import time
from dataclasses import dataclass, field
from functools import cache, lru_cache
from itertools import combinations, islice
from math import ceil, comb, prod, sqrt

import numpy as np

from ._pauli import system_observable
from ._rng import derived_rng
from .compiler import (
    BASELINE,
    CorrectionTerm,
    SwiftDraw,
    all_order_categories,
    correction_terms,
    draw_all_order_codes,
    draw_swift_variant,
    draw_trotter_terms,
    plan_codes,
    signed_angles,
    trotter_plan,
    trotter_thetas,
)
from .errors import AllOrderOverflow, BudgetOverflow, CombinatorialCap
from .hamiltonian import HamiltonianModel, finite_time, tau
from .statevector import Kernel

# Stream labels separating the independent sampling contexts under one seed.
_STREAM_BASELINE = 0
_STREAM_BUCKET = 1
_STREAM_ALL_ORDER = 2
_STREAM_TROTTER = 3

ENUMERATION_CAP = 10**6
CIRCUIT_CAP = 10**7
# Rows per derived stream; tiles bound the rows evolved at once. 2 MiB
# tiles were the fastest of 512 KiB to 4 MiB for the grouped schedule, a
# tile and its partner buffer (see the README's "Library")
_STREAM_CHUNK = 1 << 15
_TILE_ROWS = 1 << 13
_TILE_BYTES = 2 << 20
# Seconds between a pool worker's checks that its parent still runs
_PARENT_POLL_S = 0.5


@dataclass(frozen=True)
class EstimatorConfig:
    """Budgets, seed, and readout selection for one estimation run.

    observable is a Pauli axes string on the system (default Z on qubit 0);
    corrections read it dressed with ancilla X, baselines read it bare.
    bucket_samples overrides n_sample_0 per correction n_vec and must be
    >= 1; the baseline (n_vec = ()) always takes n_sample_0. Every row
    reads n_shot_0 shots per circuit. threads has no effect: the jobs map
    over one process per CPU in the affinity mask, with the same report.
    """

    n_segments: int
    order: int = 1
    n_sample_0: int = 100
    n_shot_0: int = 100
    seed: int = 42
    observable: str | None = None
    bucket_samples: dict = field(default_factory=dict)
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
        if any(n < 1 for n in self.bucket_samples.values()):
            raise ValueError("bucket sample overrides must be >= 1")

    def observable_axes(self, model: HamiltonianModel) -> str:
        return system_observable(self.observable, model.n_qubits)

    def n_sample(self, n_vec: tuple) -> int:
        counts = self.bucket_samples if n_vec else {}
        return int(counts.get(n_vec, self.n_sample_0))


@dataclass
class EstimateReport:
    """Estimate with its decomposition: value = baseline + sum of buckets.

    Every sampled estimator returns one. budgets maps each row label to its
    n_sample and n_shot, plus the coeff that scales a bucket's mean (B^N
    for the all-order baseline row, which also names its n_segments N).
    """

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

    @property
    def n_sample(self) -> int:
        """Draws of the baseline row."""
        return self.budgets["baseline"]["n_sample"]

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
    """(chunk index, first row, rows) covering range(total) in _STREAM_CHUNK steps."""
    for idx, start in enumerate(range(0, total, _STREAM_CHUNK)):
        yield idx, start, min(_STREAM_CHUNK, total - start)


def _tile_rows(amps: int) -> int:
    """Rows of `amps` amplitudes per tile: <= _TILE_ROWS and _TILE_BYTES, >= 1."""
    return max(1, min(_TILE_ROWS, _TILE_BYTES // (16 * amps)))


def _distinct_rows(codes: np.ndarray, n_terms: int):
    """(first, inverse): a row index per distinct row of op codes and each
    row's distinct index, so codes[first][inverse] == codes; None when the
    rows are all distinct or do not pack into one int64 key, digits
    code + 1 in base 3 n_terms + 1."""
    m, width = codes.shape
    base = 3 * n_terms + 1
    if m < 2 or base**width > 1 << 63:
        return None
    key = np.zeros(m, dtype=np.int64)
    for col in codes.T:
        key *= base
        key += col
        key += 1
    unique, inverse = np.unique(key, return_inverse=True)
    if unique.size == m:
        return None
    first = np.empty(unique.size, dtype=np.intp)
    first[inverse] = np.arange(m)
    return first, inverse


def _evolve_read(model, axes, codes: np.ndarray, thetas, ancilla_x: bool) -> np.ndarray:
    """Exact readout of every row of op codes. A row's value depends on its
    codes alone, so repeated rows evolve once (`_distinct_rows`) and copy
    the value; on `_big_pool`, equal runs of the distinct rows map, one per
    usable CPU, to `_evolve_tiles`."""
    distinct = _distinct_rows(codes, model.n_terms)
    rows = codes if distinct is None else codes[distinct[0]]
    m, amps = rows.shape[0], (2 if ancilla_x else 1) << model.n_qubits
    run = -(-m // _cpus())
    if run < m and (pool := _big_pool(m * amps)) is not None:
        jobs = [(model, axes, rows[lo : lo + run], thetas, ancilla_x) for lo in range(0, m, run)]
        vals = np.concatenate(list(pool.map(_evolve_tiles, *zip(*jobs))))
    else:
        vals = _evolve_tiles(model, axes, rows, thetas, ancilla_x)
    return vals if distinct is None else vals[distinct[1]]


def _evolve_tiles(model, axes, codes: np.ndarray, thetas, ancilla_x: bool) -> np.ndarray:
    """Exact readout of every row, evolved tile by tile in one reused buffer
    with the grouped schedule's partner; rows read as I (x) Q evolve on 2^n
    amplitudes. A row's arithmetic does not depend on its tile."""
    kernel = _kernel(model, axes)
    init = kernel.fresh(1, ancilla=ancilla_x)
    m, step = codes.shape[0], _tile_rows(init.shape[1])
    tile, partner = np.empty((2, min(step, m), init.shape[1]), dtype=init.dtype)
    vals = np.empty(m)
    for lo in range(0, m, step):
        states = tile[: min(step, m - lo)]
        states[:] = init
        kernel.evolve(states, codes[lo : lo + step], thetas, partner[: len(states)])
        vals[lo : lo + step] = kernel.read(states, ancilla_x)
    return vals


def _cpus() -> int:
    """Usable CPUs: the affinity mask (`taskset` limits it), else the CPU count."""
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity else os.cpu_count() or 1


@cache
def _pool():
    """One worker per usable CPU, started on first use. None with one CPU,
    without fork, while another thread runs (a fork copies no held lock),
    or in a multiprocessing child or a process forked after import, whose
    pool could block its exit or outlive it."""
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    if (_cpus() < 2 or threading.active_count() > 1 or os.getpid() != _IMPORT_PID
            or multiprocessing.parent_process() is not None
            or "fork" not in multiprocessing.get_all_start_methods()):
        return None
    return ProcessPoolExecutor(_cpus(), mp_context=multiprocessing.get_context("fork"),
                               initializer=_exit_with_parent, initargs=(os.getpid(),))


def _exit_with_parent(parent: int):
    """Pool worker initializer: a daemon thread ends the worker once its
    parent is gone. A parent that skips its exit hooks (`os._exit`, a
    signal) never joins its pool, and the orphans would keep its pipes open."""

    def watch():
        while os.getppid() == parent:
            time.sleep(_PARENT_POLL_S)
        os._exit(1)

    threading.Thread(target=watch, daemon=True).start()


_IMPORT_PID = os.getpid()
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_pool.cache_clear)


@atexit.register
def _shutdown_pool(pool=_pool):  # join the workers of this process's pool, if any
    if pool.cache_info().currsize and pool() is not None:
        pool().shutdown()


@lru_cache(maxsize=1)
def _kernel(model: HamiltonianModel, axes: str) -> Kernel:
    """Every estimator's Kernel: each process builds it once per model and observable."""
    return Kernel(model, axes)


def _big_pool(amps: int):
    """`_pool()` for more amplitudes than a batch of four tiles (less does not
    pay for the trip), else None; replaced if it lost a worker between calls
    (`_broken`, private CPython API checked on 3.11)."""
    pool = _pool() if 16 * amps > 4 * _TILE_BYTES else None
    if pool is not None and pool._broken:
        pool.shutdown()
        _pool.cache_clear()
        pool = _pool()
    return pool


def _map_jobs(fn, jobs: list, amps: int):
    """fn(*job) per job in order: on `_big_pool(amps)` if there are several,
    else here, lazily. Errors keep their type (a lost worker: BrokenProcessPool)."""
    pool = _big_pool(amps) if len(jobs) > 1 else None
    if pool is None:
        return (fn(*job) for job in jobs)
    return pool.map(fn, *zip(*jobs))


def _pooled_stats(chunks) -> tuple[float, float, int]:
    """(mean, variance of the mean, count) over per-chunk value arrays."""
    total = total_sq = 0.0
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


def _bucket_job(model, axes, thetas, n_segments, n_shot, term, units) -> list:
    """Per-row shot means of every unit of one batch of a bucket, each unit
    (stream labels, s_vec, b_vecs, rows) drawing its rows and then its
    shots from its own derived stream.

    A variant whose parts all share one index (s_j = 1) over an even n_j
    (the baseline among them) leaves the ancilla in |+>: its upper half is
    eps = prod_j (-1)^(n_j / 2 + |b_j|) times its lower one, exactly, so it
    evolves as that half on 2^n amplitudes and reads eps times the
    idle-ancilla value."""
    reads, groups = [], {}
    for stream, s_vec, b_vecs, size in units:
        rng = derived_rng(*stream)
        draw = draw_swift_variant(model, n_segments, term, s_vec, size, rng)
        full = not all(s_vec) or any(n % 2 for n in term.n_vec)
        eps = 1 if full else (-1) ** sum(n // 2 + sum(b) for n, b in zip(term.n_vec, b_vecs))
        codes = (draw.codes if full else draw.idle_codes)(b_vecs, model.n_terms)
        key = (full, codes.shape[1])  # rows of one width evolve together
        groups.setdefault(key, []).append(codes)
        reads.append((rng, eps, key))
    vals = {}
    for key, codes in groups.items():
        ends = np.cumsum([len(c) for c in codes])[:-1]
        vals[key] = iter(np.split(
            _evolve_read(model, axes, np.concatenate(codes), thetas, key[0]), ends))
    return [_shot_means(eps * next(vals[key]), n_shot, rng) for rng, eps, key in reads]


def _estimate(model, t, config, terms) -> EstimateReport:
    """The baseline plus every bucket in terms, each from its own streams.

    A bucket value is coeff times the signed sum over all (s, b)
    combinations of averaged expectations: ancilla-dressed for correction
    buckets, the system observable for the baseline (k = 0). Each row's
    (variant, stream chunk) units pack into batches of a few tiles, one
    `_map_jobs` runs every batch, and shot means reduce here in unit order.
    """
    axes = config.observable_axes(model)
    thetas = signed_angles(model, tau(model, t, config.n_segments))
    # about four tiles per batch: few partial tiles and small code arrays
    batch_rows = 4 * _tile_rows(2 << model.n_qubits)
    terms = [BASELINE, *terms]
    jobs, parities, budgets, plan_count = [], [], {}, 0
    for term in terms:
        n_sample = config.n_sample(term.n_vec)
        plan_count += term.n_variants * n_sample
        if term.k and term.n_variants * n_sample > CIRCUIT_CAP:
            raise BudgetOverflow(f"bucket {term.n_vec} needs "
                                 f"{term.n_variants * n_sample} circuits, cap {CIRCUIT_CAP}")
        budget = {"n_sample": n_sample, "n_shot": config.n_shot_0}
        budgets[term.label] = {**budget, "coeff": term.coeff} if term.k else budget
        variants = [(s_vec, b_vecs) for s_vec in term.sign_vectors()
                    for b_vecs in term.b_vector_sets()]
        parities.append([sum(s_vec) % 2 for s_vec, _ in variants])
        batches, rows = [[]], 0
        for vid, (s_vec, b_vecs) in enumerate(variants):
            stream = ((config.seed, _STREAM_BUCKET, term.k, term.xi, *term.n_vec, vid)
                      if term.k else (config.seed, _STREAM_BASELINE))
            for idx, _, size in _chunk_sizes(n_sample):
                if rows >= batch_rows:
                    batches.append([])
                    rows = 0
                batches[-1].append(((*stream, idx), s_vec, b_vecs, size))
                rows += size
        jobs += [(model, axes, thetas, config.n_segments, config.n_shot_0, term, batch)
                 for batch in batches]
    # every unit's shot means in unit order, each variant's chunks in turn
    mapped = _map_jobs(_bucket_job, jobs, plan_count << (model.n_qubits + 1))
    means = (arr for batch in mapped for arr in batch)
    values, var_total = {}, 0.0
    for term, odd in zip(terms, parities):
        chunks = len(range(0, config.n_sample(term.n_vec), _STREAM_CHUNK))
        signed_sum = var_sum = 0.0
        for negative in odd:
            mean, var, _ = _pooled_stats(islice(means, chunks))
            signed_sum += -mean if negative else mean
            var_sum += var
        values[term.n_vec] = term.coeff * signed_sum
        var_total += term.coeff**2 * var_sum
    baseline = values.pop(BASELINE.n_vec)
    return EstimateReport(
        method=f"QSWIFT{config.order}" if len(terms) > 1 else "QDRIFT",
        value=baseline + sum(values.values()),
        baseline=baseline,
        bucket_values=values,
        stderr=sqrt(var_total),
        plan_count=plan_count,
        shot_count=plan_count * config.n_shot_0,
        seed=config.seed,
        budgets=budgets,
    )


def _one_row(method, value, stderr, n_sample, n_shot, seed, **coeff) -> EstimateReport:
    """Report of an estimator without buckets: its one row is the baseline."""
    return EstimateReport(
        method=method,
        value=value,
        baseline=value,
        bucket_values={},
        stderr=stderr,
        plan_count=n_sample,
        shot_count=n_sample * n_shot,
        seed=seed,
        budgets={"baseline": {"n_sample": n_sample, "n_shot": n_shot, **coeff}},
    )


def estimate_qdrift(model: HamiltonianModel, t: float, config: EstimatorConfig) -> EstimateReport:
    """Sampled product-of-segments baseline estimate of Tr(Q U(rho)).

    The ancilla stays idle; the system observable is read with n_shot_0
    simulated shots per sampled plan.
    """
    return _estimate(model, t, config, [])


def estimate_qswift(model: HamiltonianModel, t: float, config: EstimatorConfig) -> EstimateReport:
    """Order-K estimate: sampled baseline plus every correction bucket."""
    return _estimate(model, t, config, correction_terms(model, t, config.n_segments, config.order))


def _trotter_job(model, axes, r, order, thetas, n_shot, seed, chunk, size) -> np.ndarray:
    """Shot means of the size randomized Trotter plans of one chunk, drawn
    and then read from the chunk's own derived stream."""
    rng = derived_rng(seed, _STREAM_TROTTER, chunk)
    terms = draw_trotter_terms(model, r, order, rng, size)
    return _shot_means(_evolve_read(model, axes, terms, thetas, ancilla_x=False), n_shot, rng)


def estimate_trotter(
    model: HamiltonianModel,
    t: float,
    r: int,
    order: int,
    randomized: bool,
    config: EstimatorConfig,
) -> EstimateReport:
    """Product-formula estimate.

    Randomized: n_sample_0 plans evolve as rows, each chunk's plans and
    shots from the chunk's stream; stderr is that of the per-plan shot means.
    Deterministic: one plan, a batch of one, pools n_sample_0 * n_shot_0
    shots; stderr is the binomial sqrt((1 - v^2) / shots).
    """
    axes = config.observable_axes(model)
    if randomized:
        thetas = trotter_thetas(model, t, r, order)
        jobs = [(model, axes, r, order, thetas, config.n_shot_0, config.seed, idx, size)
                for idx, _, size in _chunk_sizes(config.n_sample_0)]
        value, var, plans = _pooled_stats(
            _map_jobs(_trotter_job, jobs, config.n_sample_0 << model.n_qubits))
        return _one_row(f"RTS{order}", value, sqrt(var), plans, config.n_shot_0, config.seed)
    plan = trotter_plan(model, t, r, order)
    kernel = _kernel(model, axes)
    states = kernel.fresh(1, ancilla=False)
    for codes, thetas in plan_codes(plan, model.n_terms):
        kernel.evolve(states, codes, thetas)
    shots = config.n_shot_0 * config.n_sample_0
    # four labels: no randomized chunk stream (seed, 3, chunk) is this one
    rng = derived_rng(config.seed, _STREAM_TROTTER, 0, 1)
    value = float(_shot_means(kernel.read(states, ancilla_x=False), shots, rng)[0])
    stderr = sqrt(max(1.0 - value**2, 0.0) / shots)
    return _one_row(f"TS{order}", value, stderr, 1, shots, config.seed)


# ---------------------------------------------------------------------------
# Exhaustive enumeration: every random draw replaced by its weighted support.

def _digits(sizes, start: int, size: int) -> np.ndarray:
    """Enumeration rows start.. as digits in itertools.product order."""
    return np.stack(np.unravel_index(np.arange(start, start + size), sizes), axis=1)


def eval_correction_exact(
    model: HamiltonianModel,
    t: float,
    n_segments: int,
    term: CorrectionTerm,
    observable_axes: str | None = None,
) -> float:
    """Bucket value with sigma, index, and filler draws fully enumerated.

    Expectations are exact (no shot simulation), so this equals the bucket's
    dense-oracle value up to floating-point error; BASELINE enumerates the
    qDRIFT plans on 2^n amplitudes.
    """
    k = term.k
    n_terms = model.n_terms
    n_slots = comb(n_segments, k)
    size_est = term.n_variants * n_slots * n_terms ** (n_segments - k + sum(term.n_vec))
    if size_est > ENUMERATION_CAP:
        raise CombinatorialCap(f"exhaustive bucket would enumerate ~{size_est} circuits")
    slots = np.array(list(combinations(range(n_segments), k)), dtype=np.intp)
    axes = system_observable(observable_axes, model.n_qubits)
    thetas = signed_angles(model, tau(model, t, n_segments))
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
                codes = draw.codes(b_vecs, n_terms)
                vals = _evolve_read(model, axes, codes, thetas, ancilla_x=k > 0)
                total += sign * float(weights @ vals)
    return term.coeff * total / n_slots


def exact_qdrift_value(
    model: HamiltonianModel, t: float, n_segments: int, observable_axes: str | None = None
) -> float:
    """Baseline value with all plans enumerated by their probabilities."""
    return eval_correction_exact(model, t, n_segments, BASELINE, observable_axes)


# ---------------------------------------------------------------------------
# All-order estimator (zero systematic error), batched over trajectories.

def _all_order_job(model, axes, n_segments, thetas, sizes, probs, seed, chunk, m) -> np.ndarray:
    """Signed exact readouts of the m trajectories of one all-order chunk,
    drawn from the chunk's own derived stream."""
    rng = derived_rng(seed, _STREAM_ALL_ORDER, chunk)
    codes, signs = draw_all_order_codes(model, n_segments, sizes, probs, m, rng)
    return signs * _evolve_read(model, axes, codes, thetas, ancilla_x=True)


def all_order_stats(
    model: HamiltonianModel,
    t: float,
    n_segments: int,
    n_sample: int,
    rng_seed,
    observable_axes: str | None = None,
) -> EstimateReport:
    """Zero-systematic-error estimate of Tr(Q U(rho)) and its standard error.

    Each segment draws a plain time operator with probability 1/B or a
    swift block of size n with probability beta(n)/B; trajectory signs
    track the s draws and the mean is rescaled by B^N, the baseline row's
    coeff; AllOrderOverflow when B^N is not finite. Any N is unbiased;
    `all_order_segments` picks one by cost. Expectations are read
    exactly per trajectory, so no shots are simulated. Chunks of 32,768
    trajectories, or one chunk's tile runs, map over the process pool and
    reduce here in order, so the report is the same for any worker count.
    """
    if n_sample < 1 or n_segments < 1:
        raise ValueError("need n_sample >= 1 and N >= 1")
    if not isinstance(rng_seed, (int, np.integer)):
        raise TypeError("all-order sampling derives per-chunk streams, pass an int seed")
    axes = system_observable(observable_axes, model.n_qubits)
    tau_angle = tau(model, t, n_segments)
    thetas = signed_angles(model, tau_angle)
    b_norm, block_sizes, cat_probs = all_order_categories(tau_angle)
    try:
        b_power = b_norm**n_segments
    except OverflowError:
        raise AllOrderOverflow(f"B^N = {b_norm!r}^{n_segments} overflows") from None
    jobs = [(model, axes, n_segments, thetas, block_sizes, cat_probs,
             int(rng_seed), idx, m) for idx, _, m in _chunk_sizes(n_sample)]
    mean, var, _ = _pooled_stats(
        _map_jobs(_all_order_job, jobs, n_sample << (model.n_qubits + 1)))
    return _one_row("ALLORDER", b_power * mean, b_power * sqrt(var), n_sample, 0,
                    int(rng_seed), coeff=b_power, n_segments=n_segments)


def all_order_segments(model: HamiltonianModel, t: float, n_sample: int) -> int:
    """All-order segment count by cost: round(8 (lam |t|)^2), at least 1.

    B^N ~ e^{4 (lam t)^2 / N} sets the spread and N the circuit length; the
    one-ancilla cost, gates times one-shot variance N w(N) B^{2N}, is least
    near this N (B^N ~ 1.7). Capped so that N * n_sample <= CIRCUIT_CAP;
    ValueError when t is not finite."""
    lam_t = model.lam * abs(float(finite_time(t)))
    return max(1, round(min(8.0 * lam_t * lam_t, CIRCUIT_CAP // max(n_sample, 1))))


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
    """Variance-balanced budgets: the target variance epsilon_total^2 splits
    evenly over the table's rows (the baseline bucket k = 0 and every other),
    so each row gets stderr epsilon_total / sqrt(rows); each bucket pays for
    its 2^(xi+k) sign/branch combinations, and sample counts scale with coeff^2."""
    if epsilon_total <= 0:
        raise ValueError("epsilon must be positive")
    terms = [BASELINE, *correction_terms(model, t, n_segments, order)]
    n_rows = len(terms)
    eps = epsilon_total / sqrt(n_rows)
    rows = []
    for term in terms:
        variants = term.n_variants
        # counts from n_rows / epsilon_total^2, not 1 / eps^2: the latter can
        # land an ulp above an integer, and ceil then adds a circuit
        try:
            n_samp = max(1, ceil(term.coeff**2 * variants * n_rows / epsilon_total**2))
        except (OverflowError, ZeroDivisionError):
            raise BudgetOverflow(
                f"bucket {term.label} needs more samples than a float counts "
                f"at epsilon = {epsilon_total!r}"
            ) from None
        rows.append(
            BudgetRow(
                label=term.label,
                k=term.k,
                coeff=term.coeff,
                n_sample=n_samp,
                circuits=variants * n_samp,
            )
        )
    return BudgetTable(
        rows=tuple(rows),
        n_total=sum(row.circuits for row in rows),
        epsilon_total=epsilon_total,
        epsilon_per_term=eps,
    )
