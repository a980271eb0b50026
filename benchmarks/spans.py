"""Span tracer for the benchmark's traced run.

The tracer wraps hamsim's public layer boundaries from outside the package:
each wrapped function is replaced in every hamsim module namespace that holds
it (so `hamsim.estimator.derived_rng` is wrapped where the estimator calls
it), and `PauliAction.apply` is replaced on the class. Nothing under `src/`
changes, and leaving the `with` block restores every original.

Each span is one tuple (id, parent id, name, start, end, op, thread, amount,
tag) kept in memory; the spans are written out when the run ends and every
per-layer figure is derived from them afterwards. Each thread keeps its own
span stack. A span opened on a worker thread whose stack is empty takes the
innermost open span of the main thread as its parent, which is the
estimator call that started the worker pool.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import statistics
import sys
import threading
import time

import numpy as np

METHODS = ("qdrift", "qswift2", "qswift3", "all_order", "rtrotter", "trotter")


# amount/tag extractors: f(result, *args, **kwargs) -> (amount, tag).
# amount is amplitudes for apply, circuits for estimator entries and plan
# length for run_plan; tag is the flip flag for apply and the METHODS index
# for estimator entries.
def _apply_amount(out, action, vec):
    return vec.size, 1 if action.flip else 0


def _run_plan_amount(out, state, plan, model):
    return len(plan.ops), -1


def _qdrift_amount(out, model, t, config):
    return out.plan_count, METHODS.index("qdrift")


def _qswift_amount(out, model, t, config):
    label = f"qswift{config.order}" if config.order > 1 else "qdrift"
    return out.plan_count, METHODS.index(label)


def _all_order_amount(out, model, t, n_segments, n_sample, rng_seed, *args, **kwargs):
    return out.n_sample, METHODS.index("all_order")


def _trotter_amount(out, model, t, r, order, randomized, config):
    if randomized:
        return config.n_sample_0, METHODS.index("rtrotter")
    return 1, METHODS.index("trotter")


# (defining module, attribute, span name, amount extractor). An attribute
# written Class.method is wrapped on the class.
BOUNDARIES = (
    ("hamsim._pauli", "PauliAction.apply", "pauli.apply", _apply_amount),
    ("hamsim._rng", "derived_rng", "rng.derived_rng", None),
    ("hamsim.estimator", "estimate_qdrift", "estimator.estimate_qdrift", _qdrift_amount),
    ("hamsim.estimator", "estimate_qswift", "estimator.estimate_qswift", _qswift_amount),
    ("hamsim.estimator", "all_order_stats", "estimator.all_order_stats", _all_order_amount),
    ("hamsim.estimator", "estimate_trotter", "estimator.estimate_trotter", _trotter_amount),
    ("hamsim.compiler", "correction_terms", "compiler.correction_terms", None),
    ("hamsim.compiler", "randomized_trotter_plan", "compiler.randomized_trotter_plan", None),
    ("hamsim.compiler", "trotter_plan", "compiler.trotter_plan", None),
    ("hamsim.statevector", "run_plan", "statevector.run_plan", _run_plan_amount),
    ("hamsim.statevector", "apply_pauli_rotation", "statevector.apply_pauli_rotation", None),
    ("hamsim.statevector", "expectation", "statevector.expectation", None),
    ("hamsim.exact_channels", "qswift_channel", "exact_channels.qswift_channel", None),
    ("hamsim.exact_channels", "mixture", "exact_channels.mixture", None),
    ("hamsim.exact_channels", "ideal_channel", "exact_channels.ideal_channel", None),
    ("hamsim.bounds", "solve_min_n", "bounds.solve_min_n", None),
    ("hamsim.bounds", "sweep_table", "bounds.sweep_table", None),
    ("hamsim.bounds", "qdrift_bound", "bounds.qdrift_bound", None),
    ("hamsim.bounds", "qswift_bound", "bounds.qswift_bound", None),
    ("hamsim.bounds", "trotter_gate_count", "bounds.trotter_gate_count", None),
    ("hamsim.verify", "run_core_suite", "verify.run_core_suite", None),
    ("hamsim.verify", "run_slopes_suite", "verify.run_slopes_suite", None),
    ("hamsim.cli", "main", "cli.main", None),
    ("hamsim.hamiltonian", "load_hamiltonian", "hamiltonian.load_hamiltonian", None),
)
NAMES = tuple(name for _, _, name, _ in BOUNDARIES)
ESTIMATOR_ENTRIES = tuple(n for n in NAMES if n.startswith("estimator."))
BOUND_EVALS = ("bounds.qdrift_bound", "bounds.qswift_bound", "bounds.trotter_gate_count")
# Bytes one apply call moves, by arithmetic: read the input block and write
# the phased product (16 B per complex amplitude), plus the permuted copy
# when the string flips bits. Cache behaviour is not modelled.
BYTES_PER_AMP = 16


SPAN_DTYPE = np.dtype([
    ("sid", np.int64), ("parent", np.int64), ("name", np.int16), ("t0", np.float64),
    ("t1", np.float64), ("op", np.int32), ("thread", np.int64), ("amount", np.int64),
    ("tag", np.int8),
])


class Tracer:
    """Records spans at every boundary in BOUNDARIES while entered.

    Spans collect as tuples during an op; start_op packs them into a
    compact array, so memory grows by about 50 B per span.
    """

    def __init__(self):
        self.records: list[tuple] = []
        self.op = -1
        self._packed: list[np.ndarray] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._main_ident = threading.main_thread().ident
        self._main_stack: list[int] = []
        self._patches: list[tuple] = []

    def start_op(self, index: int) -> None:
        """Mark the start of op `index`; call it while no worker is running."""
        self._pack()
        self.op = index

    def _pack(self) -> None:
        if self.records:
            self._packed.append(np.array(self.records, dtype=SPAN_DTYPE))
            self.records.clear()

    def _stack(self) -> list:
        try:
            return self._local.stack
        except AttributeError:
            if threading.get_ident() == self._main_ident:
                stack = self._main_stack
            else:
                stack = []
            self._local.stack = stack
            return stack

    def _wrap(self, fn, name_idx: int, amount_fn):
        records = self.records
        ids = self._ids
        clock = time.perf_counter
        get_ident = threading.get_ident
        stack_of = self._stack
        main_stack = self._main_stack
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = stack_of()
            if stack:
                parent = stack[-1]
            elif stack is not main_stack and main_stack:
                parent = main_stack[-1]
            else:
                parent = -1
            sid = next(ids)
            stack.append(sid)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                stack.pop()
                records.append((sid, parent, name_idx, t0, clock(), tracer.op, get_ident(), 0, -1))
                raise
            t1 = clock()
            stack.pop()
            amount, tag = (0, -1) if amount_fn is None else amount_fn(out, *args, **kwargs)
            records.append((sid, parent, name_idx, t0, t1, tracer.op, get_ident(), amount, tag))
            return out

        return wrapper

    def __enter__(self):
        modules = {mod for mod, _, _, _ in BOUNDARIES}
        for mod in sorted(modules):
            importlib.import_module(mod)
        namespaces = [
            m for n, m in list(sys.modules.items()) if n == "hamsim" or n.startswith("hamsim.")
        ]
        for idx, (mod, attr, _, amount_fn) in enumerate(BOUNDARIES):
            owner = sys.modules[mod]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                orig = cls.__dict__[meth]
                setattr(cls, meth, self._wrap(orig, idx, amount_fn))
                self._patches.append((cls, meth, orig))
                continue
            orig = getattr(owner, attr)
            wrapper = self._wrap(orig, idx, amount_fn)
            for ns in namespaces:
                for key, val in list(vars(ns).items()):
                    if val is orig:
                        setattr(ns, key, wrapper)
                        self._patches.append((ns, key, orig))
        return self

    def __exit__(self, *exc):
        while self._patches:
            target, key, orig = self._patches.pop()
            setattr(target, key, orig)
        return False

    def arrays(self) -> dict:
        """Spans as columns sorted by span id (ids are dense from 0)."""
        self._pack()
        packed = np.concatenate(self._packed) if self._packed else np.zeros(0, SPAN_DTYPE)
        self._packed = [packed]
        ordered = packed[np.argsort(packed["sid"], kind="stable")]
        return {col: ordered[col] for col in SPAN_DTYPE.names}

    def save(self, path) -> None:
        np.savez(path, names=np.array(NAMES), methods=np.array(METHODS), **self.arrays())


def _union_length(intervals) -> float:
    """Total length covered by (start, end) intervals sorted by start."""
    total, start, end = 0.0, None, None
    for lo, hi in intervals:
        if end is not None and lo <= end:
            end = max(end, hi)
            continue
        if end is not None:
            total += end - start
        start, end = lo, hi
    return total if end is None else total + (end - start)


def self_times(spans: dict) -> np.ndarray:
    """Span duration minus the part of its interval that child spans cover.

    Children on the parent's own thread never overlap, so their durations
    add; children on worker threads can overlap one another, so for those
    the union of their intervals is taken.
    """
    sid, parent, thread = spans["sid"], spans["parent"], spans["thread"]
    t0, t1 = spans["t0"], spans["t1"]
    if not np.array_equal(sid, np.arange(sid.size)):
        raise ValueError("span ids are not dense")
    dur = t1 - t0
    covered = np.zeros(sid.size)
    has_parent = parent >= 0
    same = np.zeros(sid.size, dtype=bool)
    same[has_parent] = thread[has_parent] == thread[parent[has_parent]]
    covered += np.bincount(parent[same], weights=dur[same], minlength=sid.size)
    cross = np.flatnonzero(has_parent & ~same).tolist()
    cross.sort(key=lambda i: (parent[i], t0[i]))
    for p, group in itertools.groupby(cross, key=lambda i: int(parent[i])):
        covered[p] += _union_length(
            (max(t0[i], t0[p]), min(t1[i], t1[p])) for i in group
        )
    return dur - covered


def method_spans(spans: dict) -> np.ndarray:
    """Estimator entries called by the benchmark or by cli.main directly."""
    name, parent = spans["name"], spans["parent"]
    entry_ids = [NAMES.index(n) for n in ESTIMATOR_ENTRIES]
    is_entry = np.isin(name, entry_ids)
    parent_name = np.where(parent >= 0, name[np.maximum(parent, 0)], -1)
    return is_entry & ((parent < 0) | (parent_name == NAMES.index("cli.main")))


def method_owner(spans: dict, is_method: np.ndarray) -> np.ndarray:
    """METHODS index of the method span each span runs under, or -1."""
    parent, tag = spans["parent"], spans["tag"]
    owner = np.where(is_method, np.arange(parent.size), parent)
    for _ in range(256):
        valid = owner >= 0
        pending = valid.copy()
        pending[valid] = ~is_method[owner[valid]]
        if not pending.any():
            break
        owner[pending] = parent[owner[pending]]
    return np.where(owner >= 0, tag[np.maximum(owner, 0)], -1)


def layer_metrics(spans: dict, n_ops: int, op0_circuits: int) -> tuple[dict, dict]:
    """Per-layer metrics (name -> (value, unit)) and a per-method breakdown.

    The traced ops are numbered 0 .. n_ops-1. Counts and amounts come from
    op 0 alone, whose seed is the run's seed, so they repeat exactly at a
    fixed seed. Times are medians over the traced ops of each op's summed
    self time. Rates divide totals over all traced ops.
    """
    name, op, amount, tag = spans["name"], spans["op"], spans["amount"], spans["tag"]
    self_s = self_times(spans)
    dur = spans["t1"] - spans["t0"]
    n_names = len(NAMES)
    keep = (op >= 0) & (op < n_ops)
    key = op[keep] * n_names + name[keep]
    per_op_self = np.bincount(key, weights=self_s[keep], minlength=n_ops * n_names)
    per_op_self = per_op_self.reshape(n_ops, n_names)
    first = op == 0
    calls0 = np.bincount(name[first], minlength=n_names)
    amount0 = np.bincount(name[first], weights=amount[first], minlength=n_names)

    def idx(n):
        return NAMES.index(n)

    def med_self(n):
        return float(statistics.median(per_op_self[:, idx(n)]))

    metrics: dict = {}
    apply_i = idx("pauli.apply")
    apply_first = first & (name == apply_i)
    flips = tag[apply_first]
    apply_bytes = int((amount[apply_first] * BYTES_PER_AMP * np.where(flips > 0, 3, 2)).sum())
    apply_all = name == apply_i
    apply_self_total = float(self_s[apply_all].sum())
    calls = int(calls0[apply_i])
    amps = int(amount0[apply_i])
    metrics["pauli.apply.calls"] = (calls, "count")
    metrics["pauli.apply.self_s"] = (med_self("pauli.apply"), "s")
    metrics["pauli.apply.amps"] = (amps, "count")
    metrics["pauli.apply.amps_per_call"] = (amps / calls if calls else 0.0, "amps/call")
    metrics["pauli.apply.amps_per_s"] = (
        float(amount[apply_all].sum()) / apply_self_total if apply_self_total > 0 else 0.0,
        "amps/s",
    )
    metrics["pauli.apply.calls_per_circuit"] = (
        calls / op0_circuits if op0_circuits else 0.0, "calls/circuit"
    )
    metrics["pauli.apply.bytes_computed"] = (apply_bytes, "B")

    for n in ESTIMATOR_ENTRIES:
        metrics[f"{n}.self_s"] = (med_self(n), "s")
    is_method = method_spans(spans)
    for m_idx, method in enumerate(METHODS):
        sel = is_method & (tag == m_idx) & keep
        per_op_wall = np.bincount(op[sel], weights=dur[sel], minlength=n_ops)
        wall_total = float(dur[sel].sum())
        metrics[f"estimator.{method}.wall_s"] = (float(statistics.median(per_op_wall)), "s")
        metrics[f"estimator.{method}.circuits_per_s"] = (
            float(amount[sel].sum()) / wall_total if wall_total > 0 else 0.0, "circuits/s"
        )
    for n in ("rng.derived_rng", "compiler.correction_terms",
              "compiler.randomized_trotter_plan", "compiler.trotter_plan",
              "statevector.run_plan", "statevector.apply_pauli_rotation",
              "statevector.expectation", "exact_channels.qswift_channel",
              "exact_channels.mixture", "exact_channels.ideal_channel",
              "bounds.solve_min_n", "bounds.sweep_table"):
        metrics[f"{n}.calls"] = (int(calls0[idx(n)]), "count")
        metrics[f"{n}.self_s"] = (med_self(n), "s")
    metrics["statevector.run_plan.ops"] = (int(amount0[idx("statevector.run_plan")]), "count")
    metrics["bounds.bound_evals"] = (int(sum(calls0[idx(n)] for n in BOUND_EVALS)), "count")
    for n in ("verify.run_core_suite", "verify.run_slopes_suite", "cli.main",
              "hamiltonian.load_hamiltonian"):
        metrics[f"{n}.self_s"] = (med_self(n), "s")

    owner = method_owner(spans, is_method)
    breakdown = {}
    for m_idx, method in enumerate(METHODS):
        sel = (owner == m_idx) & keep
        if not sel.any():
            continue
        per_name = np.bincount(name[sel], weights=self_s[sel], minlength=n_names)
        calls = np.bincount(name[sel & first], minlength=n_names)
        breakdown[method] = {
            NAMES[i]: {"self_s_per_op": float(per_name[i]) / n_ops, "calls_op0": int(calls[i])}
            for i in np.flatnonzero(per_name)
        }
    return metrics, breakdown
