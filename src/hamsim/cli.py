"""Command-line front end.

Subcommands: `analyze` sweeps the analytic bounds into a CSV table,
`simulate` runs one estimation experiment and emits its `EstimateReport`
as JSON, with the same keys for every method, `budget` prints the
sampling-budget planner, and `verify` runs the named self-check suites.
`--observable` is case-insensitive and must match the model width.
`simulate` still exits 0 but prints a `warning:` line on stderr when the
report's 1-sigma interval is wider than [-1, 1], the range of a Pauli
expectation (all-order at large tau, where B^N dwarfs the observable).
Exit codes: 0 success, 1 failed verification, 2 input or parse errors,
3 table rows hit a vacuous/above-cap bound (rows are still written, with
gates=NA), 4 width over the simulator cap.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from functools import cache
from math import inf

import numpy as np

from .bounds import sweep_table
from .errors import HamsimError, WidthOverflow
from .estimator import (
    EstimatorConfig,
    all_order_stats,
    estimate_qswift,
    estimate_trotter,
    plan_budget,
)
from .exact_channels import MAX_ORACLE_QUBITS, ideal_channel, plus_input_expectation
from .hamiltonian import load_hamiltonian

DEFAULT_SEED = 42
DEFAULT_METHODS = "qdrift,qswift2,qswift3"


def _parse_t_grid(spec: str) -> list[float]:
    parts = spec.split(":")
    if len(parts) != 4 or parts[0] != "log":
        raise ValueError(f"t-grid spec must look like log:<a>:<b>:<n>, got {spec!r}")
    a, b, n = float(parts[1]), float(parts[2]), int(parts[3])
    if not (0 < a < inf and 0 < b < inf) or n < 1:
        raise ValueError("t-grid endpoints must be positive and finite, and n >= 1")
    if n == 1:
        return [a]
    return [float(x) for x in np.geomspace(a, b, n)]


def _write_output(text: str, path: str | None) -> None:
    """Write text, ending in one newline, to stdout or to the file at path."""
    if not text.endswith("\n"):
        text += "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _load_model(path: str):
    try:
        return load_hamiltonian(path)
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: cannot read hamiltonian file {path}: {exc}", file=sys.stderr)
        raise SystemExit(2)
    except HamsimError as exc:
        print(f"error: {exc}", file=sys.stderr)
        raise SystemExit(2)


def cmd_analyze(args) -> int:
    if args.hamiltonian:
        model = _load_model(args.hamiltonian)
        lam, lam_max, n_terms = model.lam, model.lam_max, model.n_terms
    elif args.lam is not None and args.lam_max is not None and args.n_terms is not None:
        lam, lam_max, n_terms = args.lam, args.lam_max, args.n_terms
    else:
        print(
            "error: analyze needs --hamiltonian or all of --lambda/--Lambda/--L",
            file=sys.stderr,
        )
        return 2
    try:
        t_grid = _parse_t_grid(args.t_grid) if args.t_grid else [args.t]
        methods = [m.strip() for m in args.methods.split(",") if m.strip()]
        table = sweep_table(
            t_grid, methods, args.epsilon, lam=lam, lam_max=lam_max, n_terms=n_terms
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.format == "json":
        rows = [dataclasses.asdict(row) for row in table.rows]
        _write_output(json.dumps(rows, indent=2), args.out)
    else:
        _write_output(table.to_csv(), args.out)
    return 3 if table.has_gaps else 0


def cmd_simulate(args) -> int:
    model = _load_model(args.hamiltonian)
    try:
        config = EstimatorConfig(
            n_segments=args.segments,
            # qdrift is the order-1 estimate: the baseline without buckets
            order=args.order if args.method == "qswift" else 1,
            n_sample_0=args.samples,
            n_shot_0=args.shots,
            seed=args.seed,
            observable=args.observable,
        )
        axes = config.observable_axes(model)
        if args.method in ("qdrift", "qswift"):
            report = estimate_qswift(model, args.t, config)
        elif args.method in ("trotter", "rtrotter"):
            report = estimate_trotter(
                model, args.t, args.segments, args.order,
                randomized=args.method == "rtrotter", config=config,
            )
        else:
            report = all_order_stats(
                model, args.t, args.segments, args.samples, args.seed, observable_axes=axes
            )
        if model.n_qubits <= MAX_ORACLE_QUBITS:
            report.exact_reference = plus_input_expectation(ideal_channel(model, args.t), axes)
    except WidthOverflow as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (HamsimError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if report.stderr > 1:
        # a Pauli expectation lies in [-1, 1], so a wider 1-sigma interval says nothing
        print(f"warning: stderr {report.stderr:.3g} exceeds the [-1, 1] range of "
              "the observable; the estimate carries no information", file=sys.stderr)
    _write_output(json.dumps(report.to_json_dict(), indent=2), args.out)
    return 0


def cmd_budget(args) -> int:
    model = _load_model(args.hamiltonian)
    try:
        table = plan_budget(model, args.t, args.segments, args.order, args.epsilon)
    except (HamsimError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.format == "json":
        _write_output(json.dumps(table.to_json_dict(), indent=2), args.out)
    elif args.format == "csv":
        lines = ["bucket,k,coeff,n_sample,circuits"]
        for row in table.rows:
            lines.append(f"{row.label},{row.k},{row.coeff!r},{row.n_sample},{row.circuits}")
        lines.append(f"total,,,,{table.n_total}")
        _write_output("\n".join(lines) + "\n", args.out)
    else:
        _write_output(table.to_text() + "\n", args.out)
    return 0


def cmd_verify(args) -> int:
    from .verify import run_core_suite, run_slopes_suite

    results = []
    if args.suite in ("core", "all"):
        results.extend(run_core_suite())
    if args.suite in ("slopes", "all"):
        results.extend(run_slopes_suite())
    failed = [r for r in results if not r.passed]
    for r in results:
        print(f"{'PASS' if r.passed else 'FAIL'} {r.name}: {r.detail}")
    print(f"{len(results) - len(failed)}/{len(results)} checks passed")
    return 1 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hamsim",
        description="Randomized compilation and estimation for Hamiltonian evolution.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser("analyze", help="sweep analytic bounds into a table")
    analyze.add_argument("--hamiltonian", help="Pauli-sum file; or give the triple below")
    analyze.add_argument("--lambda", dest="lam", type=float, help="sum of term strengths")
    analyze.add_argument("--Lambda", dest="lam_max", type=float, help="largest term strength")
    analyze.add_argument("--L", dest="n_terms", type=int, help="number of terms")
    analyze.add_argument("--t", type=float, default=1.0)
    analyze.add_argument("--t-grid", dest="t_grid", help="log:<a>:<b>:<n> inclusive")
    analyze.add_argument("--epsilon", type=float, default=1e-3)
    analyze.add_argument("--methods", default=DEFAULT_METHODS)
    analyze.add_argument("--out")
    analyze.add_argument("--format", choices=("csv", "json"), default="csv")
    analyze.set_defaults(fn=cmd_analyze)

    simulate = sub.add_parser("simulate", help="run one estimation experiment")
    simulate.add_argument("--hamiltonian", required=True)
    simulate.add_argument("--t", type=float, default=1.0)
    simulate.add_argument(
        "--method",
        choices=("qdrift", "qswift", "trotter", "rtrotter", "all-order"),
        default="qswift",
    )
    simulate.add_argument("--order", type=int, default=2, help="correction or formula order")
    simulate.add_argument("--segments", type=int, default=16)
    simulate.add_argument("--samples", type=int, default=100)
    simulate.add_argument("--shots", type=int, default=100)
    simulate.add_argument("--seed", type=int, default=DEFAULT_SEED)
    simulate.add_argument("--observable", help="Pauli axes string, default Z on qubit 0")
    simulate.add_argument("--out")
    simulate.set_defaults(fn=cmd_simulate)

    budget = sub.add_parser("budget", help="sampling-budget planner")
    budget.add_argument("--hamiltonian", required=True)
    budget.add_argument("--t", type=float, default=1.0)
    budget.add_argument("--segments", type=int, required=True)
    budget.add_argument("--order", type=int, required=True)
    budget.add_argument("--epsilon", type=float, required=True)
    budget.add_argument("--out")
    budget.add_argument("--format", choices=("csv", "json", "text"), default="text")
    budget.set_defaults(fn=cmd_budget)

    verify = sub.add_parser("verify", help="run the self-check suites")
    verify.add_argument("--suite", choices=("core", "slopes", "all"), default="core")
    verify.set_defaults(fn=cmd_verify)

    return parser


@cache
def _parser() -> argparse.ArgumentParser:
    """The process's one parser, built on the first call of `main`, not at
    import: `parse_args` fills a new namespace per call and leaves the
    parser as it was, so one serves every call."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
