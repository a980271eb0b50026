"""Randomized compilation and desk-scale simulation of Hamiltonian evolution.

The package compiles time evolution under a Pauli-sum Hamiltonian into
randomized gate plans (importance-sampled product formulas, their
higher-order corrected variants, and deterministic product formulas),
estimates observables by seeded Monte Carlo over those plans, and checks
everything against a dense superoperator oracle at small widths. An
analytic-bounds engine inverts the systematic-error bounds into minimal
segment and gate counts.

The package root exports the names that the command line, the `verify`
self-checks, the benchmark and the README's library example call, and the
`HamsimError` family. Everything else, the draws and op codes included, is
imported from its module (`hamsim.compiler`, `hamsim.statevector`, ...).
"""

from .bounds import qdrift_bound, qswift_bound, solve_min_n, sweep_table
from .compiler import all_order_b, correction_terms, plan_from_text, plan_to_text
from .errors import (
    AllOrderOverflow,
    BudgetOverflow,
    CoefficientOverflow,
    CombinatorialCap,
    DimensionCap,
    EmptyModel,
    HamsimError,
    InconsistentWidth,
    MalformedLine,
    NoSolutionBelowCap,
    OrderExceedsSegments,
    VacuousRegion,
    WidthOverflow,
)
from .estimator import (
    EstimatorConfig,
    all_order_segments,
    all_order_stats,
    estimate_qdrift,
    estimate_qswift,
    estimate_trotter,
    eval_correction_exact,
    exact_qdrift_value,
    plan_budget,
)
from .exact_channels import (
    ideal_channel,
    mixture,
    qdrift_channel,
    qswift_channel,
    random_pure_density,
    script_l_n,
    term_unitary,
)
from .hamiltonian import (
    HamiltonianModel,
    PauliTerm,
    load_hamiltonian,
    parse_hamiltonian,
    tau,
    to_text,
)
from .statevector import run_plan

__version__ = "0.1.0"

__all__ = [
    # the HamsimError family
    "AllOrderOverflow",
    "BudgetOverflow",
    "CoefficientOverflow",
    "CombinatorialCap",
    "DimensionCap",
    "EmptyModel",
    "HamsimError",
    "InconsistentWidth",
    "MalformedLine",
    "NoSolutionBelowCap",
    "OrderExceedsSegments",
    "VacuousRegion",
    "WidthOverflow",
    # models, estimators, oracles and bounds
    "EstimatorConfig",
    "HamiltonianModel",
    "PauliTerm",
    "all_order_b",
    "all_order_segments",
    "all_order_stats",
    "correction_terms",
    "estimate_qdrift",
    "estimate_qswift",
    "estimate_trotter",
    "eval_correction_exact",
    "exact_qdrift_value",
    "ideal_channel",
    "load_hamiltonian",
    "mixture",
    "parse_hamiltonian",
    "plan_budget",
    "plan_from_text",
    "plan_to_text",
    "qdrift_bound",
    "qdrift_channel",
    "qswift_bound",
    "qswift_channel",
    "random_pure_density",
    "run_plan",
    "script_l_n",
    "solve_min_n",
    "sweep_table",
    "tau",
    "term_unitary",
    "to_text",
]
