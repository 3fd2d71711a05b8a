"""Exact optimization with absolute-value objectives and negative weights.

Three interlocking solvers: weighted boolean formulas (conjunctive or
disjunctive clauses, signed integer weights), the induced-weight problem on
integer-weighted hypergraphs with a kernelization engine, and box-constrained
integer polynomial optimization.  All arithmetic is exact.
"""

from .absio import AbsIoInstance, brute_force_absio, eval_poly, solve_absio, verify_point
from .engine import BACKEND
from .errors import (
    BudgetExceededError,
    ContractViolationError,
    InternalGuaranteeError,
    InvalidInstanceError,
    ParseError,
)
from .kernel import KernelOutcome, g, kernelize
from .model import (
    Assignment,
    Verdict,
    WeightedFormula,
    WeightedHypergraph,
    brute_force_formula,
    brute_force_hypergraph,
    degree,
    eval_formula,
    induced_weight,
    link,
    max_degree,
)
from .pipeline import (
    qualifies,
    solve_abs_cnf,
    solve_abs_dnf,
    solve_unbalanced,
    verify_witness,
)
from .reductions import (
    Graph,
    abs_cnf_to_abs_dnf,
    encode_dnf_as_hypergraph,
    expand_conjunctions_to_disjunctions,
    gen_exact_variant,
    gen_is_to_abs_monotone_dnf_np,
    gen_is_to_abs_monotone_dnf_w1,
    gen_is_to_max_monotone_dnf,
    gen_min_variant,
    monotonize_abs_dnf,
)

__version__ = "0.1.0"

__all__ = [
    "AbsIoInstance",
    "Assignment",
    "BACKEND",
    "BudgetExceededError",
    "ContractViolationError",
    "Graph",
    "InternalGuaranteeError",
    "InvalidInstanceError",
    "KernelOutcome",
    "ParseError",
    "Verdict",
    "WeightedFormula",
    "WeightedHypergraph",
    "abs_cnf_to_abs_dnf",
    "brute_force_absio",
    "brute_force_formula",
    "brute_force_hypergraph",
    "degree",
    "encode_dnf_as_hypergraph",
    "eval_formula",
    "eval_poly",
    "expand_conjunctions_to_disjunctions",
    "g",
    "gen_exact_variant",
    "gen_is_to_abs_monotone_dnf_np",
    "gen_is_to_abs_monotone_dnf_w1",
    "gen_is_to_max_monotone_dnf",
    "gen_min_variant",
    "induced_weight",
    "kernelize",
    "link",
    "max_degree",
    "monotonize_abs_dnf",
    "qualifies",
    "solve_abs_cnf",
    "solve_abs_dnf",
    "solve_absio",
    "solve_unbalanced",
    "verify_point",
    "verify_witness",
    "__version__",
]
