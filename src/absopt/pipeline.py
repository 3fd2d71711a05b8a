"""End-to-end decision procedures gluing reductions, kernel, and enumeration.

Formula inputs are rewritten to a monotone conjunction form, encoded as a
weighted hypergraph, kernelized, and only if no rule certified the answer
handed to exact enumeration.  Witnesses always refer to the caller's original
instance and are re-checked against it before being returned; a witness that
fails its own re-check is a bug, not a "no".
"""

from __future__ import annotations

from .errors import ContractViolationError, InternalGuaranteeError, InvalidInstanceError
from .kernel import MODE_SUBEDGE, STATUS_TRIVIAL_YES, kernelize
from .model import (
    CMP_ATLEAST,
    COMPARISONS,
    KIND_CNF,
    KIND_DNF,
    OBJ_ABS,
    Verdict,
    WeightedFormula,
    WeightedHypergraph,
    _first_hit,
    _target_intervals,
    brute_force_hypergraph,
    eval_formula,
    induced_weight,
)
from .reductions import (
    abs_cnf_to_abs_dnf,
    encode_dnf_as_hypergraph,
    monotonize_abs_dnf,
)


def qualifies(value: int, alpha: int, objective: str, comparison: str) -> bool:
    """Whether a signed value meets the target under objective/comparison.

    The value qualifies when it lies in either interval the engine searches
    for, ``_target_intervals(alpha, objective, comparison)``.
    """
    if comparison not in COMPARISONS:
        raise ContractViolationError(f"unknown comparison {comparison!r}")
    return any(
        (lo is None or value >= lo) and (hi is None or value <= hi)
        for lo, hi in _target_intervals(alpha, objective, comparison)
    )


def verify_witness(instance, witness) -> tuple[bool, int]:
    """Check a claimed witness against its instance.

    Returns (qualifies, achieved value).  Accepts a ``WeightedFormula`` with
    the ids of its true variables, a ``WeightedHypergraph`` with a vertex
    subset, or an ``AbsIoInstance`` with an integer point.  A variable or
    vertex id that is not an int, or is a bool, is rejected.
    """
    if isinstance(instance, WeightedFormula):
        value = eval_formula(instance, witness)
        return (
            qualifies(value, instance.alpha, instance.objective, instance.comparison),
            value,
        )
    if isinstance(instance, WeightedHypergraph):
        witness = tuple(witness)
        for v in witness:
            if not isinstance(v, int) or isinstance(v, bool):
                raise InvalidInstanceError(f"bad vertex id {v!r}")
        value = induced_weight(instance, witness)
        return abs(value) >= instance.alpha, value
    from . import absio

    if isinstance(instance, absio.AbsIoInstance):
        return absio.verify_point(instance, witness)
    raise ContractViolationError(f"cannot verify against {type(instance).__name__}")


def _checked_value(instance, witness) -> int:
    """The value of a witness the solver found; one that fails to qualify is a bug.

    ``verify_witness`` is looked up at call time, so a wrapper installed on
    this module sees every check.
    """
    ok, value = verify_witness(instance, witness)
    if not ok:
        if not isinstance(witness, tuple):  # a set; a point stays in coordinate order
            witness = sorted(witness)
        raise InternalGuaranteeError(
            f"witness {witness} scores {value}, target {instance.alpha}"
        )
    return value


def solve_unbalanced(
    h: WeightedHypergraph,
    mode: str = MODE_SUBEDGE,
    *,
    max_vertices: int | None = None,
) -> Verdict:
    """Decide |w[X]| >= alpha for some vertex subset X.

    Kernelization runs first; when it certifies the answer the extracted
    subset is returned directly.  Otherwise the reduced instance is solved by
    exact enumeration.  Either way the witness is a subset of the original
    vertex set and its value is re-evaluated on the original hypergraph
    (deleted vertices touch no surviving edge and deleted edges weigh zero,
    so the value transfers).
    """
    outcome = kernelize(h, mode)
    transcript = outcome.transcript
    if outcome.status == STATUS_TRIVIAL_YES:
        subset = outcome.witness
    else:
        reduced = outcome.instance
        transcript = transcript + (f"enumerate |V|={reduced.num_vertices}",)
        subset = brute_force_hypergraph(reduced, max_vertices=max_vertices).witness
        if subset is None:
            return Verdict(False, transcript=transcript)
    return Verdict(True, subset, _checked_value(h, subset), transcript)


def _require_abs_atleast(phi: WeightedFormula, expected_kind: str) -> None:
    if phi.kind != expected_kind:
        raise ContractViolationError(f"expected {expected_kind} clauses, got {phi.kind}")
    if phi.objective != OBJ_ABS or phi.comparison != CMP_ATLEAST:
        raise ContractViolationError(
            "the kernel route decides |value| >= alpha only; "
            f"got objective={phi.objective} comparison={phi.comparison}"
        )


def _enumerate_survivors(
    phi: WeightedFormula, reduced: WeightedHypergraph, max_vertices: int | None
) -> frozenset[int] | None:
    """First qualifying set of true variables among the kernel's survivors.

    A deleted vertex is in no surviving edge, so setting it false changes no
    value: the input clauses restricted to the survivors (clauses with a
    deleted plain literal dropped, negated deleted literals dropped) agree
    with the reduced hypergraph at every point, in the same variable order.
    Whichever has fewer clauses is enumerated; both give the same lex-first
    witness.  The cap counts the survivors that occur in those clauses.
    """
    survivors = reduced.vertices
    kept = [(lits, wt) for lits, wt in phi.clauses if all(l < 0 or l in survivors for l in lits)]
    if len(kept) >= len(reduced.edges):
        return brute_force_hypergraph(reduced, max_vertices=max_vertices).witness
    clauses = [([l for l in lits if abs(l) in survivors], wt) for lits, wt in kept]
    targets = _target_intervals(phi.alpha, OBJ_ABS, CMP_ATLEAST)
    hit = _first_hit(clauses, False, targets, max_vertices, "subset")
    return None if hit is None else hit[0]


def solve_abs_dnf(
    phi: WeightedFormula,
    mode: str = MODE_SUBEDGE,
    *,
    max_vertices: int | None = None,
) -> Verdict:
    """Decide |value| >= alpha for a weighted conjunction-clause formula.

    The formula is monotonized (value preserved pointwise), its clause sets
    become hyperedges, and the hypergraph is kernelized.  When no rule
    certifies the answer, the surviving vertices are enumerated exactly.  A
    yes answer carries the set of true variables, re-checked on the input
    formula.
    """
    _require_abs_atleast(phi, KIND_DNF)
    mono, _ = monotonize_abs_dnf(phi)
    transcript = ()
    if mono.clauses != phi.clauses:
        transcript = (f"monotonize clauses={len(mono.clauses)}",)
    h, _ = encode_dnf_as_hypergraph(mono)
    outcome = kernelize(h, mode)
    transcript = transcript + (
        f"encode |V|={h.num_vertices} |E|={len(h.edges)} d={h.d}",
    ) + outcome.transcript
    if outcome.status == STATUS_TRIVIAL_YES:
        subset = outcome.witness
    else:
        reduced = outcome.instance
        transcript = transcript + (f"enumerate |V|={reduced.num_vertices}",)
        subset = _enumerate_survivors(phi, reduced, max_vertices)
        if subset is None:
            return Verdict(False, transcript=transcript)
    return Verdict(True, subset, _checked_value(phi, subset), transcript)


def solve_abs_cnf(
    phi: WeightedFormula,
    mode: str = MODE_SUBEDGE,
    *,
    max_vertices: int | None = None,
) -> Verdict:
    """Decide |value| >= alpha for a weighted disjunction-clause formula."""
    _require_abs_atleast(phi, KIND_CNF)
    as_dnf, _ = abs_cnf_to_abs_dnf(phi)
    verdict = solve_abs_dnf(as_dnf, mode, max_vertices=max_vertices)
    transcript = (f"minterms clauses={len(as_dnf.clauses)}",) + verdict.transcript
    if not verdict.decision:
        return Verdict(False, transcript=transcript)
    return Verdict(True, verdict.witness, _checked_value(phi, verdict.witness), transcript)
