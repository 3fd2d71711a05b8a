"""Value-preserving formula transforms and graph-based instance generators.

Every transform preserves the signed value of every assignment exactly, so
decisions and optima carry over unchanged; variables keep their identities.
Each returns its output with a receipt naming the transform and both kinds;
the pair stays because ``perfbench/spans.py`` reads outputs off the tuple.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .errors import BudgetExceededError, ContractViolationError, InvalidInstanceError
from .model import (
    CMP_ATLEAST,
    CMP_ATMOST,
    CMP_EXACT,
    KIND_CNF,
    KIND_DNF,
    OBJ_ABS,
    OBJ_SUM,
    WeightedFormula,
    WeightedHypergraph,
    iter_subsets_lex,
)

DEFAULT_WIDTH_CAP = 10


@dataclass(frozen=True)
class ReductionReceipt:
    """The transform that ran, with the kinds of its input and output."""

    transform: str
    source_kind: str
    target_kind: str


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph; edges are normalized to sorted pairs."""

    num_vertices: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        n = self.num_vertices
        if not isinstance(n, int) or isinstance(n, bool) or n < 0:
            raise InvalidInstanceError(f"bad vertex count {n!r}")
        seen = set()
        normalized = []
        for raw in self.edges:
            u, v = raw
            if u == v:
                raise InvalidInstanceError(f"self-loop at vertex {u}")
            if not (1 <= u <= self.num_vertices and 1 <= v <= self.num_vertices):
                raise InvalidInstanceError(f"edge {raw!r} leaves 1..{self.num_vertices}")
            e = (min(u, v), max(u, v))
            if e in seen:
                raise InvalidInstanceError(f"duplicate edge {e!r}")
            seen.add(e)
            normalized.append(e)
        object.__setattr__(self, "edges", tuple(normalized))


def monotonize_abs_dnf(phi: WeightedFormula) -> tuple[WeightedFormula, ReductionReceipt]:
    """Rewrite a DNF with negated variables into a monotone DNF.

    Each clause expands on its own by inclusion-exclusion: with P its plain
    variables and N its negated ones, ``AND(P) AND NOT(N)`` equals the sum over
    subsets S of N of ``(-1)^|S| AND(P | S)``.  Every assignment keeps its
    exact signed value, and clause width never grows.  Subsets are taken in
    ``iter_subsets_lex`` order and the constructor merges equal literal sets
    in order of first appearance, keeping weights that cancel to zero; that
    fixes the output clause order.  A clause with more than ``DEFAULT_WIDTH_CAP``
    negated literals exceeds the budget, since it expands into 2^|N| clauses.
    """
    if phi.kind != KIND_DNF:
        raise ContractViolationError("monotonization expects a DNF")
    clauses = []
    for lits, wt in phi.clauses:
        negated = [-l for l in lits if l < 0]
        if len(negated) > DEFAULT_WIDTH_CAP:
            raise BudgetExceededError(
                f"{len(negated)} negated literals in one clause exceed cap {DEFAULT_WIDTH_CAP}"
            )
        positive = frozenset(l for l in lits if l > 0)
        for subset in iter_subsets_lex(negated):
            clauses.append((positive | subset, -wt if len(subset) % 2 else wt))
    out = WeightedFormula(
        KIND_DNF, phi.num_vars, clauses, phi.alpha, phi.objective, phi.comparison
    )
    return out, ReductionReceipt("monotonize", KIND_DNF, KIND_DNF)


def encode_dnf_as_hypergraph(
    phi: WeightedFormula,
) -> tuple[WeightedHypergraph, ReductionReceipt]:
    """Monotone DNF to hypergraph: clause variable sets become edges.

    One vertex per variable (including variables in no clause); a clause's
    positive variable set becomes an edge with the clause weight, the empty
    clause becomes the empty edge.  An assignment and its true-variable set
    have identical values, so optima and witnesses transfer verbatim.
    """
    if phi.kind != KIND_DNF or not phi.monotone:
        raise ContractViolationError("hypergraph encoding expects a monotone DNF")
    h = WeightedHypergraph(phi.num_vars, phi.clauses, phi.alpha, phi.width)
    return h, ReductionReceipt("encode-hypergraph", KIND_DNF, "hypergraph")


def abs_cnf_to_abs_dnf(phi: WeightedFormula) -> tuple[WeightedFormula, ReductionReceipt]:
    """CNF to DNF by expanding each disjunction into its satisfying minterms.

    Every assignment satisfies exactly one minterm over a clause's variables,
    and the minterms keeping the clause true are exactly all but one, so
    replacing the clause by those conjunctions (each with the clause weight)
    preserves every assignment's value.  Width is preserved; the clause count
    grows by at most 2^width - 1 per clause, hence the width cap.
    """
    if phi.kind != KIND_CNF:
        raise ContractViolationError("minterm expansion expects a CNF")
    if phi.width > DEFAULT_WIDTH_CAP:
        raise BudgetExceededError(f"clause width {phi.width} exceeds cap {DEFAULT_WIDTH_CAP}")
    clauses = []
    for lits, wt in phi.clauses:
        variables = sorted(abs(l) for l in lits)
        signs = {abs(l): l > 0 for l in lits}
        for values in product((False, True), repeat=len(variables)):
            if not any(v == signs[var] for var, v in zip(variables, values)):
                continue  # the unique falsifying minterm
            minterm = frozenset(var if v else -var for var, v in zip(variables, values))
            clauses.append((minterm, wt))
    out = WeightedFormula(
        KIND_DNF, phi.num_vars, clauses, phi.alpha, phi.objective, phi.comparison
    )
    return out, ReductionReceipt("cnf-to-dnf", KIND_CNF, KIND_DNF)


def expand_conjunctions_to_disjunctions(
    phi: WeightedFormula,
) -> tuple[WeightedFormula, ReductionReceipt]:
    """Monotone DNF to monotone CNF via inclusion-exclusion over clause subsets.

    A conjunction over set S equals the alternating sum over nonempty subsets
    X of S of the disjunction over X, so each clause becomes 2^|S| - 1
    disjunctions with weights (-1)^(|X|+1) times the clause weight.  Requires
    no empty clause (the identity has no empty-subset term).
    """
    if phi.kind != KIND_DNF or not phi.monotone:
        raise ContractViolationError("disjunction expansion expects a monotone DNF")
    if any(not lits for lits, _ in phi.clauses):
        raise ContractViolationError("disjunction expansion rejects the empty clause")
    if phi.width > DEFAULT_WIDTH_CAP:
        raise BudgetExceededError(f"clause width {phi.width} exceeds cap {DEFAULT_WIDTH_CAP}")
    clauses = []
    for lits, wt in phi.clauses:
        for subset in iter_subsets_lex(lits):
            if not subset:
                continue
            sign = 1 if len(subset) % 2 == 1 else -1
            clauses.append((subset, sign * wt))
    out = WeightedFormula(
        KIND_CNF, phi.num_vars, clauses, phi.alpha, phi.objective, phi.comparison
    )
    return out, ReductionReceipt("expand-disjunctions", KIND_DNF, KIND_CNF)


def _check_k(k: int) -> None:
    if not isinstance(k, int) or isinstance(k, bool) or k < 0:
        raise InvalidInstanceError(f"solution size must be a non-negative integer, got {k!r}")


def gen_is_to_max_monotone_dnf(g: Graph, k: int) -> WeightedFormula:
    """Independent set as summed monotone DNF: vertices +1, edges -1.

    Any vertex set reaches signed value >= k iff the graph has an independent
    set of size k (dropping an endpoint of a violated edge never lowers the
    value).  Objective is the plain sum, target k.
    """
    _check_k(k)
    clauses: list[tuple[tuple[int, ...], int]] = []
    clauses += [((v,), 1) for v in range(1, g.num_vertices + 1)]
    clauses += [((u, v), -1) for u, v in g.edges]
    return WeightedFormula(KIND_DNF, g.num_vertices, tuple(clauses), k, OBJ_SUM, CMP_ATLEAST)


def gen_is_to_abs_monotone_dnf_np(g: Graph, k: int) -> WeightedFormula:
    """Independent set under the absolute-value objective, four variables per vertex.

    Each vertex v gets a positive pair (v1+, v2+) and a negative pair
    (v1-, v2-): picking a pair costs -1 or gains +1; each edge contributes +1
    on the positive side and -1 on the negative side.  Either sign of the
    balance reaching k + |E| forces an independent set of size k, and any
    independent set of size k attains it; target is k + |E|.
    """
    _check_k(k)

    def ids(v: int) -> tuple[int, int, int, int]:
        base = 4 * (v - 1)
        return base + 1, base + 2, base + 3, base + 4

    clauses: list[tuple[tuple[int, ...], int]] = []
    for v in range(1, g.num_vertices + 1):
        v1p, v2p, v1m, v2m = ids(v)
        clauses.append(((v1p, v2p), -1))
        clauses.append(((v1m, v2m), 1))
    for u, v in g.edges:
        u1p, _, u1m, _ = ids(u)
        v1p, _, v1m, _ = ids(v)
        clauses.append(((u1p, v1p), 1))
        clauses.append(((u1m, v1m), -1))
    return WeightedFormula(
        KIND_DNF, 4 * g.num_vertices, tuple(clauses), k + len(g.edges), OBJ_ABS, CMP_ATLEAST
    )


def gen_is_to_abs_monotone_dnf_w1(g: Graph, k: int) -> WeightedFormula:
    """Independent set under the absolute-value objective, neighborhood clauses.

    Each vertex v contributes its neighborhood conjunction with weight +1 and
    the same conjunction extended by v itself with weight -1; the two cancel
    unless v is picked without any neighbor.  A degree-0 vertex yields an
    always-true empty clause plus a unit negative clause.  Target k.  Twin
    vertices may produce equal literal sets, which merge by weight sum; the
    merged formula has the same value on every assignment.
    """
    _check_k(k)
    neighbors: list[set[int]] = [set() for _ in range(g.num_vertices + 1)]
    for u, v in g.edges:
        neighbors[u].add(v)
        neighbors[v].add(u)
    clauses: list[tuple[tuple[int, ...], int]] = []
    for v in range(1, g.num_vertices + 1):
        nb = tuple(sorted(neighbors[v]))
        clauses.append((nb, 1))
        clauses.append((tuple(sorted(neighbors[v] | {v})), -1))
    return WeightedFormula(KIND_DNF, g.num_vertices, tuple(clauses), k, OBJ_ABS, CMP_ATLEAST)


def _with_empty_clause(
    phi: WeightedFormula, name: str, comparison: str
) -> tuple[WeightedFormula, ReductionReceipt]:
    if phi.kind != KIND_DNF or not phi.monotone:
        raise ContractViolationError(f"{name} expects a monotone DNF")
    if phi.objective != OBJ_ABS:
        raise ContractViolationError(f"{name} expects the absolute-value objective")
    clauses = phi.clauses + ((frozenset(), -phi.alpha),)
    out = WeightedFormula(KIND_DNF, phi.num_vars, clauses, 0, OBJ_ABS, comparison)
    return out, ReductionReceipt(name, KIND_DNF, KIND_DNF)


def gen_exact_variant(phi: WeightedFormula) -> tuple[WeightedFormula, ReductionReceipt]:
    """Shift by an empty clause of weight -alpha; ask for value exactly 0.

    An assignment hits absolute value exactly alpha in the input iff it hits
    exactly 0 here (the empty clause is satisfied by every assignment).
    """
    return _with_empty_clause(phi, "exact-variant", CMP_EXACT)


def gen_min_variant(phi: WeightedFormula) -> tuple[WeightedFormula, ReductionReceipt]:
    """Shift by an empty clause of weight -alpha; ask for absolute value <= 0."""
    return _with_empty_clause(phi, "min-variant", CMP_ATMOST)
