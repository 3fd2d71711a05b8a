"""Core value types and exact brute-force references.

Two instance families share the same exact-integer evaluation semantics:

* ``WeightedFormula``: a weighted clause set over boolean variables 1..n.
  Clauses are conjunctions (kind ``dnf``) or disjunctions (kind ``cnf``) with
  integer weights of either sign.  An assignment is the set of its true
  variables, as a vertex subset is the set of its members; its value is the
  signed sum of the weights of the satisfied clauses.  The decision compares
  either the signed value or its absolute value against a non-negative target.
* ``WeightedHypergraph``: integer-weighted hyperedges over a vertex set.  A
  vertex subset X induces the weight sum of all edges fully inside X, the
  empty edge included.  The decision asks for |w[X]| >= alpha.

All arithmetic is arbitrary-precision; weights and targets are never clamped.
Brute-force solvers enumerate assignments (subsets) in lexicographic order,
variables ascending with false before true (absent before present), and
return the first qualifying witness.  Subtrees that provably contain no
qualifying assignment may be skipped, which does not change the reported
witness.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import compress, product
from typing import Hashable, Iterable, Iterator

from . import engine
from .errors import BudgetExceededError, InvalidInstanceError

KIND_DNF = "dnf"
KIND_CNF = "cnf"
OBJ_ABS = "abs"
OBJ_SUM = "sum"
CMP_ATLEAST = "atleast"
CMP_EXACT = "exact"
CMP_ATMOST = "atmost"
KINDS = (KIND_DNF, KIND_CNF)
OBJECTIVES = (OBJ_ABS, OBJ_SUM)
COMPARISONS = (CMP_ATLEAST, CMP_EXACT, CMP_ATMOST)

DEFAULT_ENUM_CAP = 24

Clause = frozenset[int]
Weight = int
VertexSet = frozenset[int]


def _normalize_clause(lits: Iterable[int], num_vars: int) -> Clause:
    lit_list = list(lits)
    seen_vars = set()
    for lit in lit_list:
        if not isinstance(lit, int) or isinstance(lit, bool) or lit == 0:
            raise InvalidInstanceError(f"bad literal {lit!r}")
        v = abs(lit)
        if v > num_vars:
            raise InvalidInstanceError(f"literal {lit} exceeds {num_vars} variables")
        if v in seen_vars:
            raise InvalidInstanceError(f"variable {v} appears twice in one clause")
        seen_vars.add(v)
    return frozenset(lit_list)


def _check_weights(items: Iterable[tuple[frozenset, int]]) -> None:
    for _, wt in items:
        if not isinstance(wt, int) or isinstance(wt, bool):
            raise InvalidInstanceError(f"weight {wt!r} is not an integer")


def _merge_weighted(items: Iterable[tuple[Hashable, int]]) -> tuple[tuple[Hashable, int], ...]:
    # Duplicate keys (clause or edge frozensets, absio exponent vectors) merge
    # by weight sum; first occurrence fixes the position.  A merged weight of
    # zero is kept, not dropped.
    weights: dict[Hashable, int] = {}
    for key, wt in items:
        if key in weights:
            weights[key] += wt
        else:
            weights[key] = wt
    return tuple(weights.items())


def _bare(cls, **fields):
    # An instance of a frozen dataclass holding exactly these field values;
    # __init__ and __post_init__ do not run.
    obj = object.__new__(cls)
    obj.__dict__.update(fields)
    return obj


def _check_target(alpha) -> None:
    if not isinstance(alpha, int) or isinstance(alpha, bool) or alpha < 0:
        raise InvalidInstanceError(f"target must be a non-negative integer, got {alpha!r}")


def _check_enums(kind: str, objective: str, comparison: str) -> None:
    if kind not in KINDS:
        raise InvalidInstanceError(f"unknown clause kind {kind!r}")
    if objective not in OBJECTIVES:
        raise InvalidInstanceError(f"unknown objective {objective!r}")
    if comparison not in COMPARISONS:
        raise InvalidInstanceError(f"unknown comparison {comparison!r}")


@dataclass(frozen=True)
class WeightedFormula:
    """Weighted clause set with target alpha, objective, and comparison.

    ``clauses`` accepts any iterable of (literals, weight) pairs; literals are
    signed variable indices (positive plain, negative negated).  Clauses with
    equal literal sets are merged at construction by summing their weights.
    """

    kind: str
    num_vars: int
    clauses: tuple[tuple[Clause, Weight], ...]
    alpha: int
    objective: str = OBJ_ABS
    comparison: str = CMP_ATLEAST

    def __post_init__(self) -> None:
        _check_enums(self.kind, self.objective, self.comparison)
        n = self.num_vars
        if not isinstance(n, int) or isinstance(n, bool) or n < 0:
            raise InvalidInstanceError(f"bad variable count {n!r}")
        _check_target(self.alpha)
        normalized = [
            (_normalize_clause(lits, self.num_vars), wt) for lits, wt in self.clauses
        ]
        _check_weights(normalized)
        object.__setattr__(self, "clauses", _merge_weighted(normalized))

    @classmethod
    def _trusted(cls, kind: str, num_vars: int, clauses, alpha: int,
                 objective: str, comparison: str) -> "WeightedFormula":
        """Build from parts that already pass every check, without checking them.

        ``clauses`` are (frozenset of literals, int weight) pairs; equal
        literal sets merge as in the public constructor.
        """
        return _bare(cls, kind=kind, num_vars=num_vars, clauses=_merge_weighted(clauses),
                     alpha=alpha, objective=objective, comparison=comparison)

    @property
    def monotone(self) -> bool:
        """True when no clause contains a negated variable."""
        return all(lit > 0 for lits, _ in self.clauses for lit in lits)

    @property
    def width(self) -> int:
        """Largest clause size (0 for an empty clause set)."""
        return max((len(lits) for lits, _ in self.clauses), default=0)


@dataclass(frozen=True)
class Verdict:
    """Decision result; a yes carries a witness and its achieved value.

    The witness is a ``frozenset`` of ids for a formula (its true variables)
    or a hypergraph (its vertex subset), and a tuple of integers, one per
    variable, for a polynomial.
    """

    decision: bool
    witness: object = None
    achieved: int | None = None
    transcript: tuple[str, ...] = ()


@dataclass(frozen=True)
class WeightedHypergraph:
    """Integer-weighted hypergraph with explicit vertex identities.

    ``vertices`` may be given as a count n (meaning {1..n}) or as an iterable
    of positive vertex ids; kernelization deletes vertices, so survivors keep
    their original ids.  ``d`` is the declared edge-size bound, at least the
    size of the largest edge (it may be larger); it defaults to the largest
    actual edge size.  Duplicate edges merge by weight sum; the empty edge is
    permitted and is contained in every vertex subset.
    """

    vertices: frozenset[int]
    edges: tuple[tuple[VertexSet, Weight], ...]
    alpha: int
    d: int = field(default=-1)

    def __post_init__(self) -> None:
        verts = self.vertices
        if isinstance(verts, int):
            if isinstance(verts, bool) or verts < 0:
                raise InvalidInstanceError(f"bad vertex count {verts!r}")
            verts = frozenset(range(1, verts + 1))
        else:
            verts = frozenset(verts)
        for v in verts:
            if not isinstance(v, int) or isinstance(v, bool) or v < 1:
                raise InvalidInstanceError(f"bad vertex id {v!r}")
        object.__setattr__(self, "vertices", verts)
        _check_target(self.alpha)
        normalized = []
        for raw, wt in self.edges:
            e = frozenset(raw)
            if not e <= verts:
                raise InvalidInstanceError(f"edge {sorted(e)} leaves the vertex set")
            normalized.append((e, wt))
        _check_weights(normalized)
        merged = _merge_weighted(normalized)
        object.__setattr__(self, "edges", merged)
        max_size = max((len(e) for e, _ in merged), default=0)
        d = self.d
        if d == -1:
            d = max_size
        if not isinstance(d, int) or isinstance(d, bool) or d < max_size:
            raise InvalidInstanceError(f"edge size bound {d!r} below largest edge {max_size}")
        object.__setattr__(self, "d", d)

    @classmethod
    def _trusted(cls, vertices: frozenset[int], edges, alpha: int, d: int) -> "WeightedHypergraph":
        """Build from parts that already pass every check, without checking them.

        ``edges`` are (frozenset inside ``vertices``, int weight) pairs; equal
        edges merge as in the public constructor.  ``d`` is not derived: it
        must be at least the largest edge size.
        """
        return _bare(cls, vertices=vertices, edges=_merge_weighted(edges), alpha=alpha, d=d)

    @property
    def num_vertices(self) -> int:
        return len(self.vertices)


def _true_vars(num_vars: int, true_vars: Iterable[int]) -> frozenset[int]:
    """The ids as a set; an id that is not an int or lies outside 1..num_vars is rejected."""
    ids = tuple(true_vars)
    for v in ids:
        if not isinstance(v, int) or isinstance(v, bool):
            raise InvalidInstanceError(f"bad variable id {v!r}")
    trues = frozenset(ids)
    bad = [v for v in trues if v < 1 or v > num_vars]
    if bad:
        raise InvalidInstanceError(f"variable {bad[0]} out of range 1..{num_vars}")
    return trues


def eval_formula(phi: WeightedFormula, true_vars: Iterable[int]) -> int:
    """Signed weight sum of the clauses satisfied when exactly ``true_vars`` hold."""
    trues = _true_vars(phi.num_vars, true_vars)
    dnf = phi.kind == KIND_DNF
    total = 0
    for lits, wt in phi.clauses:
        holds = (l in trues if l > 0 else -l not in trues for l in lits)
        if all(holds) if dnf else any(holds):
            total += wt
    return total


def induced_weight(h: WeightedHypergraph, x: Iterable[int]) -> int:
    """Weight sum of all edges contained in X (the empty edge always is)."""
    xs = frozenset(x)
    if not xs <= h.vertices:
        bad = next(iter(xs - h.vertices))
        raise InvalidInstanceError(f"subset contains unknown vertex {bad!r}")
    return sum(wt for e, wt in h.edges if e <= xs)


def link(h: WeightedHypergraph, c: Iterable[int]) -> tuple[VertexSet, ...]:
    """Edges strictly containing c, in the hypergraph's edge order."""
    cs = frozenset(c)
    return tuple(e for e, _ in h.edges if cs < e)


def max_degree(h: WeightedHypergraph) -> int:
    """Largest vertex degree; 0 when there are no vertices or no incidences."""
    counts: dict[int, int] = {}
    for e, _ in h.edges:
        for v in e:
            counts[v] = counts.get(v, 0) + 1
    return max(counts.values(), default=0)


def _target_intervals(alpha: int, objective: str, comparison: str):
    """The pair of closed value intervals that meet the target; None is an open end.

    A value qualifies when it lies in either one; a signed objective gives
    the same interval twice.
    """
    if comparison == CMP_ATMOST:
        one = (-alpha if objective == OBJ_ABS else None, alpha)
        return one, one
    if comparison == CMP_EXACT:
        one, mirror = (alpha, alpha), (-alpha, -alpha)
    else:
        one, mirror = (alpha, None), (None, -alpha)
    return one, mirror if objective == OBJ_ABS else one


def _check_cap(size: int, cap: int | None, what: str) -> None:
    limit = DEFAULT_ENUM_CAP if cap is None else cap
    if size > limit:
        raise BudgetExceededError(f"{what} enumeration over {size} exceeds cap {limit}")


def _rows(clauses, cnf: bool = False) -> tuple[list[int], list[tuple[int, int, int]]]:
    """The ids that occur in some clause, ascending, and the clauses as DNF rows over them.

    A clause is (signed ids, weight); an edge is a clause of plain ids.  Id
    ``order[i]`` is bit i of a row's (pos, neg) masks.  A disjunction of
    weight w holds unless all its literals fail, so it is the constant w plus
    the conjunction of its complemented literals at weight -w: ``(P, N, w)``
    becomes ``(N, P, -w)``, and the constants go into one literal-free row.
    An id in no clause changes no value; both cores try false before true,
    so the first witness has it false anyway, and leaving it out spares the
    core its two identical subtrees.
    """
    order = sorted({abs(l) for lits, _ in clauses for l in lits})
    bit = {v: 1 << i for i, v in enumerate(order)}
    rows = []
    for lits, wt in clauses:
        pos = neg = 0
        for l in lits:
            if l > 0:
                pos |= bit[l]
            else:
                neg |= bit[-l]
        rows.append((neg, pos, -wt) if cnf else (pos, neg, wt))
    if cnf:
        rows.append((0, 0, sum(wt for _, wt in clauses)))
    return order, rows


def _subset(mask: int, order: list[int]) -> frozenset[int]:
    return frozenset(v for i, v in enumerate(order) if mask >> i & 1)


def _first_hit(clauses, cnf: bool, targets) -> tuple[frozenset[int], int] | None:
    """The first set of true ids whose value lies in a target interval, and that value."""
    order, rows = _rows(clauses, cnf)
    found, mask, value = engine.decide(len(order), rows, targets)
    return (_subset(mask, order), value) if found else None


def brute_force_formula(phi: WeightedFormula, *, max_vars: int | None = None) -> Verdict:
    """Exact decision by lexicographic enumeration of all assignments.

    Returns the set of true variables of the first qualifying assignment in
    lexicographic order (variables ascending, false before true) together
    with its signed value.
    """
    _check_cap(phi.num_vars, max_vars, "assignment")
    targets = _target_intervals(phi.alpha, phi.objective, phi.comparison)
    hit = _first_hit(phi.clauses, phi.kind == KIND_CNF, targets)
    if hit is None:
        return Verdict(False)
    return Verdict(True, *hit)


def brute_force_hypergraph(h: WeightedHypergraph, *, max_vertices: int | None = None) -> Verdict:
    """Exact decision of |w[X]| >= alpha by subset enumeration.

    Subsets are enumerated in lexicographic order of the membership vector
    over ascending vertex ids, absent before present; the first X with
    |w[X]| >= alpha is the witness.  An edge inside X behaves exactly like a
    monotone conjunction over its vertices, so the formula engine is reused.
    """
    _check_cap(h.num_vertices, max_vertices, "subset")
    hit = _first_hit(h.edges, False, _target_intervals(h.alpha, OBJ_ABS, CMP_ATLEAST))
    if hit is None:
        return Verdict(False)
    return Verdict(True, *hit)


def iter_subsets_lex(vertices: Iterable[int]) -> Iterator[VertexSet]:
    """Subsets of a vertex set in lexicographic membership-vector order.

    The membership vectors, smallest vertex first, run in ``product`` order,
    which is the binary count from the empty set to the full one.
    """
    order = sorted(set(vertices))
    for bits in product((0, 1), repeat=len(order)):
        yield frozenset(compress(order, bits))
