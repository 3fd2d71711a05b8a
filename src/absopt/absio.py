"""Decide |p(x)| >= alpha for an integer polynomial over an integer box.

The polynomial is a list of terms, one (exponent vector, weight) pair per
monomial, p(x) = sum_j w_j * prod_i x_i^{a_ji}, with 0^0 = 1.  Each variable
ranges over an integer interval whose ends may be infinite.  The solver first
applies value-preserving simplification and normalization rules, then tries a
hypergraph shortcut on the monomial supports, then branches on a variable with
a wide enough range, and finally enumerates the remaining finite box exactly.
Normalization shifts (x_i = y + t) keep values but multiply the terms, so
when the solve ends in a leaf, rule 6 moves the box only: the leaf scans the
polynomial as it stood before the shifts, on its own box, unless that form
needs a wider integer type than the shifted one might.  Shifts keep
lexicographic order, so the first hit is the same point, and it needs no
shift undone.  The shifted terms are built for a branch, a support shortcut
that could fire on them, or a leaf that needs them.
A leaf merges its terms once and walks its box as a tree of sub-boxes in
lexicographic order, scanning each sub-box of at most ``SCAN_POINTS`` points
in one numpy grid, so memory follows the scan, not the box.  The solver's
leaf skips each sub-box, the whole box included, whose exact interval bound
on |p| is below alpha; ``solve --oracle`` skips none and scans every point.
The solver's scan unit is 1/64 of ``SCAN_POINTS`` in Python ints, which cost
some 15-20 times more a point than int64, so a box of Python ints is bounded
and split down to small sub-boxes.  A sub-box is scanned in int64 when no sum
of term magnitudes over it can reach ``I64_SAFE``, and in Python ints
otherwise.  One evaluator works straight from the terms, grouped by exponent
one variable at a time.  numpy is imported on the first leaf call, not with
this module, so the formula and hypergraph solvers never load it.

Witnesses are returned in the coordinates of the caller's instance; every
internal substitution is logged and replayed backwards before returning.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from operator import itemgetter
from typing import TYPE_CHECKING

from .engine import I64_SAFE
from .errors import (
    BudgetExceededError,
    ContractViolationError,
    InternalGuaranteeError,
    InvalidInstanceError,
)
from .kernel import MODE_EDGECOUNT, STATUS_TRIVIAL_YES, _links_below_g, kernelize
from .model import Verdict, WeightedHypergraph, _bare, _check_target, _merge_weighted
from .pipeline import _checked_value

if TYPE_CHECKING:
    import numpy as np

DEFAULT_POINT_CAP = 2_000_000

# Points per scan of the leaf: the leaf walks its box as sub-boxes of at
# most SCAN_POINTS points, each scanned in one grid, so memory follows this
# constant and not the box, and a hit ends the walk early.  The pruning walk
# scans at most SCAN_POINTS >> 6 points at a time in Python ints: a scan of
# Python ints costs about 110 ns a point against 7 ns in int64 (numpy 2.4,
# 2-core x86-64), and bounding a sub-box costs microseconds, so there the walk
# bounds and splits far down.  The oracle bounds nothing, so it keeps the
# full unit.
SCAN_POINTS = 1 << 16

Bound = int | None
Term = tuple[tuple[int, ...], int]
Factors = tuple[tuple[int, int], ...]  # a term's (axis, exponent) pairs, exponents >= 1


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


@dataclass(frozen=True)
class AbsIoInstance:
    """Integer polynomial with box constraints and target alpha.

    ``terms`` holds one (exponent vector, weight) pair per monomial, in file
    order, and ``vector[i]`` is the exponent of variable i; terms with equal
    vectors are not merged here.  ``lower``/``upper`` give per-variable
    interval ends, ``None`` meaning unbounded on that side.  An interval with
    lower > upper is permitted and denotes an empty domain.  ``var_ids``
    names the variables; simplification removes variables, and survivors keep
    their ids, so witnesses can be reported in the original coordinates.
    """

    terms: tuple[Term, ...]
    lower: tuple[Bound, ...]
    upper: tuple[Bound, ...]
    alpha: int
    var_ids: tuple[int, ...] = field(default=())

    def __post_init__(self) -> None:
        object.__setattr__(self, "lower", tuple(self.lower))
        object.__setattr__(self, "upper", tuple(self.upper))
        n = len(self.lower)
        if len(self.upper) != n:
            raise InvalidInstanceError(
                f"{n} lower bounds but {len(self.upper)} upper bounds"
            )
        terms = tuple([(tuple(vec), w) for vec, w in self.terms])
        object.__setattr__(self, "terms", terms)
        for vec, _ in terms:
            if len(vec) != n:
                raise InvalidInstanceError(f"exponent vector of length {len(vec)}, expected {n}")
        for _, w in terms:
            if not _is_int(w):
                raise InvalidInstanceError(f"weight {w!r} is not an integer")
        for vec, _ in terms:
            for a in vec:
                if not _is_int(a) or a < 0:
                    raise InvalidInstanceError(f"bad exponent {a!r}")
        for b in self.lower + self.upper:
            if b is not None and not _is_int(b):
                raise InvalidInstanceError(f"bad bound {b!r}")
        _check_target(self.alpha)
        ids = self.var_ids
        if ids == ():
            ids = tuple(range(1, n + 1))
        else:
            ids = tuple(ids)
        if len(ids) != n or len(set(ids)) != n or any(
            not _is_int(g) or g < 1 for g in ids
        ):
            raise InvalidInstanceError(f"bad variable ids {ids!r}")
        object.__setattr__(self, "var_ids", ids)

    @classmethod
    def _trusted(cls, terms: tuple[Term, ...], lower: tuple[Bound, ...],
                 upper: tuple[Bound, ...], alpha: int, var_ids: tuple[int, ...]) -> "AbsIoInstance":
        """Build from tuples that already pass every check, without checking them."""
        return _bare(cls, terms=terms, lower=lower, upper=upper, alpha=alpha, var_ids=var_ids)

    @property
    def num_vars(self) -> int:
        return len(self.lower)

    @property
    def num_terms(self) -> int:
        return len(self.terms)


def _box_has(lo: Bound, hi: Bound, v: int) -> bool:
    return (lo is None or v >= lo) and (hi is None or v <= hi)


def _box_empty(lo: Bound, hi: Bound) -> bool:
    return lo is not None and hi is not None and lo > hi


def _box_pick(lo: Bound, hi: Bound) -> int:
    # Canonical in-box value: 0 when allowed, else the finite end.
    if _box_has(lo, hi, 0):
        return 0
    if lo is not None:
        return lo
    return hi  # lo is None here, so hi must be the binding side


def eval_poly(inst: AbsIoInstance, point) -> int:
    """Exact integer value of the polynomial at a point (0^0 = 1)."""
    pt = tuple(point)
    if len(pt) != inst.num_vars:
        raise InvalidInstanceError(
            f"point over {len(pt)} variables, instance has {inst.num_vars}"
        )
    total = 0
    for vec, w in inst.terms:
        for x, a in zip(pt, vec):
            if a:
                w *= x**a
        total += w
    return total


def verify_point(inst: AbsIoInstance, point) -> tuple[bool, int]:
    """Check a claimed witness: in the box and |value| >= alpha."""
    pt = tuple(point)
    value = eval_poly(inst, pt)
    in_box = all(
        _is_int(x) and _box_has(lo, hi, x)
        for x, lo, hi in zip(pt, inst.lower, inst.upper)
    )
    return in_box and abs(value) >= inst.alpha, value


# --- simplification -------------------------------------------------------

LogEntry = tuple  # ("fix", id, v) | ("shift", id, t) | ("negate", id)


@dataclass(frozen=True)
class SimplifyOutcome:
    instance: AbsIoInstance
    log: tuple[LogEntry, ...]
    transcript: tuple[str, ...]
    empty_var: int | None = None


def rule5_simplify(inst: AbsIoInstance) -> SimplifyOutcome:
    """Apply the basic cleanup rules to a fixpoint.

    Zero-weight monomials are dropped; a variable in no monomial is fixed to
    a canonical in-box value and removed; an empty domain certifies the
    answer no; a one-point domain substitutes its value into the weights;
    monomials with equal exponent vectors merge.  All steps preserve the set
    of achievable values, and removals are logged for witness replay.
    """
    terms = list(inst.terms)
    lower, upper, ids = inst.lower, inst.upper, inst.var_ids
    log: list[LogEntry] = []
    lines: list[str] = []

    def drop(gone: list[int]) -> None:
        # Remove the variables at the positions in gone.
        nonlocal terms, lower, upper, ids
        skip = set(gone)
        keep = [i for i in range(len(lower)) if i not in skip]
        pick = lambda seq: tuple(map(seq.__getitem__, keep))
        terms = [(pick(vec), w) for vec, w in terms]
        lower, upper, ids = pick(lower), pick(upper), pick(ids)

    changed = True
    while changed:
        changed = False
        # zero-weight monomials
        nonzero = [t for t in terms if t[1] != 0]
        if len(nonzero) < len(terms):
            lines.append(f"rule5 zerocols={len(terms) - len(nonzero)}")
            terms = nonzero
            changed = True
        # unused variables (guarded: an empty domain must survive to be seen)
        vecs = [vec for vec, _ in terms]
        gone = [
            i for i in range(len(lower))
            if not any(map(itemgetter(i), vecs)) and not _box_empty(lower[i], upper[i])
        ]
        for i in gone:
            v = _box_pick(lower[i], upper[i])
            log.append(("fix", ids[i], v))
            lines.append(f"rule5 unused x{ids[i]}={v}")
        if gone:
            drop(gone)
            changed = True
        # empty domain
        for i in range(len(lower)):
            if _box_empty(lower[i], upper[i]):
                lines.append(f"rule5 empty x{ids[i]}")
                out = AbsIoInstance._trusted(tuple(terms), lower, upper, inst.alpha, ids)
                return SimplifyOutcome(out, tuple(log), tuple(lines), ids[i])
        # one-point domains
        gone = [i for i in range(len(lower)) if lower[i] is not None and lower[i] == upper[i]]
        for i in gone:
            log.append(("fix", ids[i], lower[i]))
            lines.append(f"rule5 fix x{ids[i]}={lower[i]}")
        if gone:
            terms = [
                (vec, w * math.prod(lower[i] ** vec[i] for i in gone)) for vec, w in terms
            ]
            drop(gone)
            changed = True
        # equal exponent vectors
        merged = _merge_weighted(terms)
        if len(merged) < len(terms):
            lines.append(f"rule5 merged={len(terms) - len(merged)}")
            terms = list(merged)
            changed = True
    out = AbsIoInstance._trusted(tuple(terms), lower, upper, inst.alpha, ids)
    return SimplifyOutcome(out, tuple(log), tuple(lines))


# --- normalization --------------------------------------------------------


def shift_variable(inst: AbsIoInstance, i: int, t: int) -> tuple[AbsIoInstance, LogEntry]:
    """Substitute x_i = y + t, so y ranges over the interval moved by -t.

    Each monomial with exponent c in x_i expands binomially into monomials
    with exponents c, c-1, ..., 0 and weights C(c,k) * t^k * w; equal
    exponent vectors merge immediately.  Returns the rewritten instance and
    the log entry that undoes the substitution on a witness.
    """
    if not 0 <= i < inst.num_vars:
        raise InvalidInstanceError(f"no variable at index {i}")
    merged: dict[tuple[int, ...], int] = {}
    # exponent c -> (C(c,k) * t^k, (c - k,)) for k = 0..c
    rows: dict[int, list[tuple[int, tuple[int]]]] = {}
    for vec, w in inst.terms:
        c = vec[i]
        row = rows.get(c)
        if row is None:
            row = rows[c] = [(math.comb(c, k) * t**k, (c - k,)) for k in range(c + 1)]
        head, tail = vec[:i], vec[i + 1:]
        for b, e in row:
            key = head + e + tail
            merged[key] = merged.get(key, 0) + b * w
    lower = list(inst.lower)
    upper = list(inst.upper)
    lower[i] = None if lower[i] is None else lower[i] - t
    upper[i] = None if upper[i] is None else upper[i] - t
    out = AbsIoInstance._trusted(
        tuple(merged.items()), tuple(lower), tuple(upper), inst.alpha, inst.var_ids
    )
    return out, ("shift", inst.var_ids[i], t)


def negate_variable(inst: AbsIoInstance, i: int) -> tuple[AbsIoInstance, LogEntry]:
    """Substitute x_i = -y: odd-exponent weights flip, the interval mirrors."""
    if not 0 <= i < inst.num_vars:
        raise InvalidInstanceError(f"no variable at index {i}")
    terms = tuple([(vec, -w if vec[i] % 2 else w) for vec, w in inst.terms])
    lower = list(inst.lower)
    upper = list(inst.upper)
    lo, hi = lower[i], upper[i]
    lower[i] = None if hi is None else -hi
    upper[i] = None if lo is None else -lo
    out = AbsIoInstance._trusted(terms, tuple(lower), tuple(upper), inst.alpha, inst.var_ids)
    return out, ("negate", inst.var_ids[i])


def rule6_shift(inst: AbsIoInstance) -> tuple[AbsIoInstance, tuple[LogEntry, ...], tuple[str, ...]]:
    """Normalize every interval to contain both 0 and 1.

    An interval missing 0 or 1 with a finite lower end shifts so it starts
    at 0; one unbounded below but capped at or below 0 is mirrored first.
    The loop runs to a fixpoint, after which setting a variable to 0 or 1 is
    always inside the box.
    """
    cur = inst
    log: list[LogEntry] = []
    lines: list[str] = []
    changed = True
    while changed:
        changed = False
        for i in range(cur.num_vars):
            lo, hi = cur.lower[i], cur.upper[i]
            if _box_empty(lo, hi):
                continue
            if lo is not None and lo == hi:
                continue  # one-point domain: substitution territory, not shifting
            if _box_has(lo, hi, 0) and _box_has(lo, hi, 1):
                continue
            if lo is not None:
                cur, entry = shift_variable(cur, i, lo)
                log.append(entry)
                lines.append(f"rule6 shift x{entry[1]} t={entry[2]}")
                changed = True
            elif hi is not None and hi <= 0:
                cur, entry = negate_variable(cur, i)
                log.append(entry)
                lines.append(f"rule6 negate x{entry[1]}")
                changed = True
    return cur, tuple(log), tuple(lines)


# --- exact enumeration ----------------------------------------------------


def _grid(terms: list[Term], order: tuple[int, ...], powers: list[dict[int, np.ndarray]],
          dtype) -> np.ndarray:
    # Values of the terms' sum on the grid: grouped by their exponent e of
    # variable i = order[0], each group evaluated on order[1:] times
    # powers[i][e], x_i^e shaped to axis i; with order empty, the sum of the
    # weights.  Two exponent vectors differ only on variables in order.  The
    # result keeps size 1 on every axis the terms do not use (no axis at all
    # when they are constant).
    if not order:
        import numpy as np

        return np.asarray(sum(w for _, w in terms), dtype=dtype)
    i, rest = order[0], order[1:]
    groups: dict[int, list[Term]] = {}
    for term in terms:
        groups.setdefault(term[0][i], []).append(term)
    total = None
    for e in sorted(groups):
        part = _grid(groups[e], rest, powers, dtype)
        if e:
            part = part * powers[i][e]
        total = part if total is None else total + part
    return total


def _leaf_dtype(terms: list[Term], lower: tuple[int, ...], upper: tuple[int, ...],
                alpha: int) -> type:
    # np.int64 when ``_grid_leaf`` on the finite box cannot overflow it, else
    # object (Python ints).  Every value the leaf forms, a power of an axis
    # included, is at most a sum of merged terms |c| * prod |x_i|^a with
    # |c| >= 1, so at most bound: int64 is exact below I64_SAFE.  The bound of
    # a sub-box is at most its box's, so a sub-box of an int64 box is int64,
    # while a sub-box of an object box may be either.
    import numpy as np

    top = [max(abs(lo), abs(hi), 1) for lo, hi in zip(lower, upper)]
    bound = sum(abs(w) * math.prod(map(pow, top, vec)) for vec, w in terms)
    return np.int64 if bound < I64_SAFE and alpha < I64_SAFE else object


def _grid_leaf(terms: list[Term], lower: tuple[int, ...], upper: tuple[int, ...],
               alpha: int, dtype) -> tuple[int, ...] | None:
    """First point of the finite box in lexicographic order with |p| >= alpha.

    ``terms`` is not empty.  The box, of at most one scan unit, is evaluated
    in one ``_grid`` call, variable n first, from the powers of each axis
    that the terms use, axis i shaped (1, .., side_i, .., 1).  Its values
    are tested by their max and min before a hit mask is built; in the
    mask, the C-ordered argmax is the lexicographically first hit, also
    across axes of size 1.  ``dtype`` is ``np.int64`` or ``object`` (Python
    ints), as ``_leaf_dtype`` picks it.
    """
    import numpy as np

    n = len(lower)
    powers = []
    for i in range(n):
        # an axis only where p uses it, as unused ends may lie past int64
        used = {key[i] for key, _ in terms if key[i]}
        axis = np.arange(lower[i], upper[i] + 1, dtype=dtype) if used else None
        shape = (1,) * i + (-1,) + (1,) * (n - 1 - i)
        powers.append({a: axis.reshape(shape) ** a for a in used})
    total = _grid(terms, tuple(range(n - 1, -1, -1)), powers, dtype)
    if total.max() >= alpha or total.min() <= -alpha:
        hits = np.abs(total) >= alpha  # a bool when p is constant
        shape = np.shape(hits)
        coords = (0,) * (n - len(shape)) + np.unravel_index(int(np.argmax(hits)), shape)
        return tuple(lo + int(c) for lo, c in zip(lower, coords))
    return None


def _abs_bound(terms: list[tuple[int, Factors]], lower: tuple[int, ...],
               upper: tuple[int, ...]) -> int:
    # max(-low, high) for the interval [low, high] that holds p on the finite
    # box: the sum over the terms (weight, factors) of each term's exact range,
    # in which an even power of an axis across 0 ranges over [0, max].  So it
    # is at least max |p| on the box, and |p(x)| on a one-point box.  The
    # monomial's range [lo, hi] is formed first, a plain product while both
    # ranges are non-negative, and the weight scales it last.
    low = high = 0
    for w, factors in terms:
        lo = hi = 1
        for i, a in factors:
            l, h = lower[i] ** a, upper[i] ** a
            if not a & 1 and lower[i] < 0:
                l, h = (h, l) if upper[i] <= 0 else (0, max(l, h))
            if lo >= 0 and l >= 0:
                lo, hi = lo * l, hi * h
            else:
                ends = (lo * l, lo * h, hi * l, hi * h)
                lo, hi = min(ends), max(ends)
        if w > 0:
            low += w * lo
            high += w * hi
        else:
            low += w * hi
            high += w * lo
    return max(-low, high)


def _walk_leaf(inst: AbsIoInstance, dtype, prune: bool) -> tuple[int, ...] | None:
    """First point of the finite box in lexicographic order with |p| >= alpha.

    The terms are merged once, zero sums dropped (the constant 0 when none
    is left).  The box is walked as a tree of sub-boxes: a sub-box is split
    by halving its first axis of side above 1, lower half first, so each
    sub-box is a run of consecutive points in lexicographic order.  A
    sub-box of at most a scan unit of points is scanned by ``_grid_leaf``,
    so the first hit found is the box's first, and memory follows the unit,
    not the box.  The unit is ``SCAN_POINTS``.  With ``prune``, every
    sub-box, the whole box included, whose ``_abs_bound`` is below alpha is
    skipped, and when ``dtype`` is object the unit is ``SCAN_POINTS >> 6``
    (at least 1), since there a point costs far more to scan than to bound;
    without ``prune`` every point is scanned.  An int64 walk scans in int64
    throughout; an object walk scans each sub-box in ``_leaf_dtype`` of that
    sub-box, int64 wherever its own bound fits, which is exact, so the first
    hit is unchanged.  The walk keeps its pending upper halves on a stack,
    not on the call stack; along any path axis i is split at most
    ceil(log2 side_i) times, so the depth is below the bits of the point
    count plus the number of axes.
    """
    terms = [(key, c) for key, c in _merge_weighted(inst.terms) if c] or [((0,) * inst.num_vars, 0)]
    factors = [(c, tuple([(i, a) for i, a in enumerate(key) if a])) for key, c in terms]
    unit = max(1, SCAN_POINTS >> 6) if prune and dtype is object else SCAN_POINTS
    stack = [(inst.lower, inst.upper)]
    while stack:
        lower, upper = stack.pop()
        if prune and _abs_bound(factors, lower, upper) < inst.alpha:
            continue
        if math.prod(hi - lo + 1 for lo, hi in zip(lower, upper)) <= unit:
            scan = _leaf_dtype(terms, lower, upper, inst.alpha) if dtype is object else dtype
            point = _grid_leaf(terms, lower, upper, inst.alpha, scan)
            if point is not None:
                return point
            continue
        k = next(i for i, (lo, hi) in enumerate(zip(lower, upper)) if hi > lo)
        mid = (lower[k] + upper[k]) // 2
        stack.append((lower[:k] + (mid + 1,) + lower[k + 1:], upper))
        stack.append((lower, upper[:k] + (mid,) + upper[k + 1:]))
    return None


def brute_force_absio(
    inst: AbsIoInstance, *, max_points: int | None = None, prune: bool = False
) -> Verdict:
    """Exact decision over a fully finite box by lattice enumeration.

    Points are enumerated in lexicographic order, variable 1 outermost and
    values ascending; the first point with |p| >= alpha is the witness.
    The box's point count, one for a box with no variables, may not exceed
    ``max_points``, however many points are scanned.  A box with at least
    one variable is walked by ``_walk_leaf``, which imports numpy on its
    first call and scans the box in sub-boxes of at most a scan unit: every
    point by default, as ``solve --oracle`` does, and with ``prune``, as
    ``solve_absio``'s leaves do, skipping sub-boxes whose interval bound on
    |p| is below alpha, which returns the same point.
    """
    n = inst.num_vars
    for i in range(n):
        if inst.lower[i] is None or inst.upper[i] is None:
            raise ContractViolationError(
                f"variable x{inst.var_ids[i]} is unbounded; enumeration needs a finite box"
            )
        if _box_empty(inst.lower[i], inst.upper[i]):
            return Verdict(False, transcript=(f"empty x{inst.var_ids[i]}",))
    cap = DEFAULT_POINT_CAP if max_points is None else max_points
    total = 1
    for i in range(n):
        if total > cap:
            break
        total *= inst.upper[i] - inst.lower[i] + 1
    if total > cap:
        raise BudgetExceededError(f"point enumeration over {total}+ exceeds cap {cap}")
    if n == 0:
        value = sum(w for _, w in inst.terms)
        if abs(value) >= inst.alpha:
            return Verdict(True, (), value, ("leaf points=1",))
        return Verdict(False, transcript=("leaf points=1",))
    transcript = (f"leaf points={total}",)
    point = _walk_leaf(inst, _leaf_dtype(inst.terms, inst.lower, inst.upper, inst.alpha), prune)
    if point is None:
        return Verdict(False, transcript=transcript)
    return Verdict(True, point, eval_poly(inst, point), transcript)


# --- solver ---------------------------------------------------------------


def _replay(
    log: tuple[LogEntry, ...], current_ids, point, target_ids
) -> tuple[int, ...]:
    vals = dict(zip(current_ids, point))
    for entry in reversed(log):
        if entry[0] == "fix":
            vals[entry[1]] = entry[2]
        elif entry[0] == "shift":
            vals[entry[1]] = vals[entry[1]] + entry[2]
        elif entry[0] == "negate":
            vals[entry[1]] = -vals[entry[1]]
        else:
            raise InternalGuaranteeError(f"unknown log entry {entry!r}")
    return tuple(vals[g] for g in target_ids)


def _support_shortcut(inst: AbsIoInstance) -> tuple[tuple[int, ...] | None, tuple[str, ...]]:
    # Monomial supports as hyperedges; a heavy enough edge count certifies a
    # 0/1 witness.  Rules 5 and 6 ran to their fixpoint first, so every
    # interval holds 0 and 1; with no variables every edge is empty, d < 1.
    # The edge-count rule needs d >= 1 and an edge count that
    # ``_links_below_g`` does not rule out; kernelize's rules 1-2 only drop
    # vertices and edges and keep d, and alpha >= 1 here, so when the terms
    # already fail that test no hypergraph is built.
    d = max((len(vec) - vec.count(0) for vec, _ in inst.terms), default=0)
    if d < 1 or _links_below_g(inst.num_terms, d):
        return None, ()
    edges = [(frozenset(i + 1 for i, a in enumerate(vec) if a), w) for vec, w in inst.terms]
    h = WeightedHypergraph._trusted(frozenset(range(1, inst.num_vars + 1)), edges, inst.alpha, d)
    outcome = kernelize(h, MODE_EDGECOUNT)
    if outcome.status != STATUS_TRIVIAL_YES:
        return None, ()
    point = tuple(1 if i + 1 in outcome.witness else 0 for i in range(inst.num_vars))
    return point, outcome.transcript + (f"support yes |X|={len(outcome.witness)}",)


def _leaf_shifts(inst: AbsIoInstance) -> list[tuple[int, int]] | None:
    # Rule 6's shifts (index, t) of an instance that rule 5 left, when the
    # solve may skip them and scan the instance as it stands, on its own box;
    # None when something would read the shifted terms, or nothing shifts.
    # On a finite box, where rule 5 left every interval at least two points
    # wide and every variable in use, rule 6 only shifts each interval that
    # misses 0 or 1 to start at 0.  The shifted form is never built, so it
    # is bounded from these terms:
    # - a shift keeps each variable's top exponent and width, so
    #   _pick_branch decides the same on both forms;
    # - it keeps the largest support d, and a shifted term's support is its
    #   term's support less some of the shifted variables in it, so the
    #   support shortcut cannot fire where _links_below_g holds on the sum of
    #   2^(shifted variables in the support);
    # - its expansion has more terms than this form, as a term with a
    #   shifted variable of exponent c expands into c + 1 (terms that cancel
    #   may leave fewer, which this test does not see);
    # - every |p| on the box is at most the shifted form's leaf bound, so
    #   where this form needs Python ints and |p| at the lower corner or
    #   alpha reaches I64_SAFE, the shifted form needs them as well.
    lower, upper = inst.lower, inst.upper
    if None in lower or None in upper:
        return None
    moved = [i for i, (lo, hi) in enumerate(zip(lower, upper)) if not lo <= 0 < hi]
    if not moved or _pick_branch(inst) is not None:
        return None
    vecs = [vec for vec, _ in inst.terms]
    d = max(len(vec) - vec.count(0) for vec in vecs)
    # each term has at most 2^d shifted supports, so the sum is formed only
    # when that coarser bound is too large
    if not (_links_below_g(len(vecs) << d, d)
            or _links_below_g(sum(1 << sum(vec[i] > 0 for i in moved) for vec in vecs), d)):
        return None
    if (_leaf_dtype(inst.terms, lower, upper, inst.alpha) is object
            and max(abs(eval_poly(inst, lower)), inst.alpha) < I64_SAFE):
        return None
    return [(i, lower[i]) for i in moved]


def _pick_branch(inst: AbsIoInstance) -> tuple[int, int] | None:
    vecs = [vec for vec, _ in inst.terms]
    for i in range(inst.num_vars):
        e = max(map(itemgetter(i), vecs), default=0)
        if e < 1:
            continue
        lo, hi = inst.lower[i], inst.upper[i]
        if lo is None or hi is None or hi - lo >= 2 * e * inst.alpha:
            return i, e
    return None


def _branch_child(inst: AbsIoInstance, i: int, k: int, child_alpha: int) -> AbsIoInstance:
    drop = lambda seq: seq[:i] + seq[i + 1:]
    return AbsIoInstance._trusted(
        tuple([(drop(vec), w) for vec, w in inst.terms if vec[i] == k]),
        drop(inst.lower),
        drop(inst.upper),
        child_alpha,
        drop(inst.var_ids),
    )


def _at(coeffs: list[int], x: int) -> int:
    v = 0
    for c in reversed(coeffs):
        v = v * x + c
    return v


def _bisect(pred, lo: int, hi: int) -> int:
    # The first x in [lo, hi) with pred(x), pred being false and then true;
    # hi when there is none.
    while lo < hi:
        mid = (lo + hi) // 2
        if pred(mid):
            hi = mid
        else:
            lo = mid + 1
    return lo


def _runs(coeffs: list[int], lo: int, hi: int) -> list[int]:
    # Ascending starts of runs covering [lo, hi] on each of which
    # q(x) = sum_k coeffs[k] x^k is monotone.  The forward difference
    # q(x+1) - q(x) has integer coefficients and one degree less; on each of
    # its own runs it changes sign at most once, and q is cut there.
    if len(coeffs) < 3 or lo == hi:
        return [lo]
    diff = [sum(math.comb(k, j) * coeffs[k] for k in range(j + 1, len(coeffs)))
            for j in range(len(coeffs) - 1)]
    starts = _runs(diff, lo, hi - 1)
    cuts = []
    for s, t in zip(starts, starts[1:] + [hi]):
        sign = 1 if _at(diff, s) <= _at(diff, t - 1) else -1
        c = _bisect(lambda x: sign * _at(diff, x) >= 0, s, t)
        cuts += [s, c] if s < c < t else [s]
    return cuts


def _scan_window(inst: AbsIoInstance, i: int, e: int, partial: dict[int, int]) -> int | None:
    # The first x of 2*e*alpha + 1 consecutive in-box integers with
    # |p| >= alpha at the partial witness; an integer polynomial of degree
    # 1..e cannot stay below alpha in absolute value on all of them.  Each
    # monotone run is searched in order: its start, then by bisection.
    width = 2 * e * inst.alpha
    lo, hi = inst.lower[i], inst.upper[i]
    if lo is not None:
        start = lo
    elif hi is not None:
        start = hi - width
    else:
        start = 0
    # Collapse p at the partial witness to q(x) = sum_k coeffs[k] x^k.
    coeffs = [0] * (e + 1)
    for vec, w in inst.terms:
        for r, a in enumerate(vec):
            if a and r != i:
                w *= partial[inst.var_ids[r]] ** a
        coeffs[vec[i]] += w
    starts = _runs(coeffs, start, start + width)
    for s, t in zip(starts, starts[1:] + [start + width + 1]):
        first = _at(coeffs, s)
        if abs(first) >= inst.alpha:
            return s
        sign = 1 if first <= _at(coeffs, t - 1) else -1
        x = _bisect(lambda x: sign * _at(coeffs, x) >= inst.alpha, s, t)
        if x < t:
            return x
    return None


def solve_absio(inst: AbsIoInstance, *, max_points: int | None = None) -> Verdict:
    """Full decision procedure for |p(x)| >= alpha over the box.

    Phases: cleanup and normalization rules to a fixpoint, the monomial
    support shortcut, then branching on the exponent of a wide variable
    (children ask for a nonzero coefficient, the lowest yes child extends
    its witness by an exact search of a window for the first hit), and exact
    enumeration once every interval is narrow.  When ``_leaf_shifts`` finds
    that the solve ends in a leaf that may scan the form before rule 6, the
    shifts are logged in the transcript and never applied.  The returned
    witness is re-verified against the input.
    """
    # target 0 is met by any point, so only domain emptiness matters
    if inst.alpha == 0:
        for i in range(inst.num_vars):
            if _box_empty(inst.lower[i], inst.upper[i]):
                return Verdict(False, transcript=(f"rule5 empty x{inst.var_ids[i]}",))
        point = tuple(
            _box_pick(inst.lower[i], inst.upper[i]) for i in range(inst.num_vars)
        )
        return Verdict(True, point, eval_poly(inst, point), ("alpha0",))

    def finish(point_cur: tuple[int, ...]) -> Verdict:
        point = _replay(tuple(log), cur.var_ids, point_cur, inst.var_ids)
        return Verdict(True, point, _checked_value(inst, point), tuple(transcript))

    def leaf() -> Verdict:
        # with no variables left the leaf only evaluates a constant, which
        # the per-leaf cap leaves alone
        scan = brute_force_absio(cur, max_points=max_points if cur.num_vars else None,
                                 prune=True)
        transcript.extend(scan.transcript)
        if not scan.decision:
            return Verdict(False, transcript=tuple(transcript))
        return finish(scan.witness)

    simp = rule5_simplify(inst)
    cur, log, transcript = simp.instance, list(simp.log), list(simp.transcript)
    shifts = None if simp.empty_var is not None else _leaf_shifts(cur)
    if shifts is not None:
        # Rule 6 moves the box only.  Shifts keep lexicographic order, so the
        # leaf's first hit on cur's own box is the shifted form's, and it
        # needs no shift undone.
        transcript.extend(f"rule6 shift x{cur.var_ids[i]} t={t}" for i, t in shifts)
        return leaf()
    while simp.empty_var is None:
        cur, entries, lines = rule6_shift(cur)
        log.extend(entries)
        transcript.extend(lines)
        if not lines:
            break
        simp = rule5_simplify(cur)
        cur = simp.instance
        log.extend(simp.log)
        transcript.extend(simp.transcript)
    if simp.empty_var is not None:
        return Verdict(False, transcript=tuple(transcript))

    shortcut, lines = _support_shortcut(cur)
    transcript.extend(lines)
    if shortcut is not None:
        return finish(shortcut)

    picked = _pick_branch(cur)
    if picked is None:
        return leaf()

    i, e = picked
    gid = cur.var_ids[i]
    transcript.append(f"branch x{gid} e={e}")
    for k in range(e + 1):
        child_alpha = cur.alpha if k == 0 else 1
        child = _branch_child(cur, i, k, child_alpha)
        if child.num_terms == 0:
            transcript.append(f"child k={k} empty")
            continue
        sub = solve_absio(child, max_points=max_points)
        transcript.extend(f"k={k}:{line}" for line in sub.transcript)
        if not sub.decision:
            transcript.append(f"child k={k} no")
            continue
        transcript.append(f"child k={k} yes")
        partial = dict(zip(child.var_ids, sub.witness))
        if k == 0:
            x_star = 0
        else:
            x_star = _scan_window(cur, i, e, partial)
            if x_star is None:
                raise InternalGuaranteeError(
                    f"no window point for x{gid} despite a nonzero coefficient"
                )
        transcript.append(f"extend x{gid}={x_star}")
        point_cur = tuple(
            x_star if r == i else partial[cur.var_ids[r]]
            for r in range(cur.num_vars)
        )
        return finish(point_cur)
    return Verdict(False, transcript=tuple(transcript))
