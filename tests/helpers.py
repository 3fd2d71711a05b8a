"""Shared test utilities: independent oracles and seeded instance factories.

The oracles here recompute values from the problem definitions directly,
without going through the package's evaluation or search code, so tests can
compare the two implementations against each other.
"""

import itertools

import numpy as np

from absopt import kernel
from absopt.absio import AbsIoInstance
from absopt.model import WeightedFormula, WeightedHypergraph
from absopt.reductions import Graph


def naive_formula_value(phi, values):
    """Value of one assignment straight from the clause definitions."""
    total = 0
    for lits, w in phi.clauses:
        holds = [values[l - 1] if l > 0 else not values[-l - 1] for l in lits]
        sat = all(holds) if phi.kind == "dnf" else any(holds)
        if sat:
            total += w
    return total


def assignments_lex(n):
    """All assignments in lexicographic order: variable 1 outermost, False first."""
    return itertools.product((False, True), repeat=n)


def value_profile(phi):
    """Vector of values over all 2^n assignments, indexed by true-variable mask.

    Bit i-1 of the index means variable i is true.  Vectorized with int64;
    callers keep weights small enough that sums stay exact.
    """
    n = phi.num_vars
    masks = np.arange(1 << n, dtype=np.int64)
    profile = np.zeros(1 << n, dtype=np.int64)
    for lits, w in phi.clauses:
        pos = 0
        neg = 0
        for l in lits:
            if l > 0:
                pos |= 1 << (l - 1)
            else:
                neg |= 1 << (-l - 1)
        if phi.kind == "dnf":
            sat = ((masks & pos) == pos) & ((masks & neg) == 0)
        else:
            sat = ((masks & pos) != 0) | ((neg & ~masks) != 0)
        profile += w * sat
    return profile


def formula_rows(phi):
    """The formula as DNF rows (pos, neg, weight) over all its declared variables.

    Bit i of a mask is variable i+1, used or not, so a variable in no clause
    stays in the rows' variable count.  A disjunction ``(P, N, w)`` becomes
    the constant w, in one literal-free row, plus ``(N, P, -w)``.
    """
    cnf = phi.kind == "cnf"
    rows = []
    for lits, w in phi.clauses:
        pos = sum(1 << (l - 1) for l in lits if l > 0)
        neg = sum(1 << (-l - 1) for l in lits if l < 0)
        rows.append((neg, pos, -w) if cnf else (pos, neg, w))
    if cnf:
        rows.append((0, 0, sum(w for _, w in phi.clauses)))
    return rows


def naive_hypergraph_value(h, subset):
    xs = set(subset)
    return sum(w for e, w in h.edges if set(e) <= xs)


def naive_hypergraph_decide(h):
    """First qualifying subset in lexicographic membership order, or None."""
    order = sorted(h.vertices)
    n = len(order)
    for picks in itertools.product((False, True), repeat=n):
        xs = frozenset(v for v, p in zip(order, picks) if p)
        val = naive_hypergraph_value(h, xs)
        if abs(val) >= h.alpha:
            return xs, val
    return None


def rule4_all_subsets(h):
    """The subedge rule by counting the link of every subset of every edge.

    Every candidate core (a subset of an edge, of size below d) gets its link
    size in one pass; sizes are then tried from the largest down,
    lexicographically within a size, against ``kernel.g``, looked up at call
    time so a test can patch it, behind the same ``_links_below_g`` guard.
    """
    if h.alpha < 1 or h.d < 1 or kernel._links_below_g(len(h.edges), h.d):
        return None
    link_count = {}
    for e, _ in h.edges:
        for size in range(min(len(e), h.d - 1) + 1):
            for s in map(frozenset, itertools.combinations(e, size)):
                link_count.setdefault(s, 0)
                if s != e:
                    link_count[s] += 1
    by_size = {}
    for c in link_count:
        by_size.setdefault(len(c), []).append(c)
    for size in sorted(by_size, reverse=True):
        threshold = kernel.g(h.d - size, h.alpha, h.d)
        for c in sorted(by_size[size], key=sorted):
            if link_count[c] >= threshold:
                return c
    return None


def naive_absio_value(inst, point):
    total = 0
    for j, w in enumerate(inst.weights):
        term = w
        for i in range(inst.num_vars):
            term *= point[i] ** inst.exponents[i][j]
        total += term
    return total


def naive_absio_decide(inst):
    """First qualifying lattice point in lexicographic order, or None."""
    ranges = [range(inst.lower[i], inst.upper[i] + 1) for i in range(inst.num_vars)]
    for pt in itertools.product(*ranges):
        val = naive_absio_value(inst, pt)
        if abs(val) >= inst.alpha:
            return pt, val
    return None


def independence_number(g):
    best = 0
    for r in range(1 << g.num_vertices):
        xs = [v for v in range(1, g.num_vertices + 1) if r >> (v - 1) & 1]
        if len(xs) <= best:
            continue
        if all(
            (min(u, v), max(u, v)) not in g.edges
            for u, v in itertools.combinations(xs, 2)
        ):
            best = len(xs)
    return best


def is_independent(g, xs):
    return all(
        (min(u, v), max(u, v)) not in g.edges
        for u, v in itertools.combinations(sorted(xs), 2)
    )


def random_formula(rng, *, max_vars=6, max_clauses=6, kind=None, max_weight=5,
                   monotone=False, objective=None, comparison=None):
    n = rng.randint(0, max_vars)
    m = rng.randint(0, max_clauses)
    clauses = []
    for _ in range(m):
        width = rng.randint(0, min(3, n))
        vs = rng.sample(range(1, n + 1), width) if width else []
        lits = [v if (monotone or rng.random() < 0.5) else -v for v in vs]
        w = 0
        while w == 0:
            w = rng.randint(-max_weight, max_weight)
        clauses.append((tuple(lits), w))
    return WeightedFormula(
        kind or rng.choice(("dnf", "cnf")),
        n,
        tuple(clauses),
        rng.randint(0, 6),
        objective or rng.choice(("abs", "sum")),
        comparison or rng.choice(("atleast", "exact", "atmost")),
    )


def random_hypergraph(rng, *, max_vertices=10, max_edges=8, max_d=3,
                      max_weight=5, max_alpha=4, allow_empty_edge=True):
    n = rng.randint(0, max_vertices)
    m = rng.randint(0, max_edges)
    edges = []
    for _ in range(m):
        size = rng.randint(0 if allow_empty_edge else 1, min(max_d, n))
        e = tuple(rng.sample(range(1, n + 1), size)) if size else ()
        edges.append((e, rng.randint(-max_weight, max_weight)))
    return WeightedHypergraph(n, tuple(edges), rng.randint(0, max_alpha), max_d)


def random_graph(rng, *, max_vertices=7, p=0.4):
    n = rng.randint(1, max_vertices)
    edges = [
        (u, v)
        for u in range(1, n)
        for v in range(u + 1, n + 1)
        if rng.random() < p
    ]
    return Graph(n, tuple(edges))


def random_absio(rng, *, max_vars=4, max_terms=6, max_exp=2, bound_range=(-6, 6),
                 max_alpha=4, allow_unbounded=False):
    n = rng.randint(0, max_vars)
    m = rng.randint(0, max_terms)
    rows = tuple(
        tuple(rng.randint(0, max_exp) for _ in range(m)) for _ in range(n)
    )
    weights = tuple(rng.randint(-4, 4) for _ in range(m))
    lower = []
    upper = []
    for _ in range(n):
        if allow_unbounded and rng.random() < 0.3:
            lower.append(None if rng.random() < 0.5 else rng.randint(*bound_range))
            upper.append(None)
            if lower[-1] is None and rng.random() < 0.5:
                upper[-1] = rng.randint(*bound_range)
        else:
            lo = rng.randint(*bound_range)
            hi = rng.randint(lo, bound_range[1])
            lower.append(lo)
            upper.append(hi)
    return AbsIoInstance(rows, weights, tuple(lower), tuple(upper), rng.randint(0, max_alpha))
