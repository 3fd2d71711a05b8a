"""Seeded instance families, one list per workload.

Each generator returns instance records: the file text the program reads,
the data the checker scores witnesses against, the expected verdict with its
source ("scan" for an exhaustive scan in oracle.py, "rule3", "rule4" or
"unbounded" for a verdict that follows from how the instance was built), and
the ops to run on the file.  Sizes sit on a fixed grid per family and the seed
draws structure, weights and the scan-window targets, so every seed gives the
same mix of work.
"""

from __future__ import annotations

import itertools
import math
import random

from . import oracle

# --- writers --------------------------------------------------------------------


def uhg_text(n, edges, alpha):
    out = [f"p uhg {n} {len(edges)} {alpha}"]
    out += [f"e {w} {' '.join(map(str, sorted(e)))} 0" for e, w in edges]
    return "\n".join(out) + "\n"


def formula_text(kind, n, clauses, alpha):
    out = [f"p w{kind} {n} {len(clauses)} {alpha} abs atleast"]
    out += [f"w {w} {' '.join(map(str, lits))} 0" for lits, w in clauses]
    return "\n".join(out) + "\n"


def absio_text(terms, lower, upper, alpha):
    out = [f"p absio {len(lower)} {len(terms)} {alpha}"]
    for w, mono in terms:
        body = " ".join(f"{v}:{a}" for v, a in sorted(mono.items()))
        out.append(f"col {w} {body} 0")
    for v, (lo, hi) in enumerate(zip(lower, upper), start=1):
        out.append(f"b {v} {'-inf' if lo is None else lo} {'inf' if hi is None else hi}")
    return "\n".join(out) + "\n"


def _weight(rng, top):
    return rng.choice((-1, 1)) * rng.randint(1, top)


def _uhg(name, family, n, edges, alpha, expect, source):
    return {
        "name": name, "family": family, "kind": "uhg", "n": n,
        "edges": [(frozenset(e), w) for e, w in edges], "alpha": alpha,
        "expect": expect, "source": source, "text": uhg_text(n, edges, alpha),
        "ops": [["solve", "{file}"]],
    }


def _scan_uhg(name, family, n, edges, k):
    """Target at the optimum (k even, yes) or one above it (k odd, no)."""
    opt = int(abs(oracle.all_values(n, [(sorted(e), w) for e, w in edges], "dnf")).max())
    return _uhg(name, family, n, edges, opt + k % 2, k % 2 == 0, "scan")


# --- uhg-kernel -----------------------------------------------------------------


def _sparse(rng, m):
    """Mostly disjoint 1- and 2-edges (max degree 2), zero-weight edges, isolated vertices."""
    edges, v = [], 0
    for _ in range(m):
        if rng.random() < 0.15:
            edges.append(((v + 1,), _weight(rng, 5)))
            v += 1
        else:
            edges.append(((v + 1, v + 2), _weight(rng, 5)))
            v += 2
    for _ in range(m // 10):  # second edges through a vertex: degree 2
        a = rng.randint(1, v)
        edges.append(((a, v + 1), _weight(rng, 5)))
        v += 1
    for _ in range(m // 20):  # rule 2 deletes these, then rule 1 their private vertices
        edges.append(((rng.randint(1, v), v + 1), 0))
        v += 1
    n = v + m // 20  # trailing isolated vertices for rule 1
    rng.shuffle(edges)
    degree = _live_degrees(edges)
    d = max(len(e) for e, _ in edges)
    alpha = max(1, len(degree) // (2 * d**3 * max(degree.values()) ** 2))
    return n, edges, alpha


def _live_degrees(edges):
    """Vertex degrees once rule 2 has dropped zero-weight edges (rule 1 the rest)."""
    degree = {}
    for e, w in edges:
        for x in e if w else ():
            degree[x] = degree.get(x, 0) + 1
    return degree


def _sunflower(rng, core, petals, d):
    """Petals core+{p} of one size; the core's link reaches g(1) = 2*alpha*2^(2^d)."""
    k = len(core)
    others = list(range(k + 1, k + 1 + petals))
    edges = [(tuple(core) + (p,), _weight(rng, 3)) for p in others]
    for p in rng.sample(others, petals // 10):  # unit edges: no strict superset of the core
        edges.append(((p,), _weight(rng, 3)))
    rng.shuffle(edges)
    alpha = max(1, petals // (2 * 2 ** (2**d)))
    return k + petals, edges, alpha


def _wide(rng, n, d):
    """A few edges of size d-2..d over n <= 16 vertices plus small edges; no rule fires."""
    edges = [(tuple(rng.sample(range(1, n + 1), rng.randint(d - 2, d))), _weight(rng, 9))
             for _ in range(4)]
    edges.append((tuple(rng.sample(range(1, n + 1), d)), _weight(rng, 9)))
    for v in range(1, n + 1):
        edges.append(((v,), _weight(rng, 4)))
    for _ in range(n):
        edges.append((tuple(rng.sample(range(1, n + 1), 2)), _weight(rng, 6)))
    return edges


def uhg_kernel(rng):
    out = []
    for k in range(40):
        n, edges, alpha = _sparse(rng, 150 + 6 * k)
        out.append(_uhg(f"rule3-{k}", "rule3", n, edges, alpha, True, "rule3"))
    for k in range(36):
        if k % 4:
            n, edges, alpha = _sunflower(rng, (1,), 100 + 10 * k, 2)
        else:
            n, edges, alpha = _sunflower(rng, (1, 2), 512 + 4 * k, 3)
        out.append(_uhg(f"rule4-{k}", "rule4", n, edges, alpha, True, "rule4"))
    for k in range(30):
        d = (9, 9, 10, 10, 11)[k % 5]
        n = 14 + k % 3
        out.append(_scan_uhg(f"wide-{k}", "wide", n, _wide(rng, n, d), k // 5))
    return out


def rule3_holds(inst):
    """|V| >= 2*alpha*d^3*Delta^2 once isolated vertices and zero edges are gone."""
    degree = _live_degrees(inst["edges"])
    d = max(len(e) for e, _ in inst["edges"])
    return len(degree) >= 2 * inst["alpha"] * d**3 * max(degree.values()) ** 2


def rule4_holds(inst):
    """Some (d-1)-set is strictly inside at least g(1) = 2*alpha*2^(2^d) edges."""
    d = max(len(e) for e, _ in inst["edges"])
    links = {}
    for e, w in inst["edges"]:
        if len(e) == d and w:
            for x in e:
                links[e - {x}] = links.get(e - {x}, 0) + 1
    return max(links.values()) >= 2 * inst["alpha"] * 2 ** (2**d)


# --- uhg-enum -------------------------------------------------------------------


def uhg_enum(rng):
    out = []
    for k in range(200):
        n = 13 + k % 3
        m = 100 + (k * 7) % 81
        edges = {}
        for v in range(1, n + 1):  # every vertex covered: rule 1 stays silent
            edges[frozenset((v, v % n + 1))] = _weight(rng, 9)
        while len(edges) < m:
            e = frozenset(rng.sample(range(1, n + 1), rng.randint(2, 4)))
            edges.setdefault(e, _weight(rng, 9))
        out.append(_scan_uhg(f"enum-{k}", "enum", n, list(edges.items()), k))
    return out


# --- formula-rewrite --------------------------------------------------------------


def _clauses(rng, n, m, width, neg_share):
    seen, out = set(), []
    while len(out) < m:
        vs = rng.sample(range(1, n + 1), rng.randint(1, width))
        lits = tuple(sorted((-v if rng.random() < neg_share else v for v in vs), key=abs))
        if lits not in seen:
            seen.add(lits)
            out.append((list(lits), _weight(rng, 9)))
    return out


def _formula(name, family, kind, n, clauses, above, transform):
    opt = int(abs(oracle.all_values(n, clauses, kind)).max())
    # Early targets: a third of the optimum, met by many assignments.
    alpha = opt + 1 if above else max(1, opt // 3)
    return {
        "name": name, "family": family, "kind": "w" + kind, "n": n,
        "clauses": clauses, "alpha": alpha, "expect": not above, "source": "scan",
        "transform": transform, "text": formula_text(kind, n, clauses, alpha),
        "ops": [["solve", "{file}"], ["reduce", transform, "{file}", "-o", "{out}"]],
    }


def formula_rewrite(rng):
    out = []
    for k in range(30):
        n = 16 + k % 5
        m = 90 + (k * 7) % 40
        out.append(_formula(f"dnf-{k}", "dnf-early", "dnf", n,
                            _clauses(rng, n, m, 4, 0.5), False, "monotonize"))
    for k in range(16):
        n = 12 + k % 3
        out.append(_formula(f"above-{k}", "dnf-above", "dnf", n,
                            _clauses(rng, n, 60 + 2 * k, 4, 0.5), True, "monotonize"))
    for k in range(12):
        n = 14 + k % 4
        out.append(_formula(f"cnf-{k}", "cnf-early", "cnf", n,
                            _clauses(rng, n, 25 + 2 * k, 3, 0.4), False, "cnf2dnf"))
    return out


# --- absio-box ------------------------------------------------------------------


def _absio(name, family, terms, lower, upper, alpha, expect, source):
    return {
        "name": name, "family": family, "kind": "absio", "terms": terms,
        "lower": lower, "upper": upper, "alpha": alpha, "expect": expect,
        "source": source, "text": absio_text(terms, lower, upper, alpha),
        "ops": [["solve", "{file}"]],
    }


def _poly(rng, n, m, max_exp, top, max_deg=None):
    """m distinct monomials; exponents <= max_exp, total degree <= max_deg."""
    terms = {}
    while len(terms) < m:
        vs = rng.sample(range(1, n + 1), rng.randint(1, n))
        mono = tuple(sorted((v, rng.randint(1, max_exp)) for v in vs))
        if max_deg is None or sum(a for _, a in mono) <= max_deg:
            terms[mono] = _weight(rng, top)
    return [(w, dict(mono)) for mono, w in terms.items()]


def _scan_absio(name, family, terms, lower, upper, k):
    opt = oracle.box_max_abs(terms, lower, upper)
    return _absio(name, family, terms, lower, upper, opt + k % 2, k % 2 == 0, "scan")


def _unbounded_yes(terms, lower, upper):
    """Some point y0 of the other (finite) variables leaves p(x, y0) nonconstant
    in an unbounded variable x, so |p| exceeds every target."""
    for x, (lo, hi) in enumerate(zip(lower, upper), start=1):
        if lo is not None and hi is not None:
            continue
        others = [range(a, b + 1) if v != x else (0,)
                  for v, (a, b) in enumerate(zip(lower, upper), start=1)]
        for y0 in itertools.product(*others):
            coeff = {}
            for w, mono in terms:
                a = mono.get(x, 0)
                if a:
                    coeff[a] = coeff.get(a, 0) + w * math.prod(
                        y0[v - 1] ** b for v, b in mono.items() if v != x)
            if any(coeff.values()):
                return True
    return False


def absio_box(rng):
    out = []
    for k in range(30):  # finite boxes of 8e5..1.9e6 points at the numpy leaf
        n = 2 + k % 3
        side = round((800_000 * 2.4 ** (k / 29)) ** (1 / n))
        lower = [-rng.randint(0, side - 2) for _ in range(n)]
        upper = [lo + side - 1 for lo in lower]
        # One monomial in every variable: each box gets full-size arrays, so
        # peak memory follows the box size and not the seed.
        terms = [(_weight(rng, 9), {v: 1 for v in range(1, n + 1)})]
        terms += [t for t in _poly(rng, n, 8 if n == 2 else 16, 2, 9) if len(t[1]) < n]
        out.append(_scan_absio(f"leaf-{k}", "leaf", terms, lower, upper, k))
    for k in range(20):  # boxes away from 0 with degree up to 9: rule6 shifts
        lower = [rng.choice((1, -1)) * rng.randint(20, 60) for _ in range(6)]
        upper = [lo + 4 for lo in lower]
        out.append(_scan_absio(f"shift-{k}", "shift", _poly(rng, 6, 60, 6, 5, 9),
                               lower, upper, k))
    for k in range(20):  # linear in x1, which is wide or unbounded: branch, scan window
        terms = [(rng.choice((-1, 1)), {1: 1, 2: rng.randint(0, 2)})]
        terms += [(_weight(rng, 9), {2: rng.randint(1, 3), 3: rng.randint(0, 2)})
                  for _ in range(4)]
        terms = [(w, {v: a for v, a in mono.items() if a}) for w, mono in terms]
        alpha = rng.randint(15_000, 40_000)
        lower, upper = [0, -2, -2], [None, 2, 2]
        if k % 2:
            upper[0] = 2 * alpha + rng.randint(0, 100)
            out.append(_absio(f"wide-{k}", "wide", terms, lower, upper,
                              min(alpha, oracle.box_max_abs(terms, lower, upper)),
                              True, "scan"))
        else:
            out.append(_absio(f"wide-{k}", "unbounded", terms, lower, upper,
                              alpha, True, "unbounded"))
    for k in range(12):  # values past 2^62: the exact pure-Python leaf
        lower, upper = [0, -60, -8], [9, 60, 8]
        terms = [(_weight(rng, 9), {1: rng.randint(19, 22)})] + _poly(rng, 3, 4, 3, 9)
        out.append(_scan_absio(f"big-{k}", "big", terms, lower, upper, k))
    for k in range(24):  # multilinear monomials of degree 9..11: support shortcut, g(d)
        d = 9 + k % 3
        n = d + 1
        terms = [(_weight(rng, 9), {v: 1 for v in rng.sample(range(1, n + 1), d)})]
        terms += [(_weight(rng, 9), {v: 1 for v in rng.sample(range(1, n + 1), rng.randint(1, 4))})
                  for _ in range(6)]
        out.append(_scan_absio(f"multi-{k}", "multilinear", terms, [-1] * n, [1] * n, k // 3))
    return out


WORKLOADS = {
    "uhg-kernel": uhg_kernel,
    "uhg-enum": uhg_enum,
    "formula-rewrite": formula_rewrite,
    "absio-box": absio_box,
}


def generate(workload, seed):
    """The workload's instances for this seed; the same seed gives the same files."""
    rng = random.Random(f"{workload}:{seed}")
    insts = WORKLOADS[workload](rng)
    for inst in insts:
        if inst["source"] == "rule3" and not rule3_holds(inst):
            raise RuntimeError(f"{inst['name']}: rule 3 bound not met")
        if inst["source"] == "rule4" and not rule4_holds(inst):
            raise RuntimeError(f"{inst['name']}: rule 4 bound not met")
        if inst["source"] == "unbounded" and not _unbounded_yes(
                inst["terms"], inst["lower"], inst["upper"]):
            raise RuntimeError(f"{inst['name']}: polynomial is constant")
    return insts
