"""Answers computed apart from absopt, and the checks that compare against them.

Nothing here imports absopt.  Formulas and hypergraphs over at most ~20
variables are scored exhaustively: every clause is rewritten into monotone
coefficients by inclusion-exclusion, and one subset-sum (zeta) transform over
the 2^n table gives the value of every assignment.  Polynomials are scored on
their whole finite box with numpy, or with Python integers when values may
pass 2^62.  Larger inputs get their verdict from the construction that made
them (see families.py); their witnesses are still re-scored here.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

I64_SAFE = 1 << 62


# --- formulas and hypergraphs -------------------------------------------------


def monotone_coefficients(num_vars, clauses, kind):
    """Coefficient f[mask] of the conjunction over ``mask`` in the value function.

    ``clauses`` holds (literals, weight) pairs.  A conjunction with negated
    variables N expands as sum over S subset of N of (-1)^|S| * AND(P u S); a
    disjunction is 1 minus the conjunction of its negated literals.
    """
    f = np.zeros(1 << num_vars, dtype=np.int64)
    for lits, w in clauses:
        if kind == "cnf":
            f[0] += w
            lits, w = [-l for l in lits], -w
        pos = 0
        for l in lits:
            if l > 0:
                pos |= 1 << (l - 1)
        neg = [1 << (-l - 1) for l in lits if l < 0]
        for r in range(len(neg) + 1):
            for sub in itertools.combinations(neg, r):
                f[pos | sum(sub)] += -w if r % 2 else w
    return f


def subset_sums(f, num_vars):
    """g[X] = sum of f[m] over m subset of X, in place."""
    for i in range(num_vars):
        view = f.reshape(-1, 2, 1 << i)
        view[:, 1, :] += view[:, 0, :]
    return f


def all_values(num_vars, clauses, kind):
    """Value of every assignment; bit i of the index is variable i+1."""
    return subset_sums(monotone_coefficients(num_vars, clauses, kind), num_vars)


def formula_value(clauses, kind, true_vars):
    """Value of one assignment, clause by clause."""
    total = 0
    for lits, w in clauses:
        sat = [(l > 0) == (abs(l) in true_vars) for l in lits]
        if all(sat) if kind == "dnf" else any(sat):
            total += w
    return total


def induced_weight(edges, subset):
    return sum(w for e, w in edges if e <= subset)


# --- polynomials ----------------------------------------------------------------


def poly_value(terms, point):
    """Exact value; ``terms`` holds (weight, {var: exponent}) with 1-based vars."""
    total = 0
    for w, mono in terms:
        t = w
        for v, a in mono.items():
            t *= point[v - 1] ** a
        total += t
    return total


def poly_bound(terms, lower, upper):
    """Upper bound on |p| over the box (every bound finite)."""
    return sum(
        abs(w) * math.prod(max(abs(lower[v - 1]), abs(upper[v - 1]), 1) ** a
                           for v, a in mono.items())
        for w, mono in terms
    )


def box_max_abs(terms, lower, upper):
    """Largest |p| over a finite box, by scanning every point."""
    n = len(lower)
    if poly_bound(terms, lower, upper) >= I64_SAFE:
        return max(abs(poly_value(terms, pt)) for pt in itertools.product(
            *(range(lo, hi + 1) for lo, hi in zip(lower, upper))))
    axes = [np.arange(lo, hi + 1, dtype=np.int64) for lo, hi in zip(lower, upper)]
    total = np.zeros(tuple(len(a) for a in axes), dtype=np.int64)
    for w, mono in terms:
        term = np.int64(w)
        for v, a in mono.items():
            shape = [1] * n
            shape[v - 1] = -1
            term = term * (axes[v - 1] ** a).reshape(shape)
        total = total + term
    return int(np.abs(total).max())


# --- checking the program's answers -------------------------------------------


class CheckError(Exception):
    """An op's output disagrees with the independent answer."""


def parse_solve_output(text):
    """(verdict, claimed value, witness lines) from ``absopt solve`` stdout."""
    verdict, value, witness = None, None, []
    for line in text.splitlines():
        toks = line.split()
        if not toks or toks[0] == "c":
            continue
        if toks[0] == "s" and len(toks) == 2 and toks[1] in ("YES", "NO"):
            if verdict is not None:
                raise CheckError("two verdict lines")
            verdict = toks[1] == "YES"
        elif toks[0] == "o" and len(toks) == 2:
            value = int(toks[1])
        else:
            witness.append(toks)
    if verdict is None:
        raise CheckError("no verdict line")
    return verdict, value, witness


def _read_witness(inst, lines):
    kind = inst["kind"]
    if kind in ("wdnf", "wcnf"):
        lits = [int(t) for toks in lines if toks[0] == "v" for t in toks[1:]]
        if sorted(abs(l) for l in lits) != list(range(1, inst["n"] + 1)):
            raise CheckError("assignment does not name every variable once")
        return frozenset(l for l in lits if l > 0)
    if kind == "uhg":
        if len(lines) != 1 or lines[0][0] != "s":
            raise CheckError("expected one s line")
        subset = frozenset(int(t) for t in lines[0][1:])
        if not subset <= frozenset(range(1, inst["n"] + 1)):
            raise CheckError("subset leaves the vertex set")
        return subset
    point = {}
    for toks in lines:
        if toks[0] != "x" or len(toks) != 3:
            raise CheckError(f"bad witness line {' '.join(toks)!r}")
        point[int(toks[1])] = int(toks[2])
    if sorted(point) != list(range(1, len(inst["lower"]) + 1)):
        raise CheckError("point does not name every variable once")
    return tuple(point[v] for v in sorted(point))


def score(inst, witness):
    """The witness's value, computed here from the instance the benchmark wrote."""
    kind = inst["kind"]
    if kind in ("wdnf", "wcnf"):
        return formula_value(inst["clauses"], kind[1:], witness)
    if kind == "uhg":
        return induced_weight(inst["edges"], witness)
    for x, lo, hi in zip(witness, inst["lower"], inst["upper"]):
        if (lo is not None and x < lo) or (hi is not None and x > hi):
            raise CheckError(f"point leaves the box at {x}")
    return poly_value(inst["terms"], witness)


def check_solve(inst, code, stdout):
    """Raise CheckError unless the verdict, exit code and witness are right."""
    verdict, value, lines = parse_solve_output(stdout)
    if verdict != inst["expect"]:
        raise CheckError(f"verdict {verdict}, expected {inst['expect']}")
    if code != (10 if verdict else 20):
        raise CheckError(f"exit code {code} for verdict {verdict}")
    if not verdict:
        if value is not None or lines:
            raise CheckError("a NO carries a value or a witness")
        return
    got = score(inst, _read_witness(inst, lines))
    if value != got:
        raise CheckError(f"o line says {value}, witness scores {got}")
    if abs(got) < inst["alpha"]:
        raise CheckError(f"witness scores {got}, target {inst['alpha']}")


def parse_formula_file(text):
    """(kind, n, clauses, alpha) of a wdnf/wcnf file the program wrote."""
    header, clauses = None, []
    for line in text.splitlines():
        toks = line.split()
        if not toks or toks[0] == "c":
            continue
        if toks[0] == "p":
            header = toks
        elif toks[0] == "w" and toks[-1] == "0":
            clauses.append(([int(t) for t in toks[2:-1]], int(toks[1])))
        else:
            raise CheckError(f"unexpected line {line!r}")
    if header is None or header[1] not in ("wdnf", "wcnf"):
        raise CheckError("no formula header")
    if int(header[3]) != len(clauses):
        raise CheckError("clause count differs from the header")
    return header[1][1:], int(header[2]), clauses, int(header[4])


def check_reduce(inst, code, text, samples):
    """Raise CheckError unless the rewrite keeps every sampled assignment's value."""
    if code != 0:
        raise CheckError(f"exit code {code} for reduce")
    kind, n, clauses, alpha = parse_formula_file(text)
    if kind != "dnf" or n != inst["n"] or alpha != inst["alpha"]:
        raise CheckError("rewrite changed the kind, variable count or target")
    if inst["transform"] == "monotonize" and any(l < 0 for lits, _ in clauses for l in lits):
        raise CheckError("monotonized formula keeps a negated literal")
    src = inst["kind"][1:]
    for true_vars in samples:
        a = formula_value(inst["clauses"], src, true_vars)
        b = formula_value(clauses, kind, true_vars)
        if a != b:
            raise CheckError(f"assignment {sorted(true_vars)} scores {a} before, {b} after")
