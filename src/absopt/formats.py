"""Plain-text instance and witness formats, with byte-stable serializers.

All instance files share one shape: optional comment lines (``c`` alone or
``c `` followed by text), one problem line ``p <kind> ...``, then payload
lines whose first token names their role.  Serializers emit a canonical form
(fixed field order, sorted member lists), so equal instances always produce
identical bytes and every file round-trips through parse and serialize.

Problem lines:

* ``p wdnf <nvars> <nclauses> <alpha> [abs|sum] [atleast|exact|atmost]``
  followed by ``w <weight> <lit> ... 0`` per clause (``p wcnf`` likewise).
* ``p uhg <nvertices> <nedges> <alpha>``, optionally ``n <id> ... 0`` naming
  the vertices, then ``e <weight> <vertex> ... 0`` per edge.
* ``p absio <nvars> <nterms> <alpha>`` with ``col <weight> <i>:<exp> ... 0``
  per monomial and ``b <i> <min|-inf> <max|inf>`` per bounded variable.
* ``p edge <nvertices> <nedges>`` with ``e <u> <v>`` per graph edge.

Witness files hold one claimed solution: ``v <lit> ...`` (a complete signed
assignment), ``s [<vertex> ...]`` (a vertex subset), or ``x <i> <value>``
lines (one integer per variable).
"""

from __future__ import annotations

from .absio import AbsIoInstance, Bound, Term
from .errors import InvalidInstanceError, ParseError
from .model import (
    COMPARISONS,
    KIND_CNF,
    KIND_DNF,
    OBJ_ABS,
    OBJECTIVES,
    CMP_ATLEAST,
    WeightedFormula,
    WeightedHypergraph,
    _true_vars,
)
from .reductions import Graph


def _lines(text: str):
    for no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line == "c" or line.startswith("c "):
            continue
        yield no, line.split()


def _int(tok: str, no: int, what: str) -> int:
    try:
        return int(tok, 10)
    except ValueError:
        raise ParseError(no, f"{what} must be an integer, got {tok!r}") from None


def _nonneg(tok: str, no: int, what: str) -> int:
    v = _int(tok, no, what)
    if v < 0:
        raise ParseError(no, f"{what} must be non-negative, got {v}")
    return v


def _terminated(toks: list[str], no: int) -> list[str]:
    if not toks or toks[-1] != "0":
        raise ParseError(no, "list line must end with 0")
    return toks[:-1]


def _records(text: str, roles: dict[str, str], what: str):
    """The problem line, then each payload line, as (line number, tokens).

    ``roles`` maps each payload line's first token to the noun its errors
    use; ``what`` names the file in the error for any other line.
    """
    header = False
    for no, toks in _lines(text):
        if toks[0] == "p":
            if header:
                raise ParseError(no, "second problem line")
            header = True
        elif toks[0] not in roles:
            raise ParseError(no, f"unexpected line {toks[0]!r} in a {what} file")
        elif not header:
            raise ParseError(no, f"{roles[toks[0]]} before the problem line")
        yield no, toks
    if not header:
        raise ParseError(0, "no problem line found")


def _count(promised: int, found: list, noun: str) -> None:
    if len(found) != promised:
        raise ParseError(0, f"header promises {promised} {noun}, file has {len(found)}")


def _problem_line(text: str) -> tuple[int, list[str]]:
    for no, toks in _lines(text):
        if toks[0] != "p":
            raise ParseError(no, f"expected a problem line, got {toks[0]!r}")
        return no, toks
    raise ParseError(0, "no problem line found")


def detect_kind(text: str) -> str:
    """The problem-line kind token: wdnf, wcnf, uhg, absio, or edge."""
    no, toks = _problem_line(text)
    if len(toks) < 2:
        raise ParseError(no, "problem line needs a kind")
    kind = toks[1]
    if kind not in ("wdnf", "wcnf", "uhg", "absio", "edge"):
        raise ParseError(no, f"unknown instance kind {kind!r}")
    return kind


def parse_formula(text: str) -> WeightedFormula:
    records = _records(text, {"w": "clause"}, "formula")
    no, toks = next(records)
    if len(toks) not in (5, 6, 7) or toks[1] not in ("wdnf", "wcnf"):
        raise ParseError(no, "expected: p wdnf|wcnf nvars nclauses alpha [objective] [comparison]")
    kind = KIND_DNF if toks[1] == "wdnf" else KIND_CNF
    nvars = _nonneg(toks[2], no, "variable count")
    nclauses = _nonneg(toks[3], no, "clause count")
    alpha = _nonneg(toks[4], no, "target")
    objective = OBJ_ABS
    comparison = CMP_ATLEAST
    if len(toks) >= 6:
        if toks[5] not in OBJECTIVES:
            raise ParseError(no, f"objective must be abs or sum, got {toks[5]!r}")
        objective = toks[5]
    if len(toks) == 7:
        if toks[6] not in COMPARISONS:
            raise ParseError(no, f"comparison must be atleast, exact, or atmost, got {toks[6]!r}")
        comparison = toks[6]
    clauses: list[tuple[frozenset[int], int]] = []
    for no, toks in records:
        if len(toks) < 3:
            raise ParseError(no, "clause line needs a weight and a 0 terminator")
        weight = _int(toks[1], no, "weight")
        lits = [_int(t, no, "literal") for t in _terminated(toks[2:], no)]
        seen = set()
        for lit in lits:
            if lit == 0:
                raise ParseError(no, "literal 0 inside a clause")
            if abs(lit) > nvars:
                raise ParseError(no, f"literal {lit} exceeds {nvars} variables")
            if abs(lit) in seen:
                raise ParseError(no, f"variable {abs(lit)} repeats in one clause")
            seen.add(abs(lit))
        clauses.append((frozenset(lits), weight))
    _count(nclauses, clauses, "clauses")
    return WeightedFormula._trusted(kind, nvars, clauses, alpha, objective, comparison)


def serialize_formula(phi: WeightedFormula) -> str:
    out = [
        f"p {'wdnf' if phi.kind == KIND_DNF else 'wcnf'} {phi.num_vars} "
        f"{len(phi.clauses)} {phi.alpha} {phi.objective} {phi.comparison}"
    ]
    for lits, w in phi.clauses:
        body = " ".join(str(l) for l in sorted(lits, key=abs))
        out.append(f"w {w} {body} 0" if body else f"w {w} 0")
    return "\n".join(out) + "\n"


def parse_hypergraph(text: str) -> WeightedHypergraph:
    records = _records(text, {"n": "vertex list", "e": "edge"}, "hypergraph")
    no, toks = next(records)
    if len(toks) != 5 or toks[1] != "uhg":
        raise ParseError(no, "expected: p uhg nvertices nedges alpha")
    nvertices = _nonneg(toks[2], no, "vertex count")
    nedges = _nonneg(toks[3], no, "edge count")
    alpha = _nonneg(toks[4], no, "target")
    known: set[int] | None = None
    edges: list[tuple[frozenset[int], int]] = []
    for no, toks in records:
        if toks[0] == "n":
            if known is not None:
                raise ParseError(no, "second vertex list")
            if edges:
                raise ParseError(no, "vertex list must come before the edges")
            ids = [_int(t, no, "vertex id") for t in _terminated(toks[1:], no)]
            if len(ids) != nvertices:
                raise ParseError(no, f"header promises {nvertices} vertices, list has {len(ids)}")
            known = set(ids)
            if len(known) != len(ids) or any(v < 1 for v in ids):
                raise ParseError(no, "vertex ids must be distinct positive integers")
            continue
        if len(toks) < 3:
            raise ParseError(no, "edge line needs a weight and a 0 terminator")
        weight = _int(toks[1], no, "weight")
        vs = [_int(t, no, "vertex") for t in _terminated(toks[2:], no)]
        seen = set()
        for v in vs:
            if v < 1 or (known is None and v > nvertices) or (known is not None and v not in known):
                raise ParseError(no, f"vertex {v} is not in the vertex set")
            if v in seen:
                raise ParseError(no, f"vertex {v} repeats in one edge")
            seen.add(v)
        edges.append((frozenset(vs), weight))
    _count(nedges, edges, "edges")
    vertices = frozenset(known) if known is not None else frozenset(range(1, nvertices + 1))
    d = max((len(e) for e, _ in edges), default=0)
    return WeightedHypergraph._trusted(vertices, edges, alpha, d)


def serialize_hypergraph(h: WeightedHypergraph) -> str:
    out = [f"p uhg {h.num_vertices} {len(h.edges)} {h.alpha}"]
    if h.vertices != frozenset(range(1, h.num_vertices + 1)):
        body = " ".join(str(v) for v in sorted(h.vertices))
        out.append(f"n {body} 0" if body else "n 0")
    for e, w in h.edges:
        body = " ".join(str(v) for v in sorted(e))
        out.append(f"e {w} {body} 0" if body else f"e {w} 0")
    return "\n".join(out) + "\n"


def _bound_token(tok: str, no: int) -> Bound:
    if tok in ("-inf", "inf", "+inf"):
        return None
    return _int(tok, no, "bound")


def parse_absio(text: str) -> AbsIoInstance:
    records = _records(text, {"col": "term", "b": "bounds"}, "polynomial")
    no, toks = next(records)
    if len(toks) != 5 or toks[1] != "absio":
        raise ParseError(no, "expected: p absio nvars nterms alpha")
    n = _nonneg(toks[2], no, "variable count")
    m = _nonneg(toks[3], no, "term count")
    alpha = _nonneg(toks[4], no, "target")
    terms: list[Term] = []
    lower: dict[int, Bound] = {}
    upper: dict[int, Bound] = {}
    for no, toks in records:
        if toks[0] == "col":
            if len(toks) < 3:
                raise ParseError(no, "term line needs a weight and a 0 terminator")
            weight = _int(toks[1], no, "weight")
            vec = [0] * n
            for tok in _terminated(toks[2:], no):
                if ":" not in tok:
                    raise ParseError(no, f"expected <var>:<exp>, got {tok!r}")
                left, right = tok.split(":", 1)
                i = _int(left, no, "variable")
                a = _int(right, no, "exponent")
                if i < 1 or i > n:
                    raise ParseError(no, f"variable {i} is not in 1..{n}")
                if a < 1:
                    raise ParseError(no, f"exponent for variable {i} must be positive")
                if vec[i - 1]:
                    raise ParseError(no, f"variable {i} repeats in one term")
                vec[i - 1] = a
            terms.append((tuple(vec), weight))
            continue
        if len(toks) != 4:
            raise ParseError(no, "expected: b <var> <min|-inf> <max|inf>")
        i = _int(toks[1], no, "variable")
        if i < 1 or i > n:
            raise ParseError(no, f"variable {i} is not in 1..{n}")
        if i in lower:
            raise ParseError(no, f"second bounds line for variable {i}")
        lower[i] = _bound_token(toks[2], no)
        upper[i] = _bound_token(toks[3], no)
        if toks[2] in ("inf", "+inf"):
            raise ParseError(no, "lower bound cannot be +inf")
        if toks[3] == "-inf":
            raise ParseError(no, "upper bound cannot be -inf")
    _count(m, terms, "terms")
    lo = tuple(lower.get(i) for i in range(1, n + 1))
    hi = tuple(upper.get(i) for i in range(1, n + 1))
    return AbsIoInstance._trusted(tuple(terms), lo, hi, alpha, tuple(range(1, n + 1)))


def serialize_absio(inst: AbsIoInstance) -> str:
    if inst.var_ids != tuple(range(1, inst.num_vars + 1)):
        raise InvalidInstanceError("only identity variable ids can be serialized")
    out = [f"p absio {inst.num_vars} {inst.num_terms} {inst.alpha}"]
    for vec, w in inst.terms:
        body = " ".join(f"{i}:{a}" for i, a in enumerate(vec, start=1) if a)
        out.append(f"col {w} {body} 0" if body else f"col {w} 0")
    for i in range(inst.num_vars):
        lo = "-inf" if inst.lower[i] is None else str(inst.lower[i])
        hi = "inf" if inst.upper[i] is None else str(inst.upper[i])
        out.append(f"b {i + 1} {lo} {hi}")
    return "\n".join(out) + "\n"


def parse_graph(text: str) -> Graph:
    records = _records(text, {"e": "edge"}, "graph")
    no, toks = next(records)
    if len(toks) != 4 or toks[1] != "edge":
        raise ParseError(no, "expected: p edge nvertices nedges")
    n = _nonneg(toks[2], no, "vertex count")
    nedges = _nonneg(toks[3], no, "edge count")
    edges: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    for no, toks in records:
        if len(toks) != 3:
            raise ParseError(no, "expected: e <u> <v>")
        u = _int(toks[1], no, "vertex")
        v = _int(toks[2], no, "vertex")
        for x in (u, v):
            if x < 1 or x > n:
                raise ParseError(no, f"vertex {x} is not in 1..{n}")
        if u == v:
            raise ParseError(no, f"self-loop at {u}")
        key = (min(u, v), max(u, v))
        if key in seen:
            raise ParseError(no, f"edge {key} repeats")
        seen.add(key)
        edges.append(key)
    _count(nedges, edges, "edges")
    return Graph(n, tuple(edges))


def serialize_graph(g: Graph) -> str:
    out = [f"p edge {g.num_vertices} {len(g.edges)}"]
    for u, v in g.edges:
        out.append(f"e {u} {v}")
    return "\n".join(out) + "\n"


_PARSERS = {
    "wdnf": parse_formula,
    "wcnf": parse_formula,
    "uhg": parse_hypergraph,
    "absio": parse_absio,
    "edge": parse_graph,
}


def parse_instance(text: str):
    """Parse any instance file, dispatching on its problem-line kind."""
    return _PARSERS[detect_kind(text)](text)


def serialize_instance(obj) -> str:
    if isinstance(obj, WeightedFormula):
        return serialize_formula(obj)
    if isinstance(obj, WeightedHypergraph):
        return serialize_hypergraph(obj)
    if isinstance(obj, AbsIoInstance):
        return serialize_absio(obj)
    if isinstance(obj, Graph):
        return serialize_graph(obj)
    raise InvalidInstanceError(f"cannot serialize {type(obj).__name__}")


def _witness_lines(text: str):
    # The witness lines, past the "s YES" and "o <value>" lines that solve
    # prints before them; an "s NO" file holds no witness.
    for no, toks in _lines(text):
        if toks == ["s", "NO"]:
            raise ParseError(no, "status s NO: the file holds no witness")
        if toks != ["s", "YES"] and not (toks[0] == "o" and len(toks) == 2):
            yield no, toks


def parse_witness(text: str, instance):
    """Parse a witness file against its instance.

    Returns the ``frozenset`` of true variables for a formula (a ``v`` file
    must give every variable exactly once), a vertex ``frozenset`` for a
    hypergraph, or an integer tuple for a polynomial instance.  The output of
    ``absopt solve`` is a witness file: its status and value lines are skipped.
    """
    if isinstance(instance, WeightedFormula):
        lits: list[int] = []
        for no, toks in _witness_lines(text):
            if toks[0] != "v":
                raise ParseError(no, f"expected a v line, got {toks[0]!r}")
            lits.extend(_int(t, no, "literal") for t in toks[1:])
        seen: set[int] = set()
        for lit in lits:
            v = abs(lit)
            if lit == 0 or v > instance.num_vars:
                raise ParseError(0, f"literal {lit} does not name a variable")
            if v in seen:
                raise ParseError(0, f"variable {v} assigned twice")
            seen.add(v)
        if len(seen) != instance.num_vars:
            missing = next(v for v in range(1, instance.num_vars + 1) if v not in seen)
            raise ParseError(0, f"variable {missing} has no value")
        return frozenset(lit for lit in lits if lit > 0)
    if isinstance(instance, WeightedHypergraph):
        vs: list[int] = []
        for no, toks in _witness_lines(text):
            if toks[0] != "s":
                raise ParseError(no, f"expected an s line, got {toks[0]!r}")
            vs.extend(_int(t, no, "vertex") for t in toks[1:])
        out = frozenset(vs)
        if len(out) != len(vs):
            raise ParseError(0, "vertex repeats in the witness")
        bad = out - instance.vertices
        if bad:
            raise ParseError(0, f"vertex {min(bad)} is not in the hypergraph")
        return out
    if isinstance(instance, AbsIoInstance):
        values: dict[int, int] = {}
        for no, toks in _witness_lines(text):
            if toks[0] != "x" or len(toks) != 3:
                raise ParseError(no, "expected: x <var> <value>")
            i = _int(toks[1], no, "variable")
            if i not in instance.var_ids:
                raise ParseError(no, f"variable {i} is not in the instance")
            if i in values:
                raise ParseError(no, f"variable {i} assigned twice")
            values[i] = _int(toks[2], no, "value")
        missing = [g for g in instance.var_ids if g not in values]
        if missing:
            raise ParseError(0, f"variable {missing[0]} has no value")
        return tuple(values[g] for g in instance.var_ids)
    raise InvalidInstanceError(f"no witness format for {type(instance).__name__}")


def serialize_witness(instance, witness) -> str:
    if isinstance(instance, WeightedFormula):
        trues = _true_vars(instance.num_vars, witness)
        body = " ".join(str(v if v in trues else -v) for v in range(1, instance.num_vars + 1))
        return (f"v {body}" if body else "v") + "\n"
    if isinstance(instance, WeightedHypergraph):
        body = " ".join(str(v) for v in sorted(witness))
        return (f"s {body}" if body else "s") + "\n"
    if isinstance(instance, AbsIoInstance):
        pt = tuple(witness)
        if len(pt) != instance.num_vars:
            raise InvalidInstanceError(
                f"point over {len(pt)} variables, instance has {instance.num_vars}"
            )
        return "".join(f"x {g} {x}\n" for g, x in zip(instance.var_ids, pt))
    raise InvalidInstanceError(f"no witness format for {type(instance).__name__}")
