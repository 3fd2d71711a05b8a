"""Instances are checked once, where they enter; the package builds the rest unchecked.

The parsers and the internal rewrites build their outputs through each
class's private ``_trusted`` constructor, which skips the checks of
``__post_init__`` but merges like it.  These tests pin that no internal step
goes back through ``__post_init__``, and that every ``_trusted`` call builds
exactly what the public constructor builds from the same parts.
"""

import contextlib
import io
import random
import sys

import pytest

from absopt import cli, kernel
from absopt.absio import AbsIoInstance, solve_absio
from absopt.formats import (
    parse_absio,
    parse_formula,
    parse_hypergraph,
    serialize_absio,
    serialize_formula,
    serialize_hypergraph,
)
from absopt.model import WeightedFormula, WeightedHypergraph
from absopt.reductions import abs_cnf_to_abs_dnf, encode_dnf_as_hypergraph, monotonize_abs_dnf

from helpers import random_absio, random_formula, random_hypergraph

CLASSES = (WeightedFormula, WeightedHypergraph, AbsIoInstance)

FILES = {
    "a.wdnf": "p wdnf 3 3 3\nw 5 1 -2 0\nw -2 3 0\nw 2 -1 -3 0\n",
    "b.wcnf": "p wcnf 3 2 4\nw 3 1 -2 0\nw 2 -1 3 0\n",
    # rule 1 drops vertices 4 and 5, rule 2 the edge {3}
    "c.uhg": "p uhg 5 4 3\ne 2 1 2 0\ne 0 3 0\ne -1 2 3 0\ne 1 1 0\n",
    # rule 6 shifts x1 and x2 and mirrors x3, then branching, rule 5 in a
    # child and the scan window decide it
    "d.absio": ("p absio 3 4 60\ncol 1 1:1 2:1 0\ncol 2 2:2 0\ncol -1 3:1 0\ncol 1 0\n"
                "b 1 5 inf\nb 2 -3 -1\nb 3 -inf -2\n"),
    "e.wdnf": "p wdnf 2 2 1\nw 3 1 2 0\nw -1 2 0\n",
}

OPS = [
    ["solve", "a.wdnf"],
    ["solve", "--explain", "b.wcnf"],
    ["solve", "--explain", "c.uhg"],
    ["solve", "--explain", "d.absio"],
    ["kernelize", "--explain", "c.uhg", "-o", "out.txt"],
    ["reduce", "monotonize", "a.wdnf", "-o", "out.txt"],
    ["reduce", "cnf2dnf", "b.wcnf"],
    ["reduce", "dnf2uhg", "e.wdnf"],
]


def _run(argv, out_file):
    if out_file.exists():
        out_file.unlink()
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main(argv)
    written = out_file.read_text() if out_file.exists() else None
    return code, stdout.getvalue(), stderr.getvalue(), written


def test_no_revalidation_inside_the_package(tmp_path, monkeypatch):
    for name, text in FILES.items():
        (tmp_path / name).write_text(text)
    out_file = tmp_path / "out.txt"
    argvs = [[str(tmp_path / a) if a in FILES or a == "out.txt" else a for a in argv]
             for argv in OPS]
    expected = [_run(argv, out_file) for argv in argvs]
    assert [got[0] for got in expected] == [10, 10, 10, 10, 0, 0, 0, 0]
    assert "rule6 negate x3" in expected[3][1] and "extend x3=" in expected[3][1]

    def refuse(self):
        raise AssertionError(f"{type(self).__name__} re-validated inside the package")

    for cls in CLASSES:
        monkeypatch.setattr(cls, "__post_init__", refuse)
    assert [_run(argv, out_file) for argv in argvs] == expected


def _check_types(inst):
    if isinstance(inst, WeightedFormula):
        assert type(inst.num_vars) is int and type(inst.alpha) is int
        assert type(inst.clauses) is tuple
        for clause in inst.clauses:
            assert type(clause) is tuple and type(clause[0]) is frozenset
            assert type(clause[1]) is int
            assert all(type(lit) is int for lit in clause[0])
    elif isinstance(inst, WeightedHypergraph):
        assert type(inst.vertices) is frozenset
        assert all(type(v) is int for v in inst.vertices)
        assert type(inst.alpha) is int and type(inst.d) is int
        assert type(inst.edges) is tuple
        for edge in inst.edges:
            assert type(edge) is tuple and type(edge[0]) is frozenset
            assert type(edge[1]) is int
    else:
        assert type(inst.alpha) is int and type(inst.terms) is tuple
        for term in inst.terms:
            assert type(term) is tuple and type(term[0]) is tuple and type(term[1]) is int
            assert all(type(a) is int for a in term[0])
        for seq in (inst.lower, inst.upper, inst.var_ids):
            assert type(seq) is tuple
        assert all(b is None or type(b) is int for b in inst.lower + inst.upper)
        assert all(type(g) is int for g in inst.var_ids)


@pytest.fixture
def trusted_calls(monkeypatch):
    """Record each ``_trusted`` call as (calling function, class, args, instance built)."""
    calls = []
    for cls in CLASSES:
        real = cls._trusted.__func__

        def spy(cls, *args, real=real):
            out = real(cls, *args)
            calls.append((sys._getframe(1).f_code.co_name, cls, args, out))
            return out

        monkeypatch.setattr(cls, "_trusted", classmethod(spy))
    return calls


SITES = {
    "parse_formula", "parse_hypergraph", "parse_absio",
    "rule1_isolated", "rule2_zero_weight",
    "monotonize_abs_dnf", "abs_cnf_to_abs_dnf", "encode_dnf_as_hypergraph",
    "rule5_simplify", "shift_variable", "negate_variable",
    "_support_shortcut", "_branch_child",
}


def test_trusted_equals_public(trusted_calls):
    rng = random.Random(18)
    for _ in range(120):
        phi = parse_formula(serialize_formula(random_formula(rng, kind="dnf")))
        encode_dnf_as_hypergraph(monotonize_abs_dnf(phi)[0])
        monotonize_abs_dnf(abs_cnf_to_abs_dnf(
            parse_formula(serialize_formula(random_formula(rng, kind="cnf"))))[0])
    for _ in range(120):
        h = random_hypergraph(rng)
        parse_hypergraph(serialize_hypergraph(h))
        kernel.kernelize(h, kernel.MODE_SUBEDGE)
    parse_hypergraph("p uhg 3 2 1\nn 2 5 9 0\ne 1 2 9 0\ne 2 9 2 0\n")
    for _ in range(150):
        solve_absio(parse_absio(serialize_absio(random_absio(rng, allow_unbounded=True))))
    # the support shortcut builds its hypergraph only from eight terms of
    # degree 1 up, more than the random instances hold
    solve_absio(parse_absio("p absio 8 8 100\n"
                            + "".join(f"col 1 {v}:1 0\n" for v in range(1, 9))
                            + "".join(f"b {v} 0 1\n" for v in range(1, 9))))
    assert {site for site, _, _, _ in trusted_calls} == SITES
    for site, cls, args, out in trusted_calls:
        assert out == cls(*args), site
        _check_types(out)
