import math
import sys

import pytest

from absopt import WeightedFormula, absio, brute_force_formula, cli, eval_formula
from helpers import mask_vars
from absopt.cli import EXIT_BUDGET, EXIT_ERROR, EXIT_NO, EXIT_YES, main
from absopt.errors import InternalGuaranteeError
from absopt.formats import (
    parse_formula,
    parse_hypergraph,
    parse_instance,
    parse_witness,
    serialize_instance,
)
from absopt.kernel import STATUS_TRIVIAL_YES, KernelOutcome

YES_DNF = "p wdnf 3 2 3\nw 5 1 -2 0\nw -2 3 0\n"
NO_DNF = "p wdnf 2 1 9\nw 5 1 2 0\n"
STAR_UHG = "p uhg 33 32 1\n" + "".join(
    f"e 1 1 {p} 0\n" for p in range(2, 34)
)
SMALL_UHG = "p uhg 3 2 5\ne 2 1 2 0\ne 0 3 0\n"
ABSIO_YES = "p absio 1 2 50\ncol 1 1:1 0\ncol 1 0\nb 1 5 inf\n"
GRAPH = "p edge 4 3\ne 1 2\ne 2 3\ne 3 4\n"


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_solve_yes_formula(tmp_path, capsys):
    f = _write(tmp_path, "a.wdnf", YES_DNF)
    assert main(["solve", f]) == EXIT_YES
    out = capsys.readouterr().out
    assert "c method pipeline" in out
    assert "s YES" in out
    lines = out.splitlines()
    o_line = next(l for l in lines if l.startswith("o "))
    v_line = next(l for l in lines if l.startswith("v "))
    phi = parse_formula(YES_DNF)
    beta = parse_witness(v_line + "\n", phi)
    assert eval_formula(phi, beta) == int(o_line.split()[1])
    assert abs(eval_formula(phi, beta)) >= 3


def test_solve_no_formula(tmp_path, capsys):
    f = _write(tmp_path, "a.wdnf", NO_DNF)
    assert main(["solve", f]) == EXIT_NO
    out = capsys.readouterr().out
    assert "s NO" in out and "o " not in out


def test_solve_oracle_flag_and_routing(tmp_path, capsys):
    f = _write(tmp_path, "a.wdnf", YES_DNF)
    assert main(["solve", f, "--oracle"]) == EXIT_YES
    assert "c method oracle" in capsys.readouterr().out
    # a sum objective cannot take the kernel route, so it falls back
    g = _write(tmp_path, "b.wdnf", "p wdnf 1 1 2 sum atleast\nw 2 1 0\n")
    assert main(["solve", g]) == EXIT_YES
    assert "c method oracle" in capsys.readouterr().out


def test_solve_hypergraph_explain(tmp_path, capsys):
    f = _write(tmp_path, "star.uhg", STAR_UHG)
    assert main(["solve", f, "--explain"]) == EXIT_YES
    out = capsys.readouterr().out
    assert any(l.startswith("c rule4") for l in out.splitlines())
    s_line = next(l for l in out.splitlines() if l.startswith("s "))
    assert s_line == "s YES"


def test_solve_absio(tmp_path, capsys):
    f = _write(tmp_path, "p.absio", ABSIO_YES)
    assert main(["solve", f]) == EXIT_YES
    out = capsys.readouterr().out
    assert "c method pipeline" in out
    x_line = next(l for l in out.splitlines() if l.startswith("x "))
    assert int(x_line.split()[2]) >= 5


def test_solve_zero_variable_polynomial(tmp_path, capsys):
    # p = 1 + 2 over no variables: the constant 3, with the empty witness
    text = "p absio 0 2 3\ncol 1 0\ncol 2 0\n"
    assert serialize_instance(parse_instance(text)) == text
    f = _write(tmp_path, "const.absio", text)
    for flags, method in (([], "pipeline"), (["--oracle"], "oracle")):
        assert main(["solve", f, *flags]) == EXIT_YES
        assert capsys.readouterr().out == f"c method {method}\ns YES\no 3\n"


def test_solve_rejects_bare_graph(tmp_path, capsys):
    f = _write(tmp_path, "g.col", GRAPH)
    assert main(["solve", f]) == EXIT_ERROR
    assert "error:" in capsys.readouterr().err


def test_solve_cap_counts_used_variables(tmp_path, capsys):
    # 30 declared variables, 3 used: the core enumerates 3, so the default
    # cap of 24 lets it answer
    sparse = "p wdnf 30 3 1 sum exact\nw 1 1 0\nw 1 2 0\nw -1 30 0\n"
    f = _write(tmp_path, "sparse.wdnf", sparse)
    assert main(["solve", f]) == EXIT_YES
    out = capsys.readouterr().out.splitlines()
    assert out[:3] == ["c method oracle", "s YES", "o 1"]
    assert out[3] == "v -1 2 " + " ".join(str(-v) for v in range(3, 31))
    # 25 distinct variables used, 5 declared ones not: over the cap
    dense = "p wdnf 30 25 1 sum exact\n" + "".join(f"w 1 {v} 0\n" for v in range(1, 26))
    g = _write(tmp_path, "dense.wdnf", dense)
    assert main(["solve", g]) == EXIT_BUDGET
    assert capsys.readouterr().err == "budget: assignment enumeration over 25 exceeds cap 24\n"
    assert main(["solve", g, "--cap", "25"]) == EXIT_YES


def test_solve_refuses_a_huge_declared_count(tmp_path, capsys, monkeypatch):
    # The v line names every declared variable, so a one-clause file that
    # declares 10^12 of them exits 2 at once on both routes
    n = 10**12
    msg = f"budget: witness line over {n} variables exceeds cap {1 << 20}\n"
    for head, flags in (("sum atleast", []), ("abs atleast", []), ("abs atleast", ["--oracle"])):
        f = _write(tmp_path, "huge.wdnf", f"p wdnf {n} 1 1 {head}\nw 1 1 0\n")
        assert main(["solve", f, *flags]) == EXIT_BUDGET
        assert capsys.readouterr().err == msg
    g = _write(tmp_path, "huge.wcnf", f"p wcnf {n} 1 1\nw 1 1 0\n")
    assert main(["solve", g]) == EXIT_BUDGET
    # the bound counts declared variables, used or not
    monkeypatch.setattr(cli, "DECLARED_VARS_CAP", 30)
    sparse = "p wdnf {} 3 1 sum exact\nw 1 1 0\nw 1 2 0\nw -1 30 0\n"
    assert main(["solve", _write(tmp_path, "s30.wdnf", sparse.format(30))]) == EXIT_YES
    assert main(["solve", _write(tmp_path, "s31.wdnf", sparse.format(31))]) == EXIT_BUDGET
    assert capsys.readouterr().err.endswith("witness line over 31 variables exceeds cap 30\n")


def test_solve_budget(tmp_path, capsys):
    wide = "p wdnf 30 1 1\nw 1 " + " ".join(str(v) for v in range(1, 31)) + " 0\n"
    f = _write(tmp_path, "wide.wdnf", wide)
    assert main(["solve", f, "--oracle", "--cap", "25"]) == EXIT_BUDGET
    assert "budget:" in capsys.readouterr().err
    # 30 negated literals would expand into 2^30 monotone clauses
    negated = "p wdnf 30 1 1\nw 1 " + " ".join(str(-v) for v in range(1, 31)) + " 0\n"
    g = _write(tmp_path, "negated.wdnf", negated)
    assert main(["solve", g]) == EXIT_BUDGET
    assert "budget:" in capsys.readouterr().err
    assert main(["reduce", "monotonize", g]) == EXIT_BUDGET
    assert "budget:" in capsys.readouterr().err
    # a width-11 conjunction would expand into 2^11 - 1 disjunctions
    conj = "p wdnf 11 1 1\nw 1 " + " ".join(str(v) for v in range(1, 12)) + " 0\n"
    h = _write(tmp_path, "conj.wdnf", conj)
    assert main(["reduce", "expand", h]) == EXIT_BUDGET
    assert "budget:" in capsys.readouterr().err


def test_solve_absio_scan_window_exact(tmp_path, capsys):
    # p = x1 over [0, inf): the k=1 child only asks for a nonzero coefficient,
    # and its witness extends into a window of 2*e*alpha + 1 points from 0,
    # here 2*10^12 + 1; the first hit, x1 = 10^12, is found without a scan
    wide = _write(tmp_path, "wide.absio", "p absio 1 1 1000000000000\ncol 1 1:1 0\nb 1 0 inf\n")
    assert main(["solve", wide]) == EXIT_YES
    assert "x 1 1000000000000\n" in capsys.readouterr().out
    # at target 1000 the window holds 2001 points and the hit is the 1001st;
    # the point cap bounds leaves only
    narrow = _write(tmp_path, "narrow.absio", "p absio 1 1 1000\ncol 1 1:1 0\nb 1 0 inf\n")
    for cap in ([], ["--cap", "1000"], ["--cap", "0"]):
        assert main(["solve", narrow, *cap]) == EXIT_YES
        assert "x 1 1000\n" in capsys.readouterr().out
    # p = 10^6 x1 reaches 10^7 at x1 = 10
    early = _write(tmp_path, "early.absio", "p absio 1 1 10000000\ncol 1000000 1:1 0\nb 1 0 inf\n")
    assert main(["solve", early]) == EXIT_YES
    assert "x 1 10\n" in capsys.readouterr().out


@pytest.mark.parametrize("text", [
    "p absio 0 1 1\ncol 1 0\n",
    "p absio 1 1 1\ncol 1 0\nb 1 0 0\n",
], ids=["no-variables", "one-point"])
def test_solve_absio_oracle_cap_counts_the_one_point(tmp_path, capsys, text):
    f = _write(tmp_path, "a.absio", text)
    assert main(["solve", f, "--oracle", "--cap", "0"]) == EXIT_BUDGET
    assert capsys.readouterr().err == "budget: point enumeration over 1+ exceeds cap 0\n"
    assert main(["solve", f, "--oracle", "--cap", "1"]) == EXIT_YES
    capsys.readouterr()
    # the pipeline drops a one-point variable and evaluates the constant left;
    # the cap bounds only leaves that still hold variables
    assert main(["solve", f, "--cap", "0"]) == EXIT_YES
    assert "o 1\n" in capsys.readouterr().out


@pytest.mark.parametrize("name, text", [
    ("a.wdnf", YES_DNF), ("a.uhg", SMALL_UHG), ("a.absio", ABSIO_YES),
], ids=["wdnf", "uhg", "absio"])
def test_solve_rejects_negative_cap(tmp_path, capsys, name, text):
    f = _write(tmp_path, name, text)
    with pytest.raises(SystemExit) as exc:
        main(["solve", f, "--cap", "-1"])
    assert exc.value.code == EXIT_ERROR
    assert "argument --cap: must be non-negative, got -1" in capsys.readouterr().err


# int() alone takes all but "x": the integers are the file grammar's
NOT_INTEGERS = ["x", "1_0", "\uff13", "\u0663", " 3", "3\n", "0x3", "3.0"]


def test_solve_rejects_non_integer_cap(tmp_path, capsys):
    f = _write(tmp_path, "a.absio", ABSIO_YES)
    for text in NOT_INTEGERS:
        with pytest.raises(SystemExit) as exc:
            main(["solve", f, "--cap", text])
        assert exc.value.code == EXIT_ERROR
        assert f"argument --cap: invalid int value: {text!r}" in capsys.readouterr().err
    assert main(["solve", f, "--cap", "+25"]) == EXIT_YES


def test_generate_rejects_non_integer_k(tmp_path, capsys):
    f = _write(tmp_path, "g.col", GRAPH)
    for text in NOT_INTEGERS:
        with pytest.raises(SystemExit) as exc:
            main(["generate", "abs-w1", f, text])
        assert exc.value.code == EXIT_ERROR
        assert f"argument k: invalid int value: {text!r}" in capsys.readouterr().err
    assert main(["generate", "abs-w1", f, "+2"]) == 0
    signed = capsys.readouterr().out
    assert main(["generate", "abs-w1", f, "2"]) == 0
    assert capsys.readouterr().out == signed


def test_solve_oracle_on_hypergraph(tmp_path, capsys):
    f = _write(tmp_path, "a.uhg", SMALL_UHG)
    assert main(["solve", f, "--oracle"]) == EXIT_NO
    assert capsys.readouterr().out == "c method oracle\ns NO\n"
    g = _write(tmp_path, "b.uhg", "p uhg 3 2 2\ne 2 1 2 0\ne 0 3 0\n")
    assert main(["solve", g, "--oracle"]) == EXIT_YES
    assert capsys.readouterr().out == "c method oracle\ns YES\no 2\ns 1 2\n"


@pytest.mark.parametrize("text, explain", [
    # an empty domain: rule 5 certifies no before anything else runs
    ("p absio 1 1 5\ncol 1 1:1 0\nb 1 3 1\n", ["rule5 empty x1"]),
    # x1 x2^2 - x1 x2 over x2 in [0, 1]: x1 is branched on, its k = 0 child
    # holds no term and its k = 1 child, x2^2 - x2, is 0 on both points
    ("p absio 2 2 1\ncol 1 1:1 2:2 0\ncol -1 1:1 2:1 0\nb 2 0 1\n",
     ["branch x1 e=1", "child k=0 empty", "k=1:leaf points=2", "child k=1 no"]),
], ids=["empty-domain", "every-child-no"])
def test_solve_absio_no(tmp_path, capsys, text, explain):
    f = _write(tmp_path, "a.absio", text)
    assert main(["solve", f, "--explain"]) == EXIT_NO
    comments = "".join(f"c {line}\n" for line in explain)
    assert capsys.readouterr().out == f"c method pipeline\n{comments}s NO\n"


# a shift-family polynomial: every box misses 0, so rule 6 shifts all three
# variables and the leaf scans the 64-point box; the largest |p| is 3195716
SHIFTED = ("col 2 1:3 2:1 0\ncol -3 2:2 3:2 0\ncol 5 1:1 3:3 0\n"
           "col -1 1:2 2:1 3:1 0\ncol 4 3:2 0\ncol -2 1:1 0\n"
           "b 1 20 23\nb 2 -45 -42\nb 3 31 34\n")
SHIFTED_EXPLAIN = ("c method pipeline\nc rule6 shift x1 t=20\nc rule6 shift x2 t=-45\n"
                   "c rule6 shift x3 t=31\nc leaf points=64\n")


@pytest.mark.parametrize("alpha, code, answer", [
    (3100000, EXIT_YES, "s YES\no -3143659\nx 1 20\nx 2 -45\nx 3 33\n"),
    (3195717, EXIT_NO, "s NO\n"),
], ids=["yes", "no"])
def test_solve_absio_shifted_leaf_explain(tmp_path, capsys, alpha, code, answer):
    f = _write(tmp_path, "a.absio", f"p absio 3 6 {alpha}\n{SHIFTED}")
    assert main(["solve", "--explain", f]) == code
    assert capsys.readouterr().out == SHIFTED_EXPLAIN + answer


def _no_shift(*args):
    raise AssertionError("a shifted term was built")


def test_solve_absio_shift_logs_no_cancellation(tmp_path, capsys, monkeypatch):
    # x^2 - 10x + 25 on [5, 6] is y^2 once rule 6 shifts x = y + 5, and the
    # two terms that cancel were logged as "rule5 zerocols=2"; rule 6 now
    # moves the box only, so no shifted term is built and none cancels
    monkeypatch.setattr(absio, "shift_variable", _no_shift)
    f = _write(tmp_path, "a.absio", "p absio 1 3 1\ncol 1 1:2 0\ncol -10 1:1 0\ncol 25 0\nb 1 5 6\n")
    assert main(["solve", "--explain", f]) == EXIT_YES
    assert capsys.readouterr().out == (
        "c method pipeline\nc rule6 shift x1 t=5\nc leaf points=2\ns YES\no 1\nx 1 6\n")


def test_solve_absio_pre_shift_leaf_keeps_the_cap(tmp_path, monkeypatch):
    # x1 x2 on [2, 12]^2 is 121 points, and at alpha = 100 no side is wide
    # enough to branch on
    monkeypatch.setattr(absio, "shift_variable", _no_shift)
    f = _write(tmp_path, "a.absio", "p absio 2 1 100\ncol 1 1:1 2:1 0\nb 1 2 12\nb 2 2 12\n")
    assert main(["solve", "--cap", "120", f]) == EXIT_BUDGET
    assert main(["solve", "--cap", "121", f]) == EXIT_YES


# p = x1 x2 - 3 x1 + 7 on [-100, 199]^2: 90,000 points, more than one scan,
# so the leaf skips the sub-boxes whose bound on |p| is below the target; at
# the largest |p|, 39011 at the last point, it skips half the box
PRUNED = "col 1 1:1 2:1 0\ncol -3 1:1 0\ncol 7 0\nb 1 -100 199\nb 2 -100 199\n"


def _scanned_points(monkeypatch):
    # points the leaf hands to _grid_leaf, summed over its scans
    scanned = [0]
    grid_leaf = absio._grid_leaf

    def spy(terms, lower, upper, alpha, dtype):
        scanned[0] += math.prod(h - l + 1 for l, h in zip(lower, upper))
        return grid_leaf(terms, lower, upper, alpha, dtype)

    monkeypatch.setattr(absio, "_grid_leaf", spy)
    return scanned


PRUNED_ANSWERS = [
    (39011, EXIT_YES, "s YES\no 39011\nx 1 199\nx 2 199\n"),
    (39012, EXIT_NO, "s NO\n"),
]


@pytest.mark.parametrize("alpha, code, answer", PRUNED_ANSWERS, ids=["yes", "no"])
def test_solve_absio_pruned_leaf_explain(tmp_path, capsys, monkeypatch, alpha, code, answer):
    # pruning leaves the transcript's point count at the box's
    scanned = _scanned_points(monkeypatch)
    f = _write(tmp_path, "a.absio", f"p absio 2 3 {alpha}\n{PRUNED}")
    assert main(["solve", "--explain", f]) == code
    assert capsys.readouterr().out == "c method pipeline\nc leaf points=90000\n" + answer
    assert scanned[0] == 45000


# p = 5 x1^22 + 9 x2^3 x3 - 4 x2^2 x3^3 + 7 x3^2 on [0, 9] x [-60, 60] x [-8, 8],
# shaped like perfbench's big family: 20,570 points, values past I64_SAFE, so
# Python ints.  Its optimum, 5 * 9^22 + 9 * 60^3 * 8 + 4 * 3600 * 512 + 448 at
# (9, -60, -8), lies in the row x1 = 9, which alone the bound keeps.
BIG = "col 5 1:22 0\ncol 9 2:3 3:1 0\ncol -4 2:2 3:3 0\ncol 7 3:2 0\n" \
      "b 1 0 9\nb 2 -60 60\nb 3 -8 8\n"


@pytest.mark.parametrize("alpha, code, answer", [
    (4923854510918079089653, EXIT_YES, "s YES\no 4923854510918079089653\nx 1 9\nx 2 -60\nx 3 -8\n"),
    (4923854510918079089654, EXIT_NO, "s NO\n"),
], ids=["yes", "no"])
def test_solve_absio_big_leaf_explain(tmp_path, capsys, monkeypatch, alpha, code, answer):
    # a box of Python ints is bounded and split too: at most one x1 row of
    # 2,057 points is scanned, yet the transcript counts the whole box
    scanned = _scanned_points(monkeypatch)
    f = _write(tmp_path, "a.absio", f"p absio 3 4 {alpha}\n{BIG}")
    assert main(["solve", "--explain", f]) == code
    assert capsys.readouterr().out == "c method pipeline\nc leaf points=20570\n" + answer
    assert scanned[0] <= 2057


def test_solve_absio_cap_counts_the_box_not_the_scan(tmp_path, capsys, monkeypatch):
    # at this target the bound skips the whole box, yet the cap counts it
    scanned = _scanned_points(monkeypatch)
    f = _write(tmp_path, "a.absio", f"p absio 2 3 {10**9}\n{PRUNED}")
    assert main(["solve", f, "--cap", "89999"]) == EXIT_BUDGET
    assert capsys.readouterr().err == "budget: point enumeration over 90000+ exceeds cap 89999\n"
    assert main(["solve", "--explain", f, "--cap", "90000"]) == EXIT_NO
    assert capsys.readouterr().out == "c method pipeline\nc leaf points=90000\ns NO\n"
    assert scanned[0] == 0


@pytest.mark.parametrize("alpha, code, answer", PRUNED_ANSWERS, ids=["yes", "no"])
def test_solve_absio_oracle_scans_without_the_bound(tmp_path, capsys, monkeypatch,
                                                    alpha, code, answer):
    # --oracle scans every point and never bounds; the pipeline's leaf does
    class Bounded(Exception):
        pass

    def bound(*args):
        raise Bounded

    monkeypatch.setattr(absio, "_abs_bound", bound)
    scanned = _scanned_points(monkeypatch)
    f = _write(tmp_path, "a.absio", f"p absio 2 3 {alpha}\n{PRUNED}")
    assert main(["solve", "--oracle", f]) == code
    assert capsys.readouterr().out == "c method oracle\n" + answer
    assert scanned[0] == 90000
    with pytest.raises(Bounded):
        main(["solve", f])


def test_solve_missing_file(capsys):
    assert main(["solve", "/nonexistent/zzz.wdnf"]) == EXIT_ERROR
    assert "error:" in capsys.readouterr().err


# one 15-literal clause and one unit clause: the encoding has edge-size bound 15
WIDE_DNF = "p wdnf 15 2 5\nw 4 " + " ".join(map(str, range(1, 16))) + " 0\nw 1 1 0\n"
STAR13 = "p edge 14 13\n" + "".join(f"e 1 {v}\n" for v in range(2, 15))


def _solve_matches_brute_force(path, capsys):
    phi = parse_formula(open(path).read())
    want = brute_force_formula(phi)
    code = main(["solve", path])
    assert code == (EXIT_YES if want.decision else EXIT_NO)
    out = capsys.readouterr().out
    if want.decision:
        v_line = next(l for l in out.splitlines() if l.startswith("v "))
        value = eval_formula(phi, parse_witness(v_line + "\n", phi))
        assert abs(value) >= phi.alpha
        assert f"o {value}" in out.splitlines()


def test_solve_wide_clause_needs_no_huge_threshold(tmp_path, capsys, small_g_only):
    _solve_matches_brute_force(_write(tmp_path, "wide.wdnf", WIDE_DNF), capsys)


def test_solve_abs_w1_star_needs_no_huge_threshold(tmp_path, capsys, small_g_only):
    graph = _write(tmp_path, "star.col", STAR13)
    phi_path = str(tmp_path / "star.wdnf")
    for k in (13, 14):
        assert main(["generate", "abs-w1", graph, str(k), "-o", phi_path]) == 0
        _solve_matches_brute_force(phi_path, capsys)


def test_reduce_monotonize(tmp_path, capsys):
    f = _write(tmp_path, "a.wdnf", YES_DNF)
    out_path = tmp_path / "mono.wdnf"
    assert main(["reduce", "monotonize", f, "-o", str(out_path)]) == 0
    mono = parse_formula(out_path.read_text())
    assert mono.monotone
    phi = parse_formula(YES_DNF)
    for mask in range(1 << 3):
        trues = mask_vars(mask)
        assert eval_formula(mono, trues) == eval_formula(phi, trues)


def test_reduce_cnf2dnf_and_expand(tmp_path, capsys):
    f = _write(tmp_path, "a.wcnf", "p wcnf 2 1 2\nw 3 1 2 0\n")
    assert main(["reduce", "cnf2dnf", f]) == 0
    dnf = parse_formula(capsys.readouterr().out)
    assert dnf.kind == "dnf"
    g = _write(tmp_path, "m.wdnf", "p wdnf 2 1 2\nw 3 1 2 0\n")
    assert main(["reduce", "expand", g]) == 0
    cnf = parse_formula(capsys.readouterr().out)
    assert cnf.kind == "cnf"


def test_reduce_dnf2uhg(tmp_path, capsys):
    f = _write(tmp_path, "m.wdnf", "p wdnf 2 2 2\nw 3 1 2 0\nw -1 1 0\n")
    assert main(["reduce", "dnf2uhg", f]) == 0
    h = parse_hypergraph(capsys.readouterr().out)
    assert dict(h.edges)[frozenset({1, 2})] == 3


def test_reduce_exact_and_min(tmp_path, capsys):
    f = _write(tmp_path, "m.wdnf", "p wdnf 2 1 2\nw 3 1 2 0\n")
    assert main(["reduce", "exact", f]) == 0
    exact = parse_formula(capsys.readouterr().out)
    assert exact.comparison == "exact" and exact.alpha == 0
    assert main(["reduce", "min", f]) == 0
    mn = parse_formula(capsys.readouterr().out)
    assert mn.comparison == "atmost" and mn.alpha == 0


def test_reduce_rejects_hypergraph(tmp_path, capsys):
    f = _write(tmp_path, "h.uhg", SMALL_UHG)
    assert main(["reduce", "monotonize", f]) == EXIT_ERROR
    assert "error:" in capsys.readouterr().err


def test_kernelize_rejects_other_kinds(tmp_path, capsys):
    f = _write(tmp_path, "a.wdnf", YES_DNF)
    assert main(["kernelize", f]) == EXIT_ERROR
    assert capsys.readouterr().err == "error: kernelize expects a uhg file\n"


def test_kernelize_trivial_yes(tmp_path, capsys):
    f = _write(tmp_path, "star.uhg", STAR_UHG)
    assert main(["kernelize", f, "--explain"]) == EXIT_YES
    out = capsys.readouterr().out
    assert "s YES" in out
    assert any(l.startswith("c rule4") for l in out.splitlines())
    s_line = next(l for l in out.splitlines() if l.startswith("s ") and l != "s YES")
    vs = set(map(int, s_line.split()[1:]))
    h = parse_hypergraph(STAR_UHG)
    from absopt import induced_weight

    assert abs(induced_weight(h, vs)) >= 1


def test_kernelize_bad_witness_is_a_bug(tmp_path, monkeypatch):
    f = _write(tmp_path, "star.uhg", STAR_UHG)
    h = parse_hypergraph(STAR_UHG)
    monkeypatch.setattr(
        cli, "kernelize", lambda inst, mode: KernelOutcome(STATUS_TRIVIAL_YES, h, frozenset(), ())
    )
    with pytest.raises(InternalGuaranteeError):
        main(["kernelize", f])


def test_kernelize_reduced_output(tmp_path, capsys):
    f = _write(tmp_path, "h.uhg", SMALL_UHG)
    out_path = tmp_path / "reduced.uhg"
    assert main(["kernelize", f, "-o", str(out_path)]) == 0
    reduced = parse_hypergraph(out_path.read_text())
    # the zero-weight edge and the then-isolated vertex 3 are gone
    assert reduced.vertices == frozenset({1, 2})
    assert len(reduced.edges) == 1


def test_generate_all(tmp_path, capsys):
    f = _write(tmp_path, "g.col", GRAPH)
    for gen in ("max-dnf", "abs-np", "abs-w1"):
        assert main(["generate", gen, f, "2"]) == 0
        phi = parse_formula(capsys.readouterr().out)
        assert isinstance(phi, WeightedFormula)
    assert main(["generate", "abs-w1", f, "-1"]) == EXIT_ERROR
    bad = _write(tmp_path, "a.wdnf", YES_DNF)
    assert main(["generate", "abs-w1", bad, "2"]) == EXIT_ERROR


def test_generate_solve_pipeline_roundtrip(tmp_path, capsys):
    # path on 4 vertices has an independent set of size 2, none of size 3
    f = _write(tmp_path, "g.col", GRAPH)
    phi_path = tmp_path / "k.wdnf"
    assert main(["generate", "abs-np", f, "2", "-o", str(phi_path)]) == 0
    capsys.readouterr()
    assert main(["solve", str(phi_path)]) == EXIT_YES
    capsys.readouterr()
    assert main(["generate", "abs-np", f, "3", "-o", str(phi_path)]) == 0
    capsys.readouterr()
    assert main(["solve", str(phi_path)]) == EXIT_NO


def test_verify_valid_and_invalid(tmp_path, capsys):
    inst = _write(tmp_path, "a.wdnf", YES_DNF)
    good = _write(tmp_path, "good.wit", "v 1 -2 -3\n")
    bad = _write(tmp_path, "bad.wit", "v -1 2 3\n")
    assert main(["verify", inst, good]) == 0
    out = capsys.readouterr().out
    assert "c value=5" in out and "s VALID" in out
    assert main(["verify", inst, bad]) == 1
    out = capsys.readouterr().out
    assert "s INVALID" in out
    partial = _write(tmp_path, "p.wit", "v 1\n")
    assert main(["verify", inst, partial]) == EXIT_ERROR


@pytest.mark.parametrize("name, text", [
    ("a.wdnf", YES_DNF), ("a.uhg", STAR_UHG), ("a.absio", ABSIO_YES),
], ids=["wdnf", "uhg", "absio"])
def test_verify_reads_solve_output(tmp_path, capsys, name, text):
    f = _write(tmp_path, name, text)
    assert main(["solve", f]) == EXIT_YES
    w = _write(tmp_path, "w.txt", capsys.readouterr().out)
    assert main(["verify", f, w]) == 0
    assert "s VALID" in capsys.readouterr().out


# x1^20000 on [0, 2] at target 2: the witness x1 = 2 scores 2^20000, 6,021
# digits, and the weight 10^4301 - 1 has 4,301; Python refuses by default to
# convert an int of more than 4,300 digits to or from a string
HUGE_VALUE = "p absio 1 1 2\ncol 1 1:20000 0\nb 1 0 2\n"
HUGE_WEIGHT = "9" * 4301


def _digit_limit():
    return sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None


@pytest.mark.parametrize("flags", [[], ["--oracle"]], ids=["pipeline", "oracle"])
def test_solve_and_verify_integers_of_any_length(tmp_path, capsys, flags):
    # the command lifts the digit limit while it runs and restores it after
    limit = _digit_limit()
    f = _write(tmp_path, "a.absio", HUGE_VALUE)
    assert main(["solve", f, *flags]) == EXIT_YES
    out = capsys.readouterr().out
    _, status, o_line, x_line = out.splitlines()
    assert (status, o_line[:2], x_line) == ("s YES", "o ", "x 1 2")
    value = o_line[2:]
    assert len(value) == 6021 and value[-20:] == f"{pow(2, 20000, 10**20):020d}"
    assert _digit_limit() == limit
    w = _write(tmp_path, "w.txt", out)
    assert main(["verify", f, w]) == 0
    assert capsys.readouterr().out == f"c value={value}\ns VALID\n"
    assert _digit_limit() == limit
    f = _write(tmp_path, "a.wdnf", f"p wdnf 1 1 1\nw {HUGE_WEIGHT} 1 0\n")
    assert main(["solve", f, *flags]) == EXIT_YES
    out = capsys.readouterr().out
    assert out.splitlines()[1:] == ["s YES", f"o {HUGE_WEIGHT}", "v 1"]
    w = _write(tmp_path, "w.txt", out)
    assert main(["verify", f, w]) == 0
    assert capsys.readouterr().out == f"c value={HUGE_WEIGHT}\ns VALID\n"
    assert _digit_limit() == limit


def test_verify_rejects_bare_graph(tmp_path, capsys):
    g = _write(tmp_path, "g.col", GRAPH)
    w = _write(tmp_path, "w.txt", "s 1\n")
    assert main(["verify", g, w]) == EXIT_ERROR
    assert capsys.readouterr().err == "error: a bare graph has nothing to verify against\n"


def test_verify_rejects_solve_no_output(tmp_path, capsys):
    f = _write(tmp_path, "a.wdnf", NO_DNF)
    assert main(["solve", f]) == EXIT_NO
    w = _write(tmp_path, "w.txt", capsys.readouterr().out)
    assert main(["verify", f, w]) == EXIT_ERROR
    assert "status s NO: the file holds no witness" in capsys.readouterr().err


def test_parse_error_exit(tmp_path, capsys):
    f = _write(tmp_path, "junk.wdnf", "p wdnf one 0 0\n")
    assert main(["solve", f]) == EXIT_ERROR
    assert "error: line 1" in capsys.readouterr().err


def test_unknown_subcommand_exits():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == EXIT_ERROR


@pytest.mark.parametrize("flag", [["--bogus", "x"], ["--jobs", "2"]])
def test_unknown_flag_exits_with_usage_error(tmp_path, capsys, flag):
    f = _write(tmp_path, "a.wdnf", YES_DNF)
    with pytest.raises(SystemExit) as exc:
        main(["solve", f, *flag])
    assert exc.value.code == EXIT_ERROR
    assert "unrecognized arguments" in capsys.readouterr().err


def test_parser_is_built_once():
    assert cli._parser() is cli._parser()


def test_usage_errors_leave_the_shared_parser_intact(tmp_path, capsys):
    f = _write(tmp_path, "a.wdnf", YES_DNF)
    assert main(["solve", f, "--explain"]) == EXIT_YES
    first = capsys.readouterr().out
    for argv in (["solve", f, "--bogus", "x"], ["reduce", "nosuch", f]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == EXIT_ERROR
    capsys.readouterr()
    assert main(["solve", f, "--explain"]) == EXIT_YES
    assert capsys.readouterr().out == first


@pytest.mark.parametrize("argv", [["--help"], ["solve", "--help"]], ids=["top", "solve"])
def test_help_is_stable(capsys, argv):
    texts = []
    for _ in range(2):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        texts.append(capsys.readouterr().out)
    assert texts[0] == texts[1]
    assert texts[0].startswith("usage: absopt")


def test_solve_output_is_deterministic(tmp_path, capsys):
    f = _write(tmp_path, "star.uhg", STAR_UHG)
    assert main(["solve", f, "--explain"]) == EXIT_YES
    first = capsys.readouterr().out
    assert main(["solve", f, "--explain"]) == EXIT_YES
    second = capsys.readouterr().out
    assert first == second


def test_module_entry_point(tmp_path):
    import os
    import subprocess
    import sys
    from pathlib import Path

    f = _write(tmp_path, "a.wdnf", YES_DNF)
    # the child imports the same package as this test, installed or not
    src = str(Path(cli.__file__).parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-m", "absopt.cli", "solve", f],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
    )
    assert proc.returncode == EXIT_YES
    assert "s YES" in proc.stdout
