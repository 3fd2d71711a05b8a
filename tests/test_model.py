import itertools
import random

import pytest

from absopt import engine
from absopt.errors import BudgetExceededError, InvalidInstanceError
from absopt.model import (
    WeightedFormula,
    WeightedHypergraph,
    brute_force_formula,
    brute_force_hypergraph,
    eval_formula,
    induced_weight,
    iter_subsets_lex,
    link,
    max_degree,
    _target_intervals,
)
from absopt.formats import parse_witness, serialize_witness
from absopt.pipeline import qualifies, solve_abs_cnf, solve_abs_dnf, verify_witness

from helpers import (
    assignments_lex,
    formula_rows,
    mask_vars,
    naive_formula_value,
    naive_hypergraph_decide,
    random_formula,
    random_hypergraph,
    true_vars,
)


def test_clause_merge_and_zero_kept():
    phi = WeightedFormula("dnf", 3, (((1, 2), 2), ((2, 1), 3), ((3,), 1)), 1)
    assert phi.clauses == ((frozenset({1, 2}), 5), (frozenset({3}), 1))
    cancel = WeightedFormula("dnf", 2, (((1,), 2), ((1,), -2)), 0)
    assert cancel.clauses == ((frozenset({1}), 0),)


def test_formula_validation():
    with pytest.raises(InvalidInstanceError):
        WeightedFormula("dnf", 2, (((0,), 1),), 1)
    with pytest.raises(InvalidInstanceError):
        WeightedFormula("dnf", 2, (((3,), 1),), 1)
    with pytest.raises(InvalidInstanceError):
        WeightedFormula("dnf", 2, (((1, -1), 1),), 1)
    with pytest.raises(InvalidInstanceError):
        WeightedFormula("dnf", 2, (((1,), 1),), -1)
    with pytest.raises(InvalidInstanceError):
        WeightedFormula("xnf", 2, (), 1)
    with pytest.raises(InvalidInstanceError):
        WeightedFormula("dnf", 2, (), 1, comparison="above")
    # bool is an int subclass, and a count of True would serialize as "True"
    with pytest.raises(InvalidInstanceError):
        WeightedFormula("dnf", True, (), 1)


def test_empty_clause_semantics():
    # empty conjunction always holds, empty disjunction never does
    dnf = WeightedFormula("dnf", 1, (((), 4),), 0)
    cnf = WeightedFormula("cnf", 1, (((), 4),), 0)
    assert eval_formula(dnf, ()) == 4
    assert eval_formula(cnf, ()) == 0


def test_eval_matches_naive_random():
    rng = random.Random(1)
    for _ in range(150):
        phi = random_formula(rng)
        for values in assignments_lex(phi.num_vars):
            assert eval_formula(phi, true_vars(values)) == naive_formula_value(phi, values)


def test_assignment_round_trips():
    # a formula witness is the set of its true variables; written as a v file
    # and read back, it is the solver's own set and verifies to its value
    rng = random.Random(2)
    checked = 0
    for i in range(300):
        kind = "cnf" if i % 2 else "dnf"
        phi = random_formula(rng, kind=kind, objective="abs" if i % 3 else None,
                             comparison="atleast" if i % 3 else None)
        verdicts = [brute_force_formula(phi)]
        if phi.objective == "abs" and phi.comparison == "atleast":
            verdicts.append((solve_abs_cnf if kind == "cnf" else solve_abs_dnf)(phi))
        for verdict in verdicts:
            if not verdict.decision:
                continue
            back = parse_witness(serialize_witness(phi, verdict.witness), phi)
            assert type(back) is frozenset and back == verdict.witness, phi
            assert verify_witness(phi, back) == (True, verdict.achieved), phi
            checked += 1
    assert checked > 300


def test_true_variable_out_of_range():
    phi = WeightedFormula("dnf", 2, (((1,), 1),), 1)
    for bad in (0, 3, -1):
        for call in (eval_formula, serialize_witness, verify_witness):
            with pytest.raises(InvalidInstanceError) as err:
                call(phi, {1, bad})
            assert str(err.value) == f"variable {bad} out of range 1..2"


def test_true_variable_wrong_type():
    # a bool, a float or a string is no variable id, even where it equals one
    phi = WeightedFormula("dnf", 2, (((1,), 1),), 1)
    for ids, bad in ((["1"], "'1'"), ([1.0], "1.0"), ([True], "True"), ((True, 4), "True"),
                     ([2, None], "None")):
        for call in (eval_formula, serialize_witness, verify_witness):
            with pytest.raises(InvalidInstanceError) as err:
                call(phi, ids)
            assert str(err.value) == f"bad variable id {bad}"
    assert verify_witness(phi, [1]) == (True, 1)


def test_hypergraph_construction():
    h = WeightedHypergraph(3, (((1, 2), 2), ((2, 1), 1), ((), -1)), 2)
    assert h.edges == ((frozenset({1, 2}), 3), (frozenset(), -1))
    assert h.d == 2
    named = WeightedHypergraph(frozenset({4, 9}), (((4,), 1),), 0)
    assert named.num_vertices == 2
    with pytest.raises(InvalidInstanceError):
        WeightedHypergraph(2, (((1, 3), 1),), 1)
    with pytest.raises(InvalidInstanceError):
        WeightedHypergraph(3, (((1, 2), 1),), 1, d=1)
    with pytest.raises(InvalidInstanceError):
        WeightedHypergraph(True, (), 1)
    with pytest.raises(InvalidInstanceError):
        WeightedHypergraph(2, (((1,), 1),), 1, d=True)


def test_formula_validation_messages():
    good = dict(kind="dnf", num_vars=2, clauses=(((1, -2), 3), ((2,), -4)), alpha=1)
    bad = [
        ("clauses", (((1, -2), 3), ((2,), True)), "weight True is not an integer"),
        ("clauses", (((1, -2), 3.0), ((2,), -4)), "weight 3.0 is not an integer"),
        ("clauses", (((1, 0), 3),), "bad literal 0"),
        ("clauses", (((1, True), 3),), "bad literal True"),
        ("clauses", (((1, 2.0), 3),), "bad literal 2.0"),
        ("clauses", (((1, -1), 3),), "variable 1 appears twice in one clause"),
        ("clauses", (((1, -3), 3),), "literal -3 exceeds 2 variables"),
        # literals are checked across all clauses before any weight
        ("clauses", (((1,), 1.5), ((3,), 1)), "literal 3 exceeds 2 variables"),
        ("num_vars", -1, "bad variable count -1"),
        ("num_vars", True, "bad variable count True"),
        ("alpha", -2, "target must be a non-negative integer, got -2"),
        ("kind", "xnf", "unknown clause kind 'xnf'"),
    ]
    for key, value, message in bad:
        with pytest.raises(InvalidInstanceError) as info:
            WeightedFormula(**{**good, key: value})
        assert str(info.value) == message
    for key, value, message in [
        ("objective", "max", "unknown objective 'max'"),
        ("comparison", "above", "unknown comparison 'above'"),
    ]:
        with pytest.raises(InvalidInstanceError) as info:
            WeightedFormula(**good, **{key: value})
        assert str(info.value) == message


def test_hypergraph_validation_messages():
    good = dict(vertices=3, edges=(((1, 2), 3), ((3,), -4)), alpha=1)
    bad = [
        ("edges", (((1, 2), 3), ((3,), False)), "weight False is not an integer"),
        ("edges", (((1, 2), 0.5),), "weight 0.5 is not an integer"),
        ("vertices", frozenset({0, 1, 2, 3}), "bad vertex id 0"),
        ("vertices", (1, 2, 3, 4.0), "bad vertex id 4.0"),
        ("vertices", -1, "bad vertex count -1"),
        ("vertices", True, "bad vertex count True"),
        ("edges", (((1, 4), 3),), "edge [1, 4] leaves the vertex set"),
        # vertices are checked across all edges before any weight
        ("edges", (((1,), 1.5), ((2, 5), 1)), "edge [2, 5] leaves the vertex set"),
        ("alpha", 1.0, "target must be a non-negative integer, got 1.0"),
    ]
    for key, value, message in bad:
        with pytest.raises(InvalidInstanceError) as info:
            WeightedHypergraph(**{**good, key: value})
        assert str(info.value) == message
    for d, message in [
        (1, "edge size bound 1 below largest edge 2"),
        (True, "edge size bound True below largest edge 2"),
        (2.5, "edge size bound 2.5 below largest edge 2"),
    ]:
        with pytest.raises(InvalidInstanceError) as info:
            WeightedHypergraph(**good, d=d)
        assert str(info.value) == message


def test_induced_weight_and_degree():
    h = WeightedHypergraph(4, (((1, 2), 2), ((2, 3), -3), ((), 5)), 1)
    assert induced_weight(h, ()) == 5
    assert induced_weight(h, (1, 2)) == 7
    assert induced_weight(h, (1, 2, 3)) == 4
    for bad in (0, 5):
        with pytest.raises(InvalidInstanceError) as err:
            induced_weight(h, (1, bad, 2))
        assert str(err.value) == f"subset contains unknown vertex {bad}"
    assert link(h, (2,)) == (frozenset({1, 2}), frozenset({2, 3}))
    assert link(h, (1, 2)) == ()
    assert max_degree(h) == 2
    assert max_degree(WeightedHypergraph(0, (), 0)) == 0


def test_brute_force_formula_lex_first():
    rng = random.Random(5)
    for _ in range(120):
        phi = random_formula(rng, max_vars=5)
        got = brute_force_formula(phi)
        want = None
        for values in assignments_lex(phi.num_vars):
            val = naive_formula_value(phi, values)
            meas = abs(val) if phi.objective == "abs" else val
            hit = {
                "atleast": meas >= phi.alpha,
                "exact": meas == phi.alpha,
                "atmost": meas <= phi.alpha,
            }[phi.comparison]
            if hit:
                want = (values, val)
                break
        if want is None:
            assert not got.decision
        else:
            assert got.decision
            assert got.witness == true_vars(want[0])
            assert got.achieved == want[1]


def test_brute_force_hypergraph_lex_first():
    rng = random.Random(6)
    for _ in range(120):
        h = random_hypergraph(rng, max_vertices=8)
        got = brute_force_hypergraph(h)
        want = naive_hypergraph_decide(h)
        if want is None:
            assert not got.decision
        else:
            assert got.decision
            assert got.witness == want[0]
            assert got.achieved == want[1]


def test_brute_force_hypergraph_sparse_ids():
    # the core sees bits 0..2; the witness must come back as the original ids
    rng = random.Random(62)
    ids = (3, 70, 1000)
    for _ in range(60):
        edges = []
        for _ in range(rng.randint(0, 6)):
            e = rng.sample(ids, rng.randint(0, 3))
            edges.append((e, rng.randint(-5, 5)))
        for alpha in range(0, 8):
            h = WeightedHypergraph(frozenset(ids), edges, alpha)
            got = brute_force_hypergraph(h)
            want = naive_hypergraph_decide(h)
            assert (got.witness, got.achieved) == (want or (None, None)), h
            assert got.decision == (want is not None)


def test_enumeration_cap():
    # the cap counts the variables that occur in some clause or edge, 25
    # here, not the 30 declared
    used = tuple(range(1, 26))
    h = WeightedHypergraph(30, ((used, 1),), 1)
    with pytest.raises(BudgetExceededError, match="subset enumeration over 25 exceeds cap 24"):
        brute_force_hypergraph(h)
    assert brute_force_hypergraph(h, max_vertices=25).decision
    phi = WeightedFormula("dnf", 30, ((used, 1),), 1)
    with pytest.raises(BudgetExceededError, match="assignment enumeration over 25 exceeds cap 24"):
        brute_force_formula(phi)
    assert brute_force_formula(phi, max_vars=25).decision
    # one used variable of 30 declared fits the default cap
    sparse = brute_force_hypergraph(WeightedHypergraph(30, (((30,), 1),), 1))
    assert (sparse.witness, sparse.achieved) == (frozenset({30}), 1)
    sparse = brute_force_formula(WeightedFormula("dnf", 30, (((30,), 1),), 1))
    assert (sparse.witness, sparse.achieved) == (frozenset({30}), 1)


def test_iter_subsets_lex_order():
    got = list(iter_subsets_lex((3, 1, 7)))
    assert got == [
        frozenset(),
        frozenset({7}),
        frozenset({3}),
        frozenset({3, 7}),
        frozenset({1}),
        frozenset({1, 7}),
        frozenset({1, 3}),
        frozenset({1, 3, 7}),
    ]
    # the rank definition: bit n-1-i of the rank holds the i-th smallest
    # vertex; duplicates count once
    rng = random.Random(7)
    for n in range(7):
        order = sorted(rng.sample(range(1, 60), n))
        want = [
            frozenset(order[i] for i in range(n) if rank >> (n - 1 - i) & 1)
            for rank in range(1 << n)
        ]
        assert list(iter_subsets_lex(order[::-1] + order)) == want
    # lazy: the first subset of a 2^40-subset set comes at once
    assert next(iter_subsets_lex(range(40))) == frozenset()


def _inside(v, intervals):
    return any((lo is None or lo <= v) and (hi is None or v <= hi) for lo, hi in intervals)


def test_target_intervals_match_qualifies():
    total = 7
    for objective, comparison in itertools.product(("abs", "sum"), ("atleast", "exact", "atmost")):
        for alpha in (0, 1, total, total + 1, 10**30):
            intervals = _target_intervals(alpha, objective, comparison)
            closed = engine._close(intervals, total)
            assert all(-total - 1 <= end <= total + 1 for pair in closed for end in pair)
            for v in range(-total - 2, total + 3):
                want = qualifies(v, alpha, objective, comparison)
                assert _inside(v, intervals) == want, (objective, comparison, alpha, v)
                # the search never forms a value outside [-total, total]
                if -total <= v <= total:
                    assert _inside(v, closed) == want, (objective, comparison, alpha, v)
            for v in (10**30 - 1, 10**30, 10**30 + 1, -(10**30) - 1, -(10**30), -(10**30) + 1):
                assert _inside(v, intervals) == qualifies(v, alpha, objective, comparison)


def test_folded_rows_match_eval_formula():
    rng = random.Random(8)
    for i in range(200):
        phi = random_formula(rng, kind="cnf" if i % 4 else "dnf")
        phi = WeightedFormula(
            phi.kind, phi.num_vars, phi.clauses + (((), rng.randint(-5, 5)),), phi.alpha
        )
        rows = formula_rows(phi)
        for mask in range(1 << phi.num_vars):
            value = sum(w for pos, neg, w in rows if mask & pos == pos and not mask & neg)
            assert value == eval_formula(phi, mask_vars(mask)), phi
