import itertools
import random

import pytest

from absopt import engine
from absopt.errors import BudgetExceededError, InvalidInstanceError
from absopt.model import (
    Assignment,
    WeightedFormula,
    WeightedHypergraph,
    brute_force_formula,
    brute_force_hypergraph,
    degree,
    eval_formula,
    induced_weight,
    iter_subsets_lex,
    link,
    max_degree,
    _target_intervals,
)
from absopt.pipeline import qualifies

from helpers import (
    assignments_lex,
    formula_rows,
    naive_formula_value,
    naive_hypergraph_decide,
    random_formula,
    random_hypergraph,
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
    beta = Assignment((False,))
    assert eval_formula(dnf, beta) == 4
    assert eval_formula(cnf, beta) == 0


def test_eval_matches_naive_random():
    rng = random.Random(1)
    for _ in range(150):
        phi = random_formula(rng)
        for values in assignments_lex(phi.num_vars):
            beta = Assignment(values)
            assert eval_formula(phi, beta) == naive_formula_value(phi, values)


def test_assignment_round_trips():
    beta = Assignment.from_true_vars(4, {2, 4})
    assert beta.values == (False, True, False, True)
    assert beta.true_vars() == frozenset({2, 4})
    assert beta.mask() == 0b1010
    assert Assignment.from_mask(4, 0b1010) == beta
    with pytest.raises(InvalidInstanceError):
        Assignment.from_true_vars(2, {3})
    with pytest.raises(InvalidInstanceError):
        beta.value(5)


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


def test_induced_weight_and_degree():
    h = WeightedHypergraph(4, (((1, 2), 2), ((2, 3), -3), ((), 5)), 1)
    assert induced_weight(h, ()) == 5
    assert induced_weight(h, (1, 2)) == 7
    assert induced_weight(h, (1, 2, 3)) == 4
    assert link(h, (2,)) == (frozenset({1, 2}), frozenset({2, 3}))
    assert link(h, (1, 2)) == ()
    assert degree(h, 2) == 2
    assert degree(h, 4) == 0
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
            assert got.witness.values == want[0]
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
    h = WeightedHypergraph(30, (((1,), 1),), 1)
    with pytest.raises(BudgetExceededError):
        brute_force_hypergraph(h)
    phi = WeightedFormula("dnf", 30, (((1,), 1),), 1)
    with pytest.raises(BudgetExceededError):
        brute_force_formula(phi)
    assert brute_force_formula(phi, max_vars=30).decision


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
            assert value == eval_formula(phi, Assignment.from_mask(phi.num_vars, mask)), phi
