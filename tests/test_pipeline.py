import random

import pytest

from absopt import (
    BudgetExceededError,
    ContractViolationError,
    InvalidInstanceError,
    WeightedFormula,
    WeightedHypergraph,
    brute_force_formula,
    cli,
    engine,
    eval_formula,
    qualifies,
    solve_abs_cnf,
    solve_abs_dnf,
    solve_unbalanced,
    verify_witness,
)
from absopt.absio import AbsIoInstance
from absopt.kernel import kernelize
from absopt.reductions import encode_dnf_as_hypergraph, monotonize_abs_dnf
from helpers import naive_hypergraph_decide, random_formula, random_hypergraph


def test_qualifies_matrix():
    assert qualifies(-5, 5, "abs", "atleast")
    assert not qualifies(-5, 6, "abs", "atleast")
    assert not qualifies(-5, 5, "sum", "atleast")
    assert qualifies(-5, -5, "sum", "exact")
    assert qualifies(5, 5, "abs", "exact")
    assert not qualifies(-5, 5, "sum", "exact")
    assert qualifies(-5, 0, "sum", "atmost")
    assert not qualifies(-5, 0, "abs", "atmost")
    assert qualifies(0, 0, "abs", "atmost")
    with pytest.raises(ContractViolationError):
        qualifies(1, 1, "abs", "near")


def test_qualifies_matches_explicit_table():
    # reference: the comparison table written out on the measure |value| or value
    def table(value, alpha, objective, comparison):
        measure = abs(value) if objective == "abs" else value
        return {"atleast": measure >= alpha, "exact": measure == alpha,
                "atmost": measure <= alpha}[comparison]

    for objective in ("abs", "sum"):
        for comparison in ("atleast", "exact", "atmost"):
            for alpha in range(4):
                for value in range(-5, 6):
                    want = table(value, alpha, objective, comparison)
                    assert qualifies(value, alpha, objective, comparison) == want


def test_verify_witness_formula():
    phi = WeightedFormula("dnf", 2, (((1,), 3), ((-2,), 4)), 7)
    ok, value = verify_witness(phi, frozenset({1}))
    assert ok and value == 7
    # any iterable of true variables is accepted
    ok, value = verify_witness(phi, [1, 2])
    assert not ok and value == 3


def test_verify_witness_hypergraph():
    h = WeightedHypergraph({1, 2}, (((1, 2), -4),), 3, 2)
    ok, value = verify_witness(h, {1, 2})
    assert ok and value == -4
    ok, value = verify_witness(h, {1})
    assert not ok and value == 0


def test_verify_witness_hypergraph_rejects_non_int_ids():
    # True == 1 and 1.0 == 1 as set members, yet neither is a vertex id
    h = WeightedHypergraph(3, (((1, 2), 2),), 1)
    for subset, bad in (([True, 2], "True"), ([1.0, 2.0], "1.0"), ([1, "2"], "'2'"),
                        ([None], "None")):
        with pytest.raises(InvalidInstanceError) as err:
            verify_witness(h, subset)
        assert str(err.value) == f"bad vertex id {bad}"
    assert verify_witness(h, iter([1, 2])) == (True, 2)


def test_verify_witness_absio():
    inst = AbsIoInstance((((2,), 1),), (-3,), (5,), 4)
    ok, value = verify_witness(inst, (-2,))
    assert ok and value == 4
    ok, value = verify_witness(inst, (9,))
    assert not ok  # out of the box


def test_verify_witness_rejects_unknown():
    with pytest.raises(ContractViolationError):
        verify_witness(object(), ())


def test_solve_unbalanced_matches_naive():
    rng = random.Random(41)
    for _ in range(200):
        h = random_hypergraph(rng, max_vertices=9, max_edges=7, max_alpha=3)
        verdict = solve_unbalanced(h)
        want = naive_hypergraph_decide(h)
        assert verdict.decision == (want is not None)
        if verdict.decision:
            ok, value = verify_witness(h, verdict.witness)
            assert ok and value == verdict.achieved


def test_solve_unbalanced_kernel_path():
    # a 32-petal star is decided by the subedge rule, not enumeration
    edges = tuple(((1, p), 1) for p in range(2, 34))
    h = WeightedHypergraph(range(1, 34), edges, 1, 2)
    verdict = solve_unbalanced(h)
    assert verdict.decision
    assert any(line.startswith("rule4") for line in verdict.transcript)
    assert not any(line.startswith("enumerate") for line in verdict.transcript)


def test_solve_unbalanced_enumerates_after_reduction():
    h = WeightedHypergraph({1, 2, 3}, (((1, 2), 2), ((3,), 0)), 5, 2)
    verdict = solve_unbalanced(h)
    assert not verdict.decision
    assert verdict.transcript[-1] == "enumerate |V|=2"


def test_solve_unbalanced_budget():
    edges = tuple(((v, v + 1), 1) for v in range(1, 20))
    h = WeightedHypergraph(range(1, 21), edges, 40, 2)
    with pytest.raises(BudgetExceededError):
        solve_unbalanced(h, max_vertices=10)


def test_solve_abs_dnf_matches_brute():
    rng = random.Random(43)
    for _ in range(200):
        phi = random_formula(
            rng, kind="dnf", max_vars=7, objective="abs", comparison="atleast"
        )
        verdict = solve_abs_dnf(phi)
        want = brute_force_formula(phi)
        assert verdict.decision == want.decision, phi
        if verdict.decision:
            value = eval_formula(phi, verdict.witness)
            assert abs(value) >= phi.alpha
            assert value == verdict.achieved


def test_solve_abs_dnf_enumeration_matches_brute():
    # after kernelization the survivors are enumerated in input-variable
    # order, so the first witness is the formula's own lex-first one
    rng = random.Random(53)
    enumerated = 0
    for _ in range(300):
        phi = random_formula(
            rng, kind="dnf", max_vars=8, max_clauses=10, objective="abs", comparison="atleast"
        )
        verdict = solve_abs_dnf(phi)
        if not verdict.transcript[-1].startswith("enumerate"):
            continue
        enumerated += 1
        want = brute_force_formula(phi)
        assert (verdict.decision, verdict.witness, verdict.achieved) == (
            want.decision, want.witness, want.achieved
        ), phi
    assert enumerated > 150


def _weight(rng):
    return rng.choice((-1, 1)) * rng.randint(1, 5)


def test_formula_and_hypergraph_routes_agree():
    # a monotone DNF and its hypergraph are one object, and both routes give
    # the same set of true variables (vertices) with the same value, whether
    # enumeration, rule 3 (singletons) or rule 4 (a star of 32 pairs) decides
    rng = random.Random(61)
    phis = [
        random_formula(rng, kind="dnf", max_vars=8, max_clauses=10, monotone=True,
                       objective="abs", comparison="atleast")
        for _ in range(200)
    ]
    for _ in range(20):
        n = rng.randint(4, 12)
        phis.append(WeightedFormula("dnf", n, [((v,), _weight(rng)) for v in range(1, n + 1)],
                                    rng.randint(1, n // 2)))
        phis.append(WeightedFormula("dnf", 33, [((1, v), _weight(rng)) for v in range(2, 34)], 1))
    decided_by = set()
    for phi in phis:
        got = solve_abs_dnf(phi)
        want = solve_unbalanced(encode_dnf_as_hypergraph(phi)[0])
        assert (got.decision, got.witness, got.achieved) == (
            want.decision, want.witness, want.achieved
        ), phi
        decided_by.add((got.decision, got.transcript[-1].split()[0]))
    assert {(False, "enumerate"), (True, "enumerate"), (True, "rule3"), (True, "rule4")} <= decided_by


def _reduced_edges(phi):
    h, _ = encode_dnf_as_hypergraph(monotonize_abs_dnf(phi)[0])
    return len(kernelize(h).instance.edges)


def test_solve_abs_dnf_enumerates_the_shorter_form(monkeypatch):
    seen = []
    decide = engine.decide

    def counting(num_vars, rows, targets):
        seen.append(len(rows))
        return decide(num_vars, rows, targets)

    monkeypatch.setattr(engine, "decide", counting)
    # three negated literals per clause expand to eight monotone clauses
    # each, so the restricted formula is the shorter form
    phi = WeightedFormula(
        "dnf", 6, (((1, -2, -3, -4), 3), ((2, -5, -6, 1), -2), ((-1, 3, -5, -6), 1)), 7
    )
    verdict = solve_abs_dnf(phi)
    assert verdict.transcript[-1] == "enumerate |V|=6"
    assert seen == [3] and _reduced_edges(phi) > 3
    # every edge through x4 cancels, so the kernel deletes x4; the first two
    # clauses keep, and with the negated x4 dropped both read (1, -2, -3):
    # the three kept clauses go to the core unmerged, not the five edges
    clauses = (((1, -2, -3, -4), 3), ((1, -2, -3), 2), ((1, -2, -3, 4), 3), ((2,), 4))
    for alpha in (4, 5, 6):
        phi = WeightedFormula("dnf", 4, clauses, alpha)
        seen.clear()
        verdict = solve_abs_dnf(phi)
        assert verdict.transcript[-1] == "enumerate |V|=3"
        assert seen == [3] and _reduced_edges(phi) == 5
        want = brute_force_formula(phi)
        assert (verdict.witness, verdict.achieved) == (want.witness, want.achieved)
        assert verdict.decision == want.decision == (alpha <= 5)
    rng = random.Random(59)
    for _ in range(200):
        phi = random_formula(
            rng, kind="dnf", max_vars=8, max_clauses=10, objective="abs", comparison="atleast"
        )
        seen.clear()
        solve_abs_dnf(phi)
        assert len(seen) <= 1
        if seen:
            assert seen[0] <= min(len(phi.clauses), _reduced_edges(phi))


def test_solve_cap_counts_surviving_vertices(tmp_path, capsys):
    rng = random.Random(61)
    lines = ["p wdnf 20 60 1000 abs atleast"]
    for _ in range(60):
        lits = [v if rng.random() < 0.5 else -v for v in rng.sample(range(1, 21), 4)]
        lines.append(f"w {rng.choice((-1, 1)) * rng.randint(1, 9)} {' '.join(map(str, lits))} 0")
    path = tmp_path / "wide.wdnf"
    path.write_text("\n".join(lines) + "\n")
    assert cli.main(["solve", "--cap", "12", str(path)]) == cli.EXIT_BUDGET
    assert capsys.readouterr().err == "budget: subset enumeration over 20 exceeds cap 12\n"


def test_solve_abs_dnf_transcript():
    phi = WeightedFormula("dnf", 2, (((1, -2), 3),), 3)
    verdict = solve_abs_dnf(phi)
    assert verdict.decision
    kinds = [line.split()[0] for line in verdict.transcript]
    assert "monotonize" in kinds and "encode" in kinds


def test_solve_abs_dnf_contract():
    base = WeightedFormula("dnf", 1, (((1,), 2),), 1)
    for bad in (
        WeightedFormula("cnf", 1, (((1,), 2),), 1),
        WeightedFormula("dnf", 1, (((1,), 2),), 1, objective="sum"),
        WeightedFormula("dnf", 1, (((1,), 2),), 1, comparison="exact"),
    ):
        with pytest.raises(ContractViolationError):
            solve_abs_dnf(bad)
    assert solve_abs_dnf(base).decision


def test_solve_abs_cnf_matches_brute():
    rng = random.Random(47)
    for _ in range(150):
        phi = random_formula(
            rng, kind="cnf", max_vars=6, objective="abs", comparison="atleast"
        )
        verdict = solve_abs_cnf(phi)
        want = brute_force_formula(phi)
        assert verdict.decision == want.decision, phi
        if verdict.decision:
            value = eval_formula(phi, verdict.witness)
            assert abs(value) >= phi.alpha
            assert value == verdict.achieved


def test_solve_abs_cnf_transcript_and_width_cap():
    phi = WeightedFormula("cnf", 3, (((1, 2, 3), 2),), 2)
    verdict = solve_abs_cnf(phi)
    assert verdict.decision
    assert verdict.transcript[0].startswith("minterms clauses=")
    wide = WeightedFormula("cnf", 11, ((tuple(range(1, 12)), 1),), 1)
    with pytest.raises(BudgetExceededError):
        solve_abs_cnf(wide)
