import itertools
import math
import random
import time
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from absopt import (
    AbsIoInstance,
    BudgetExceededError,
    ContractViolationError,
    InternalGuaranteeError,
    InvalidInstanceError,
    brute_force_absio,
    eval_poly,
    solve_absio,
    verify_point,
)
from absopt import absio
from absopt.absio import (
    SCAN_POINTS,
    _abs_bound,
    _grid,
    _grid_leaf,
    _grid_parts,
    _leaf_form,
    _replay,
    _scan_window,
    _support_shortcut,
    _walk_leaf,
    negate_variable,
    rule5_simplify,
    rule6_shift,
    shift_variable,
)
from absopt.kernel import MODE_EDGECOUNT, STATUS_REDUCED, _links_below_g, kernelize
from absopt.model import WeightedHypergraph
from helpers import naive_absio_decide, naive_absio_value, random_absio


def test_instance_validation():
    with pytest.raises(InvalidInstanceError):
        AbsIoInstance([((1, 1), 1), ((2,), 1)], (0, 0), (1, 1), 1)  # a vector too short
    with pytest.raises(InvalidInstanceError):
        AbsIoInstance([((-1,), 1)], (0,), (1,), 1)  # negative exponent
    with pytest.raises(InvalidInstanceError):
        AbsIoInstance([((1, 1), 1)], (0, 0), (1, 1), 1, var_ids=(2, 2))
    with pytest.raises(InvalidInstanceError):
        AbsIoInstance([((1,), 1)], (0,), (1,), -1)
    inst = AbsIoInstance([((1, 0), 2), ((0, 2), 3)], (0, None), (None, 5), 1)
    assert inst.var_ids == (1, 2)


def test_instance_validation_rejects_non_ints():
    class Int(int):
        pass

    good = dict(terms=[((1,), 3), ((2,), -4)], lower=(0,), upper=(5,), alpha=1)
    bad = [
        ("terms", [((1,), 3), ((True,), -4)], "bad exponent True"),
        ("terms", [((1,), 3), ((-2,), -4)], "bad exponent -2"),
        ("terms", [((1,), 3), ((2.0,), -4)], "bad exponent 2.0"),
        ("terms", [((1,), 3), (("2",), -4)], "bad exponent '2'"),
        ("terms", [((1,), 3), ((2,), False)], "weight False is not an integer"),
        ("terms", [((1,), 3.0), ((2,), -4)], "weight 3.0 is not an integer"),
        ("terms", [((1,), 3), ((2, 0), -4)], "exponent vector of length 2, expected 1"),
        ("terms", [((1,), 3), ((), -4)], "exponent vector of length 0, expected 1"),
        ("lower", (True,), "bad bound True"),
        ("upper", (5.5,), "bad bound 5.5"),
        ("upper", (5, 6), "1 lower bounds but 2 upper bounds"),
        ("lower", (), "0 lower bounds but 1 upper bounds"),
        ("alpha", True, "target must be a non-negative integer, got True"),
    ]
    for key, value, message in bad:
        args = {**good, key: value}
        with pytest.raises(InvalidInstanceError) as info:
            AbsIoInstance(**args)
        assert str(info.value) == message
    for ids in ((True,), (0,), (1.0,)):
        with pytest.raises(InvalidInstanceError, match="bad variable ids"):
            AbsIoInstance(**good, var_ids=ids)
    # int subclasses other than bool are accepted as before
    inst = AbsIoInstance([((Int(1),), Int(3)), ((2,), -4)], (Int(0),), (5,), 1, (Int(2),))
    assert inst.terms == (((1,), 3), ((2,), -4)) and inst.var_ids == (2,)


def test_eval_poly_zero_power():
    # 0^0 = 1: the constant term survives at the origin
    inst = AbsIoInstance([((2,), 3), ((0,), 5)], (-9,), (9,), 1)
    assert eval_poly(inst, (0,)) == 5
    assert eval_poly(inst, (2,)) == 17
    rng = random.Random(3)
    for _ in range(100):
        cand = random_absio(rng)
        pt = tuple(
            0 if cand.lower[i] <= 0 <= cand.upper[i] else cand.lower[i]
            for i in range(cand.num_vars)
        )
        assert eval_poly(cand, pt) == naive_absio_value(cand, pt)


def test_verify_point():
    inst = AbsIoInstance([((1,), 4)], (-2,), (3,), 8)
    ok, value = verify_point(inst, (2,))
    assert ok and value == 8
    ok, value = verify_point(inst, (1,))
    assert not ok and value == 4
    ok, _ = verify_point(inst, (4,))
    assert not ok  # outside the box, whatever the value


def test_rule5_drops_zero_weights():
    inst = AbsIoInstance([((1,), 0), ((2,), 3)], (0,), (4,), 1)
    out = rule5_simplify(inst)
    assert out.instance.terms == (((2,), 3),)
    assert "rule5 zerocols=1" in out.transcript


def test_rule5_fixes_unused_variable():
    inst = AbsIoInstance([((1, 0), 2)], (0, -5), (4, 7), 1)
    out = rule5_simplify(inst)
    assert out.instance.num_vars == 1
    assert out.instance.var_ids == (1,)
    assert ("fix", 2, 0) in out.log or any(e[0] == "fix" and e[1] == 2 for e in out.log)
    # the fixed value is inside the old box
    v = next(e[2] for e in out.log if e[0] == "fix")
    assert -5 <= v <= 7
    # removing many unused variables at once takes time linear in their count
    n = 200_000
    start = time.perf_counter()
    out = rule5_simplify(AbsIoInstance([((0,) * n, 1)], (0,) * n, (1,) * n, 1))
    assert out.instance.num_vars == 0 and len(out.log) == n
    assert time.perf_counter() - start < 5


def test_rule5_reports_empty_domain():
    inst = AbsIoInstance([((1,), 2)], (3,), (1,), 1)
    out = rule5_simplify(inst)
    assert out.empty_var == 1
    assert "rule5 empty x1" in out.transcript


def test_rule5_substitutes_point_domain():
    # x1 = 3 turns 2*x1*x2 into 6*x2
    inst = AbsIoInstance([((1, 1), 2)], (3, 0), (3, 9), 1)
    out = rule5_simplify(inst)
    assert out.instance.num_vars == 1
    assert out.instance.var_ids == (2,)
    assert out.instance.terms == (((1,), 6),)
    assert ("fix", 1, 3) in out.log


def test_rule5_merges_equal_columns():
    inst = AbsIoInstance([((1,), 2), ((1,), 3), ((0,), 4)], (0,), (5,), 1)
    out = rule5_simplify(inst)
    assert out.instance.terms == (((1,), 5), ((0,), 4))
    assert any(line.startswith("rule5 merged=") for line in out.transcript)


def test_rule5_merge_keeps_values():
    # regression: merging must accumulate into the first occurrence
    inst = AbsIoInstance([((0,), -4), ((1,), -3), ((0,), 0)], (-5,), (5,), 1)
    out = rule5_simplify(inst)
    for x in range(-5, 6):
        assert eval_poly(out.instance, (x,)) == -4 - 3 * x


def test_shift_spot_check():
    # x^2 on [-3,5] under x = y - 3: (y-3)^2 = y^2 - 6y + 9 on [0,8]
    inst = AbsIoInstance([((2,), 1)], (-3,), (5,), 1)
    out, entry = shift_variable(inst, 0, -3)
    assert entry == ("shift", 1, -3)
    assert out.terms == (((2,), 1), ((1,), -6), ((0,), 9))
    assert out.lower == (0,) and out.upper == (8,)
    for y in range(0, 9):
        assert eval_poly(out, (y,)) == eval_poly(inst, (y - 3,))


def test_negate_spot_check():
    # 2x on (-inf,-1] under x = -y: -2y on [1,inf)
    inst = AbsIoInstance([((1,), 2)], (None,), (-1,), 1)
    out, entry = negate_variable(inst, 0)
    assert entry == ("negate", 1)
    assert out.terms == (((1,), -2),)
    assert out.lower == (1,) and out.upper == (None,)


def test_shift_preserves_values_random():
    rng = random.Random(7)
    for _ in range(150):
        inst = random_absio(rng, max_vars=3, max_terms=4)
        if inst.num_vars == 0:
            continue
        i = rng.randrange(inst.num_vars)
        t = rng.randint(-4, 4)
        out, _ = shift_variable(inst, i, t)
        for _ in range(5):
            pt = tuple(
                rng.randint(out.lower[r], out.upper[r]) for r in range(out.num_vars)
            )
            back = tuple(x + t if r == i else x for r, x in enumerate(pt))
            assert eval_poly(out, pt) == eval_poly(inst, back)


def test_rule6_normalizes_to_unit_interval():
    inst = AbsIoInstance([((1, 1), 2)], (4, None), (9, -2), 1)
    out, log, lines = rule6_shift(inst)
    for i in range(2):
        assert out.lower[i] is not None and out.lower[i] <= 0
        assert out.upper[i] is None or out.upper[i] >= 1
    assert any(e[0] == "shift" for e in log)
    assert any(e[0] == "negate" for e in log)
    assert lines


def test_rule6_leaves_point_domains_alone():
    inst = AbsIoInstance([((1,), 2)], (5,), (5,), 1)
    out, log, lines = rule6_shift(inst)
    assert out == inst and log == () and lines == ()


def test_rule6_point_domain_guard_keeps_loop_finite():
    # one-point domains away from 0 and 1 stay put while x2 shifts: shifting
    # -7..-7 to 0..0 would still miss 1 and shift by 0 forever
    inst = AbsIoInstance([((1, 1, 1), 2)], (-7, 3, 5), (-7, 9, 5), 1)
    out, log, lines = rule6_shift(inst)
    assert log == (("shift", 2, 3),) and lines == ("rule6 shift x2 t=3",)
    assert out.lower == (-7, 0, 5) and out.upper == (-7, 6, 5)


def test_rule6_skips_good_boxes():
    inst = AbsIoInstance([((1,), 2)], (0,), (6,), 1)
    out, log, lines = rule6_shift(inst)
    assert out == inst and not log


def test_replay_composition():
    log = (("fix", 3, 7), ("shift", 1, -2), ("negate", 1))
    # undo runs the log backwards: negate, then add the shift, then fix
    point = _replay(log, (1, 2), (4, 9), (1, 2, 3))
    assert point == (-4 - 2, 9, 7)


def test_brute_force_lex_first_witness():
    inst = AbsIoInstance([((1,), 1)], (-3,), (3,), 2)
    verdict = brute_force_absio(inst)
    assert verdict.decision and verdict.witness == (-3,)
    assert verdict.achieved == -3


def test_brute_force_contracts():
    with pytest.raises(ContractViolationError):
        brute_force_absio(AbsIoInstance([((1,), 1)], (None,), (3,), 1))
    with pytest.raises(BudgetExceededError):
        brute_force_absio(AbsIoInstance([((1,), 1)], (0,), (100,), 1), max_points=50)
    empty = brute_force_absio(AbsIoInstance([((1,), 1)], (4,), (2,), 1))
    assert not empty.decision
    const = brute_force_absio(AbsIoInstance([((), 5), ((), -2)], (), (), 3))
    assert const.decision and const.witness == () and const.achieved == 3


def test_brute_force_matches_naive():
    rng = random.Random(11)
    for _ in range(250):
        inst = random_absio(rng, max_vars=3, max_terms=4)
        verdict = brute_force_absio(inst)
        want = naive_absio_decide(inst)
        if want is None:
            assert not verdict.decision
        else:
            assert verdict.decision
            assert verdict.witness == want[0]  # same lexicographic first point


def test_numpy_and_pure_leaves_agree():
    # scaling weights and alpha by a huge factor forces the pure path but
    # keeps the qualifying set identical
    rng = random.Random(13)
    scale = 10**18
    for _ in range(60):
        inst = random_absio(rng, max_vars=2, max_terms=4)
        big = replace(
            inst, terms=[(vec, w * scale) for vec, w in inst.terms], alpha=inst.alpha * scale
        )
        a = brute_force_absio(inst)
        b = brute_force_absio(big)
        assert a.decision == b.decision
        if a.decision:
            assert a.witness == b.witness


def _multi_scan_box(alpha):
    # p = 1000 * x1 + x2 over x1 in [0, about 3 scans of rows], x2 in
    # [-350, 349]: the box spans more than one scan, and p grows in lex order.
    side = 700
    rows = 3 * (SCAN_POINTS // side) - 5
    return AbsIoInstance([((1, 0), 1000), ((0, 1), 1)], (0, -350), (rows - 1, side - 351), alpha)


def _leaf_agrees_with_naive(inst):
    verdict = brute_force_absio(inst)
    points = (inst.upper[0] + 1) * (inst.upper[1] - inst.lower[1] + 1)
    assert points > SCAN_POINTS
    assert verdict.transcript == (f"leaf points={points}",)
    want = naive_absio_decide(inst)
    if want is None:
        assert not verdict.decision
    else:
        assert (verdict.decision, verdict.witness, verdict.achieved) == (True,) + want
    return verdict


def test_numpy_leaf_hit_in_later_slab():
    verdict = _leaf_agrees_with_naive(_multi_scan_box(200 * 1000 + 300))
    assert verdict.witness == (200, 300)
    assert verdict.witness[0] >= SCAN_POINTS // 700  # past the first scan's rows


def test_numpy_leaf_only_hit_is_last_point():
    top = _multi_scan_box(0).upper
    verdict = _leaf_agrees_with_naive(_multi_scan_box(1000 * top[0] + top[1]))
    assert verdict.witness == top


def test_numpy_leaf_no_hit():
    top = _multi_scan_box(0).upper
    assert not _leaf_agrees_with_naive(_multi_scan_box(1000 * top[0] + top[1] + 1)).decision


def _window_reference(inst, i, e, partial):
    # The window rule's first hit, scanned point by point through eval_poly.
    width = 2 * e * inst.alpha
    lo, hi = inst.lower[i], inst.upper[i]
    start = lo if lo is not None else (hi - width if hi is not None else 0)
    point = [partial.get(g, 0) for g in inst.var_ids]
    for x in range(start, start + width + 1):
        point[i] = x
        value = eval_poly(inst, point)
        if abs(value) >= inst.alpha:
            return x
    return None


def test_scan_window_matches_pointwise_scan():
    # x1 unbounded below: the window ends at hi
    inst = AbsIoInstance([((1, 0), 1), ((0, 1), 1)], (None, 0), (-40, 3), 7)
    assert _scan_window(inst, 0, 1, {2: 2}) == _window_reference(inst, 0, 1, {2: 2})
    assert _scan_window(inst, 0, 1, {2: 2}) == -40 - 14
    rng = random.Random(29)
    ends = (None, -9, 0, 4)
    for _ in range(400):
        inst = random_absio(rng, max_vars=3, max_terms=5, max_exp=3, bound_range=(-3, 3),
                            max_alpha=40)
        if inst.num_vars == 0 or inst.alpha == 0:
            continue
        i = rng.randrange(inst.num_vars)
        e = max((vec[i] for vec, _ in inst.terms), default=0)
        if e == 0:
            continue
        lo = rng.choice(ends)
        hi = None if lo is None and rng.random() < 0.5 else rng.choice((None, 9, 30))
        lower = inst.lower[:i] + (lo,) + inst.lower[i + 1:]
        upper = inst.upper[:i] + (hi,) + inst.upper[i + 1:]
        inst = replace(inst, lower=lower, upper=upper)
        partial = {g: rng.randint(-3, 3) for r, g in enumerate(inst.var_ids) if r != i}
        assert _scan_window(inst, i, e, partial) == _window_reference(inst, i, e, partial)


def test_scan_window_slabs_and_python_ints():
    # exact on Python ints: a window starting near 3*10^9 squares past int64
    linear = AbsIoInstance([((1, 0), 1), ((0, 1), 1)], (0, 0), (None, 0), 40)
    assert _scan_window(linear, 0, 1, {2: 0}) == 40 == _window_reference(linear, 0, 1, {2: 0})
    big = 3 * 10**9
    square = AbsIoInstance([((2, 0), 1), ((0, 1), 1)], (big, 1), (None, 1), 7)
    partial = {2: -(big**2)}
    assert _scan_window(square, 0, 2, partial) == big + 1
    assert _window_reference(square, 0, 2, partial) == big + 1


def test_scan_window_random_degrees():
    # q(x) = sum_k c_k x^k of degree 1..8, its window bounded below only,
    # above only, or on neither side
    rng = random.Random(22)
    for _ in range(1500):
        e = rng.randint(1, 8)
        top = rng.choice((-1, 1)) * rng.randint(1, 30)
        terms = [((k,), rng.randint(-30, 30)) for k in range(e)] + [((e,), top)]
        alpha = rng.randint(1, 400)
        # windows starting near 0, where q is mostly below alpha at the start
        near = rng.randint(-5, 5)
        lo, hi = rng.choice(((near, None), (None, 2 * e * alpha + near), (None, None)))
        inst = AbsIoInstance(terms, (lo,), (hi,), alpha)
        assert _scan_window(inst, 0, e, {}) == _window_reference(inst, 0, e, {}), inst


def test_scan_window_huge_alpha():
    # windows of 2*10^12 + 1 and 12*10^30 + 1 points, first hits by hand
    line = AbsIoInstance([((1,), 1)], (0,), (None,), 10**12)
    assert _scan_window(line, 0, 1, {}) == 10**12
    # x^6 - 1 at 10^30 is 10^30 - 1 at x = 10^5 and past 10^30 at 10^5 + 1,
    # whether the window starts at -5, at 0 (no end) or at -7 (upper end only)
    sextic = AbsIoInstance([((6,), 1), ((0,), -1)], (-5,), (None,), 10**30)
    assert _scan_window(sextic, 0, 6, {}) == 10**5 + 1
    assert _scan_window(replace(sextic, lower=(None,)), 0, 6, {}) == 10**5 + 1
    below = replace(sextic, lower=(None,), upper=(12 * 10**30 - 7,))
    assert _scan_window(below, 0, 6, {}) == 10**5 + 1
    # 2 - x^6 falls on the window's first run [0, 12*10^30]
    falling = replace(below, terms=(((6,), -1), ((0,), 2)), upper=(None,))
    assert _scan_window(falling, 0, 6, {}) == 10**5 + 1


def _pure_leaf_agrees(inst):
    # weights scaled past 2^62 send the leaf down the exact pure path
    verdict = brute_force_absio(inst)
    want = naive_absio_decide(inst)
    if want is None:
        assert not verdict.decision
    else:
        assert (verdict.decision, verdict.witness, verdict.achieved) == (True,) + want


def test_pure_leaf_matches_naive():
    scale = 10**19
    # n = 1, and a value past 2^62 from the power alone
    _pure_leaf_agrees(AbsIoInstance([((21,), 1), ((1,), -3)], (-4,), (9,), 5**21))
    _pure_leaf_agrees(AbsIoInstance([((21,), 1), ((1,), -3)], (-4,), (9,), 9**21))
    _pure_leaf_agrees(AbsIoInstance([((21,), 1), ((1,), -3)], (-4,), (9,), 9**21 + 1))
    rng = random.Random(31)
    for _ in range(150):
        inst = random_absio(rng, max_vars=4, max_terms=6, max_exp=3, bound_range=(-4, 4))
        if rng.random() < 0.5:
            # one-point sides, which rule5 would otherwise have substituted
            lower = tuple(hi if rng.random() < 0.5 else lo for lo, hi in zip(inst.lower, inst.upper))
            upper = tuple(lo if rng.random() < 0.5 else hi for lo, hi in zip(lower, inst.upper))
            inst = replace(inst, lower=lower, upper=upper)
        _pure_leaf_agrees(replace(inst, terms=[(vec, w * scale) for vec, w in inst.terms],
                                  alpha=inst.alpha * scale))


def test_leaf_box_ends_past_int64(monkeypatch):
    # Box ends past 2^63 send the leaf to Python ints through the magnitude
    # bound alone, or leave it in int64 on a variable that no term uses;
    # hits at a later point, in a later scan, at the last point, and none.
    big = 2**70
    for unit in (1, 4, SCAN_POINTS):
        monkeypatch.setattr(absio, "SCAN_POINTS", unit)
        # p = x2 with x1 on [2^70, 2^70 + 3]
        for alpha in (2, 3, 4):
            _pure_leaf_agrees(AbsIoInstance([((0, 1), 1)], (big, 0), (big + 3, 3), alpha))
        # n = 1: p = x - 2^70 on [2^70, 2^70 + 3]
        for alpha in (2, 3, 4):
            _pure_leaf_agrees(AbsIoInstance([((1,), 1), ((0,), -big)], (big,), (big + 3,), alpha))
        # p = x1 + x2 - 2^71 on [2^70, 2^70 + 3]^2, so one row of x1 per
        # scan at 4 points a scan
        for alpha in (5, 6, 7):
            _pure_leaf_agrees(AbsIoInstance([((1, 0), 1), ((0, 1), 1), ((0, 0), -2 * big)],
                                            (big, big), (big + 3, big + 3), alpha))
        # p = x1^2 - x2^2 with x2 on [-2^70 - 1, -2^70 + 2]: |p| is largest
        # at the last point, next at the last row's third point
        for alpha in (1, 8 * big + 1, 10 * big + 5, 10 * big + 6):
            _pure_leaf_agrees(AbsIoInstance([((2, 0), 1), ((0, 2), -1)], (big, -big - 1),
                                            (big + 3, -big + 2), alpha))
        rng = random.Random(43)
        for _ in range(30):
            inst = random_absio(rng, max_vars=3, max_terms=5, max_exp=3, bound_range=(0, 3))
            if inst.num_vars == 0:
                continue
            shift = tuple(rng.choice((big, -big - 3, 2**63 - 2)) for _ in inst.lower)
            lower = tuple(lo + s for lo, s in zip(inst.lower, shift))
            upper = tuple(hi + s for hi, s in zip(inst.upper, shift))
            point = tuple(rng.randint(lo, hi) for lo, hi in zip(lower, upper))
            shifted = replace(inst, lower=lower, upper=upper, alpha=0)
            alpha = abs(eval_poly(shifted, point))
            _pure_leaf_agrees(replace(shifted, alpha=alpha))
            _pure_leaf_agrees(replace(shifted, alpha=alpha + 1))


def _grid_everywhere(inst, dtype):
    # The evaluator's values over the whole box in one grid, broadcast out
    terms, powers = _grid_parts(inst, dtype)
    values = _grid(terms, tuple(range(inst.num_vars)), powers, dtype)
    return np.broadcast_to(values, tuple(h - l + 1 for l, h in zip(inst.lower, inst.upper)))


def _grid_agrees(inst):
    boxes = [range(lo, hi + 1) for lo, hi in zip(inst.lower, inst.upper)]
    want = naive_absio_decide(inst)
    for dtype in (np.int64, object):
        values = _grid_everywhere(inst, dtype)
        for index in itertools.product(*(range(len(b)) for b in boxes)):
            point = tuple(b[k] for b, k in zip(boxes, index))
            assert values[index] == eval_poly(inst, point), (inst, point)
        assert _grid_leaf(inst, dtype) == (None if want is None else want[0]), inst


def test_grid_matches_eval_poly():
    rng = random.Random(37)
    for _ in range(150):
        inst = random_absio(rng, max_vars=5, max_terms=7, max_exp=3, bound_range=(-4, 3),
                            max_alpha=60)
        if inst.num_vars == 0:
            continue
        if rng.random() < 0.3 and inst.num_terms:
            # a term repeated with the opposite weight merges to weight 0
            vec, w = inst.terms[0]
            inst = replace(inst, terms=inst.terms + ((vec, -w),))
        _grid_agrees(inst)
    # constant-only, empty, all-cancelling, and zero-power polynomials
    _grid_agrees(AbsIoInstance([((0, 0), 4), ((0, 0), 3)], (-2, -3), (1, -1), 7))
    _grid_agrees(AbsIoInstance([((0, 0), 4), ((0, 0), 3)], (-2, -3), (1, -1), 8))
    _grid_agrees(AbsIoInstance([], (-2, 0), (2, 1), 0))
    _grid_agrees(AbsIoInstance([], (-2, 0), (2, 1), 1))
    _grid_agrees(AbsIoInstance([((2, 1), 5), ((2, 1), -5)], (-3, -3), (3, 3), 1))
    _grid_agrees(AbsIoInstance([((0, 3, 0), -2), ((1, 0, 0), 1)], (-3, -2, -1), (-1, 2, 0), 3))


def test_walk_leaf_matches_naive(monkeypatch):
    # The oracle's walk and the pruning one, at a few points a scan, so that
    # boxes split into sub-boxes with partial last rows and single points,
    # give the naive scan's answer on the same random boxes
    rng = random.Random(41)
    for unit in (1, 5, 7, 40):
        monkeypatch.setattr(absio, "SCAN_POINTS", unit)
        for _ in range(40):
            inst = random_absio(rng, max_vars=4, max_terms=6, max_exp=3, bound_range=(-4, 4),
                                max_alpha=200)
            if inst.num_vars == 0:
                continue
            want = naive_absio_decide(inst)
            for prune in (False, True):
                verdict = brute_force_absio(inst, prune=prune)
                if want is None:
                    assert not verdict.decision, (inst, prune)
                else:
                    assert (verdict.decision, verdict.witness, verdict.achieved) == (True,) + want


def _traced_peak(inst):
    # brute_force_absio's verdict and its tracemalloc peak in bytes
    tracemalloc.start()
    try:
        verdict = brute_force_absio(inst)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return verdict, peak


def test_leaf_store_bound():
    # x1 in [0, 1], x2 in [0, 65535] and p = sum_e x1^e x2 for e = 1..1000:
    # the oracle walks the box as two scans of 65,536 points, each of which
    # evaluates all 1000 terms, and its memory follows the scan, not the terms
    terms = [((e, 1), 1) for e in range(1, 1001)]
    for alpha in (10**9, 1 << 62):
        verdict, peak = _traced_peak(AbsIoInstance(terms, (0, 0), (1, 65535), alpha))
        assert not verdict.decision
        assert peak < 8 << 20, peak


def test_oracle_memory_follows_the_scan(monkeypatch):
    # One x1 row of [0, 99]^2 holds 10,000 points, nearly ten scans of 1024.
    # The oracle scans every point, in Python ints here (weights of 10^19),
    # yet holds no more than a few scans' values at a time: about 80 bytes a
    # scan point, where the values of one whole row take over 1 MB.
    monkeypatch.setattr(absio, "SCAN_POINTS", 1 << 10)
    scale = 10**19
    terms = [((1, 1, 1), 3 * scale), ((0, 2, 0), -7 * scale), ((0, 0, 1), scale)]
    inst = AbsIoInstance(terms, (0, 0, 0), (1, 99, 99), 1)
    top = max(abs(naive_absio_value(inst, pt)) for pt in
              itertools.product(range(2), range(100), range(100)))
    for alpha in (top, top + 1):
        inst = replace(inst, alpha=alpha)
        verdict, peak = _traced_peak(inst)
        want = naive_absio_decide(inst)
        if want is None:
            assert not verdict.decision
        else:
            assert (verdict.decision, verdict.witness, verdict.achieved) == (True,) + want
        assert peak < 200 * absio.SCAN_POINTS, peak


def test_grid_int64_just_below_i64_safe():
    # p = 3 x^60 y + (2^60 - 1) y^2 on [-2, 2] x [-1, 1]: the bound
    # 3 * 2^60 + 2^60 - 1 = 2^62 - 1 is reached at (+-2, 1), so the leaf runs
    # in int64 with no headroom
    top = (1 << 62) - 1
    inst = AbsIoInstance([((60, 1), 3), ((0, 2), (1 << 60) - 1)], (-2, -1), (2, 1), top)
    assert _grid_leaf(inst, np.int64) == _grid_leaf(inst, object) == (-2, 1)
    assert brute_force_absio(inst).witness == (-2, 1)
    assert brute_force_absio(inst).achieved == top
    assert _grid_everywhere(inst, np.int64).max() == top
    assert not brute_force_absio(replace(inst, alpha=top + 1)).decision
    _grid_agrees(replace(inst, alpha=1 << 61))


def _factors(inst):
    # the terms in the form _abs_bound takes, (weight, ((axis, exponent), ..))
    return [(w, tuple((i, a) for i, a in enumerate(vec) if a)) for vec, w in inst.terms]


def test_abs_bound_is_sound():
    # On random boxes and sub-boxes, with even powers across 0 and negative
    # weights, the bound is at least max |p| and exact on one point.
    rng = random.Random(53)
    for _ in range(300):
        inst = random_absio(rng, max_vars=3, max_terms=6, max_exp=4, bound_range=(-4, 4))
        if rng.random() < 0.5:
            # a constant, against which |p| may peak where a power is 0
            inst = replace(inst, terms=inst.terms + (((0,) * inst.num_vars, rng.randint(-60, 60)),))
        box = list(zip(inst.lower, inst.upper))
        for _ in range(4):
            ends = [sorted((rng.randint(lo, hi), rng.randint(lo, hi))) for lo, hi in box]
            lower, upper = tuple(lo for lo, _ in ends), tuple(hi for _, hi in ends)
            points = list(itertools.product(*map(range, lower, [hi + 1 for hi in upper])))
            top = max(abs(eval_poly(inst, pt)) for pt in points)
            assert _abs_bound(_factors(inst), lower, upper) >= top, (inst, lower, upper)
            pt = rng.choice(points)
            assert _abs_bound(_factors(inst), pt, pt) == abs(eval_poly(inst, pt)), (inst, pt)
    # x^2 - 5 on [-3, 2]: x^2 ranges over [0, 9], so the bound is 5, at x = 0
    assert _abs_bound([(1, ((0, 2),)), (-5, ())], (-3,), (2,)) == 5


def _record_walk(monkeypatch):
    # Sizes of the sub-boxes the walk skipped, the points it scanned, and
    # each scan's box and dtype
    log = {"pruned": [], "scanned": 0, "scans": []}
    bound, grid_leaf = absio._abs_bound, absio._grid_leaf

    def spy_bound(terms, lower, upper):
        value = bound(terms, lower, upper)
        if value < log["alpha"]:
            log["pruned"].append(math.prod(h - l + 1 for l, h in zip(lower, upper)))
        return value

    def spy_leaf(inst, dtype):
        log["scanned"] += math.prod(h - l + 1 for l, h in zip(inst.lower, inst.upper))
        log["scans"].append((inst, dtype))
        return grid_leaf(inst, dtype)

    monkeypatch.setattr(absio, "_abs_bound", spy_bound)
    monkeypatch.setattr(absio, "_grid_leaf", spy_leaf)
    return log


def _scans_in_own_dtype(log, box, dtype):
    # A scan of the whole box runs in the walk's dtype; a scan of a sub-box in
    # _leaf_dtype of that sub-box, which an int64 walk never widens
    for sub, scanned in log["scans"]:
        whole = (sub.lower, sub.upper) == (box.lower, box.upper)
        want = dtype if whole else absio._leaf_dtype(sub)
        assert scanned is want, (box, sub, scanned)
    return any(scanned is np.int64 for _, scanned in log["scans"])


def test_pruned_leaf_matches_grid_leaf(monkeypatch):
    # The walk at 64 points a scan in int64, and so one point in Python ints,
    # returns _grid_leaf's point on random boxes with axes of side 1, even
    # powers across 0 and negative weights, at alpha the box optimum and one
    # above, in _leaf_dtype's type and in Python ints; in Python ints alone
    # once the weights put every value past I64_SAFE, or the box is moved
    # past int64 (p(y - 2^70) on the box + 2^70).
    # Each scan runs in its own sub-box's dtype.
    log = _record_walk(monkeypatch)
    monkeypatch.setattr(absio, "SCAN_POINTS", 64)
    rng = random.Random(59)
    hits_after_prune = 0
    pruned_sizes = set()
    for case in range(200):
        n = rng.randint(1, 4)
        lower = [rng.randint(-8, 4) for _ in range(n)]
        upper = [lo + rng.choice((0, rng.randint(1, 10))) for lo in lower]
        terms = [(tuple(rng.randint(0, 4) for _ in range(n)), rng.randint(-9, 9))
                 for _ in range(rng.randint(1, 6))]
        if case % 2:
            terms.append(((0,) * n, rng.randint(-200, 200)))
        inst = AbsIoInstance(terms, lower, upper, 1)
        boxes = [inst, replace(inst, terms=[(vec, w * 10**20) for vec, w in terms])]
        if case % 4 == 0:
            moved = inst
            for i in range(n):
                moved, _ = shift_variable(moved, i, -(2**70))
            boxes.append(moved)
        for box in boxes:
            top = int(np.abs(_grid_everywhere(box, object)).max())
            for alpha in (max(1, top), top + 1):
                box = replace(box, alpha=alpha)
                for dtype in {absio._leaf_dtype(box), object}:
                    log.update(alpha=alpha, pruned=[], scans=[])
                    point = _walk_leaf(box, dtype, True)
                    assert point == _grid_leaf(box, dtype), (box, dtype)
                    _scans_in_own_dtype(log, box, dtype)
                    hits_after_prune += point is not None and bool(log["pruned"])
                    pruned_sizes.update(log["pruned"])
    # prunes at several levels of the split, and hits past a pruned sub-box
    assert hits_after_prune >= 20 and len(pruned_sizes) >= 5, (hits_after_prune, pruned_sizes)
    # Boxes shaped like perfbench's big family: w x1^22 on [0, 9] puts the
    # box past I64_SAFE, while rows of small x1 fit int64.  The targets are
    # the optimum, one above, and |p| at a random point, whose first hit
    # may lie in such a row.
    mixed = 0
    for _ in range(40):
        terms = [((22, 0, 0), rng.choice((-1, 1)) * rng.randint(1, 9))]
        terms += [(tuple(rng.randint(0, 3) for _ in range(3)), rng.randint(-9, 9))
                  for _ in range(4)]
        box = AbsIoInstance(terms, (0, -4, -2), (9, 4, 2), 1)
        assert absio._leaf_dtype(box) is object
        values = _grid_everywhere(box, object)
        top = int(np.abs(values).max())
        some = abs(int(values[tuple(rng.randrange(side) for side in values.shape)]))
        for alpha in (top, top + 1, max(1, some)):
            box = replace(box, alpha=alpha)
            log.update(alpha=alpha, pruned=[], scans=[])
            assert _walk_leaf(box, object, True) == _grid_leaf(box, object), box
            mixed += _scans_in_own_dtype(log, box, object)
    assert mixed >= 10, mixed


def test_pruned_leaf_skips_to_a_later_sub_box(monkeypatch):
    # p = x1 on [0, 255] x [0, 3] at 64 points a scan: x1 in [0, 127] and
    # [128, 191] are bounded by 127 and 191 and skipped whole, and the hit,
    # x1 = 200, is in the one scan, x1 in [192, 207]
    log = _record_walk(monkeypatch)
    monkeypatch.setattr(absio, "SCAN_POINTS", 64)
    inst = AbsIoInstance([((1, 0), 1)], (0, 0), (255, 3), 200)
    log.update(alpha=200, pruned=[], scanned=0)
    assert _walk_leaf(inst, np.int64, True) == _grid_leaf(inst, np.int64) == (200, 0)
    assert log["pruned"] == [512, 256] and log["scanned"] == 64


def test_solve_matches_brute_finite():
    rng = random.Random(17)
    for _ in range(300):
        inst = random_absio(rng, max_vars=4, max_terms=6)
        verdict = solve_absio(inst)
        want = brute_force_absio(inst)
        assert verdict.decision == want.decision, inst
        if verdict.decision:
            ok, value = verify_point(inst, verdict.witness)
            assert ok and value == verdict.achieved


def test_solve_matches_brute_wide():
    # wide boxes make the exponent branching fire
    rng = random.Random(19)
    for _ in range(120):
        inst = random_absio(rng, max_vars=2, max_terms=4, bound_range=(-30, 30))
        verdict = solve_absio(inst)
        want = brute_force_absio(inst)
        assert verdict.decision == want.decision, inst
        if verdict.decision:
            ok, _ = verify_point(inst, verdict.witness)
            assert ok


def test_solve_unbounded_cases():
    # x^2 grows without bound
    v = solve_absio(AbsIoInstance([((2,), 1)], (None,), (None,), 100))
    assert v.decision
    ok, _ = verify_point(AbsIoInstance([((2,), 1)], (None,), (None,), 100), v.witness)
    assert ok
    # x + 1 on [5, inf)
    v = solve_absio(AbsIoInstance([((1,), 1), ((0,), 1)], (5,), (None,), 50))
    assert v.decision and v.witness[0] >= 5
    # identical columns cancel to the zero polynomial
    v = solve_absio(AbsIoInstance([((1,), 1), ((1,), -1)], (None,), (None,), 1))
    assert not v.decision
    # x*y with both half-open boxes
    inst = AbsIoInstance([((1, 1), 9), ((0, 0), -1)], (0, None), (None, 4), 50)
    v = solve_absio(inst)
    assert v.decision
    ok, _ = verify_point(inst, v.witness)
    assert ok


def test_solve_alpha_zero():
    inst = AbsIoInstance([((1,), 1)], (3,), (9,), 0)
    v = solve_absio(inst)
    assert v.decision and v.witness == (3,)
    empty = AbsIoInstance([((1,), 1)], (9,), (3,), 0)
    assert not solve_absio(empty).decision


def test_bad_witness_is_a_bug(monkeypatch):
    # solve_absio re-checks its witness through pipeline._checked_value, which
    # prints a point in coordinate order
    inst = AbsIoInstance([((1, 0), 1), ((0, 1), 1)], (0, 0), (5, 5), 3)
    assert solve_absio(inst).decision
    monkeypatch.setattr(absio, "_replay", lambda log, ids, point, target: (1, 0))
    with pytest.raises(InternalGuaranteeError) as exc:
        solve_absio(inst)
    assert str(exc.value) == "witness (1, 0) scores 1, target 3"


def test_solve_budget_propagates():
    inst = AbsIoInstance([((1, 1), 1), ((0, 0), 1)], (0, 0), (300, 300), 10**9)
    with pytest.raises(BudgetExceededError):
        solve_absio(inst, max_points=1000)


def test_support_shortcut_real_threshold():
    # n linear monomials over [0,1] are n singleton supports under d=1, and
    # g(1) = 8 edges certify alpha = 1
    def linear(n, lo, hi):
        terms = [(tuple(int(i == j) for i in range(n)), 1) for j in range(n)]
        return AbsIoInstance(terms, (lo,) * n, (hi,) * n, 1)

    v = solve_absio(linear(8, 0, 1))
    assert v.decision and v.witness == (1,) * 8
    assert v.transcript == ("edgecount |E|=8 threshold=8", "support yes |X|=8")
    w = solve_absio(linear(7, 0, 1))
    assert w.decision and not any("support yes" in line for line in w.transcript)
    # shifting [2,3] boxes to [0,1] adds the constant monomial as an eighth edge
    inst = linear(7, 2, 3)
    u = solve_absio(inst)
    assert u.decision and "support yes |X|=7" in u.transcript
    ok, value = verify_point(inst, u.witness)
    assert ok and abs(value) >= 1


def _scanned_leaves(monkeypatch):
    # the instances solve_absio hands to brute_force_absio, in call order
    scanned = []
    real = absio.brute_force_absio

    def spy(inst, **kwargs):
        scanned.append(inst)
        return real(inst, **kwargs)

    monkeypatch.setattr(absio, "brute_force_absio", spy)
    return scanned


def test_pre_shift_leaf_matches_shifted_scan(monkeypatch):
    # narrow boxes that miss 0 or 1, so rule 6 shifts every wide enough
    # variable and no branch fires (width <= 3 < 2 * e * alpha)
    scanned = _scanned_leaves(monkeypatch)
    rng = random.Random(25)
    pre_scans = yes = 0
    for _ in range(400):
        n = rng.randint(1, 3)
        lower = [rng.choice((1, -1)) * rng.randint(2, 40) for _ in range(n)]
        upper = [lo + rng.randint(0, 3) for lo in lower]
        terms = [(tuple(rng.randint(0, 4) for _ in range(n)), rng.randint(-5, 5))
                 for _ in range(rng.randint(1, 8))]
        top = max(abs(naive_absio_value(AbsIoInstance(terms, lower, upper, 0), pt))
                  for pt in itertools.product(*map(range, lower, [hi + 1 for hi in upper])))
        inst = AbsIoInstance(terms, lower, upper, max(2, rng.randint(top // 2, top + 1)))
        scanned.clear()
        verdict = solve_absio(inst)
        if any(line.startswith("support yes") for line in verdict.transcript):
            continue
        simp = rule5_simplify(inst)
        shifted, log, _ = rule6_shift(simp.instance)
        leaf = brute_force_absio(shifted)
        assert verdict.decision == leaf.decision, inst
        assert verdict.transcript[-1] == leaf.transcript[-1], inst
        if leaf.decision:
            yes += 1
            assert verdict.witness == _replay(
                simp.log + log, shifted.var_ids, leaf.witness, inst.var_ids), inst
        pre_scans += scanned == [simp.instance] and simp.instance.terms != shifted.terms
    assert pre_scans >= 100 and yes >= 100


def test_pre_shift_leaf_keeps_int64(monkeypatch):
    # (x - T)^2 + z^3 with x in [T, T + 3], z in [2, 3] and T = 2^31: rule 6
    # cancels the big terms, and the shifted form fits int64 while the
    # pre-shift form (4 terms against 5) would need Python ints
    scanned = _scanned_leaves(monkeypatch)
    t = 1 << 31
    inst = AbsIoInstance([((2, 0), 1), ((1, 0), -2 * t), ((0, 0), t * t), ((0, 3), 1)],
                         (t, 2), (t + 3, 3), 30)
    verdict = solve_absio(inst)
    assert verdict.decision and verdict.witness == (t + 2, 3)
    assert scanned[0].num_terms == 5 and scanned[0].lower == (0, 0)
    assert absio._leaf_dtype(scanned[0]) is np.int64
    assert absio._leaf_dtype(rule5_simplify(inst).instance) is object
    # x^3 + z^2 with x in [2^40, 2^40 + 3] needs Python ints in both forms,
    # so the leaf scans the 2-term pre-shift form, not the 6-term shifted one
    scanned.clear()
    big = 1 << 40
    inst = AbsIoInstance([((3, 0), 1), ((0, 2), 1)], (big, 2), (big + 3, 3), big**3 + 9)
    verdict = solve_absio(inst)
    assert verdict.decision and verdict.witness == (big, 3)
    assert scanned[0] == rule5_simplify(inst).instance
    assert absio._leaf_dtype(scanned[0]) is object


def test_leaf_form_rejects_more_than_shifts():
    inst = AbsIoInstance([((1, 1), 1)], (2, 2), (3, 3), 5)
    shifted, log, _ = rule6_shift(inst)
    assert _leaf_form(inst, shifted, list(log)) == (inst, (2, 2))
    with pytest.raises(InternalGuaranteeError):
        _leaf_form(inst, shifted, list(log) + [("negate", 1)])
    with pytest.raises(InternalGuaranteeError):
        _leaf_form(inst, replace(shifted, var_ids=(1, 3)), list(log))


def test_support_shortcut_early_exit_is_exact():
    # whenever the terms alone fail _links_below_g, kernelize's edge-count
    # mode could not have fired on their support hypergraph
    rng = random.Random(26)
    exits = 0
    for _ in range(600):
        n = rng.randint(0, 5)
        m = rng.randint(0, 40)
        terms = [(tuple(rng.randint(0, 2) * (rng.random() < 0.4) for _ in range(n)),
                  rng.randint(-3, 3)) for _ in range(m)]
        alpha = rng.randint(1, 4)
        edges = [(frozenset(i + 1 for i, a in enumerate(vec) if a), w) for vec, w in terms]
        d = max((len(e) for e, _ in edges), default=0)
        if d >= 1 and not _links_below_g(len(terms), d):
            continue
        exits += 1
        if d >= 1:
            h = WeightedHypergraph._trusted(frozenset(range(1, n + 1)), edges, alpha, d)
            assert kernelize(h, MODE_EDGECOUNT).status == STATUS_REDUCED
        inst = AbsIoInstance(terms, (0,) * n, (1,) * n, alpha)
        assert _support_shortcut(inst) == (None, ())
    assert exits >= 300


def test_solve_transcript_shapes():
    inst = AbsIoInstance([((1,), 1), ((0,), 1)], (5,), (60,), 3)
    v = solve_absio(inst)
    assert v.decision
    assert any(line.startswith("rule6 shift x1 t=5") for line in v.transcript)
    assert any(line.startswith("branch x1 e=1") for line in v.transcript)
    assert any(line.startswith("extend x1=") for line in v.transcript)


@settings(deadline=None, max_examples=50)
@given(st.integers(0, 2**32 - 1))
def test_solve_agrees_with_naive(seed):
    rng = random.Random(seed)
    inst = random_absio(rng, max_vars=3, max_terms=4, bound_range=(-5, 5))
    want = naive_absio_decide(inst)
    verdict = solve_absio(inst)
    assert verdict.decision == (want is not None)
    if verdict.decision:
        ok, _ = verify_point(inst, verdict.witness)
        assert ok
