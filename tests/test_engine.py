"""Both search backends against naive enumeration, and the dispatch rules.

The compiled core is built from ``_core.c`` into a temporary directory once per
test run, so its tests run whenever a C compiler exists, whether or not a
library was built in place.  A second build with the undefined-behaviour
sanitizer reruns the weight-sum edge cases and the cross-check of the cores.
"""

import itertools
import os
import random
import shutil
import subprocess
import sys
import time
from dataclasses import replace
from importlib.machinery import EXTENSION_SUFFIXES
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from absopt import engine
from absopt.engine import I64_SAFE, CompiledCore
from absopt import _engine_py as pure
from absopt.model import (
    Assignment,
    WeightedFormula,
    WeightedHypergraph,
    _target_intervals,
    brute_force_formula,
    brute_force_hypergraph,
)

from helpers import (
    assignments_lex,
    formula_rows,
    naive_formula_value,
    naive_hypergraph_decide,
    naive_hypergraph_value,
    random_formula,
    random_hypergraph,
)

PACKAGE = Path(engine.__file__).parent

# A compiled entry names the library its fixture builds, keeping the pure
# entry's test id.
BACKENDS = [("pure", pure), ("compiled", "absopt._core")]
UBSAN_BACKEND = ("ubsan", "absopt._core+ubsan")
_CORE_FIXTURES = {"absopt._core": "compiled_core", "absopt._core+ubsan": "ubsan_core"}

VARIANTS = list(itertools.product(("dnf", "cnf"), ("abs", "sum"), ("atleast", "exact", "atmost")))


def _compile_core(tmp_path_factory, flags):
    """Path of ``_core.c`` compiled with flags into a temporary directory."""
    cc = shutil.which("cc") or shutil.which("gcc")
    if cc is None:
        pytest.skip("no C compiler (cc or gcc) on PATH to build _core.c")
    lib = tmp_path_factory.mktemp("core") / "_core.so"
    subprocess.run(
        [cc, *flags, "-shared", "-fPIC", "-o", str(lib), str(PACKAGE / "_core.c")],
        check=True,
    )
    return lib


@pytest.fixture(scope="session")
def core_library(tmp_path_factory):
    """Path of the C core compiled from source into a temporary directory."""
    return _compile_core(tmp_path_factory, ["-std=c99", "-Wall", "-Wextra", "-Werror", "-O2"])


@pytest.fixture(scope="session")
def compiled_core(core_library):
    return CompiledCore(str(core_library))


@pytest.fixture(scope="session")
def ubsan_core(tmp_path_factory):
    """The C core built with -fsanitize=undefined.

    The first report ends the test process with exit status 1; run pytest
    with ``-s`` to see it.
    """
    flags = ["-std=c99", "-fsanitize=undefined", "-fno-sanitize-recover=all", "-O1"]
    try:
        lib = _compile_core(tmp_path_factory, flags)
    except subprocess.CalledProcessError as exc:
        pytest.skip(f"the compiler cannot build the sanitized _core library: {exc}")
    try:
        return CompiledCore(str(lib))
    except OSError as exc:
        pytest.skip(f"ctypes cannot load the sanitized _core library: {exc}")


@pytest.fixture
def backend(request):
    if isinstance(request.param, str):
        return request.getfixturevalue(_CORE_FIXTURES[request.param])
    return request.param


def _formulas(seed, count, max_vars):
    """Random formulas cycling through every kind x objective x comparison."""
    rng = random.Random(seed)
    for i in range(count):
        kind, objective, comparison = VARIANTS[i % len(VARIANTS)]
        yield random_formula(
            rng, max_vars=max_vars, kind=kind, objective=objective, comparison=comparison
        )


def _call_decide(backend, phi):
    """The core's answer on the rows and closed targets that model.py builds."""
    rows = formula_rows(phi)
    targets = _target_intervals(phi.alpha, phi.objective, phi.comparison)
    return backend.decide(
        phi.num_vars, rows, engine._close(targets, engine._weight_total(rows))
    )


def _naive_decide(phi):
    for values in assignments_lex(phi.num_vars):
        val = naive_formula_value(phi, values)
        meas = abs(val) if phi.objective == "abs" else val
        hit = {
            "atleast": meas >= phi.alpha,
            "exact": meas == phi.alpha,
            "atmost": meas <= phi.alpha,
        }[phi.comparison]
        if hit:
            mask = sum(1 << i for i, v in enumerate(values) if v)
            return True, mask, val
    return False, None, None


@pytest.mark.parametrize("name,backend", BACKENDS, indirect=["backend"])
def test_decide_matches_naive(name, backend):
    for phi in _formulas(42, 480, 6):
        assert _call_decide(backend, phi) == _naive_decide(phi), phi


@pytest.mark.parametrize("name,backend", BACKENDS, indirect=["backend"])
def test_max_abs_matches_naive(name, backend):
    for phi in _formulas(43, 360, 6):
        rows = formula_rows(phi)
        for closed, want in _abs_sweep(phi.num_vars, rows):
            assert backend.decide(phi.num_vars, rows, closed) == want, (phi, closed)


def _assert_backends_agree(compiled):
    for phi in _formulas(44, 360, 7):
        total = sum(abs(wt) for _, wt in phi.clauses)
        # 2^64 would wrap to 0 in an int64, so it checks that targets are closed
        for alpha in (phi.alpha, 0, total + 1, 10**30, 1 << 64):
            phi = replace(phi, alpha=alpha)
            a = _call_decide(pure, phi)
            b = _call_decide(compiled, phi)
            assert a == b, f"decide: pure core {a} != compiled core {b} on {phi}"
        rows = formula_rows(phi)
        for closed, want in _abs_sweep(phi.num_vars, rows):
            a = pure.decide(phi.num_vars, rows, closed)
            b = compiled.decide(phi.num_vars, rows, closed)
            assert a == b == want, f"at {closed}: pure {a}, compiled {b}, naive {want} on {phi}"


def test_backends_agree_exactly(compiled_core):
    _assert_backends_agree(compiled_core)


def test_backends_agree_exactly_ubsan(ubsan_core):
    _assert_backends_agree(ubsan_core)


class _Recording:
    """A core that logs itself on every call before delegating."""

    def __init__(self, core, log):
        self.core, self.log = core, log

    def decide(self, *args, **kwargs):
        self.log.append(self)
        return self.core.decide(*args, **kwargs)


def _install_recording(monkeypatch, compiled_core):
    log = []
    fast, slow = _Recording(compiled_core, log), _Recording(pure, log)
    monkeypatch.setattr(engine, "_compiled", fast)
    monkeypatch.setattr(engine, "_pure", slow)
    return log, fast, slow


def test_dispatch_boundaries(compiled_core, monkeypatch):
    log, fast, slow = _install_recording(monkeypatch, compiled_core)
    targets = ((2, None), (None, -2))
    # a CNF whose clause weights sum below the bound but whose folded rows,
    # with their constant row, cross it
    cnf = WeightedFormula("cnf", 2, (((1,), 1 << 61), ((-2,), 1 << 60)), 1)
    cases = [
        (4, [(0b1, 0, I64_SAFE - 4), (0b10, 0, -3)], fast),
        (4, [(0b1, 0, I64_SAFE - 3), (0b10, 0, -3)], slow),
        (4, [(0b1, 0, 3), (0b10, 0, -(I64_SAFE << 40))], slow),
        (62, [(0b1, 0, 3)], fast),
        (63, [(0b1, 0, 3)], slow),
        (2, formula_rows(cnf), slow),
    ]
    for num_vars, rows, core in cases:
        log.clear()
        engine.decide(num_vars, rows, targets)
        assert log == [core], (num_vars, rows)
    assert sum(abs(wt) for _, wt in cnf.clauses) < I64_SAFE


def test_huge_weights_stay_exact(compiled_core, monkeypatch):
    log, fast, slow = _install_recording(monkeypatch, compiled_core)
    # weights beyond the 64-bit safety bound route to the pure core
    w = 10**30
    rows = [(0b01, 0, w), (0b10, 0, -w - 7)]
    assert engine.decide(2, rows, ((w + 7, None), (None, -w - 7))) == (True, 0b10, -w - 7)
    assert log == [slow]
    # weights just inside the bound run compiled and stay exact
    log.clear()
    w = (1 << 61) - 1
    rows = [(0b01, 0, w), (0b10, 0, -w)]
    assert engine.decide(2, rows, ((w, w), (-w, -w))) == (True, 0b10, -w)
    assert log == [fast]
    # a huge target over small weights is closed to the weights' range and
    # runs compiled, with the pure core's and the naive answer
    for phi in _formulas(45, 120, 5):
        phi = replace(phi, alpha=10**30)
        rows = formula_rows(phi)
        log.clear()
        got = engine.decide(
            phi.num_vars, rows, _target_intervals(phi.alpha, phi.objective, phi.comparison)
        )
        assert log == [fast]
        assert got == _call_decide(pure, phi) == _naive_decide(phi), phi


def _spread(rng, phi, num_vars):
    """phi with its variables moved to a random ascending subset of 1..num_vars."""
    new = sorted(rng.sample(range(1, num_vars + 1), phi.num_vars))
    clauses = [
        (tuple(new[l - 1] if l > 0 else -new[-l - 1] for l in lits), wt) for lits, wt in phi.clauses
    ]
    return WeightedFormula(
        phi.kind, num_vars, clauses, phi.alpha, phi.objective, phi.comparison
    )


def test_core_sees_only_used_variables(monkeypatch):
    calls = []

    class Spy:
        """The pure core, logging the variable count and the variables in rows."""

        def decide(self, num_vars, rows, targets):
            used = 0
            for pos, neg, _ in rows:
                used |= pos | neg
            calls.append((num_vars, used))
            return pure.decide(num_vars, rows, targets)

    def assert_only_used(count):
        assert all(call == (count, (1 << count) - 1) for call in calls), calls
        calls.clear()

    monkeypatch.setattr(engine, "_core_for", lambda *args: Spy())
    rng = random.Random(48)
    for i in range(120):
        kind, objective, comparison = VARIANTS[i % len(VARIANTS)]
        phi = random_formula(
            rng, max_vars=5, kind=kind, objective=objective, comparison=comparison
        )
        phi = _spread(rng, phi, rng.randint(phi.num_vars, 9))
        count = len({abs(l) for lits, _ in phi.clauses for l in lits})
        verdict = brute_force_formula(phi)
        mask = verdict.witness.mask() if verdict.decision else None
        assert (verdict.decision, mask, verdict.achieved) == _naive_decide(phi), phi
        assert len(calls) == 1
        assert_only_used(count)
        best = max(
            abs(naive_formula_value(phi, values)) for values in assignments_lex(phi.num_vars)
        )
        at_max = replace(phi, alpha=best, objective="abs", comparison="atleast")
        verdict = brute_force_formula(at_max)
        assert (True, verdict.witness.mask(), verdict.achieved) == _naive_decide(at_max), phi
        assert_only_used(count)

        h = random_hypergraph(rng, max_vertices=6)
        h = WeightedHypergraph(h.vertices | set(rng.sample(range(1, 13), 3)), h.edges, h.alpha, h.d)
        count = len({v for e, _ in h.edges for v in e})
        verdict = brute_force_hypergraph(h)
        want = naive_hypergraph_decide(h)
        assert (verdict.witness, verdict.achieved) == (want or (None, None)), h
        assert len(calls) == 1
        assert_only_used(count)
        order = sorted(h.vertices)
        best = max(
            abs(naive_hypergraph_value(h, {v for v, p in zip(order, picks) if p}))
            for picks in itertools.product((False, True), repeat=len(order))
        )
        at_max = replace(h, alpha=best)
        verdict = brute_force_hypergraph(at_max)
        assert (verdict.witness, verdict.achieved) == naive_hypergraph_decide(at_max), h
        assert_only_used(count)


def test_unused_variables_cost_nothing(monkeypatch):
    monkeypatch.setattr(engine, "_compiled", None)
    start = time.perf_counter()
    # 24 variables, of which only x1, x2 and x24 occur; even weights never sum to 1
    clauses = (((1,), 2), ((2,), -4), ((24,), 6))
    phi = WeightedFormula("dnf", 24, clauses, 1, "sum", "exact")
    assert not brute_force_formula(phi).decision
    # the largest |value| is 8, first reached by {1, 24}
    verdict = brute_force_formula(replace(phi, alpha=8, objective="abs", comparison="atleast"))
    assert (verdict.witness, verdict.achieved) == (Assignment.from_true_vars(24, {1, 24}), 8)
    h = WeightedHypergraph(24, clauses, 9)
    assert not brute_force_hypergraph(h).decision
    verdict = brute_force_hypergraph(replace(h, alpha=8))
    assert (verdict.witness, verdict.achieved) == (frozenset({1, 24}), 8)
    assert time.perf_counter() - start < 0.5


def test_backend_selection(core_library, tmp_path):
    # a copy of the package, so that no library is written next to the sources
    pkg = tmp_path / "absopt"
    shutil.copytree(PACKAGE, pkg, ignore=shutil.ignore_patterns("*.so", "__pycache__"))
    env = dict(os.environ, PYTHONPATH=str(tmp_path))

    def backend():
        proc = subprocess.run(
            [sys.executable, "-c", "import absopt; print(absopt.BACKEND)"],
            env=env, capture_output=True, text=True, check=True,
        )
        return proc.stdout.strip()

    assert backend() == "pure"
    shutil.copy(core_library, pkg / ("_core" + EXTENSION_SUFFIXES[0]))
    assert backend() == "compiled"


def test_empty_clause_and_zero_vars():
    # the empty conjunction is satisfied by the empty assignment
    assert engine.decide(0, [(0, 0, 5)], ((5, None), (None, -5))) == (True, 0, 5)
    # the empty disjunction never holds: value 0 meets >= 0 but not >= 1
    verdict = brute_force_formula(WeightedFormula("cnf", 0, (((), 5),), 0, "sum"))
    assert verdict.decision and verdict.achieved == 0
    assert not brute_force_formula(WeightedFormula("cnf", 0, (((), 5),), 1, "sum")).decision


def _row_values(num_vars, rows):
    """(mask, value) of every assignment in lexicographic order, from the rows."""
    out = []
    for values in assignments_lex(num_vars):
        mask = sum(1 << i for i, v in enumerate(values) if v)
        out.append((mask, sum(w for pos, neg, w in rows if mask & pos == pos and not mask & neg)))
    return out


def _naive_rows_decide(num_vars, rows, targets):
    for mask, val in _row_values(num_vars, rows):
        if any(lo <= val <= hi for lo, hi in targets):
            return True, mask, val
    return False, None, None


def _abs_sweep(num_vars, rows):
    """Closed targets |value| >= t, each with the naive answer, for every
    distinct |value| t of the rows and for one past the largest."""
    total = engine._weight_total(rows)
    values = sorted({abs(val) for _, val in _row_values(num_vars, rows)})
    for t in values + [values[-1] + 1]:
        closed = engine._close(((t, None), (None, -t)), total)
        yield closed, _naive_rows_decide(num_vars, rows, closed)


def _mixed_rows(rng, num_vars, count, bits, few_planes=False):
    """Random rows with weights of both signs and bit length exactly ``bits``.

    With ``few_planes`` every |w| sets the top bit and three middle ones at
    most, so there are fewer bit planes than distinct weights.
    """
    rows = []
    for _ in range(count):
        pos = rng.getrandbits(num_vars) & rng.getrandbits(num_vars)
        neg = rng.getrandbits(num_vars) & rng.getrandbits(num_vars) & ~pos
        if few_planes:
            w = 1 << (bits - 1) | rng.getrandbits(3) << (bits // 2)
        else:
            w = rng.randrange(1 << (bits - 1), 1 << bits)
        rows.append((pos, neg, rng.choice((w, -w))))
    return rows


def _word_crossing_rows(rng, num_vars, kept):
    """``kept`` rows with literals and nonzero weights, with zero-weight and
    literal-free rows mixed in; the cores leave those out of their row sets,
    so the kept rows' indices shift against the input's."""
    rows = []
    for pos, neg, w in _mixed_rows(rng, num_vars, kept, 3):
        if not pos | neg:
            pos = 1 << rng.randrange(num_vars)
        rows.append((pos, neg, w))
        if rng.random() < 0.3:
            rows.append(rng.choice(((pos | 1, neg & ~1, 0), (0, 0, rng.randint(-9, 9)))))
    return rows


def _rows_weighing(rng, num_vars, total):
    """Mixed-sign rows, with zero-weight and literal-free rows among them,
    whose kept rows' |w| sum to exactly ``total``."""
    rows = _word_crossing_rows(rng, num_vars, 60) + _mixed_rows(rng, num_vars, 40, 6)
    rest = total - sum(abs(w) for pos, neg, w in rows if pos | neg)
    assert rest > 0
    return rows + [(1 << rng.randrange(num_vars), 0, rng.choice((rest, -rest)))]


def _edge_cases():
    rng = random.Random(46)
    cases = [
        # no variables: only literal-free rows, which hold vacuously
        (0, []),
        (0, [(0, 0, 5)]),
        (0, [(0, 0, 0), (0, 0, 3), (0, 0, -7)]),
        # one variable, with zero-weight, constant and self-contradictory rows
        (1, [(1, 0, 3)]),
        (1, [(0, 1, -2), (1, 0, 0)]),
        (1, [(0, 0, 2), (1, 0, -2), (1, 1, 9)]),
        # zero-weight rows mixed into open ones, and constant rows beside them
        (5, [(p, n, w if i % 3 else 0) for i, (p, n, w) in enumerate(_mixed_rows(rng, 5, 12, 3))]),
        (5, [(0, 0, 4), (0, 0, -9)] + _mixed_rows(rng, 5, 8, 2) + [(0b11, 0, 0)] * 3),
    ]
    # mixed signs at bit lengths 1, 40, 63 and 100: few bit planes, more planes
    # than rows one node changes, and high planes
    for bits in (1, 40, 63, 100):
        for num_vars, count in ((6, 12), (7, 30)):
            cases.append((num_vars, _mixed_rows(rng, num_vars, count, bits)))
        if bits > 1:
            cases.append((7, _mixed_rows(rng, 7, 30, bits, few_planes=True)))
    # kept rows filling one 64-bit word of a row set, and spilling into the next
    for kept in (63, 64, 65, 128, 129):
        cases.append((6, _word_crossing_rows(rng, 6, kept)))
    # x3's row is kept row 0 and x2's row kept row 65, in the second word; the
    # 64 rows of x1 between them cancel at every assignment.  The values are
    # -4, 3, 996 and 1003, so the first hit of the middle one, 996, needs both.
    x1_rows = [(0b1, 0, 1 if c % 2 else -1) for c in range(64)]
    cases.append((3, [(0b100, 0, 1000), (0, 0, 3), (0b10, 0, 0)] + x1_rows + [(0b10, 0, -7)]))
    # one |w| for every row: every bit plane of a sign holds all its rows
    for mag in ((1 << 50) + 12345, (1 << 80) + 12345):
        rows = _mixed_rows(rng, 6, 14, 1)
        cases.append((6, [(p, n, w * mag) for p, n, w in rows]))
    # kept rows weighing exactly the unary layout's bound and one past it,
    # and 400 rows of 6-bit weights, far past it with few bit planes
    for total in (pure.UNARY_BOUND, pure.UNARY_BOUND + 1):
        cases.append((7, _rows_weighing(rng, 7, total)))
    cases.append((7, _mixed_rows(rng, 7, 400, 6)))
    return cases


@pytest.mark.parametrize("name,backend", BACKENDS + [UBSAN_BACKEND], indirect=["backend"])
def test_weight_sum_edge_cases(name, backend):
    for num_vars, rows in _edge_cases():
        total = engine._weight_total(rows)
        if backend is not pure and total >= I64_SAFE:
            continue  # the compiled core never sees these; engine.py routes them pure
        for closed, want in _abs_sweep(num_vars, rows):
            assert backend.decide(num_vars, rows, closed) == want, (rows, closed)
        values = sorted({val for _, val in _row_values(num_vars, rows)})
        lo, mid, hi = values[0], values[len(values) // 2], values[-1]
        for targets in (
            ((hi, hi), (lo, lo)),
            ((mid, mid), (hi + 1, None)),
            ((None, lo - 1), (hi + 1, None)),
            ((mid, None), (None, lo)),
        ):
            closed = engine._close(targets, total)
            got = backend.decide(num_vars, rows, closed)
            assert got == _naive_rows_decide(num_vars, rows, closed), (rows, targets)
    # kept rows weighing at most the bound take |w| bits each, and some cases
    # do; the others take one bit each.  Of those, some cases have more bit
    # planes than rows, so every sum runs row by row; the others have fewer,
    # so nodes that change many rows sum by planes
    unary, more_planes = False, set()
    for num_vars, rows in _edge_cases():
        weights = [w for pos, neg, w in rows if (pos | neg) and w]
        total = sum(abs(w) for w in weights)
        width = pure._setup(num_vars, rows)[0].bit_length()
        if total <= pure.UNARY_BOUND:
            assert width == total
            unary = True
            continue
        assert width == len(weights)
        planes = len(pure._planes(weights, 1)) + len(pure._planes(weights, -1))
        more_planes.add(planes > len(weights))
    assert unary
    assert more_planes == {False, True}


def test_layouts_agree(monkeypatch):
    # with the bound at 0 every case takes one bit per kept row, and with a
    # huge bound |w| bits: both must find the same first hit as the naive scan
    rng = random.Random(48)
    for _ in range(120):
        num_vars = rng.randint(0, 7)
        rows = []
        for _ in range(rng.randint(0, 25)):
            pos = rng.getrandbits(num_vars) & rng.getrandbits(num_vars)
            neg = rng.getrandbits(num_vars) & rng.getrandbits(num_vars) & ~pos
            w = rng.choice((0, rng.randint(1, 3), rng.randint(1, 600)))
            rows.append((pos, neg, rng.choice((w, -w))))
        total = engine._weight_total(rows)
        kept = [w for pos, neg, w in rows if (pos | neg) and w]
        widths = []
        for bound in (0, 1 << 200):
            monkeypatch.setattr(pure, "UNARY_BOUND", bound)
            widths.append(pure._setup(num_vars, rows)[0].bit_length())
        assert widths == [len(kept), sum(abs(w) for w in kept)]
        values = sorted({val for _, val in _row_values(num_vars, rows)})
        lo, hi = values[0], values[-1]
        for targets in (
            ((lo, lo), (hi, hi)),
            ((None, lo), (hi, None)),
            ((lo - 1, lo - 1), (hi + 1, hi + 1)),
            ((lo + 1, hi - 1), (hi, hi)),
            ((-total - 5, lo), (hi, total + 5)),
        ):
            closed = engine._close(targets, total)
            got = []
            for bound in (0, 1 << 200):
                monkeypatch.setattr(pure, "UNARY_BOUND", bound)
                got.append(pure.decide(num_vars, rows, closed))
            assert got[0] == got[1] == _naive_rows_decide(num_vars, rows, closed), (rows, targets)


@pytest.mark.parametrize("name,backend", BACKENDS, indirect=["backend"])
def test_merged_zero_weight_clauses(name, backend):
    # clauses with equal literal sets merge at construction, and the model
    # keeps a merged weight of zero as a row of weight 0
    rng = random.Random(47)
    for i, (kind, objective, comparison) in enumerate(VARIANTS * 10):
        phi = random_formula(rng, max_vars=5, kind=kind, objective=objective, comparison=comparison)
        lits, wt = max(phi.clauses, key=lambda c: len(c[0]), default=((), 0))
        if not lits:
            continue
        phi = WeightedFormula(
            kind, phi.num_vars, phi.clauses + ((lits, -wt), ((), i % 3)), phi.alpha,
            objective, comparison,
        )
        rows = formula_rows(phi)
        assert any(w == 0 and pos | neg for pos, neg, w in rows), phi
        assert _call_decide(backend, phi) == _naive_decide(phi), phi
        for closed, want in _abs_sweep(phi.num_vars, rows):
            assert backend.decide(phi.num_vars, rows, closed) == want, (phi, closed)


def _interval(data):
    # values stay within 5 rows of weight at most 6
    ends = st.one_of(st.none(), st.integers(-32, 32))
    return data.draw(ends), data.draw(ends)


@settings(deadline=None, max_examples=80)
@given(st.data())
def test_decide_property(data):
    n = data.draw(st.integers(0, 5))
    m = data.draw(st.integers(0, 5))
    rows = []
    for _ in range(m):
        pos = data.draw(st.integers(0, (1 << n) - 1 if n else 0))
        neg = data.draw(st.integers(0, (1 << n) - 1 if n else 0)) & ~pos
        w = data.draw(st.integers(-6, 6))
        rows.append((pos, neg, w))
    targets = (_interval(data), _interval(data))

    def value(mask):
        return sum(w for pos, neg, w in rows if mask & pos == pos and not mask & neg)

    def inside(v):
        return any(
            (lo is None or lo <= v) and (hi is None or v <= hi) for lo, hi in targets
        )

    found, mask, got = engine.decide(n, rows, targets)
    if found:
        # recompute the reported value at the reported witness
        assert value(mask) == got and inside(got)
    else:
        assert not any(inside(value(mask)) for mask in range(1 << n))
