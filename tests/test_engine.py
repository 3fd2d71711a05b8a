"""Both search backends against naive enumeration, and the dispatch rules.

The compiled core is built from ``_core.c`` into a temporary directory once per
test run, so its tests run whenever a C compiler exists, whether or not a
library was built in place.
"""

import itertools
import os
import random
import shutil
import subprocess
import sys
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
    WeightedFormula,
    _formula_engine_clauses,
    _target_intervals,
    brute_force_formula,
)

from helpers import assignments_lex, naive_formula_value, random_formula

PACKAGE = Path(engine.__file__).parent

# The compiled entry names the fixture that builds it, keeping the pure
# entry's test id.
BACKENDS = [("pure", pure), ("compiled", "absopt._core")]

VARIANTS = list(itertools.product(("dnf", "cnf"), ("abs", "sum"), ("atleast", "exact", "atmost")))


@pytest.fixture(scope="session")
def core_library(tmp_path_factory):
    """Path of the C core compiled from source into a temporary directory."""
    cc = shutil.which("cc") or shutil.which("gcc")
    if cc is None:
        pytest.skip("no C compiler (cc or gcc) on PATH to build _core.c")
    lib = tmp_path_factory.mktemp("core") / "_core.so"
    subprocess.run(
        [cc, "-std=c99", "-Wall", "-Wextra", "-Werror", "-O2", "-shared", "-fPIC",
         "-o", str(lib), str(PACKAGE / "_core.c")],
        check=True,
    )
    return lib


@pytest.fixture(scope="session")
def compiled_core(core_library):
    return CompiledCore(str(core_library))


@pytest.fixture
def backend(request):
    if request.param == "absopt._core":
        return request.getfixturevalue("compiled_core")
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
    rows = _formula_engine_clauses(phi)
    targets = _target_intervals(phi.alpha, phi.objective, phi.comparison)
    return backend.decide(
        phi.num_vars, rows, engine._close(targets, engine._weight_total(rows))
    )


def _call_extremes(backend, phi):
    return backend.extremes(phi.num_vars, _formula_engine_clauses(phi))


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
def test_extremes_matches_naive(name, backend):
    for phi in _formulas(43, 360, 6):
        maxv, argmax, minv, argmin = _call_extremes(backend, phi)
        values = {}
        for values_t in assignments_lex(phi.num_vars):
            mask = sum(1 << i for i, v in enumerate(values_t) if v)
            values[mask] = naive_formula_value(phi, values_t)
        assert maxv == max(values.values())
        assert minv == min(values.values())
        assert values[argmax] == maxv
        assert values[argmin] == minv


def test_backends_agree_exactly(compiled_core):
    for phi in _formulas(44, 360, 7):
        total = sum(abs(wt) for _, wt in phi.clauses)
        # 2^64 would wrap to 0 in an int64, so it checks that targets are closed
        for alpha in (phi.alpha, 0, total + 1, 10**30, 1 << 64):
            phi = replace(phi, alpha=alpha)
            a = _call_decide(pure, phi)
            b = _call_decide(compiled_core, phi)
            assert a == b, f"decide: pure core {a} != compiled core {b} on {phi}"
        ea = _call_extremes(pure, phi)
        eb = _call_extremes(compiled_core, phi)
        assert ea == eb, f"extremes: pure core {ea} != compiled core {eb} on {phi}"


class _Recording:
    """A core that logs itself on every call before delegating."""

    def __init__(self, core, log):
        self.core, self.log = core, log

    def decide(self, *args, **kwargs):
        self.log.append(self)
        return self.core.decide(*args, **kwargs)

    def extremes(self, *args, **kwargs):
        self.log.append(self)
        return self.core.extremes(*args, **kwargs)


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
        (2, _formula_engine_clauses(cnf), slow),
    ]
    for num_vars, rows, core in cases:
        log.clear()
        engine.decide(num_vars, rows, targets)
        engine.extremes(num_vars, rows)
        assert log == [core, core], (num_vars, rows)
    assert sum(abs(wt) for _, wt in cnf.clauses) < I64_SAFE


def test_huge_weights_stay_exact(compiled_core, monkeypatch):
    log, fast, slow = _install_recording(monkeypatch, compiled_core)
    # weights beyond the 64-bit safety bound route to the pure core
    w = 10**30
    rows = [(0b01, 0, w), (0b10, 0, -w - 7)]
    assert engine.decide(2, rows, ((w + 7, None), (None, -w - 7))) == (True, 0b10, -w - 7)
    maxv, _, minv, _ = engine.extremes(2, rows)
    assert maxv == w and minv == -w - 7
    assert log == [slow, slow]
    # weights just inside the bound run compiled and stay exact
    log.clear()
    w = (1 << 61) - 1
    rows = [(0b01, 0, w), (0b10, 0, -w)]
    assert engine.extremes(2, rows) == (w, 0b01, -w, 0b10)
    assert engine.decide(2, rows, ((w, w), (-w, -w))) == (True, 0b10, -w)
    assert log == [fast, fast]
    # a huge target over small weights is closed to the weights' range and
    # runs compiled, with the pure core's and the naive answer
    for phi in _formulas(45, 120, 5):
        phi = replace(phi, alpha=10**30)
        rows = _formula_engine_clauses(phi)
        log.clear()
        got = engine.decide(
            phi.num_vars, rows, _target_intervals(phi.alpha, phi.objective, phi.comparison)
        )
        assert log == [fast]
        assert got == _call_decide(pure, phi) == _naive_decide(phi), phi


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
