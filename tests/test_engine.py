"""Both search backends against naive enumeration, and the dispatch rules.

The compiled core is built from ``_core.c`` into a temporary directory once per
test run, so its tests run whenever a C compiler exists, whether or not a
library was built in place.
"""

import os
import random
import shutil
import subprocess
import sys
from importlib.machinery import EXTENSION_SUFFIXES
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from absopt import engine
from absopt.engine import CompiledCore, _fits_compiled
from absopt import _engine_py as pure
from absopt.model import _formula_engine_clauses

from helpers import assignments_lex, naive_formula_value, random_formula

PACKAGE = Path(engine.__file__).parent

# The compiled entry names the fixture that builds it, keeping the pure
# entry's test id.
BACKENDS = [("pure", pure), ("compiled", "absopt._core")]


@pytest.fixture(scope="session")
def core_library(tmp_path_factory):
    """Path of the C core compiled from source into a temporary directory."""
    cc = shutil.which("cc") or shutil.which("gcc")
    if cc is None:
        pytest.skip("no C compiler (cc or gcc) on PATH to build _core.c")
    lib = tmp_path_factory.mktemp("core") / "_core.so"
    subprocess.run(
        [cc, "-O2", "-shared", "-fPIC", "-o", str(lib), str(PACKAGE / "_core.c")],
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


def _call_decide(backend, phi):
    return backend.decide(
        phi.num_vars,
        _formula_engine_clauses(phi),
        dnf=phi.kind == "dnf",
        alpha=phi.alpha,
        absolute=phi.objective == "abs",
        comparison=phi.comparison,
    )


def _call_extremes(backend, phi):
    return backend.extremes(
        phi.num_vars, _formula_engine_clauses(phi), dnf=phi.kind == "dnf"
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
    return False, 0, 0


@pytest.mark.parametrize("name,backend", BACKENDS, indirect=["backend"])
def test_decide_matches_naive(name, backend):
    rng = random.Random(42)
    for _ in range(400):
        phi = random_formula(rng, max_vars=6)
        got = _call_decide(backend, phi)
        want = _naive_decide(phi)
        assert got[0] == want[0], phi
        if want[0]:
            assert (got[1], got[2]) == (want[1], want[2]), phi


@pytest.mark.parametrize("name,backend", BACKENDS, indirect=["backend"])
def test_extremes_matches_naive(name, backend):
    rng = random.Random(43)
    for _ in range(300):
        phi = random_formula(rng, max_vars=6)
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
    rng = random.Random(44)
    for _ in range(300):
        phi = random_formula(rng, max_vars=7)
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


def test_dispatch_boundaries(compiled_core, monkeypatch):
    small = [(0b1, 0, 3)]
    assert _fits_compiled(4, small, 2)
    assert not _fits_compiled(63, small, 2)
    assert not _fits_compiled(4, small, 1 << 62)
    assert not _fits_compiled(4, small, -(1 << 62))
    big = [(0b1, 0, 1 << 62)]
    assert not _fits_compiled(4, big, 2)
    # with the compiled core installed, only instances that fit reach it
    log = []
    fast, slow = _Recording(compiled_core, log), _Recording(pure, log)
    monkeypatch.setattr(engine, "_compiled", fast)
    monkeypatch.setattr(engine, "_pure", slow)
    for clauses in (small, big):
        engine.decide(4, clauses, dnf=True, alpha=2, absolute=True, comparison="atleast")
        engine.extremes(4, clauses, dnf=True)
    assert log == [fast, fast, slow, slow]


def test_huge_weights_stay_exact(compiled_core, monkeypatch):
    monkeypatch.setattr(engine, "_compiled", compiled_core)
    # weights beyond the 64-bit safety bound must route to the pure backend
    w = 10**30
    clauses = [(0b01, 0, w), (0b10, 0, -w - 7)]
    found, mask, value = engine.decide(
        2, clauses, dnf=True, alpha=w + 7, absolute=True, comparison="atleast"
    )
    assert found and value == -w - 7
    maxv, _, minv, _ = engine.extremes(2, clauses, dnf=True)
    assert maxv == w and minv == -w - 7
    # weights just inside the bound run compiled and stay exact
    w = (1 << 61) - 1
    clauses = [(0b01, 0, w), (0b10, 0, -w)]
    assert compiled_core.extremes(2, clauses, dnf=True) == (w, 0b01, -w, 0b10)
    assert compiled_core.decide(
        2, clauses, dnf=True, alpha=w, absolute=True, comparison="exact"
    ) == (True, 0b10, -w)


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
    found, mask, value = engine.decide(
        0, [(0, 0, 5)], dnf=True, alpha=5, absolute=True, comparison="atleast"
    )
    assert found and mask == 0 and value == 5
    found, _, _ = engine.decide(
        0, [(0, 0, 5)], dnf=False, alpha=0, absolute=False, comparison="atleast"
    )
    assert found  # empty disjunction unsatisfied, value 0 >= 0


@settings(deadline=None, max_examples=60)
@given(st.data())
def test_decide_property(data):
    n = data.draw(st.integers(0, 5))
    m = data.draw(st.integers(0, 5))
    clauses = []
    for _ in range(m):
        pos = data.draw(st.integers(0, (1 << n) - 1 if n else 0))
        neg = data.draw(st.integers(0, (1 << n) - 1 if n else 0)) & ~pos
        w = data.draw(st.integers(-6, 6))
        clauses.append((pos, neg, w))
    alpha = data.draw(st.integers(0, 8))
    dnf = data.draw(st.booleans())
    found, mask, value = engine.decide(
        n, clauses, dnf=dnf, alpha=alpha, absolute=True, comparison="atleast"
    )
    if found:
        # recompute the reported value at the reported witness
        total = 0
        for pos, neg, w in clauses:
            if dnf:
                sat = (mask & pos) == pos and (mask & neg) == 0
            else:
                sat = (mask & pos) != 0 or (neg & ~mask & ((1 << n) - 1)) != 0
            if sat:
                total += w
        assert total == value and abs(value) >= alpha
