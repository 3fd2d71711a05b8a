import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))


@pytest.fixture
def small_g_only(monkeypatch):
    """Fail the test if a kernel threshold g is built at d > 6.

    g(i) at edge-size bound d has about 2^d * (2^i - 1) bits, so building it
    at larger d takes seconds to hours; deciding must not need it.
    """
    from absopt import kernel

    real_g = kernel.g

    def g(i, alpha, d):
        assert d <= 6, f"built g({i}, {alpha}, {d})"
        return real_g(i, alpha, d)

    monkeypatch.setattr(kernel, "g", g)


def pytest_terminal_summary(terminalreporter):
    try:
        from test_acceptance import RESULTS
    except ImportError:
        return
    if RESULTS:
        terminalreporter.section("acceptance criteria")
        for line in RESULTS:
            terminalreporter.write_line(line)
