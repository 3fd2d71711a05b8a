"""Backend selection for the enumeration core.

The compiled core (``_core.c``, built in place by ``python3 setup.py build_ext
--inplace``) is loaded through ctypes at import when its library file exists,
and the pure core runs otherwise.  Nothing is built at import.
Dispatch is additionally per call: an instance runs compiled only when its
variable count and exact weight magnitudes are known to fit 64-bit arithmetic,
so oversized weights silently take the pure path and stay exact.
"""

from __future__ import annotations

import os
import struct
from importlib.machinery import EXTENSION_SUFFIXES
from itertools import chain

from . import _engine_py as _pure

CMP_CODES = {"atleast": 0, "exact": 1, "atmost": 2}

# Conservative 64-bit safety margin: every partial sum the search forms is
# bounded by the total absolute weight, and targets are compared directly.
I64_SAFE = 1 << 62


class CompiledCore:
    """The C core in a shared library, called like the pure core."""

    def __init__(self, path: str):
        import ctypes

        lib = ctypes.CDLL(path)
        c_int, c_i64, c_ptr = ctypes.c_int, ctypes.c_int64, ctypes.c_void_p
        self._decide = lib.absopt_decide
        self._decide.argtypes = [c_int, c_int, c_ptr, c_int, c_i64, c_int, c_int, c_ptr]
        self._decide.restype = c_int
        self._extremes = lib.absopt_extremes
        self._extremes.argtypes = [c_int, c_int, c_ptr, c_int, c_ptr]
        self._extremes.restype = c_int
        self._out = c_i64 * 4

    @staticmethod
    def _rows(clauses) -> bytes:
        """The (pos, neg, weight) rows as one packed int64 buffer."""
        return struct.pack(f"{3 * len(clauses)}q", *chain.from_iterable(clauses))

    def decide(self, num_vars, clauses, *, dnf, alpha, absolute, comparison):
        out = self._out()
        found = self._decide(
            num_vars, len(clauses), self._rows(clauses), dnf, alpha, absolute,
            CMP_CODES[comparison], out,
        )
        if found < 0:
            raise MemoryError("enumeration core could not allocate its tables")
        return (True, out[0], out[1]) if found else (False, None, None)

    def extremes(self, num_vars, clauses, *, dnf):
        out = self._out()
        if self._extremes(num_vars, len(clauses), self._rows(clauses), dnf, out) < 0:
            raise MemoryError("enumeration core could not allocate its tables")
        return out[0], out[1], out[2], out[3]


def library_path() -> str | None:
    """The built ``_core`` library next to this module, or None."""
    here = os.path.dirname(os.path.abspath(__file__))
    for suffix in EXTENSION_SUFFIXES:
        path = os.path.join(here, "_core" + suffix)
        if os.path.exists(path):
            return path
    return None


_library = library_path()
_compiled = CompiledCore(_library) if _library is not None else None

BACKEND = "compiled" if _compiled is not None else "pure"


def _fits_compiled(num_vars: int, clauses, alpha: int) -> bool:
    if num_vars > 62:
        return False
    total = 0
    for _pos, _neg, wt in clauses:
        total += wt if wt >= 0 else -wt
    return total < I64_SAFE and -I64_SAFE < alpha < I64_SAFE


def decide(num_vars, clauses, *, dnf, alpha, absolute, comparison):
    """(found, witness_mask, value) for the first qualifying assignment."""
    if comparison not in CMP_CODES:
        raise ValueError(f"unknown comparison {comparison!r}")
    fits = _compiled is not None and _fits_compiled(num_vars, clauses, alpha)
    return (_compiled if fits else _pure).decide(
        num_vars, clauses, dnf=dnf, alpha=alpha, absolute=absolute, comparison=comparison
    )


def extremes(num_vars, clauses, *, dnf):
    """(max, argmax_mask, min, argmin_mask) over all assignments."""
    fits = _compiled is not None and _fits_compiled(num_vars, clauses, 0)
    return (_compiled if fits else _pure).extremes(num_vars, clauses, dnf=dnf)
