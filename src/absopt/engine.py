"""Backend selection for the enumeration core.

Both cores keep one contract, ``decide(num_vars, rows, targets)``.  ``rows``
are DNF ``(pos, neg, weight)`` rows, and ``targets`` is a pair of closed
integer intervals; a value qualifies when it lies in either one.
``model.py`` folds disjunctions into rows and maps every objective and
comparison to intervals, writing an open end as ``None``; ``decide`` here
closes it.

The compiled core (``_core.c``, built in place by ``python3 setup.py build_ext
--inplace``) is loaded through ctypes at import when its library file exists,
and the pure core runs otherwise.  Nothing is built at import.
Dispatch is additionally per call: an instance runs compiled only when its
variable count and total absolute weight fit 64-bit arithmetic, so oversized
weights silently take the pure path and stay exact.
"""

from __future__ import annotations

import os
import struct
from importlib.machinery import EXTENSION_SUFFIXES
from itertools import chain

from . import _engine_py as _pure

# Conservative 64-bit safety margin: every partial sum the search forms lies
# within the total absolute weight, and targets are closed just outside it.
I64_SAFE = 1 << 62


class CompiledCore:
    """The C core in a shared library, called like the pure core."""

    def __init__(self, path: str):
        import ctypes

        lib = ctypes.CDLL(path)
        c_int, c_i64, c_ptr = ctypes.c_int, ctypes.c_int64, ctypes.c_void_p
        self._decide = lib.absopt_decide
        self._decide.argtypes = [c_int, c_int, c_ptr, c_ptr, c_ptr]
        self._decide.restype = c_int
        self._quad = c_i64 * 4

    def decide(self, num_vars, rows, targets):
        out = self._quad()
        bounds = self._quad(*chain.from_iterable(targets))
        packed = struct.pack(f"{3 * len(rows)}q", *chain.from_iterable(rows))
        found = self._decide(num_vars, len(rows), packed, bounds, out)
        if found < 0:
            raise MemoryError("enumeration core could not allocate its tables")
        return (True, out[0], out[1]) if found else (False, None, None)


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


def _weight_total(rows) -> int:
    total = 0
    for _pos, _neg, wt in rows:
        total += wt if wt >= 0 else -wt
    return total


def _core_for(num_vars: int, total: int):
    fits = _compiled is not None and num_vars <= 62 and total < I64_SAFE
    return _compiled if fits else _pure


def _close(targets, total: int):
    """Each endpoint clamped to, and each open end closed at, -(total+1) or total+1.

    No value leaves [-total, total], so the intervals admit the same values.
    """
    edge = total + 1

    def clamp(end, open_end):
        return open_end if end is None else min(max(end, -edge), edge)

    return tuple((clamp(lo, -edge), clamp(hi, edge)) for lo, hi in targets)


def decide(num_vars, rows, targets):
    """(found, witness_mask, value) for the first assignment in a target interval."""
    total = _weight_total(rows)
    return _core_for(num_vars, total).decide(num_vars, rows, _close(targets, total))
