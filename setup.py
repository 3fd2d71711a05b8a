"""Build script for the optional compiled enumeration core.

``python3 setup.py build_ext --inplace`` compiles ``src/absopt/_core.c``, a
plain C library with no Python API, next to the package sources, where
engine.py loads it through ctypes.  The package is fully functional without
it; engine.py falls back to the pure-Python core when no library is present.
"""

from setuptools import Extension, setup

setup(ext_modules=[Extension("absopt._core", ["src/absopt/_core.c"], optional=True)])
