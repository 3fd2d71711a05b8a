"""Every name a package module imports is used, no private helper is dead,
and ``absopt.__all__`` lists exactly the public names ``__init__`` imports.

No linter ships with the package, so this walks each module's syntax tree:
a name bound by ``import`` or ``from ... import`` must be read somewhere in
the same file.  ``__init__.py`` is skipped, since it imports to re-export.
A module-level ``_name`` defined anywhere in the package must be read,
imported or reached as an attribute somewhere in the package.  numpy is
loaded only by the absio leaf, never by ``import absopt``, a formula or
hypergraph command or a polynomial that branching and its window decide.
The CLI parser is built on the first ``main`` call, not at import.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import absopt

PACKAGE = sorted(Path(absopt.__file__).parent.glob("*.py"))
MODULES = [p for p in PACKAGE if p.name != "__init__.py"]


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name != "annotations":
                    bound.setdefault(name, node.lineno)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = sorted((line, name) for name, line in bound.items() if name not in read)
    return [f"line {line}: {name}" for line, name in unused]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert _unused_imports(path.read_text()) == []


def test_unused_import_check_catches_one():
    source = "import os\nfrom .model import KIND_CNF, KIND_DNF\nprint(KIND_DNF)\n"
    assert _unused_imports(source) == ["line 1: os", "line 2: KIND_CNF"]


def _dead_private_names(sources: dict[str, str]) -> list[str]:
    defined, used = {}, set()
    for name, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                targets = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                nodes = node.targets if isinstance(node, ast.Assign) else [node.target]
                targets = [t.id for t in nodes if isinstance(t, ast.Name)]
            else:
                continue
            for target in targets:
                if target.startswith("_") and not target.startswith("__"):
                    defined.setdefault(target, f"{name}:{node.lineno}")
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                used.update(alias.name for alias in node.names)
    return sorted(f"{where}: {target}" for target, where in defined.items() if target not in used)


def test_no_dead_private_helpers():
    assert _dead_private_names({p.name: p.read_text() for p in PACKAGE}) == []


def test_dead_private_check_catches_one():
    sources = {
        "a.py": "_LIMIT = 3\n\ndef _used():\n    return _LIMIT\n\n"
                "def _dead(rows):\n    return rows\n\nclass _Gone:\n    pass\n",
        "b.py": "from .a import _used\nimport a\nprint(a._used, _used)\n",
    }
    assert _dead_private_names(sources) == ["a.py:6: _dead", "a.py:9: _Gone"]


def _export_mismatch(source: str) -> list[str]:
    """Public names ``__init__`` imports but leaves out of ``__all__``, and the reverse."""
    tree = ast.parse(source)
    imported = {
        alias.asname or alias.name
        for node in tree.body if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    listed = next(
        ast.literal_eval(node.value) for node in tree.body
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
    )
    public = {name for name in imported if not name.startswith("_")}
    named = {name for name in listed if not name.startswith("__")}
    return sorted([f"not exported: {n}" for n in public - named]
                  + [f"not imported: {n}" for n in named - public])


def test_exports_resolve_and_match_imports():
    assert [name for name in absopt.__all__ if not hasattr(absopt, name)] == []
    init = Path(absopt.__file__).read_text()
    assert _export_mismatch(init) == []


def test_export_check_catches_one():
    source = ("from .model import Verdict, eval_formula\nfrom .engine import BACKEND\n"
              '__version__ = "1"\n__all__ = ["Assignment", "BACKEND", "Verdict", "__version__"]\n')
    assert _export_mismatch(source) == ["not exported: eval_formula", "not imported: Assignment"]


NUMPY_CHILD = """
import contextlib, io, json, sys
import absopt
from absopt import cli

files = json.loads(sys.argv[1])
codes = []

def run(*argv):
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(cli.main(list(argv)))

run("solve", files["wdnf"])
run("solve", files["wcnf"])
run("solve", files["uhg"])
run("kernelize", files["uhg"])
run("reduce", "monotonize", files["wdnf"])
run("verify", files["wdnf"], files["v"])
run("solve", files["window"])
before = "numpy" in sys.modules
run("solve", files["absio"])
print(json.dumps({"codes": codes, "before": before, "after": "numpy" in sys.modules}))
"""


def test_numpy_loads_only_with_the_absio_leaf(tmp_path):
    texts = {
        "wdnf": "p wdnf 3 2 3\nw 5 1 -2 0\nw -2 3 0\n",
        "v": "v 1 -2 -3\n",  # the wdnf file's witness
        "wcnf": "p wcnf 2 1 2\nw 3 1 2 0\n",
        "uhg": "p uhg 3 2 5\ne 2 1 2 0\ne 0 3 0\n",
        # branching on x1 and the window decide it, with no leaf over x1
        "window": "p absio 1 1 1000000000000\ncol 1 1:1 0\nb 1 0 inf\n",
        # a finite two-variable box: no rule or shortcut settles it, the leaf scans it
        "absio": "p absio 2 2 7\ncol 1 1:1 2:1 0\ncol -1 1:2 0\nb 1 -2 2\nb 2 -2 2\n",
    }
    files = {kind: str(tmp_path / f"a.{kind}") for kind in texts}
    for kind, text in texts.items():
        Path(files[kind]).write_text(text)
    src = str(Path(absopt.__file__).parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-c", NUMPY_CHILD, json.dumps(files)],
        env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True, check=True,
    )
    got = json.loads(proc.stdout)
    assert got["codes"] == [10, 10, 20, 0, 0, 0, 10, 10]
    assert not got["before"]
    assert got["after"]


def test_import_builds_no_parser():
    src = str(Path(absopt.__file__).parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    code = "from absopt import cli; print(cli._parser.cache_info().currsize)"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True, check=True,
    )
    assert proc.stdout == "0\n"
