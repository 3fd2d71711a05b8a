"""Every name a package module imports is used in that module.

No linter ships with the package, so this walks each module's syntax tree:
a name bound by ``import`` or ``from ... import`` must be read somewhere in
the same file.  ``__init__.py`` is skipped, since it imports to re-export.
"""

import ast
from pathlib import Path

import pytest

import absopt

MODULES = sorted(p for p in Path(absopt.__file__).parent.glob("*.py") if p.name != "__init__.py")


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
