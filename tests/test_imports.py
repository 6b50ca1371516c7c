"""Every name a module of the package, the tests or the scripts imports is
read in that module. The package root is exempt: its imports are the
package's exports."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(p for d in ("src/qfimax", "tests", "scripts") for p in (ROOT / d).glob("*.py")
                 if p != ROOT / "src/qfimax/__init__.py")


def unread_imports(source: str) -> list:
    """The names that source's import statements bind and nothing reads,
    in order of import; __future__ imports are directives, not names."""
    tree = ast.parse(source)
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [alias.asname or alias.name for alias in node.names]
    return [name for name in bound if name not in read]


def test_the_rule():
    assert unread_imports("import os\nimport numpy as np\nfrom a.b import c, d as e\nnp.e(e)") == [
        "os", "c"]
    assert unread_imports("import os.path\nfrom __future__ import annotations\nos.sep") == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_every_import_is_read(path):
    assert unread_imports(path.read_text()) == []
