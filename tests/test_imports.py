"""Every name a `knotflow` module imports is used in that module.

No linter ships with the project, so the check parses each module under
`src/knotflow/` with `ast`: an imported name counts as used when the module
reads it as a name (attribute access on it included), in a string
annotation, or in `__all__`.  `__init__.py` is exempt, since its imports are
the package's re-exports.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "knotflow"
MODULES = sorted(path.name for path in PACKAGE.glob("*.py")
                 if path.name != "__init__.py")


def _annotations(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.arg) and node.annotation is not None:
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                and node.returns is not None:
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def unused_imports(source: str) -> list[str]:
    """The names `source` imports and never uses, in import order."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.split(".")[0]
                         for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for annotation in _annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                used |= {name.id for name in ast.walk(
                    ast.parse(node.value, mode="eval"))
                    if isinstance(name, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__"
                for target in node.targets):
            used |= {item.value for item in ast.walk(node.value)
                     if isinstance(item, ast.Constant)}
    return [name for name in imported if name not in used]


def test_finds_unused_imports():
    source = ('from __future__ import annotations\n'
              'import os\nimport os.path as osp\nimport scipy.linalg\n'
              'from typing import Any, Callable\n'
              'def f(x: "Callable") -> list["Any"]:\n'
              '    return scipy.linalg.norm(x)\n')
    assert unused_imports(source) == ["os", "osp"]


@pytest.mark.parametrize("module", MODULES)
def test_module_uses_every_import(module):
    assert unused_imports((PACKAGE / module).read_text()) == []
