"""Every import in the package is used (``__init__.py`` re-exports excepted)."""

import ast
from pathlib import Path

import rydqubo

PACKAGE = Path(rydqubo.__file__).parent


def _bound_names(tree: ast.Module) -> dict[str, int]:
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _used_names(tree: ast.Module) -> set[str]:
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    # quoted annotations such as -> "Schedule"
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                expr = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            used |= {n.id for n in ast.walk(expr) if isinstance(n, ast.Name)}
    return used


def unused_imports(source: str) -> list[tuple[str, int]]:
    tree = ast.parse(source)
    used = _used_names(tree)
    return sorted((name, line) for name, line in _bound_names(tree).items()
                  if name not in used)


def test_guard_flags_unused_and_accepts_used():
    source = ("from __future__ import annotations\n"
              "import math\nimport numpy as np\n"
              "from typing import Sequence\n"
              "def f(x: 'Sequence') -> float:\n    return np.sqrt(x)\n")
    assert unused_imports(source) == [("math", 2)]


def test_package_has_no_unused_imports():
    found = {path.name: unused_imports(path.read_text())
             for path in sorted(PACKAGE.glob("*.py"))
             if path.name != "__init__.py"}
    assert {k: v for k, v in found.items() if v} == {}
