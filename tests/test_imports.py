"""Every import in the package is used (``__init__.py`` re-exports excepted),
and only layouts and the pulse optimizer load scipy."""

import ast
import os
import subprocess
import sys
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


# Run in a fresh interpreter, whose sys.modules holds only what it imports;
# argv[1] is a scratch directory.
SCIPY_ON_FIRST_USE = """
import sys

def loaded():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

import rydqubo
from rydqubo import cli
assert loaded() == [], loaded()[:3]

model = sys.argv[1] + "/xor_sat.json"
for argv in (["problem", "--preset", "xor_sat", "--out", model],
             ["spectrum", "--model", model],
             ["encode", "--model", model, "--mode", "ideal"],
             ["encode", "--model", model, "--mode", "physical"],
             ["hardness", "--model", model],
             ["report", "--presets"],
             ["anneal", "--model", model, "--duration", "2", "--steps", "20"]):
    assert cli.main(argv) == 0, argv
assert loaded() == [], loaded()[:3]

from rydqubo import (AnnealObjective, Stage, StagePlan, default_schedule,
                     embed_layout, encode_for_annealing, enumerate_spectrum,
                     preset_instance, run_hybrid)
model = preset_instance("xor_sat").model
outcome, spectrum = encode_for_annealing(model), enumerate_spectrum(model)
enc = outcome.target
res = run_hybrid(AnnealObjective(enc, default_schedule("xor_sat", enc),
                                 initial_steps=40),
                 StagePlan((Stage("gradient", 10),)),
                 ground_indices=outcome.ground_indices(spectrum),
                 c_opt=spectrum.e_min, c_max=spectrum.e_max)
assert res.evaluations == 10 and "scipy.optimize" in sys.modules
assert embed_layout(enc)[0].n == enc.n
"""


def test_scipy_loads_only_for_layouts_and_the_optimizer(tmp_path):
    """``import rydqubo`` and the analysis commands load no scipy module;
    ``embed_layout`` and ``run_hybrid`` import ``scipy.optimize`` when first
    called."""
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    proc = subprocess.run([sys.executable, "-c", SCIPY_ON_FIRST_USE,
                           str(tmp_path)], env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
