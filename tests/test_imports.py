"""Every import in the package, the tests and the demos is used
(``__init__.py`` re-exports excepted), every parameter in the package is
read, and only layouts and the pulse optimizer load scipy."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import rydqubo

PACKAGE = Path(rydqubo.__file__).parent
ROOT = Path(__file__).resolve().parents[1]


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


def unused_parameters(source: str) -> list[tuple[str, str, int]]:
    """(function, parameter, line) for every parameter of a function or
    lambda that no name in its body reads."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)):
            continue
        body = node.body if isinstance(node.body, list) else [node.body]
        used = {n.id for stmt in body for n in ast.walk(stmt)
                if isinstance(n, ast.Name)}
        a = node.args
        params = [*a.posonlyargs, *a.args, *a.kwonlyargs,
                  *filter(None, (a.vararg, a.kwarg))]
        name = getattr(node, "name", "<lambda>")
        found += [(name, arg.arg, node.lineno) for arg in params
                  if arg.arg not in used]
    return sorted(found)


def test_parameter_guard_flags_unused_and_accepts_used():
    source = ("def f(a, b, *args, c=1, **kw):\n"
              "    def g():\n        return a + c\n"
              "    return g(*args)\n"
              "h = lambda x, y=0: x\n")
    assert unused_parameters(source) == [("<lambda>", "y", 5), ("f", "b", 1),
                                         ("f", "kw", 1)]


# (module, function, parameter) read by no code; default_schedule's enc
# stays until the bench change of ROADMAP item 1, because
# bench/workloads.py passes it positionally
UNUSED_PARAMETERS_ALLOWED = {("pipeline.py", "default_schedule", "enc")}


def test_package_has_no_unused_parameters():
    found = {(path.name, function, param)
             for path in sorted(PACKAGE.glob("*.py"))
             for function, param, _ in unused_parameters(path.read_text())}
    assert found == UNUSED_PARAMETERS_ALLOWED


def test_package_has_no_unused_imports():
    paths = [*PACKAGE.glob("*.py"), *ROOT.glob("tests/*.py"),
             *ROOT.glob("demos/*.py")]
    found = {f"{path.parent.name}/{path.name}": unused_imports(path.read_text())
             for path in sorted(paths) if path.name != "__init__.py"}
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
                 StagePlan((Stage("gradient", 1),)),
                 ground_indices=outcome.ground_indices(spectrum),
                 c_opt=spectrum.e_min, c_max=spectrum.e_max)
assert res.evaluations == 1 and "scipy.optimize" in sys.modules
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
