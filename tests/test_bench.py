"""The bench's traced run still works against the package: its tracer wraps
the package's functions and reads their arguments."""

import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path

import rydqubo
from rydqubo import (AnnealObjective, Stage, StagePlan, default_schedule,
                     encode_for_annealing, preset_instance)

from conftest import source_optimum

ROOT = Path(__file__).resolve().parents[1]


def _traced_smoke_run(tmp_path, workload):
    # a copy of the bench writes its record under tmp_path, not the checkout
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    (tmp_path / "src").symlink_to(ROOT / "src")
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", "0", "--trace", "1", "--smoke"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0, proc.stderr
    assert result["attempted"] > 0


def test_traced_smoke_solve_run(tmp_path):
    _traced_smoke_run(tmp_path, "solve")


def test_traced_smoke_analyze_run(tmp_path):
    """Spectrum, hardness, encoding and layouts, whose spans the tracer
    annotates from their arguments and results."""
    _traced_smoke_run(tmp_path, "analyze")


def _tracing():
    spec = importlib.util.spec_from_file_location("tracing",
                                                  ROOT / "bench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_spans_the_optimizer_stage():
    """``instrument`` rebinds ``optimizer.minimize``, which ``run_hybrid``
    looks up per call: the stage is a span directly under ``run_hybrid``,
    with no ``encoding`` span under it, and ``undo`` restores the forwarder."""
    tracing = _tracing()
    forwarder = rydqubo.optimizer.minimize
    tracer = tracing.Tracer()
    undo = tracing.instrument(tracer, rydqubo)
    try:
        model = preset_instance("xor_sat").model
        enc = encode_for_annealing(model).target
        rydqubo.run_hybrid(AnnealObjective(enc, default_schedule("xor_sat", enc),
                                           initial_steps=40),
                           StagePlan((Stage("gradient", 10),)),
                           **source_optimum(model))
    finally:
        undo()
    spans = tracer.spans
    names = [span[tracing.NAME] for span in spans]
    stage = names.index("optimizer.minimize")
    assert names[spans[stage][tracing.PARENT]] == "optimizer.run_hybrid"

    def under_stage(i):
        while i is not None and i != stage:
            i = spans[i][tracing.PARENT]
        return i == stage

    inside = [name for i, name in enumerate(names)
              if i != stage and under_stage(i)]
    assert "annealer.energy_gradient" in inside
    assert not [name for name in inside if name.startswith("encoding.")]
    assert tracing.check_nesting(spans) == []
    assert rydqubo.optimizer.minimize is forwarder is rydqubo.encoding._minimize
