"""The bench's traced run still works against the package: its tracer wraps
the package's functions and reads their arguments."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

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
