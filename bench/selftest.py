"""Fast self-test of the benchmark: python3 bench/selftest.py

Runs every workload in smoke mode (tiny optimizer plan, n <= 12), untraced
and traced, each in its own process, and checks that:

- the last output line is the result object with exactly the contract keys,
  every operation passed its check, and every metric that BENCHMARK.json
  names is emitted with its unit (end-to-end ones positive);
- spans nest (each child inside its parent), self times are >= 0, and the
  layers' self times account for the traced wall time;
- without the program's sources the benchmark exits non-zero and prints no
  result.

Exits 0 when all checks pass.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SELF_TIME_SHARE_MIN = 0.99   # benchmark glue between calls may take the rest
TIMEOUT_S = 600


def run_bench(cwd: Path, workload: str, trace: int, smoke: bool = True):
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", "0",
           "--seconds", "0", "--trace", str(trace)] + (["--smoke"] if smoke else [])
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=TIMEOUT_S)


def check_result(spec: dict, workload: str, trace: int) -> list[str]:
    errors = []
    proc = run_bench(ROOT, workload, trace)
    tag = f"{workload} trace={trace}"
    if proc.returncode != 0:
        return [f"{tag}: exit code {proc.returncode}\n{proc.stderr}"]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"{tag}: result keys {sorted(result)}")
    if not (result["correct"] and result["failed"] == 0 and result["attempted"] >= 1):
        errors.append(f"{tag}: correct={result['correct']} failed={result['failed']} "
                      f"attempted={result['attempted']}\n{proc.stderr}")
    named = spec["per_layer"] if trace else spec["end_to_end"]
    expected = {m["name"]: m["unit"] for m in named}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != expected:
        errors.append(f"{tag}: metric names/units differ: missing "
                      f"{sorted(set(expected) - set(got))}, extra "
                      f"{sorted(set(got) - set(expected))}, units "
                      f"{sorted(k for k in got if k in expected and got[k] != expected[k])}")
    for name, entry in result["metrics"].items():
        value = entry["value"]
        if not (isinstance(value, (int, float)) and math.isfinite(value)):
            errors.append(f"{tag}: {name} = {value!r} is not a finite number")
        elif not trace and value <= 0:
            errors.append(f"{tag}: end-to-end metric {name} = {value} is not positive")
    if trace:
        record = json.loads(Path(json.loads(lines[-2])["record"]).read_text())
        if record["nesting_problems"]:
            errors.append(f"{tag}: spans do not nest: {record['nesting_problems'][:5]}")
        share = record["self_time_share"]
        if not SELF_TIME_SHARE_MIN <= share <= 1.0 + 1e-9:
            errors.append(f"{tag}: layer self times cover {share:.6f} of the traced wall time")
    return errors


def check_bare_directory() -> list[str]:
    """Only BENCHMARK.json and bench/: the run must fail without a result."""
    bare = ROOT / ".bench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(ROOT / "bench", bare / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    try:
        proc = run_bench(bare, "solve", 0, smoke=False)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    last = proc.stdout.strip().splitlines()[-1:] or [""]
    if proc.returncode == 0 or '"correct"' in last[0]:
        return [f"bare directory: exit code {proc.returncode}, last line {last[0]!r}"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    errors = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            errors += check_result(spec, workload, trace)
    errors += check_bare_directory()
    for error in errors:
        print("FAIL", error)
    print("selftest:", "FAILED" if errors else "passed")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
