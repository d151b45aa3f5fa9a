"""rydqubo benchmark: one workload per process, a closed loop with one client.

Run from the root of a checkout:

    python3 bench/run.py --workload solve --seed 0 --seconds 25 --trace 0

The last line of standard output is the result: ``correct``, ``attempted``,
``failed`` and ``metrics`` (end-to-end metrics with ``--trace 0``, per-layer
metrics from wrapped calls with ``--trace 1``).  The line before it is the
environment record.  The full record, with per-operation times, failures and
(when traced) every span, goes to ``.bench_out/``.  See bench/README.md.
"""

import os

# Pin BLAS to one thread before numpy is imported anywhere in this process.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse
import importlib
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
SETUP_REPEATS = 5


def import_program():
    """Import rydqubo from this checkout's src/, never from anywhere else."""
    src = ROOT / "src"
    if not (src / "rydqubo" / "__init__.py").is_file():
        raise SystemExit(f"error: {src / 'rydqubo'} not found; run from a full checkout")
    sys.path.insert(0, str(src))
    package = importlib.import_module("rydqubo")   # imports every layer module
    if Path(package.__file__).resolve().parent != (src / "rydqubo").resolve():
        raise SystemExit(f"error: imported rydqubo from {package.__file__}, not {src}")
    return package


def git_commit() -> str | None:
    try:
        proc = subprocess.run(["git", f"--git-dir={ROOT / '.git'}", "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment(seed: int) -> dict:
    import numpy
    import scipy

    def blas_version(module):
        try:
            return module.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
        except (KeyError, TypeError, ValueError):
            return None

    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "openblas_numpy": blas_version(numpy),
            "openblas_scipy": blas_version(scipy), "blas_threads": BLAS_THREADS,
            "nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "commit": git_commit(), "seed": seed}


def measure(ops_by_pass, seconds: float, tracer=None) -> dict:
    """Run passes back to back until ``seconds`` have elapsed (at least one)."""
    pass_walls, op_times, failures, ratios = [], [], [], []
    attempted = 0
    t_begin = time.perf_counter()
    while True:
        ops = ops_by_pass[len(pass_walls) % len(ops_by_pass)]
        wall = 0.0
        for op in ops:
            attempted += 1
            span = tracer.open("bench.op") if tracer else None
            start = time.perf_counter()
            try:
                result, error = op.run(), None
            except Exception:  # a failed operation is counted, never retried
                result, error = None, traceback.format_exc()
            elapsed = time.perf_counter() - start
            if tracer:
                tracer.close(span, {"op": op.label})
            wall += elapsed
            op_times.append(elapsed)
            if error is None:
                try:
                    error = op.check(result)
                except Exception:
                    error = "check raised:\n" + traceback.format_exc()
            if error is None and op.quality is not None:
                ratios.append(op.quality(result))
            if error is not None:
                failures.append({"op": op.label, "pass": len(pass_walls), "reason": error})
            result = None   # free it here, not inside the next operation's timing
        pass_walls.append(wall)
        if time.perf_counter() - t_begin >= seconds:
            break
    return {"pass_walls": pass_walls, "op_times": op_times, "ratios": ratios,
            "attempted": attempted, "failures": failures}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny plan and n <= 12, for the self-test")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    t_import = time.perf_counter()
    package = import_program()
    import_s = time.perf_counter() - t_import
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(workloads.WORKLOADS)}")
    build = workloads.WORKLOADS[args.workload]
    env = environment(args.seed)

    tracer = tracing.Tracer() if args.trace else None
    undo = tracing.instrument(tracer, package) if tracer else None
    setup_times = []
    for _ in range(1 if tracer else SETUP_REPEATS):
        span = tracer.open("bench.setup") if tracer else None
        start = time.perf_counter()
        ops_by_pass = build(package, args.seed, args.smoke)
        setup_times.append(time.perf_counter() - start)
        if tracer:
            tracer.close(span)
    bookkeeping_before = tracer.bookkeeping_s if tracer else 0.0
    run = measure(ops_by_pass, args.seconds, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if undo:
        undo()

    passes = len(run["pass_walls"])
    wall_s = statistics.median(run["pass_walls"])
    record = {"workload": args.workload, "trace": args.trace, "smoke": args.smoke,
              "env": env, "import_s": import_s, "setup_times": setup_times,
              "passes": passes, **run}
    if tracer:
        metrics, layer_self = tracing.layer_metrics(tracer.spans, passes)
        metrics["trace.overhead_s"] = (tracer.bookkeeping_s - bookkeeping_before) / passes
        metrics["quality_R_min"] = min(run["ratios"], default=0.0)
        program_self = sum(v for k, v in layer_self.items() if k != "bench")
        record.update(layer_self_s=layer_self,
                      traced_wall_s=sum(run["pass_walls"]) / passes,
                      self_time_share=program_self / (sum(run["pass_walls"]) / passes),
                      nesting_problems=tracing.check_nesting(tracer.spans),
                      spans=tracer.spans)
    else:
        metrics = {"setup_s": import_s + statistics.median(setup_times),
                   "wall_s": wall_s,
                   "op_s_p50": statistics.median(run["op_times"]),
                   "peak_rss_mb": peak_rss_mb}
    record["metrics"] = metrics
    named = spec["per_layer"] if tracer else spec["end_to_end"]

    OUT_DIR.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-smoke' if args.smoke else ''}.json"
    (OUT_DIR / name).write_text(json.dumps(record))
    for failure in run["failures"]:
        print(f"FAILED {failure['op']} (pass {failure['pass']}): {failure['reason']}",
              file=sys.stderr)
    print(json.dumps({"env": env, "passes": passes, "record": str(OUT_DIR / name)}))
    print(json.dumps({"correct": not run["failures"], "attempted": run["attempted"],
                      "failed": len(run["failures"]),
                      "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                                  for m in named}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
