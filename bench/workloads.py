"""The benchmark's workloads: seeded inputs, the timed operations, their checks.

Every workload is a function ``(rq, seed, smoke) -> passes``, where ``rq`` is
the imported ``rydqubo`` package and ``passes`` is a list of passes, each a
list of :class:`Op`.  Building the passes is the set-up that ``setup_s``
times.  An operation calls the program through module attributes, looked up
at call time, so that the traced run sees the wrapped functions.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

# Criterion-6 acceptance thresholds on R, for the presets the solve workload runs.
SOLVE_THRESHOLDS = {"two_sat": 0.99, "qap": 0.97, "clustering": 0.99}
SMOKE_STAGE_EVALS = 4
SMOKE_DURATION_US = 0.5

# (builder, n) for one analyze pass: every problems builder, n = 10..20.  Only
# set_packing-10 and protein-10 embed a layout (n <= 10, couplings never
# negative), so the median operation is qap-16 on every seed.
ANALYZE_SIZES = (("two_sat", 12), ("xor_sat", 12), ("mixed", 14),
                 ("set_packing", 10), ("qap", 16), ("two_sat", 18),
                 ("clustering", 20), ("protein", 10), ("protein", 15))
SMOKE_ANALYZE_SIZES = (("two_sat", 6), ("xor_sat", 6), ("mixed", 7),
                       ("set_packing", 6), ("qap", 9), ("clustering", 8),
                       ("protein", 6))
ANALYZE_PASSES = 8        # distinct instance sets, cycled through by the run
LAYOUT_MAX_N = 10         # layouts are embedded for gauge-fixable n <= this
BRUTE_FORCE_MAX_N = 12    # itertools oracle up to here, vectorized above
ENCODING_SAMPLES = 256


@dataclass
class Op:
    label: str
    run: Callable[[], object]
    check: Callable[[object], str | None]   # failure reason, or None
    quality: Callable[[object], float] | None = None   # R of a pipeline result


def brute_force_ground(model) -> tuple[float, tuple[int, ...]]:
    """Minimum energy and its bit patterns, one assignment at a time."""
    # product() yields the most significant bit first, so bits[::-1][i] is bit i of k
    energies = [model.evaluate(bits[::-1])
                for bits in itertools.product((0, 1), repeat=model.n)]
    best = min(energies)
    tol = 1e-9 * max(1.0, abs(best))
    return best, tuple(k for k, e in enumerate(energies) if e <= best + tol)


# --- solve -----------------------------------------------------------------

def _check_solve(result, model, threshold: float | None, budget: int):
    opt = result.optimization
    if opt.evaluations != budget:
        return f"evaluations {opt.evaluations} != {budget}"
    if not (math.isfinite(opt.ratio) and opt.ratio <= 1.0 + 1e-9):
        return f"R = {opt.ratio} is not a ratio <= 1"
    if threshold is not None and opt.ratio < threshold:
        return f"R = {opt.ratio:.6f} below the criterion-6 threshold {threshold}"
    _, grounds = brute_force_ground(model)
    if tuple(sorted(result.ground_states)) != grounds:
        return f"ground states {result.ground_states} != oracle {grounds}"
    return None


def solve(rq, seed: int, smoke: bool) -> list[list[Op]]:
    """One pass: run_pipeline, ideal mode, optimizer seed 0, on the criterion-6
    presets.

    The inputs do not depend on the workload seed.  Every variation tried
    (optimizer seed, variable order, coefficient scale) hits known program
    defects (AnnealerError, R below threshold, split ground degeneracy) or
    changes the physics, and with it R and the adaptive step count; see
    README.md.
    """
    stages = rq.optimizer.StagePlan.default().stages
    if smoke:
        stages = tuple(rq.optimizer.Stage(s.kind, SMOKE_STAGE_EVALS) for s in stages)
    plan = rq.optimizer.StagePlan(stages)
    budget = sum(s.max_evals for s in stages)
    ops = []
    for name, threshold in SOLVE_THRESHOLDS.items():
        model = rq.problems.preset_instance(name).model
        target = rq.pipeline.encode_for_annealing(model).target
        template = rq.pipeline.default_schedule(
            name, target, t_total=SMOKE_DURATION_US if smoke else None)

        def run(model=model, name=name, template=template):
            return rq.pipeline.run_pipeline(model, name, preset_name=name,
                                            plan=plan, seed=0, schedule=template)

        def check(result, model=model, threshold=None if smoke else threshold):
            return _check_solve(result, model, threshold, budget)

        ops.append(Op(name, run, check, lambda result: result.optimization.ratio))
    return [ops]


# --- analyze ---------------------------------------------------------------

def _pairs(rng, n: int, count: int):
    for _ in range(count):
        i, j = rng.choice(n, size=2, replace=False)
        yield int(i), int(j)


def _symmetric_ints(rng, n: int, high: int, density: float) -> tuple:
    w = rng.integers(1, high + 1, size=(n, n)) * (rng.random((n, n)) < density)
    w = np.triu(w, 1)
    w = w + w.T
    if not w.any():
        w[0, 1] = w[1, 0] = 1
    return tuple(tuple(float(c) for c in row) for row in w)


def random_instance(P, family: str, n: int, rng: np.random.Generator):
    """A seeded instance of one problems builder with integer coefficients,
    so that degenerate energies are exactly equal."""
    if family in ("two_sat", "mixed"):
        clauses = tuple(((i, bool(rng.integers(2))), (j, bool(rng.integers(2))))
                        for i, j in _pairs(rng, n, 2 * n))
        ts = P.TwoSatInstance(n, clauses, 1.0)
        if family == "two_sat":
            return P.build_two_sat(ts)
        xs = P.XorSatInstance(n, tuple((i, j, int(rng.integers(2)))
                                       for i, j in _pairs(rng, n, n // 2)))
        return P.build_mixed(ts, xs)
    if family == "xor_sat":
        return P.build_xor_sat(P.XorSatInstance(
            n, tuple((i, j, int(rng.integers(2))) for i, j in _pairs(rng, n, 3 * n // 2))))
    if family == "set_packing":
        weights = tuple(float(w) for w in rng.integers(1, 4, size=n))
        conflicts = tuple((i, j) for i in range(n) for j in range(i + 1, n)
                          if rng.random() < 0.3)
        return P.build_set_packing(P.SetPackingInstance(n, weights, conflicts,
                                                        1.0 + max(weights)))
    if family == "qap":
        k = math.isqrt(n)
        flow = _symmetric_ints(rng, k, 3, 0.8)
        dist = _symmetric_ints(rng, k, 3, 0.8)
        p = 2.0 * max(map(max, flow)) * max(map(max, dist)) * k
        return P.build_qap(P.QapInstance(flow, dist, p, p))
    if family == "clustering":
        return P.build_binary_clustering(P.ClusteringInstance(_symmetric_ints(rng, n, 4, 0.5)))
    if family == "protein":
        length = next(L for L in range(2, 32) if L * (L - 1) // 2 == n)
        hydrophobic = tuple(int(h) for h in rng.integers(2, size=length))
        return P.build_protein_toy(P.ProteinToyInstance(
            length, hydrophobic, P.shared_residue_exclusions(length), 0.5, 2.0))
    raise ValueError(f"unknown family {family!r}")


def vectorized_ground(model) -> tuple[float, int]:
    """Minimum energy and its degeneracy from the dense QUBO matrix, by chunks."""
    u = np.zeros((model.n, model.n))
    for (i, j), b in model.quadratic.items():
        u[i, j] = b
    lin = np.asarray(model.linear)
    best, count = math.inf, 0
    chunk = 1 << min(model.n, 16)
    for lo in range(0, 1 << model.n, chunk):
        k = np.arange(lo, lo + chunk)
        x = ((k[:, None] >> np.arange(model.n)) & 1).astype(float)
        e = model.constant + x @ lin + ((x @ u) * x).sum(axis=1)
        m = float(e.min())
        tol = 1e-9 * max(1.0, abs(m))
        if m < best - tol:
            best, count = m, 0
        if m <= best + tol:
            count += int((e <= best + tol).sum())
    return best, count


def _encoded_diagonal(target, x: np.ndarray) -> np.ndarray:
    return -x @ target.delta_final + 0.5 * ((x @ target.v) * x).sum(axis=1)


def _check_analyze(out, model, rng_seed: int) -> str | None:
    spectrum, report, outcome, layout = out
    if model.n <= BRUTE_FORCE_MAX_N:
        e0, grounds = brute_force_ground(model)
        d_opt = len(grounds)
    else:
        e0, d_opt = vectorized_ground(model)
    if not math.isclose(report.e0, e0, rel_tol=1e-12, abs_tol=1e-9):
        return f"E0 = {report.e0} != oracle {e0}"
    if report.d_opt != d_opt:
        return f"D_opt = {report.d_opt} != oracle {d_opt}"
    if spectrum.n != model.n or not (report.gap > 0 and math.isfinite(report.hp)
                                     and report.hp >= 0):
        return f"bad spectrum/hardness output (gap {report.gap}, HP {report.hp})"
    # encoded diagonal + constant == scale * source energy of (x XOR flips)
    target = outcome.target
    rng = np.random.default_rng(rng_seed)
    ks = rng.integers(0, 1 << model.n, size=ENCODING_SAMPLES)
    x = ((ks[:, None] >> np.arange(model.n)) & 1).astype(float)
    flips = np.asarray(outcome.flips, dtype=int)
    src = np.array([model.evaluate([int(b) for b in row]) for row in (x.astype(int) ^ flips)])
    err = np.abs(_encoded_diagonal(target, x) + target.constant - target.scale * src)
    if err.max() > 1e-9 * target.scale * max(1.0, np.abs(src).max()):
        return f"encoding mismatch {err.max():.3e}"
    if layout is not None:
        embed, validation = layout
        if abs(validation.max_rel_error - embed.max_rel_error) > 1e-12:
            return (f"validate residual {validation.max_rel_error} != "
                    f"embed_layout residual {embed.max_rel_error}")
        if validation.passed != (embed.max_rel_error <= 1e-3):
            return "validate verdict disagrees with the embed_layout residual"
    return None


def analyze(rq, seed: int, smoke: bool) -> list[list[Op]]:
    """Spectrum, hardness and encoding of seeded random instances; layouts in
    physical mode for small gauge-fixable ones."""
    sizes = SMOKE_ANALYZE_SIZES if smoke else ANALYZE_SIZES
    passes = []
    for k in range(1 if smoke else ANALYZE_PASSES):
        rng = np.random.default_rng([seed, k])
        ops = []
        for family, n in sizes:
            model = random_instance(rq.problems, family, n, rng)
            layout_seed, check_seed = (int(s) for s in rng.integers(1 << 31, size=2))

            def run(model=model, layout_seed=layout_seed):
                spectrum = rq.models.enumerate_spectrum(model)
                report = rq.hardness.analyze_spectrum(spectrum)
                outcome = rq.pipeline.encode_for_annealing(model)
                layout = None
                if model.n <= LAYOUT_MAX_N and not outcome.signed:
                    placed, embed = rq.encoding.embed_layout(outcome.target,
                                                             seed=layout_seed)
                    layout = embed, rq.encoding.validate(outcome.target, placed)
                return spectrum, report, outcome, layout

            def check(out, model=model, check_seed=check_seed):
                return _check_analyze(out, model, check_seed)

            ops.append(Op(f"{family}-{n}", run, check))
        passes.append(ops)
    return passes


WORKLOADS = {"solve": solve, "analyze": analyze}
