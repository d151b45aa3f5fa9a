import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from rydqubo.annealer import PropagationConfig, Schedule
from rydqubo.encoding import IsingModel, encode
from rydqubo.optimizer import (AnnealObjective, OptimizationResult, Stage,
                               StagePlan, approximation_ratio,
                               finite_difference_gradient, initial_parameters,
                               run_hybrid)


def xor_pair_target():
    return encode(IsingModel(2, (0.0, 0.0), {(0, 1): 0.5}, 0.5))


def small_template():
    return Schedule(8.0, (0.0, 0.0), (0.0, 0.0), sample_count=21)


def small_objective():
    return AnnealObjective(xor_pair_target(), small_template(),
                           PropagationConfig(initial_steps=40, adaptive=False))


# --- plumbing ----------------------------------------------------------------

def test_stage_plan_round_trip():
    plan = StagePlan((Stage("gradient", 50, 1e-6), Stage("simplex", 80)))
    again = StagePlan.from_dict(plan.to_dict())
    assert again == plan
    with pytest.raises(ValueError):
        Stage("annealing", 10)
    with pytest.raises(ValueError):
        Stage("gradient", 0)
    with pytest.raises(ValueError):
        StagePlan(())


def test_default_plan_budgets():
    plan = StagePlan.default()
    assert [s.kind for s in plan.stages] == ["gradient", "simplex", "gradient"]
    assert [s.max_evals for s in plan.stages] == [200, 400, 200]


def test_approximation_ratio():
    assert approximation_ratio(10.0, 2.0, 2.0) == pytest.approx(1.0)
    assert approximation_ratio(10.0, 2.0, 10.0) == pytest.approx(0.0)
    assert approximation_ratio(10.0, 2.0, 6.0) == pytest.approx(0.5)
    assert approximation_ratio(3.0, 3.0, 3.0) == 1.0  # constant cost
    with pytest.raises(ValueError):
        approximation_ratio(1.0, 2.0, 1.5)


def test_initial_parameters_deterministic():
    template = small_template()
    p0 = initial_parameters(template, seed=0)
    np.testing.assert_allclose(p0, [0.0, 0.0, 0.1 * template.omega_max, 0.0])
    p5a = initial_parameters(template, seed=5)
    p5b = initial_parameters(template, seed=5)
    np.testing.assert_allclose(p5a, p5b)
    assert not np.allclose(p5a, p0)


# --- gradients ---------------------------------------------------------------

def stencil_gradient(f, params, rel_step=1e-3):
    """Five-point (fourth-order) central stencil, used as an oracle."""
    params = np.asarray(params, dtype=float)
    grad = np.empty_like(params)
    for i in range(params.size):
        h = rel_step * (1.0 + abs(params[i]))
        probes = []
        for mult in (-2, -1, 1, 2):
            p = params.copy()
            p[i] += mult * h
            probes.append(f(p))
        fm2, fm1, fp1, fp2 = probes
        grad[i] = (fm2 - 8.0 * fm1 + 8.0 * fp1 - fp2) / (12.0 * h)
    return grad


def test_gradient_on_analytic_function(rng):
    def f(p):
        return float(np.sin(p[0]) + p[1] ** 3 - 2.0 * p[0] * p[1])

    for _ in range(10):
        p = rng.normal(size=2)
        g = finite_difference_gradient(f, p)
        exact = np.array([math.cos(p[0]) - 2.0 * p[1],
                          3.0 * p[1] ** 2 - 2.0 * p[0]])
        np.testing.assert_allclose(g, exact, rtol=1e-6, atol=1e-6)


def test_gradient_matches_stencil_on_objective(rng):
    obj = small_objective()
    for _ in range(3):
        p = rng.normal(scale=0.5, size=4)
        p[2] += 1.0  # keep some drive on
        g = finite_difference_gradient(obj, p)
        oracle = stencil_gradient(obj, p)
        scale = max(np.linalg.norm(oracle), 1e-9)
        assert np.linalg.norm(g - oracle) / scale < 1e-3


def test_gradient_rejects_non_finite():
    def f(p):
        return float("nan")

    with pytest.raises(FloatingPointError):
        finite_difference_gradient(f, np.zeros(2))


# --- objective ---------------------------------------------------------------

def test_objective_parameter_split():
    obj = small_objective()
    sched = obj.schedule_for([1.0, 2.0, 3.0, 4.0])
    assert sched.delta_coeffs == (1.0, 2.0)
    assert sched.omega_coeffs == (3.0, 4.0)
    with pytest.raises(ValueError):
        obj.schedule_for([1.0])


def test_objective_counts_evaluations():
    obj = small_objective()
    obj([0.0, 0.0, 1.0, 0.0])
    obj([0.0, 0.0, 1.0, 0.0])
    assert obj.evaluations == 2


# --- hybrid loop -------------------------------------------------------------

def quick_plan():
    return StagePlan((Stage("gradient", 30), Stage("simplex", 40),
                      Stage("gradient", 20)))


def test_run_hybrid_improves_and_respects_budget():
    enc = xor_pair_target()
    obj = small_objective()
    plan = quick_plan()
    res = run_hybrid(enc, plan, seed=0, objective=obj)
    assert res.evaluations <= sum(s.max_evals for s in plan.stages)
    assert len(res.stage_history) == len(plan.stages)
    # best-so-far trace never increases
    trace = [e for stage in res.stage_history for e in stage]
    assert all(b <= a + 1e-12 for a, b in zip(trace, trace[1:]))
    first = trace[0]
    assert res.e_best <= first + 1e-9
    assert 0.0 <= res.ratio <= 1.0 + 1e-12


def test_run_hybrid_deterministic():
    enc = xor_pair_target()
    plan = StagePlan((Stage("gradient", 20), Stage("simplex", 20)))
    results = []
    for _ in range(2):
        obj = small_objective()
        results.append(run_hybrid(enc, plan, seed=3, objective=obj))
    a, b = results
    np.testing.assert_array_equal(a.params, b.params)
    assert a.e_best == b.e_best
    assert a.evaluations == b.evaluations


def test_run_hybrid_requires_template_or_objective():
    with pytest.raises(ValueError):
        run_hybrid(xor_pair_target())


def test_run_hybrid_reports_source_cost():
    enc = xor_pair_target()
    res = run_hybrid(enc, quick_plan(), seed=0, objective=small_objective())
    assert res.c_obt == pytest.approx(res.e_best / enc.scale)
    assert isinstance(res, OptimizationResult)
    # xor pair optimum is 0, maximum is 1
    assert res.ratio == pytest.approx(1.0 - res.c_obt, abs=1e-9)


# --- BLAS thread count ---------------------------------------------------------

_EVALUATE_PRESETS = """
from rydqubo.models import as_ising
from rydqubo.optimizer import AnnealObjective, initial_parameters
from rydqubo.pipeline import default_schedule, encode_for_annealing
from rydqubo.problems import preset_instance

for name in ("two_sat", "qap", "clustering"):
    enc = encode_for_annealing(as_ising(preset_instance(name).model)).target
    objective = AnnealObjective(enc, default_schedule(name, enc))
    print(name, objective(initial_parameters(objective.template)).hex())
"""


def test_objective_invariant_to_blas_threads():
    """The solve presets' objective is bit-identical on 1 and 2 BLAS threads."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=src)
        proc = subprocess.run([sys.executable, "-c", _EVALUATE_PRESETS],
                              env=env, capture_output=True, text=True,
                              check=True, timeout=300)
        outputs.append(proc.stdout)
    assert len(outputs[0].splitlines()) == 3
    assert outputs[0] == outputs[1]
