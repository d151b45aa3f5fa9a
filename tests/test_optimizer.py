import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from rydqubo.annealer import (Schedule, _pauli_x_total, _start_state,
                              initial_basis_index, propagate)
from rydqubo.encoding import IsingModel, encode
from rydqubo.models import as_ising, model_from_dict
from rydqubo.optimizer import (AnnealObjective, OptimizationResult, Stage,
                               StagePlan, approximation_ratio,
                               initial_parameters, run_hybrid)
from rydqubo.pipeline import default_schedule, encode_for_annealing
from rydqubo.problems import PRESET_NAMES, preset_instance

from conftest import (TIED_START_MODEL, central_differences, objective_value,
                      reference_run_steps, source_optimum)


def xor_pair_target():
    return encode(IsingModel(2, (0.0, 0.0), {(0, 1): 0.5}, 0.5))


def small_template():
    return Schedule(8.0, (0.0, 0.0), (0.0, 0.0), sample_count=21)


def small_objective():
    return AnnealObjective(xor_pair_target(), small_template(), initial_steps=40)


# the xor pair's ground states, lowest and highest cost
XOR_PAIR_OPTIMUM = {"ground_indices": [1, 2], "c_opt": 0.0, "c_max": 1.0}


# --- plumbing ----------------------------------------------------------------

def test_stage_plan_round_trip():
    plan = StagePlan((Stage("gradient", 50, 1e-6), Stage("gradient", 80)))
    again = StagePlan.from_dict(plan.to_dict())
    assert again == plan
    for kind in ("annealing", "simplex"):
        with pytest.raises(ValueError, match="unknown stage kind"):
            Stage(kind, 10)
    with pytest.raises(ValueError):
        StagePlan(())
    data = {"stages": [{"kind": "gradient", "max_evals": 2.9}]}
    with pytest.raises(ValueError, match="expected an integer"):
        StagePlan.from_dict(data)
    data["stages"][0]["max_evals"] = 3.0
    assert StagePlan.from_dict(data).stages[0].max_evals == 3
    # a Stage checks its own fields: a fractional budget died in scipy's line
    # search with TypeError, and a boolean budget and a NaN or negative
    # tolerance ran
    for bad in (0, 30.5, True, "800", float("nan"), float("inf")):
        with pytest.raises(ValueError):
            Stage("gradient", bad)
    for bad in (-1.0, float("nan"), float("inf"), "1e-9", True):
        with pytest.raises(ValueError):
            Stage("gradient", 10, bad)
    stage = Stage("gradient", 10.0, 0)
    assert type(stage.max_evals) is int and type(stage.tolerance) is float
    assert stage.tolerance == 0.0


def test_default_plan_budgets():
    plan = StagePlan.default()
    assert [s.kind for s in plan.stages] == ["gradient"]
    assert [s.max_evals for s in plan.stages] == [800]


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
    # the Delta_G noise scales with the ramp span |1 - delta0|, Omega's with
    # omega_max: a flat ramp gets none
    flat = initial_parameters(replace(template, delta0=1.0), seed=5)
    assert (flat[:2] == 0).all()
    assert (flat[2:] == p5a[2:]).all()


# --- gradients ---------------------------------------------------------------

def preset_objective(name):
    enc = encode_for_annealing(as_ising(preset_instance(name).model)).target
    return AnnealObjective(enc, default_schedule(name, enc))


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_adjoint_gradient_matches_central_differences(name):
    """At the start pulse and three seeded starts, the value is the per-step
    midpoint reference's E(T) bit for bit and the gradient is central
    differences at h = 1e-6 within 1e-5 relative.  The scale is at least 1:
    clustering's start pulse is nearly flat (|g| = 0.01), and there the
    round-off of the differences, about 3e-7, is the whole discrepancy."""
    obj = preset_objective(name)
    enc, x_total = obj.enc, _pauli_x_total(obj.enc.n)
    for seed in range(4):
        p = initial_parameters(obj.template, seed)
        value, grad = obj.value_and_gradient(p)
        sched = obj.schedule_for(p)
        _, ref = reference_run_steps(enc, sched, _start_state(enc, sched),
                                     obj.initial_steps, [0], x_total)
        assert value == ref.energy[-1]
        fd = central_differences(objective_value(obj), p)
        assert np.linalg.norm(grad - fd) <= 1e-5 * max(np.linalg.norm(fd), 1.0)


# --- objective ---------------------------------------------------------------

def test_objective_parameter_split():
    obj = small_objective()
    sched = obj.schedule_for([1.0, 2.0, 3.0, 4.0])
    assert sched.delta_coeffs == (1.0, 2.0)
    assert sched.omega_coeffs == (3.0, 4.0)
    with pytest.raises(ValueError):
        obj.schedule_for([1.0])


@pytest.mark.parametrize("source", ["tied_start", "clustering"])
def test_objective_starts_where_propagate_does(source):
    model = (model_from_dict(TIED_START_MODEL) if source == "tied_start"
             else preset_instance(source).model)
    enc = encode_for_annealing(model).target
    ground = source_optimum(model)["ground_indices"]
    template = default_schedule(None, enc, t_total=2.0)
    start = initial_basis_index(enc, template)
    if source == "tied_start":
        assert start == (6, 6)
    obj = AnnealObjective(enc, template, initial_steps=20)
    params = initial_parameters(template, seed=3)
    sched = obj.schedule_for(params)
    psi0 = np.zeros(1 << enc.n, dtype=complex)
    psi0[start[0]] = 1.0
    # the objective's anneal starts from that basis state, and takes its 20
    # steps as given; the reference reads one sample per step
    _, ref = reference_run_steps(enc, replace(sched, sample_count=21), psi0,
                                 20, ground, _pauli_x_total(enc.n))
    assert obj.value_and_gradient(params)[0] == ref.energy[-1]
    # propagate's default start must equal an explicit start vector
    psi, traj = propagate(enc, sched, ground_indices=ground)
    psi_b, traj_b = propagate(enc, sched, ground_indices=ground, psi0=psi0)
    assert (psi == psi_b).all()
    for field in ("times", "omega", "delta_g", "energy", "fidelity"):
        assert (getattr(traj, field) == getattr(traj_b, field)).all()
    assert traj.norm_error == traj_b.norm_error


# --- hybrid loop -------------------------------------------------------------

def quick_plan():
    return StagePlan((Stage("gradient", 50), Stage("gradient", 40)))


def test_run_hybrid_improves_and_respects_budget():
    plan = quick_plan()
    res = run_hybrid(small_objective(), plan, seed=0, **XOR_PAIR_OPTIMUM)
    assert res.evaluations <= sum(s.max_evals for s in plan.stages)
    assert len(res.stage_history) == len(plan.stages)
    # best-so-far trace never increases
    trace = [e for stage in res.stage_history for e in stage]
    assert all(b <= a + 1e-12 for a, b in zip(trace, trace[1:]))
    first = trace[0]
    assert res.e_best <= first + 1e-9
    assert 0.0 <= res.ratio <= 1.0 + 1e-12


def test_run_hybrid_deterministic():
    plan = StagePlan((Stage("gradient", 20), Stage("gradient", 20)))
    a, b = (run_hybrid(small_objective(), plan, seed=3, **XOR_PAIR_OPTIMUM)
            for _ in range(2))
    np.testing.assert_array_equal(a.params, b.params)
    assert a.e_best == b.e_best
    assert a.evaluations == b.evaluations


def test_gradient_stage_charges_probes_until_the_budget_is_spent():
    """A value costs 1 evaluation and a gradient 2P = 8: three points and
    a fourth value leave 2 of 30, which the fourth gradient spends."""
    res = run_hybrid(small_objective(), StagePlan((Stage("gradient", 30),)),
                     **XOR_PAIR_OPTIMUM)
    assert res.evaluations == 30
    assert res.budget_exhausted
    assert len(res.stage_history[0]) == 30


@pytest.mark.parametrize("name", ["two_sat", "qap", "clustering"])
def test_default_plan_spends_every_evaluation(name):
    """The solve benchmark fails a run whose BFGS stage stops early."""
    res = run_hybrid(preset_objective(name),
                     **source_optimum(preset_instance(name).model))
    assert res.evaluations == 800
    assert [len(stage) for stage in res.stage_history] == [800]


def test_run_hybrid_reports_source_cost():
    obj = small_objective()
    res = run_hybrid(obj, quick_plan(), seed=0, **XOR_PAIR_OPTIMUM)
    assert res.c_obt == pytest.approx(res.e_best / obj.enc.scale)
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
    params = initial_parameters(objective.template)
    value, grad = objective.value_and_gradient(params)
    print(name, value.hex(), *map(float.hex, grad.tolist()))
"""


def test_objective_invariant_to_blas_threads():
    """The solve presets' objective and its gradient are bit-identical on 1
    and 2 BLAS threads."""
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
