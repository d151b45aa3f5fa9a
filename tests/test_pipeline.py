import json
import re
from pathlib import Path

import numpy as np
import pytest

import rydqubo.optimizer
from rydqubo.annealer import PropagationConfig, Schedule
from rydqubo.encoding import (FrustratedModelError, HardwareLimits,
                              NotEncodableError, encode, gauge_fix, rescale)
from rydqubo.hardness import format_value
from rydqubo.models import IsingModel, QuboModel, as_ising, enumerate_spectrum
from rydqubo.optimizer import Stage, StagePlan
from rydqubo.pipeline import (TEMPLATE_MODES, RunManifest, default_schedule,
                              encode_for_annealing, result_json, run_pipeline,
                              trajectory_csv)
from rydqubo.problems import PRESET_NAMES, preset_instance

from conftest import random_integer_qubo, random_qubo, start_diagonal


def tiny_plan():
    return StagePlan((Stage("gradient", 2),))


def test_encode_for_annealing_direct():
    outcome = encode_for_annealing(as_ising(preset_instance("xor_sat").model))
    assert not outcome.signed
    assert outcome.flips == (0, 0, 0)
    assert np.all(outcome.target.v >= 0)


def test_encode_for_annealing_gauge_fixes():
    outcome = encode_for_annealing(as_ising(preset_instance("two_sat").model))
    assert not outcome.signed
    assert any(outcome.flips)  # negative couplings removed by spin flips
    assert np.all(outcome.target.v >= 0)


def test_encode_for_annealing_frustrated_modes():
    model = as_ising(preset_instance("mixed").model)
    ideal = encode_for_annealing(model, mode="ideal")
    assert ideal.signed
    assert np.any(ideal.target.v < 0)
    with pytest.raises(NotEncodableError):
        encode_for_annealing(model, mode="physical")


def test_ground_indices_xor_pair():
    model = IsingModel(2, (0.0, 0.0), {(0, 1): 0.5}, 0.5)
    outcome = encode_for_annealing(model)
    assert outcome.ground_indices(enumerate_spectrum(model)).tolist() == [1, 2]


def test_ground_indices_are_the_encoded_minima_on_presets():
    """On every preset the source ground states, mapped through the gauge
    flips, are the minima of the encoded diagonal in ascending order, and
    the diagonal's extremes are the spectrum's e_min and e_max."""
    for name in PRESET_NAMES:
        model = preset_instance(name).model
        outcome, spectrum = encode_for_annealing(model), enumerate_spectrum(model)
        enc = outcome.target
        diag = enc.diagonal_energies() + enc.constant
        minima = np.flatnonzero(diag <= diag.min() + 1e-9 * enc.energy_scale)
        assert outcome.ground_indices(spectrum).tolist() == minima.tolist()
        assert (diag.min() / enc.scale, diag.max() / enc.scale) == (
            spectrum.e_min, spectrum.e_max), name


def test_encoding_matches_source_after_gauge():
    model = as_ising(preset_instance("two_sat").model)
    outcome = encode_for_annealing(model)
    enc = outcome.target
    mask = sum(b << i for i, b in enumerate(outcome.flips))
    e_enc = (enc.diagonal_energies() + enc.constant) / enc.scale
    e_src = model.energies()
    perm = [k ^ mask for k in range(len(e_src))]
    np.testing.assert_allclose(e_enc, e_src[perm], atol=1e-10)


def _three_call_encode(model, mode):
    """Reference encoding by up to three ``encode`` calls: encode, on a
    negative coupling gauge-fix and encode again, and on frustrated signs
    encode the signed couplings (ideal mode) or re-raise."""
    ising = as_ising(model)
    flips = (0,) * ising.n
    signed = False
    try:
        target = encode(ising)
    except NotEncodableError:
        try:
            gauged, flips = gauge_fix(ising)
            target = encode(gauged)
        except FrustratedModelError:
            if mode != "ideal":
                raise
            target = encode(ising, allow_negative=True)
            flips = (0,) * ising.n
            signed = True
    target, binding = rescale(target, HardwareLimits())
    return target, flips, signed, binding


def _outcome_or_error(encoder, model, mode):
    try:
        target, flips, signed, binding = encoder(model, mode)
    except NotEncodableError as exc:
        return type(exc), str(exc)
    return (target.v.tobytes(), target.delta_final.tobytes(), target.constant,
            target.scale, flips, signed, binding)


def _one_call_encode(model, mode):
    outcome = encode_for_annealing(model, mode=mode)
    return (outcome.target, outcome.flips, outcome.signed,
            outcome.scale_binding)


def test_encode_for_annealing_equals_three_call_path():
    rng = np.random.default_rng(11)
    models = []
    for name in PRESET_NAMES:
        model = preset_instance(name).model
        models += [model, as_ising(model)]
    for n in range(9):
        models += [random_qubo(rng, n), random_integer_qubo(rng, n)]
    models += [
        # frustrated, zero and -0.0 couplings
        IsingModel(3, (0.5, 0.0, -0.5), {(0, 1): 1.0, (0, 2): -1.0,
                                         (1, 2): 1.0}),
        QuboModel(3, (1.0, -1.0, 0.0), {(0, 1): 0.0, (1, 2): -2.0}),
        IsingModel(3, (-0.0, 1.0, 0.0), {(0, 1): -0.0, (1, 2): -1.0}),
        # shrunk by the detuning limit, and by the minimum spacing
        QuboModel(2, (-1e4, 3e3), {(0, 1): 5e3}),
        IsingModel(2, (-5e3, -5e3), {(0, 1): 5e3}),
    ]
    seen = set()
    for model in models:
        for mode in ("ideal", "physical"):
            new = _outcome_or_error(_one_call_encode, model, mode)
            assert new == _outcome_or_error(_three_call_encode, model, mode)
            seen.add(new[0] if len(new) == 2 else (new[5], new[6]))
    assert FrustratedModelError in seen
    assert {(False, "none"), (True, "none"), (False, "delta_max"),
            (False, "r_min")} <= seen


def test_default_schedule_avoids_degenerate_start():
    """The template is the same for every target: the preset's duration and
    zero coefficients, so Delta_G(0) = 0.  Under it |0..0> is the unique
    minimum of H(0)'s diagonal on every preset."""
    for name in PRESET_NAMES:
        outcome = encode_for_annealing(as_ising(preset_instance(name).model))
        sched = default_schedule(name, outcome.target)
        zeros = (0.0,) * TEMPLATE_MODES
        assert sched == Schedule(
            preset_instance(name).metadata["duration_us"], zeros, zeros)
        assert sched.profiles(0.0)[0] == 0.0
        assert sched.profiles(sched.t_total)[0] == pytest.approx(1.0)
        diag = start_diagonal(outcome.target, sched)
        assert np.flatnonzero(diag == diag.min()).tolist() == [0], name


def test_manifest_hash_stable_and_timestamp_free():
    sched = Schedule(10.0, (0.0,), (0.0,)).to_dict()
    plan = StagePlan.default().to_dict()
    a = RunManifest("x", "ideal", sched, plan, 0, timestamp="2026-01-01")
    b = RunManifest("x", "ideal", sched, plan, 0, timestamp="2026-02-02")
    c = RunManifest("x", "ideal", sched, plan, 1, timestamp="2026-01-01")
    assert a.hash() == b.hash()
    assert a.hash() != c.hash()
    assert len(a.hash()) == 16


def test_default_manifest_hash_pinned():
    """Schedules write ``"basis": "fourier"``, so manifest hashes of recorded
    runs stay valid; this pins the default two_sat manifest, which also
    hashes the default plan (one 32-evaluation BFGS stage) and
    ``rydqubo.__version__`` (0.12.0)."""
    enc = encode_for_annealing(as_ising(preset_instance("two_sat").model)).target
    manifest = RunManifest("two_sat", "ideal",
                           default_schedule("two_sat", enc).to_dict(),
                           StagePlan.default().to_dict(), 0)
    assert manifest.hash() == "14e44d7cc391aee5"


def test_version_has_one_owner():
    """pyproject.toml reads the version from rydqubo.__version__, which the
    manifest hashes, and keeps no static copy of it."""
    text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    project = text.split("\n[project]\n")[1].split("\n[")[0]
    assert re.search(r"^version\s*=", project, re.M) is None
    assert 'dynamic = ["version"]' in project
    assert 'version = {attr = "rydqubo.__version__"}' in text


def test_run_pipeline_outputs():
    result = run_pipeline(preset_instance("xor_sat").model, "xor_sat",
                          preset_name="xor_sat", plan=tiny_plan(), seed=0)
    payload = result_json(result)
    assert payload["instance"] == "xor_sat"
    assert payload["R"] > 0.5
    assert payload["C_opt"] == pytest.approx(1.0)
    assert payload["C_max"] == pytest.approx(3.0)
    assert payload["manifest_hash"] == result.manifest.hash()
    assert len(payload["ground_states"]) == 6
    json.dumps(payload)  # fully serializable

    traj = result.optimization.trajectory
    lines = trajectory_csv(traj, result.outcome.target).splitlines()
    header = lines[0].split(",")
    assert header == ["t_us", "omega", "delta_G", "delta_1", "delta_2",
                      "delta_3", "E", "F"]
    assert len(lines) == 1 + len(traj.times)


def test_run_pipeline_ground_states_in_source_frame():
    # two_sat is gauge-fixed; reported ground states must be source patterns
    result = run_pipeline(preset_instance("two_sat").model, "two_sat",
                          preset_name="two_sat", plan=tiny_plan(), seed=0)
    energies = preset_instance("two_sat").model.energies()
    for g in result.ground_states:
        assert energies[g] == pytest.approx(energies.min())


def test_run_pipeline_respects_custom_schedule():
    sched = Schedule(12.0, (0.0, 0.0), (0.0, 0.0), sample_count=25)
    result = run_pipeline(preset_instance("xor_sat").model, "xor_sat",
                          plan=StagePlan((Stage("gradient", 5),)),
                          schedule=sched)
    assert result.optimization.schedule.t_total == 12.0
    assert len(result.optimization.params) == 4


def test_run_pipeline_propagates_final_pulse_once(monkeypatch):
    calls = []
    real = rydqubo.optimizer.propagate

    def counting(enc, schedule, cfg=PropagationConfig(), **kwargs):
        calls.append(cfg.initial_steps)
        return real(enc, schedule, cfg, **kwargs)

    monkeypatch.setattr(rydqubo.optimizer, "propagate", counting)
    result = run_pipeline(preset_instance("xor_sat").model, "xor_sat",
                          plan=StagePlan((Stage("gradient", 1),)),
                          schedule=Schedule(2.0, (0.0,), (1.0,),
                                            sample_count=11))
    assert calls == [200]
    traj = result.optimization.trajectory
    enc = result.outcome.target
    lines = trajectory_csv(traj, enc).splitlines()
    assert len(lines) == 1 + len(traj.times)
    # each Delta_j(t) = Delta_G(t) Delta_j(T) - s (1 - t/T): -s at t = 0
    s = max(np.abs(enc.v).max(), np.abs(enc.delta_final).max())
    for k, line in enumerate(lines[1:]):
        uniform = s * (1.0 - traj.times[k] / traj.times[-1])
        assert line.split(",") == [format_value(v) for v in (
            traj.times[k], traj.omega[k], traj.delta_g[k],
            *(traj.delta_g[k] * enc.delta_final - uniform), traj.energy[k],
            traj.fidelity[k])]
    assert lines[1].split(",")[3:6] == [format_value(-s)] * 3
