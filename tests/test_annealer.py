import math
from dataclasses import replace

import numpy as np
import pytest

from rydqubo import annealer
from rydqubo.annealer import (BLOCK_BYTES, DIM_CAP, AnnealerError,
                              DegenerateInitialStateError, PropagationConfig,
                              Schedule, Trajectory, _pauli_x_total, _run_steps,
                              expectation, fidelity, initial_basis_index,
                              initial_state, propagate, target_ground_indices)
from rydqubo.encoding import EncodedTarget, encode
from rydqubo.models import IsingModel, as_ising
from rydqubo.problems import preset_instance


def xor_pair_target():
    return encode(IsingModel(2, (0.0, 0.0), {(0, 1): 0.5}, 0.5))


def single_atom(delta=0.0):
    return EncodedTarget(1, np.zeros((1, 1)), np.array([delta]), 0.0)


# --- schedules ---------------------------------------------------------------

def test_schedule_boundary_conditions():
    for basis in ("fourier", "spline"):
        s = Schedule(10.0, (0.3, -0.2, 0.1), (1.0, 0.5), delta0=-1.0,
                     basis=basis)
        assert s.delta_profile(0.0) == pytest.approx(-1.0, abs=1e-12)
        assert s.delta_profile(10.0) == pytest.approx(1.0, abs=1e-12)
        assert s.omega_profile(0.0) == pytest.approx(0.0, abs=1e-12)
        assert s.omega_profile(10.0) == pytest.approx(0.0, abs=1e-12)


def test_schedule_omega_clipping():
    s = Schedule(10.0, (), (100.0,), omega_max=2.0)
    t = np.linspace(0.0, 10.0, 50)
    assert np.max(np.abs(s.omega_profile(t))) <= 2.0 + 1e-12


def test_schedule_rejects_bad_inputs():
    with pytest.raises(ValueError):
        Schedule(-1.0, (), ())
    with pytest.raises(ValueError):
        Schedule(1.0, (), (), basis="legendre")
    s = Schedule(1.0, (), (1.0,))
    with pytest.raises(ValueError):
        s.omega_profile(2.0)


def test_schedule_json_round_trip():
    s = Schedule(25.0, (0.1, 0.2), (0.3,), delta0=-2.0, basis="spline",
                 omega_max=7.0, sample_count=101)
    again = Schedule.from_dict(s.to_dict())
    assert again == s


def test_spline_basis_interpolates_controls():
    s = Schedule(10.0, (0.5, -0.5), (2.0, 1.0, -1.0), basis="spline")
    # control knots are equally spaced interior points
    knots = np.linspace(0.0, 10.0, 4)[1:-1]
    np.testing.assert_allclose(s.delta_profile(knots), [0.5, -0.5], atol=1e-12)


# --- target structure --------------------------------------------------------

def test_target_ground_indices_xor_pair():
    enc = xor_pair_target()
    assert set(target_ground_indices(enc)) == {1, 2}


def test_dim_cap_enforced():
    n = DIM_CAP + 1
    enc = EncodedTarget(n, np.zeros((n, n)), np.zeros(n), 0.0)
    with pytest.raises(AnnealerError):
        propagate(enc, Schedule(1.0, (), (1.0,)))


# --- initial state -----------------------------------------------------------

def test_initial_state_unique_minimum():
    enc = single_atom(delta=1.0)
    sched = Schedule(1.0, (), (), delta0=-1.0)
    # H(0) diagonal = +delta * n_j, so |0> is the unique minimum
    psi = initial_state(enc, sched)
    np.testing.assert_allclose(psi, [1.0, 0.0])


def test_initial_state_degenerate_raises():
    enc = single_atom(delta=0.0)
    sched = Schedule(1.0, (), (), delta0=-1.0)
    with pytest.raises(DegenerateInitialStateError):
        initial_state(enc, sched)
    assert initial_basis_index(enc, sched, require_unique=False) == 0


def test_expectation_checks_norm():
    enc = single_atom(delta=1.0)
    with pytest.raises(AnnealerError):
        expectation(np.array([0.5, 0.0]), enc)


def test_fidelity_sums_degenerate_overlaps():
    psi = np.array([0.0, 1.0, 1.0, 0.0]) / math.sqrt(2.0)
    assert fidelity(psi, [1, 2]) == pytest.approx(1.0)
    assert fidelity(psi, [1]) == pytest.approx(0.5)


# --- propagation physics -----------------------------------------------------

def test_rabi_closed_form():
    """Resonant half-sine pulse on one atom: P_e = sin^2(area/2) exactly."""
    enc = single_atom(delta=0.0)
    t_total, b1 = 4.0, 1.2
    sched = Schedule(t_total, (), (b1,), sample_count=81)
    psi0 = np.array([1.0, 0.0], dtype=complex)
    psi, traj = propagate(enc, sched, PropagationConfig(tolerance_rel=1e-12),
                          ground_indices=[1], psi0=psi0)
    area = b1 * 2.0 * t_total / math.pi  # integral of b1*sin(pi t/T)
    expected = math.sin(area / 2.0) ** 2
    assert abs(traj.fidelity[-1] - expected) < 1e-6
    assert traj.norm_error < 1e-9


def test_diagonal_evolution_preserves_populations(rng):
    enc = xor_pair_target()
    sched = Schedule(5.0, (0.4, -0.3), ())  # Omega = 0 throughout
    psi0 = rng.normal(size=4) + 1j * rng.normal(size=4)
    psi0 /= np.linalg.norm(psi0)
    psi, traj = propagate(enc, sched, ground_indices=[1, 2], psi0=psi0)
    np.testing.assert_allclose(np.abs(psi) ** 2, np.abs(psi0) ** 2, atol=1e-9)
    assert traj.norm_error < 1e-9


def test_adiabatic_xor_pair_reaches_high_fidelity():
    enc = xor_pair_target()
    sched = Schedule(100.0, (), (1.0,), delta0=-1.0)
    psi, traj = propagate(enc, sched)
    assert traj.fidelity[-1] > 0.99
    assert traj.norm_error < 1e-9
    # encoded energy maps back to the source convention
    assert enc.source_energy(traj.energy[-1] - enc.constant) == \
        pytest.approx(traj.energy[-1])


def test_step_convergence():
    enc = xor_pair_target()
    sched = Schedule(20.0, (0.2,), (2.0,), sample_count=41)
    cfg = PropagationConfig(initial_steps=40, tolerance_rel=1e-8,
                            adaptive=True)
    _, traj = propagate(enc, sched, cfg)
    # converged propagation: twice the steps moves E(T) by less than tol
    _, traj2 = propagate(enc, sched,
                         PropagationConfig(initial_steps=4 * 40, adaptive=True))
    assert abs(traj.energy[-1] - traj2.energy[-1]) < \
        10 * cfg.tolerance_rel * enc.energy_scale


def test_trajectory_samples_cover_schedule():
    enc = xor_pair_target()
    sched = Schedule(10.0, (), (1.0,), sample_count=21)
    _, traj = propagate(enc, sched)
    assert len(traj.times) == 21
    assert traj.times[0] == 0.0
    assert traj.times[-1] == pytest.approx(10.0)
    np.testing.assert_allclose(traj.omega, sched.omega_profile(traj.times))
    np.testing.assert_allclose(traj.delta_g, sched.delta_profile(traj.times))


def test_propagation_on_preset_encodings():
    from rydqubo.pipeline import encode_for_annealing

    for name in ("two_sat", "set_packing"):
        enc = encode_for_annealing(as_ising(preset_instance(name).model)).target
        sched = Schedule(5.0, (), (1.0,), delta0=-1.0, sample_count=11)
        psi0 = np.zeros(1 << enc.n, dtype=complex)
        psi0[0] = 1.0
        psi, traj = propagate(enc, sched, psi0=psi0)
        assert traj.norm_error < 1e-9
        assert np.isfinite(traj.energy).all()


# --- blocked propagation against the per-step reference ----------------------

def _reference_run_steps(enc, schedule, psi0, n_steps, sample_times,
                         ground_indices, x_total):
    """One eigh per step: the loop the stacked blocks replaced.

    Returns the final state and, per sample, the grid time, energy,
    fidelity and norm error, as ``_run_steps`` does.
    """
    t_grid = np.linspace(0.0, schedule.t_total, n_steps + 1)
    mid = 0.5 * (t_grid[:-1] + t_grid[1:])
    dg = np.asarray(schedule.delta_profile(mid))
    om = np.asarray(schedule.omega_profile(mid))
    dt = schedule.t_total / n_steps
    v_part, delta_part = enc.diagonal_parts
    target = enc.diagonal_energies()

    sample_idx = np.searchsorted(t_grid, sample_times - 1e-12)
    records = {}
    psi = psi0.astype(complex).copy()

    def record(step_index):
        probs = np.abs(psi) ** 2
        e = float(probs @ target) + enc.constant
        f = float(probs[list(ground_indices)].sum())
        nrm = abs(math.sqrt(float(probs.sum())) - 1.0)
        records[step_index] = (e, f, nrm)

    record(0)
    for step in range(n_steps):
        h = (om[step] / 2.0) * x_total
        h[np.diag_indices_from(h)] += v_part - dg[step] * delta_part
        evals, evecs = np.linalg.eigh(h)
        psi = evecs @ (np.exp(-1j * evals * dt) * (evecs.conj().T @ psi))
        if step + 1 in sample_idx or step + 1 == n_steps:
            record(step + 1)
    e, f, nrm = (np.array([records[int(i)][c] for i in sample_idx])
                 for c in range(3))
    return psi, t_grid[sample_idx], e, f, nrm


def _assert_runs_identical(enc, schedule, psi0, n_steps, sample_times,
                           ground):
    x_total = _pauli_x_total(enc.n)
    args = (enc, schedule, psi0, n_steps, sample_times, ground, x_total)
    got, want = _run_steps(*args), _reference_run_steps(*args)
    for a, b in zip(got, want):
        assert a.shape == b.shape
        assert (a == b).all()


def _preset_target(name):
    from rydqubo.pipeline import encode_for_annealing

    return encode_for_annealing(as_ising(preset_instance(name).model)).target


def _random_target(rng, n):
    v = np.triu(rng.uniform(0.0, 2.0, size=(n, n)), 1)
    return EncodedTarget(n, v + v.T, rng.uniform(0.5, 2.0, size=n), 0.3)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_blocked_steps_bit_identical_to_per_step_loop(n, rng):
    enc = _random_target(rng, n)
    sched = Schedule(3.0, (0.2, -0.1), (1.5, 0.4), sample_count=21)
    psi0 = np.zeros(1 << n, dtype=complex)
    psi0[0] = 1.0
    _assert_runs_identical(enc, sched, psi0, 200,
                           np.linspace(0.0, 3.0, 21), [1])


def test_blocked_steps_bit_identical_across_blocks():
    enc = _preset_target("clustering")
    assert enc.n == 5
    n_steps = 3 * (BLOCK_BYTES // (8 * 32 * 32)) + 7  # three full blocks + a partial one
    sched = Schedule(4.0, (0.3,), (2.0, -0.5), sample_count=11)
    psi0 = np.zeros(32, dtype=complex)
    psi0[0] = 1.0
    _assert_runs_identical(enc, sched, psi0, n_steps,
                           np.linspace(0.0, 4.0, 11),
                           target_ground_indices(enc))


def test_blocked_steps_bit_identical_incommensurate_samples(rng):
    enc = _random_target(rng, 3)
    sched = Schedule(2.0, (0.1,), (1.0,))
    psi0 = np.zeros(8, dtype=complex)
    psi0[0] = 1.0
    # 17 samples on 50 steps, and 60 samples on 13 steps (repeated indices)
    for n_steps, count in ((50, 17), (13, 60)):
        _assert_runs_identical(enc, sched, psi0, n_steps,
                               np.linspace(0.0, 2.0, count), [2, 5])


def test_blocked_steps_bit_identical_superposition_start(rng):
    enc = _random_target(rng, 4)
    sched = Schedule(2.5, (-0.2,), (0.8, 0.3), sample_count=26)
    psi0 = rng.normal(size=16) + 1j * rng.normal(size=16)
    psi0 /= np.linalg.norm(psi0)
    _assert_runs_identical(enc, sched, psi0, 150,
                           np.linspace(0.0, 2.5, 26), [0, 3, 9])


def test_adaptive_propagation_bit_identical_two_sat(monkeypatch):
    from rydqubo.pipeline import default_schedule

    enc = _preset_target("two_sat")
    sched = replace(default_schedule("two_sat", enc, t_total=8.0),
                    delta_coeffs=(0.1, 0.0), omega_coeffs=(3.0, 0.5),
                    sample_count=41)
    cfg = PropagationConfig(initial_steps=40)
    psi, traj = propagate(enc, sched, cfg)
    calls = []

    def reference(*args):
        calls.append(args[3])
        return _reference_run_steps(*args)

    monkeypatch.setattr(annealer, "_run_steps", reference)
    psi_ref, traj_ref = propagate(enc, sched, cfg)
    assert len(calls) > 2  # the adaptive loop doubled at least twice
    assert (psi == psi_ref).all()
    for field in ("times", "omega", "delta_g", "energy", "fidelity"):
        assert (getattr(traj, field) == getattr(traj_ref, field)).all()
    assert traj.norm_error == traj_ref.norm_error
