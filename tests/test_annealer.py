import math

import numpy as np
import pytest

from rydqubo.annealer import (DIM_CAP, AnnealerError,
                              DegenerateInitialStateError, PropagationConfig,
                              Schedule, Trajectory, expectation, fidelity,
                              initial_basis_index, initial_state, propagate,
                              target_ground_indices)
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
