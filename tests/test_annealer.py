import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from rydqubo import annealer
from rydqubo.annealer import (BLOCK_BYTES, DIM_CAP, AnnealerError,
                              PropagationConfig, Schedule, _expand,
                              _midpoint_exponentials, _quotient, _run_steps,
                              _start_state, _sweep, energy_gradient, propagate)
from rydqubo.encoding import EncodedTarget, encode
from rydqubo.models import IsingModel, as_ising
from rydqubo.optimizer import AnnealObjective, initial_parameters
from rydqubo.pipeline import default_schedule, encode_for_annealing

from rydqubo.problems import PRESET_NAMES, preset_instance

from conftest import (PLANTED, PRESET_CELLS, central_differences,
                      objective_value, orbit_count, pauli_x_total,
                      planted_target, preset_run, random_antiferro_ising,
                      reference_run_steps, start_diagonal, stencil_gradient,
                      trajectory_of)


def xor_pair_target():
    return encode(IsingModel(2, (0.0, 0.0), {(0, 1): 0.5}, 0.5))


def single_atom(delta=0.0):
    return EncodedTarget(1, np.zeros((1, 1)), np.array([delta]), 0.0)


# --- schedules ---------------------------------------------------------------

def test_schedule_boundary_conditions():
    s = Schedule(10.0, (0.3, -0.2, 0.1), (1.0, 0.5))
    delta_g, omega = s.profiles(np.array([0.0, 10.0]))
    np.testing.assert_allclose(delta_g, [0.0, 1.0], atol=1e-12)
    np.testing.assert_allclose(omega, [0.0, 0.0], atol=1e-12)


def test_schedule_omega_clipping():
    s = Schedule(10.0, (), (100.0,), omega_max=2.0)
    t = np.linspace(0.0, 10.0, 50)
    assert np.max(np.abs(s.profiles(t)[1])) <= 2.0 + 1e-12


def test_schedule_rejects_bad_inputs():
    for duration in (-1.0, float("nan")):
        with pytest.raises(ValueError):
            Schedule(duration, (), ())
    s = Schedule(1.0, (), (1.0,))
    with pytest.raises(ValueError):
        s.profiles(2.0)
    data = s.to_dict()
    for basis in ("spline", "legendre"):
        with pytest.raises(ValueError, match="unknown basis"):
            Schedule.from_dict({**data, "basis": basis})
    with pytest.raises(ValueError, match="expected an integer"):
        Schedule.from_dict({**data, "sample_count": 3.7})
    assert Schedule.from_dict({**data, "sample_count": 3.0}).sample_count == 3


def test_schedule_reads_sample_count_as_an_integer():
    """sample_count = 2.5 used to be built and fail later in propagate with a
    TypeError, and "11" raised a TypeError from the < 2 check."""
    for bad in (2.5, "11"):
        with pytest.raises(ValueError, match="expected an integer"):
            Schedule(2.0, (), (1.0,), sample_count=bad)
    for good in (11.0, np.int64(11)):
        count = Schedule(2.0, (), (1.0,), sample_count=good).sample_count
        assert type(count) is int and count == 11


def test_schedule_refuses_non_positive_omega_max():
    """omega_max = -1 used to clip Omega to -1 at every time, t = 0 and T
    included, and the anneal ran."""
    for omega_max in (-1.0, 0.0):
        with pytest.raises(ValueError, match="omega_max must be positive"):
            Schedule(2.0, (), (1.0,), omega_max=omega_max)


def test_schedule_refuses_non_finite_and_string_numbers():
    """A NaN coefficient used to be accepted, and propagate then ran all its
    step doublings before it raised an AnnealerError that named the wrong
    cause."""
    for bad in (float("nan"), float("inf"), "0.5"):
        for kwargs in ({"delta_coeffs": (0.1, bad)}, {"omega_coeffs": (bad,)},
                       {"t_total": bad},
                       {"omega_max": bad}, {"sample_count": bad}):
            with pytest.raises(ValueError):
                Schedule(**{"t_total": 2.0, "delta_coeffs": (),
                            "omega_coeffs": (1.0,), **kwargs})
    data = Schedule(2.0, (0.5,), (1.0,)).to_dict()
    for key in ("T_us", "sample_count"):
        with pytest.raises(ValueError):
            Schedule.from_dict({**data, key: "2"})
    with pytest.raises(ValueError):
        Schedule.from_dict({**data, "omega": {"coeffs": [1.0],
                                              "omega_max": "5"}})


def test_schedule_json_round_trip():
    s = Schedule(25.0, (0.1, 0.2), (0.3,), omega_max=7.0, sample_count=101)
    data = s.to_dict()
    assert data["basis"] == "fourier"
    assert Schedule.from_dict(data) == s
    del data["basis"]
    assert Schedule.from_dict(data) == s


def test_schedule_refuses_a_nonzero_delta0():
    """Files written while Delta_G(0) was a setting carry delta.delta0: 0
    loads, and any other value is refused rather than run at 0."""
    s = Schedule(25.0, (0.1, 0.2), (0.3,))
    data = s.to_dict()
    assert "delta0" not in data["delta"]
    for zero in (0.0, -0.0, 0):
        data["delta"]["delta0"] = zero
        assert Schedule.from_dict(data) == s
    for bad in (-1.0, 2.0, 1e-300, float("nan"), "0"):
        data["delta"]["delta0"] = bad
        with pytest.raises(ValueError, match="delta0|expected a"):
            Schedule.from_dict(data)


def _reference_profiles(schedule, t):
    """The per-mode loops ``profiles`` replaced, one per profile."""
    tau = np.clip(np.asarray(t, dtype=float), 0.0, schedule.t_total) / schedule.t_total
    delta_g = tau
    for k, a in enumerate(schedule.delta_coeffs, start=1):
        delta_g = delta_g + a * np.sin(k * math.pi * tau)
    omega = np.zeros_like(tau)
    for k, b in enumerate(schedule.omega_coeffs, start=1):
        omega = omega + b * np.sin(k * math.pi * tau)
    return delta_g, np.clip(omega, -schedule.omega_max, schedule.omega_max)


def test_schedule_profiles_match_reference():
    """``profiles`` sums the sine-table columns in mode order, so it equals
    the per-mode loops bit for bit; a matvec ``S @ a`` rounds differently."""
    rng = np.random.default_rng(20240611)
    counts = []
    for case in range(240):
        n_delta, n_omega = rng.integers(0, 9, size=2)
        counts.append((n_delta, n_omega))
        t_total = float(rng.uniform(0.5, 120.0))
        sched = Schedule(t_total, rng.normal(scale=0.7, size=n_delta),
                         rng.normal(scale=8.0, size=n_omega),
                         omega_max=float(rng.uniform(1.0, 40.0)))
        n_steps = int(rng.integers(1, 3000))
        t_grid = np.linspace(0.0, t_total, n_steps + 1)
        grids = (0.5 * (t_grid[:-1] + t_grid[1:]),
                 np.linspace(0.0, t_total, int(rng.integers(2, 402))))
        for t in grids:
            for got, want in zip(sched.profiles(t), _reference_profiles(sched, t)):
                assert got.shape == want.shape
                assert (got == want).all(), (case, n_delta, n_omega)
                assert (np.signbit(got) == np.signbit(want)).all()  # -0.0 prints "-0"
        delta_g, omega = sched.profiles(0.0)
        assert delta_g == 0.0 and omega == 0.0
    # the draws cover empty and unequal coefficient lists
    assert any(0 in c for c in counts) and any(a != b for a, b in counts)


# --- target structure --------------------------------------------------------

def test_dim_cap_enforced():
    n = DIM_CAP + 1
    enc = EncodedTarget(n, np.zeros((n, n)), np.zeros(n), 0.0)
    with pytest.raises(AnnealerError):
        propagate(enc, Schedule(1.0, (), (1.0,)), ground_indices=[0])


def test_pauli_x_total_matches_per_entry_loop(rng):
    """Where the partition is the full basis, the quotient's drive matrix
    has the bytes of the state-by-atom loop."""
    for n in range(DIM_CAP + 1):
        psi0 = np.zeros(1 << n, dtype=complex)
        psi0[0] = 1.0
        q = _quotient(_random_target(rng, n), psi0)
        assert (q.cell == np.arange(1 << n)).all()
        assert q.x.tobytes() == pauli_x_total(n).tobytes()


@pytest.mark.parametrize("name", [*PLANTED, *PRESET_NAMES])
def test_quotient_is_exact(name):
    """The cells are the orbits of the atom permutations that keep the
    target and the start, and a CFM4 run in the quotient expands to the
    full-basis reference's psi(T), E and F within 1e-12 (times the energy
    scale for E), for a ground set of whole cells and for one state of the
    largest cell."""
    if name in PLANTED:
        enc, psi0 = planted_target(name)
    else:
        enc, _ = preset_run(name)
        psi0 = _start_state(enc.n)
    q = _quotient(enc, psi0)
    assert len(q.size) == orbit_count(enc, psi0)
    if name in PRESET_CELLS:
        assert len(q.size) == PRESET_CELLS[name]
    sched = Schedule(3.0, (0.2, -0.1), (1.5, 0.4), sample_count=21)
    target = enc.diagonal_energies()
    for ground in (np.flatnonzero(target == target.min()),
                   [int(np.argmax(q.size[q.cell]))]):
        psi, traj = _run_steps(enc, sched, psi0, 100, ground)
        psi_ref, ref = reference_run_steps(enc, sched, psi0, 100, ground,
                                           cfm4=True)
        assert np.abs(psi - psi_ref).max() <= 1e-12
        assert np.abs(traj.energy - ref.energy).max() <= \
            1e-12 * enc.energy_scale
        assert np.abs(traj.fidelity - ref.fidelity).max() <= 1e-12
        assert traj.norm_error < 1e-12


# --- initial state -----------------------------------------------------------

def _sweep_start_diagonal(enc):
    """(quotient of |0..0>, H(0)'s diagonal on its cells), from the controls
    and the quotient the sweep reads."""
    q = _quotient(enc, _start_state(enc.n))
    sched = Schedule(1.0, (), ())
    delta_g, _, ramp = sched._mode_sums(*sched.sine_table(0.0))
    return q, q.v - delta_g * q.delta + ramp * q.ramp


def test_initial_state_unique_minimum(rng):
    """As Delta_G(0) = 0, H(0)'s diagonal is V(x) + s count(x):
    |0..0> is its unique minimum, alone in its cell and at least s below
    every other state, on every preset and on seeded random repulsive
    targets."""
    targets = [encode_for_annealing(as_ising(preset_instance(name).model)
                                    ).target for name in PRESET_NAMES]
    targets += [encode(random_antiferro_ising(rng, n)) for n in range(1, 9)
                for _ in range(3)]
    for enc in targets:
        q, diag = _sweep_start_diagonal(enc)
        np.testing.assert_allclose(diag[q.cell], start_diagonal(
            enc, Schedule(1.0, (), ())), rtol=0, atol=1e-12 * enc.energy_scale)
        assert q.size[0] == 1 and q.cell[0] == 0
        assert diag[1:].min() >= diag[0] + (1 - 1e-12) * enc.energy_scale


def test_initial_state_degenerate_starts_from_ground_atoms():
    """A flat target, whose states all tie in the target, and a frustrated
    signed one, on which another state lies below |0..0> at t = 0, both
    start at |0..0>.  The signed target has J = -1 on every pair among atoms
    0-3, J = +1 from each of them to each of atoms 4-6, and h = -4 on atoms
    4-6: every Delta_j(T) is 0, s = 4, and pattern 15 sits at -2 s."""
    enc = single_atom(delta=0.0)
    sched = Schedule(1.0, (), ())  # Omega = 0: the start is never left
    assert propagate(enc, sched, ground_indices=[0])[1].fidelity[-1] == 1.0
    quad = {(i, j): -1.0 for i in range(4) for j in range(i + 1, 4)}
    quad.update({(i, j): 1.0 for i in range(4) for j in range(4, 7)})
    outcome = encode_for_annealing(IsingModel(7, (0.0,) * 4 + (-4.0,) * 3,
                                              quad))
    enc = outcome.target
    assert outcome.signed and (enc.delta_final == 0).all()
    assert enc.energy_scale == 4.0
    q, diag = _sweep_start_diagonal(enc)
    assert diag[q.cell[15]] == -2.0 * enc.energy_scale < diag[0] == 0.0
    sched = Schedule(2.0, (0.3,), (1.0,), sample_count=11)
    psi, traj = propagate(enc, sched, ground_indices=[15])
    psi_0, traj_0 = propagate(enc, sched, ground_indices=[15],
                              psi0=np.eye(1 << 7, dtype=complex)[0])
    assert (psi == psi_0).all() and (traj.energy == traj_0.energy).all()


def test_quotient_seeds_cells_by_excitation_count():
    """Two atoms, V = 0, Delta = (d, 0) and psi0 = (|00> + |10>)/sqrt(2):
    patterns 0 and 2 agree in V, Delta and psi0 and have the same neighbour
    cells, so only their excitation counts split them.  Each state keeps its
    own cell, and the run agrees with the full-basis reference."""
    enc = EncodedTarget(2, np.zeros((2, 2)), np.array([1.5, 0.0]), 0.0)
    psi0 = np.array([1.0, 0.0, 1.0, 0.0], dtype=complex) / math.sqrt(2.0)
    assert len(_quotient(enc, psi0).size) == 4
    sched = Schedule(3.0, (0.2, -0.1), (1.5, 0.4), sample_count=21)
    psi, traj = _run_steps(enc, sched, psi0, 100, [1])
    psi_ref, ref = reference_run_steps(enc, sched, psi0, 100, [1], cfm4=True)
    assert np.abs(psi - psi_ref).max() <= 1e-12
    assert np.abs(traj.energy - ref.energy).max() <= 1e-12 * enc.energy_scale
    assert np.abs(traj.fidelity - ref.fidelity).max() <= 1e-12


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
    sched = Schedule(100.0, (), (1.0,))
    psi, traj = propagate(enc, sched, ground_indices=[1, 2])
    assert traj.fidelity[-1] > 0.99
    assert traj.norm_error < 1e-9


def test_step_convergence():
    enc = xor_pair_target()
    sched = Schedule(20.0, (0.2,), (2.0,), sample_count=41)
    cfg = PropagationConfig(initial_steps=40, tolerance_rel=1e-8)
    _, traj = propagate(enc, sched, cfg, ground_indices=[1, 2])
    # converged propagation: twice the steps moves E(T) by less than tol
    _, traj2 = propagate(enc, sched, PropagationConfig(initial_steps=4 * 40),
                         ground_indices=[1, 2])
    assert abs(traj.energy[-1] - traj2.energy[-1]) < \
        10 * cfg.tolerance_rel * enc.energy_scale


def test_trajectory_samples_cover_schedule():
    enc = xor_pair_target()
    sched = Schedule(10.0, (), (1.0,), sample_count=21)
    _, traj = propagate(enc, sched, ground_indices=[1, 2])
    assert len(traj.times) == 21
    assert traj.times[0] == 0.0
    assert traj.times[-1] == pytest.approx(10.0)
    delta_g, omega = sched.profiles(traj.times)
    np.testing.assert_allclose(traj.omega, omega)
    np.testing.assert_allclose(traj.delta_g, delta_g)


def test_propagation_on_preset_encodings():
    for name in ("two_sat", "set_packing"):
        enc, ground = preset_run(name)
        sched = Schedule(5.0, (), (1.0,), sample_count=11)
        psi0 = np.zeros(1 << enc.n, dtype=complex)
        psi0[0] = 1.0
        psi, traj = propagate(enc, sched, ground_indices=ground, psi0=psi0)
        assert traj.norm_error < 1e-9
        assert np.isfinite(traj.energy).all()


# --- blocked propagation against the per-step reference ----------------------

def _midpoint_run(enc, schedule, psi0, n_steps, ground_indices):
    """``_sweep`` over the midpoint exponentials that ``energy_gradient``
    takes, in the quotient of psi0, read at the reference's grid times by
    the reference's own readout of the expanded states: the final state and
    the trajectory.  Each state psi_k = V_k c_k is formed from its
    eigenbasis coefficients, and the final state from a block's last row."""
    q = _quotient(enc, psi0)
    states = []
    for _, _, evecs, coeffs in _sweep(
            q, *_midpoint_exponentials(schedule, n_steps)[1]):
        states.extend((evecs @ coeffs[:-1, :, None])[..., 0])
    states = _expand(q, np.array([*states, evecs[-1] @ coeffs[-1]]))
    stride = n_steps // (schedule.sample_count - 1)
    times = np.linspace(0.0, schedule.t_total, n_steps + 1)[::stride]
    return states[-1], trajectory_of(enc, schedule, states[::stride],
                                     ground_indices, times)


def _assert_trajectories_identical(got, want):
    for field in ("times", "omega", "delta_g", "energy", "fidelity"):
        a, b = getattr(got, field), getattr(want, field)
        assert a.shape == b.shape
        assert (a == b).all()
    assert got.norm_error == want.norm_error


def _assert_runs_identical(monkeypatch, enc, schedule, psi0, n_steps, ground):
    """The midpoint and CFM4 sweeps in the default blocks give the bytes of
    one step per block.  The midpoint run agrees with the per-step
    full-basis reference within 1e-12 (times the energy scale for E): the
    eigenbasis recurrence rounds differently from the reference's
    matrix-vector products."""
    args = (enc, schedule, psi0, n_steps, ground)
    runs = [(_midpoint_run(*args), _run_steps(*args))]
    monkeypatch.setattr(annealer, "BLOCK_BYTES", 1)
    runs.append((_midpoint_run(*args), _run_steps(*args)))
    for (psi, traj), (psi_1, traj_1) in zip(*runs):
        assert (psi == psi_1).all()
        _assert_trajectories_identical(traj, traj_1)
    (psi, traj), (psi_ref, ref) = runs[0][0], reference_run_steps(*args)
    assert np.abs(psi - psi_ref).max() <= 1e-12
    for field in ("times", "omega", "delta_g"):
        assert (getattr(traj, field) == getattr(ref, field)).all()
    assert np.abs(traj.energy - ref.energy).max() <= 1e-12 * enc.energy_scale
    assert np.abs(traj.fidelity - ref.fidelity).max() <= 1e-12
    assert abs(traj.norm_error - ref.norm_error) <= 1e-12


def _random_target(rng, n):
    v = np.triu(rng.uniform(0.0, 2.0, size=(n, n)), 1)
    return EncodedTarget(n, v + v.T, rng.uniform(0.5, 2.0, size=n), 0.3)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_blocked_steps_bit_identical_to_per_step_loop(n, rng, monkeypatch):
    enc = _random_target(rng, n)
    sched = Schedule(3.0, (0.2, -0.1), (1.5, 0.4), sample_count=21)
    psi0 = np.zeros(1 << n, dtype=complex)
    psi0[0] = 1.0
    _assert_runs_identical(monkeypatch, enc, sched, psi0, 200, [1])


def test_blocked_steps_bit_identical_across_blocks(monkeypatch):
    enc, ground = preset_run("clustering")
    assert enc.n == 5
    # three full blocks and a partial one, on a multiple of the 10 intervals
    n_steps = 3 * (BLOCK_BYTES // (8 * 32 * 32)) + 14
    sched = Schedule(4.0, (0.3,), (2.0, -0.5), sample_count=11)
    psi0 = np.zeros(32, dtype=complex)
    psi0[0] = 1.0
    _assert_runs_identical(monkeypatch, enc, sched, psi0, n_steps, ground)


def test_blocked_steps_bit_identical_superposition_start(rng, monkeypatch):
    enc = _random_target(rng, 4)
    sched = Schedule(2.5, (-0.2,), (0.8, 0.3), sample_count=26)
    psi0 = rng.normal(size=16) + 1j * rng.normal(size=16)
    psi0 /= np.linalg.norm(psi0)
    _assert_runs_identical(monkeypatch, enc, sched, psi0, 150, [0, 3, 9])


def test_adaptive_propagation_matches_per_step_cfm4_two_sat(monkeypatch):
    """An adaptive run steps with CFM4: each exponential of the blocked loop
    is H at blended controls, the reference builds a2 H1 + a1 H2 and
    a1 H1 + a2 H2 from the two node Hamiltonians.  The two differ only in
    the order of operations, by round-off that grows with the number of
    exponentials (about 4e-14 at 2,560 of them on this target), so they must
    agree within 1e-12."""
    from rydqubo.pipeline import default_schedule

    round_off = 1e-12
    enc, ground = preset_run("two_sat")
    sched = replace(default_schedule("two_sat", enc, t_total=8.0),
                    delta_coeffs=(0.1, 0.0), omega_coeffs=(3.0, 0.5),
                    sample_count=41)
    cfg = PropagationConfig(initial_steps=40)
    psi, traj = propagate(enc, sched, cfg, ground_indices=ground)
    calls = []

    def reference(*args):
        calls.append(args[3])
        return reference_run_steps(*args, cfm4=True)

    monkeypatch.setattr(annealer, "_run_steps", reference)
    psi_ref, traj_ref = propagate(enc, sched, cfg, ground_indices=ground)
    assert len(calls) > 2  # the adaptive loop doubled at least twice
    assert np.abs(psi - psi_ref).max() <= round_off
    for field in ("times", "omega", "delta_g"):
        assert (getattr(traj, field) == getattr(traj_ref, field)).all()
    assert np.abs(traj.energy - traj_ref.energy).max() <= \
        round_off * enc.energy_scale
    assert np.abs(traj.fidelity - traj_ref.fidelity).max() <= round_off
    assert abs(traj.norm_error - traj_ref.norm_error) <= round_off


def _start_pulse(name, noise_seed=None):
    """(target, schedule, ground indices) of the optimizer's seed-0 start
    pulse on a preset;
    with ``noise_seed``, plus the seed noise of 0.05 omega_max on all twelve
    coefficients that optimizer seeds drew before the noise was scaled per
    block."""
    from rydqubo.optimizer import AnnealObjective, initial_parameters
    from rydqubo.pipeline import default_schedule

    enc, ground = preset_run(name)
    obj = AnnealObjective(enc, default_schedule(name, enc))
    params = initial_parameters(obj.template, 0)
    if noise_seed is not None:
        params = params + np.random.default_rng(noise_seed).normal(
            scale=0.05 * obj.template.omega_max, size=params.size)
    return enc, obj.schedule_for(params), ground


def test_cfm4_and_midpoint_share_one_limit():
    """On every preset's start pulse the adaptive CFM4 E(T) agrees with the
    midpoint rule's Richardson limit (4 E(2N) - E(N)) / 3 at N = 1,600 within
    2e-9 of the energy scale (measured: at most 8e-10, on protein), a fifth
    of the adaptive tolerance."""
    for name in PRESET_NAMES:
        enc, sched, ground = _start_pulse(name)
        psi0 = _start_state(enc.n)
        e_n, e_2n = (reference_run_steps(enc, sched, psi0, n,
                                         ground)[1].energy[-1]
                     for n in (1600, 3200))
        limit = (4.0 * e_2n - e_n) / 3.0
        e_cfm4 = propagate(enc, sched, ground_indices=ground)[1].energy[-1]
        assert abs(e_cfm4 - limit) <= 2e-9 * enc.energy_scale, name


def test_cfm4_is_fourth_order():
    """Doubling the steps shrinks CFM4's |dE(T)| by 2^4 = 16 and the midpoint
    rule's by 2^2 = 4, on two_sat's start pulse at 200-1,600 steps, where
    the smallest CFM4 change (1e-10) is far above round-off."""
    enc, sched, ground = _start_pulse("two_sat")
    psi0 = _start_state(enc.n)
    for run, low, high in ((_run_steps, 10.0, 20.0),
                           (_midpoint_run, 3.5, 4.5)):
        energies = [run(enc, sched, psi0, n, ground)[1].energy[-1]
                    for n in (200, 400, 800, 1600)]
        changes = np.abs(np.diff(energies))
        ratios = changes[:-1] / changes[1:]
        assert ((low <= ratios) & (ratios <= high)).all(), (run, ratios)


@pytest.mark.parametrize("name, steps", [("qap", 12_800), ("clustering", 3_200)])
def test_adaptive_propagation_converges_where_midpoint_rule_could_not(
        monkeypatch, name, steps):
    """The midpoint rule's error fell only 4x per doubling on these seed-noise
    start pulses, so it raised AnnealerError after 204,800 steps; CFM4
    converges under the same 1e-8 tolerance, qap to the midpoint rule's
    Richardson limit 32.2595215."""
    enc, sched, ground = _start_pulse(name, noise_seed=1)
    calls = []

    def counting(*args):
        calls.append(args[3])
        return _run_steps(*args)

    monkeypatch.setattr(annealer, "_run_steps", counting)
    _, traj = propagate(enc, sched, ground_indices=ground)
    assert calls[-1] == steps
    assert traj.norm_error < 1e-9
    if name == "qap":
        assert traj.energy[-1] == pytest.approx(32.2595215, abs=1e-7)


def test_propagation_config_refuses_bad_input():
    """A NaN or negative tolerance used to run all ten doublings before
    AnnealerError named the tolerance, and initial_steps = -5 ran.  The
    objective and the gradient share the step check: energy_gradient ran 0,
    -5 and True and raised TypeError from linspace on 2.5."""
    from rydqubo.optimizer import AnnealObjective

    enc, sched = xor_pair_target(), Schedule(2.0, (0.1,), (1.0,))
    for bad in (float("nan"), float("inf"), -1.0, 0.0, "1e-8", True):
        with pytest.raises(ValueError):
            PropagationConfig(tolerance_rel=bad)
    for bad in (0, -5, 2.5, float("inf"), "200", True):
        with pytest.raises(ValueError):
            PropagationConfig(initial_steps=bad)
        with pytest.raises(ValueError):
            AnnealObjective(enc, sched, initial_steps=bad)
        with pytest.raises(ValueError):
            energy_gradient(enc, sched, bad)
    cfg = PropagationConfig(initial_steps=40.0, tolerance_rel=1)
    assert type(cfg.initial_steps) is int and type(cfg.tolerance_rel) is float
    assert type(AnnealObjective(enc, sched, 40.0).initial_steps) is int
    # every propagation is adaptive: there is no field to turn that off
    with pytest.raises(TypeError):
        PropagationConfig(adaptive=False)


# --- exact gradient ------------------------------------------------------------

def test_energy_gradient_zero_on_clipped_steps():
    """b_1 drives |Omega| past omega_max on about half the steps; the clipped
    steps must add nothing, or the gradient would miss central differences."""
    enc, _ = preset_run("qap")
    template = Schedule(6.0, (0.3, -0.2), (0.0, 0.0), omega_max=2.0,
                        sample_count=21)
    b = np.array([3.0, 0.4])
    mid = (np.arange(200) + 0.5) * 6.0 / 200
    unclipped = template.sine_table(mid)[1][:, :2] @ b
    clipped = np.abs(unclipped) > template.omega_max
    assert 0.3 < clipped.mean() < 0.7
    # away from the kink: no step sits within a finite-difference probe of it
    assert np.min(np.abs(np.abs(unclipped) - template.omega_max)) > 1e-4

    # the anneal runs in qap's six-cell quotient, so the value is the
    # full-basis reference's only to round-off
    assert len(_quotient(enc, _start_state(enc.n)).size) == \
        PRESET_CELLS["qap"]

    def energy(omega_coeffs):
        sched = replace(template, omega_coeffs=tuple(omega_coeffs))
        return float(reference_run_steps(enc, sched, _start_state(enc.n),
                                         200, [0])[1].energy[-1])

    value, grad = energy_gradient(enc, replace(template, omega_coeffs=tuple(b)),
                                  200)
    assert abs(value - energy(b)) <= 1e-12 * enc.energy_scale
    assert grad.shape == (4,)
    fd = central_differences(energy, b)
    assert np.linalg.norm(grad[2:] - fd) <= 1e-5 * np.linalg.norm(fd)


def test_energy_gradient_takes_its_steps_as_given():
    """Only ``propagate`` rounds a step count up to the sample grid: with 201
    samples, 50 objective steps are 50 midpoint steps, not 200."""
    enc, _ = preset_run("two_sat")
    sched = Schedule(4.0, (0.2, -0.1), (1.5, 0.4))
    assert sched.sample_count == 201
    value, grad = energy_gradient(enc, sched, 50)
    # the reference reads one sample per step; the samples do not touch E(T)
    _, ref = reference_run_steps(enc, replace(sched, sample_count=51),
                                 _start_state(enc.n), 50, [0])
    assert abs(value - ref.energy[-1]) <= 1e-12 * enc.energy_scale
    assert grad.shape == (4,)


def test_energy_gradient_refuses_non_finite():
    enc = EncodedTarget(1, np.zeros((1, 1)), np.array([1.0]), float("nan"))
    with pytest.raises(FloatingPointError):
        energy_gradient(enc, Schedule(2.0, (0.5,), (1.0,)))


def test_energy_gradient_across_block_boundaries(monkeypatch):
    """With one step per block, every overlap of the adjoint sweep is formed
    again from the block before's last eigenvectors.  On two_sat the
    gradient stays within 1e-3 of the fourth-order stencil.  On clustering
    and protein the value is the default blocks' bit for bit, and the
    gradient theirs within 1e-12 of its largest entry: the gradient is not
    bit-identical across block sizes, and differs there by under 1e-15."""
    defaults = {}
    for name in ("clustering", "protein"):
        enc, _ = preset_run(name)
        obj = AnnealObjective(enc, default_schedule(name, enc))
        params = initial_parameters(obj.template, 1)
        defaults[name] = obj, params, obj.value_and_gradient(params)
    monkeypatch.setattr(annealer, "BLOCK_BYTES", 1)

    enc, _ = preset_run("two_sat")
    obj = AnnealObjective(enc, Schedule(8.0, (0.0, 0.0), (0.0, 0.0),
                                        sample_count=21), initial_steps=40)
    rng = np.random.default_rng(3)
    for _ in range(3):
        p = rng.normal(scale=0.5, size=4)
        p[2] += 1.0
        oracle = stencil_gradient(objective_value(obj), p)
        grad = obj.value_and_gradient(p)[1]
        assert np.linalg.norm(grad - oracle) < 1e-3 * np.linalg.norm(oracle)

    for name, (obj, params, (value, grad)) in defaults.items():
        value_1, grad_1 = obj.value_and_gradient(params)
        assert value_1 == value, name
        assert np.abs(grad_1 - grad).max() <= 1e-12 * np.abs(grad).max(), name


def test_energy_gradient_keeps_no_overlaps():
    """The gradient stores each step's eigenvectors and coefficients and
    forms the overlaps again on the way back.  On a target without symmetry
    (m = 64) one call at 200 steps peaks below 10 MiB: the eigenvectors
    alone take 6.25 MiB, and with the overlaps stored as well the call
    peaked at 14.6 MiB."""
    enc = _random_target(np.random.default_rng(5), 6)
    assert len(_quotient(enc, _start_state(enc.n)).size) == 64
    sched = Schedule(4.0, (0.2, -0.1), (1.5, 0.4))
    tracemalloc.start()
    try:
        energy_gradient(enc, sched, 200)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2**20, peak
