import math
from dataclasses import replace

import numpy as np
import pytest

from rydqubo import annealer
from rydqubo.annealer import (BLOCK_BYTES, DIM_CAP, AnnealerError,
                              PropagationConfig, Schedule, _exponentials,
                              _pauli_x_total, _run_steps, _start_state,
                              _sweep, energy_gradient, initial_basis_index,
                              propagate)
from rydqubo.encoding import EncodedTarget, encode
from rydqubo.models import IsingModel

from conftest import (central_differences, preset_run, reference_run_steps,
                      trajectory_of)


def xor_pair_target():
    return encode(IsingModel(2, (0.0, 0.0), {(0, 1): 0.5}, 0.5))


def single_atom(delta=0.0):
    return EncodedTarget(1, np.zeros((1, 1)), np.array([delta]), 0.0)


# --- schedules ---------------------------------------------------------------

def test_schedule_boundary_conditions():
    s = Schedule(10.0, (0.3, -0.2, 0.1), (1.0, 0.5), delta0=-1.0)
    delta_g, omega = s.profiles(np.array([0.0, 10.0]))
    np.testing.assert_allclose(delta_g, [-1.0, 1.0], atol=1e-12)
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
                       {"delta0": bad}, {"t_total": bad},
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
    s = Schedule(25.0, (0.1, 0.2), (0.3,), delta0=-2.0, omega_max=7.0,
                 sample_count=101)
    data = s.to_dict()
    assert data["basis"] == "fourier"
    assert Schedule.from_dict(data) == s
    del data["basis"]
    assert Schedule.from_dict(data) == s


def _reference_profiles(schedule, t):
    """The per-mode loops ``profiles`` replaced, one per profile."""
    tau = np.clip(np.asarray(t, dtype=float), 0.0, schedule.t_total) / schedule.t_total
    delta_g = schedule.delta0 * (1.0 - tau) + tau
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
                         delta0=float(rng.uniform(-4.0, 4.0)),
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
        assert delta_g == sched.delta0 and omega == 0.0
    # the draws cover empty and unequal coefficient lists
    assert any(0 in c for c in counts) and any(a != b for a, b in counts)


# --- target structure --------------------------------------------------------

def test_dim_cap_enforced():
    n = DIM_CAP + 1
    enc = EncodedTarget(n, np.zeros((n, n)), np.zeros(n), 0.0)
    with pytest.raises(AnnealerError):
        propagate(enc, Schedule(1.0, (), (1.0,)), ground_indices=[0])


def test_pauli_x_total_matches_per_entry_loop():
    """The scatter gives the bytes of the state-by-atom loop it replaced."""
    for n in range(DIM_CAP + 1):
        want = np.zeros((1 << n, 1 << n))
        for k in range(1 << n):
            for j in range(n):
                want[k ^ (1 << j), k] += 1.0
        assert _pauli_x_total(n).tobytes() == want.tobytes()


# --- initial state -----------------------------------------------------------

def test_initial_state_unique_minimum():
    enc = single_atom(delta=1.0)
    sched = Schedule(1.0, (), (), delta0=-1.0)
    # H(0) diagonal = +delta * n_j, so |0> is the unique minimum
    assert initial_basis_index(enc, sched) == (0, 1)


def test_initial_state_degenerate_starts_from_ground_atoms():
    enc = single_atom(delta=0.0)
    sched = Schedule(1.0, (), (), delta0=-1.0)
    assert initial_basis_index(enc, sched) == (0, 2)


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
    psi, traj = propagate(enc, sched, ground_indices=[1, 2])
    assert traj.fidelity[-1] > 0.99
    assert traj.norm_error < 1e-9
    # encoded energy maps back to the source convention
    assert enc.source_energy(traj.energy[-1] - enc.constant) == \
        pytest.approx(traj.energy[-1])


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
        sched = Schedule(5.0, (), (1.0,), delta0=-1.0, sample_count=11)
        psi0 = np.zeros(1 << enc.n, dtype=complex)
        psi0[0] = 1.0
        psi, traj = propagate(enc, sched, ground_indices=ground, psi0=psi0)
        assert traj.norm_error < 1e-9
        assert np.isfinite(traj.energy).all()


# --- blocked propagation against the per-step reference ----------------------

def _midpoint_run(enc, schedule, psi0, n_steps, ground_indices, x_total):
    """``_sweep`` over the midpoint exponentials that ``energy_gradient``
    takes, read at the reference's grid times by the reference's own
    readout: the final state and the trajectory."""
    states = [psi0]
    for _, _, _, block in _sweep(enc, psi0, *_exponentials(schedule, n_steps),
                                 x_total):
        states.extend(block[1:])
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


def _assert_runs_identical(enc, schedule, psi0, n_steps, ground):
    x_total = _pauli_x_total(enc.n)
    args = (enc, schedule, psi0, n_steps, ground, x_total)
    (psi, traj), (psi_ref, traj_ref) = (_midpoint_run(*args),
                                        reference_run_steps(*args))
    assert (psi == psi_ref).all()
    _assert_trajectories_identical(traj, traj_ref)


def _random_target(rng, n):
    v = np.triu(rng.uniform(0.0, 2.0, size=(n, n)), 1)
    return EncodedTarget(n, v + v.T, rng.uniform(0.5, 2.0, size=n), 0.3)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_blocked_steps_bit_identical_to_per_step_loop(n, rng):
    enc = _random_target(rng, n)
    sched = Schedule(3.0, (0.2, -0.1), (1.5, 0.4), sample_count=21)
    psi0 = np.zeros(1 << n, dtype=complex)
    psi0[0] = 1.0
    _assert_runs_identical(enc, sched, psi0, 200, [1])


def test_blocked_steps_bit_identical_across_blocks():
    enc, ground = preset_run("clustering")
    assert enc.n == 5
    # three full blocks and a partial one, on a multiple of the 10 intervals
    n_steps = 3 * (BLOCK_BYTES // (8 * 32 * 32)) + 14
    sched = Schedule(4.0, (0.3,), (2.0, -0.5), sample_count=11)
    psi0 = np.zeros(32, dtype=complex)
    psi0[0] = 1.0
    _assert_runs_identical(enc, sched, psi0, n_steps, ground)


def test_blocked_steps_bit_identical_superposition_start(rng):
    enc = _random_target(rng, 4)
    sched = Schedule(2.5, (-0.2,), (0.8, 0.3), sample_count=26)
    psi0 = rng.normal(size=16) + 1j * rng.normal(size=16)
    psi0 /= np.linalg.norm(psi0)
    _assert_runs_identical(enc, sched, psi0, 150, [0, 3, 9])


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
    from rydqubo.problems import PRESET_NAMES

    for name in PRESET_NAMES:
        enc, sched, ground = _start_pulse(name)
        psi0, x_total = _start_state(enc, sched), _pauli_x_total(enc.n)
        e_n, e_2n = (reference_run_steps(enc, sched, psi0, n, ground,
                                         x_total)[1].energy[-1]
                     for n in (1600, 3200))
        limit = (4.0 * e_2n - e_n) / 3.0
        e_cfm4 = propagate(enc, sched, ground_indices=ground)[1].energy[-1]
        assert abs(e_cfm4 - limit) <= 2e-9 * enc.energy_scale, name


def test_cfm4_is_fourth_order():
    """Doubling the steps shrinks CFM4's |dE(T)| by 2^4 = 16 and the midpoint
    rule's by 2^2 = 4, on two_sat's start pulse at 200-1,600 steps, where
    the smallest CFM4 change (1e-10) is far above round-off."""
    enc, sched, ground = _start_pulse("two_sat")
    psi0, x_total = _start_state(enc, sched), _pauli_x_total(enc.n)
    for run, low, high in ((_run_steps, 10.0, 20.0),
                           (_midpoint_run, 3.5, 4.5)):
        energies = [run(enc, sched, psi0, n, ground, x_total)[1].energy[-1]
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

    x_total = _pauli_x_total(enc.n)

    def energy(omega_coeffs):
        sched = replace(template, omega_coeffs=tuple(omega_coeffs))
        return float(reference_run_steps(enc, sched, _start_state(enc, sched),
                                         200, [0], x_total)[1].energy[-1])

    value, grad = energy_gradient(enc, replace(template, omega_coeffs=tuple(b)),
                                  200)
    assert value == energy(b)
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
                                 _start_state(enc, sched), 50, [0],
                                 _pauli_x_total(enc.n))
    assert value == ref.energy[-1]
    assert grad.shape == (4,)


def test_energy_gradient_refuses_non_finite():
    enc = EncodedTarget(1, np.zeros((1, 1)), np.array([1.0]), float("nan"))
    with pytest.raises(FloatingPointError):
        energy_gradient(enc, Schedule(2.0, (0.5,), (1.0,)))
