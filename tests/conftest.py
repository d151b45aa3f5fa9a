import math
from fractions import Fraction

import numpy as np
import pytest

from rydqubo.annealer import Trajectory
from rydqubo.models import (IsingModel, QuboModel, as_ising,
                            enumerate_spectrum)
from rydqubo.pipeline import encode_for_annealing
from rydqubo.problems import PRESET_NAMES, preset_instance

# A QUBO whose diagonal H(0) minimum is tied for every default Delta_G(0)
# candidate without |00..0> among the ties, so its default schedule is the
# fallback Delta_G(0) = -1: six states tie there, and the anneal starts from
# index 6, the lowest of them.
TIED_START_MODEL = {"n": 5, "linear": [-2, -2, 2, -2, 0],
                    "quadratic": [[0, 3, -2], [1, 3, 1]]}


def source_optimum(model) -> dict:
    """The ground indices, C_opt and C_max that ``run_pipeline`` passes
    ``run_hybrid`` for ``model``."""
    spectrum = enumerate_spectrum(model)
    return {"ground_indices":
            encode_for_annealing(model).ground_indices(spectrum),
            "c_opt": spectrum.e_min, "c_max": spectrum.e_max}


def preset_run(name):
    """(encoded target, ground indices) of a preset, as ``run_pipeline``
    encodes it and scores its fidelity."""
    model = preset_instance(name).model
    return (encode_for_annealing(model).target,
            source_optimum(model)["ground_indices"])


def random_qubo(rng: np.random.Generator, n: int) -> QuboModel:
    linear = tuple(rng.normal(size=n))
    quad = {(i, j): float(rng.normal())
            for i in range(n) for j in range(i + 1, n)
            if rng.random() < 0.7}
    return QuboModel(n, linear, quad, float(rng.normal()))


def random_antiferro_ising(rng: np.random.Generator, n: int) -> IsingModel:
    h = tuple(rng.normal(size=n))
    j = {(i, j): float(rng.uniform(0.0, 2.0))
         for i in range(n) for j in range(i + 1, n)
         if rng.random() < 0.7}
    return IsingModel(n, h, j, float(rng.normal()))


def random_integer_qubo(rng: np.random.Generator, n: int) -> QuboModel:
    """Small integer coefficients, so that many energies are exactly equal."""
    return QuboModel(n, tuple(float(a) for a in rng.integers(-3, 4, size=n)),
                     {(i, j): float(rng.integers(-3, 4))
                      for i in range(n) for j in range(i + 1, n)},
                     float(rng.integers(-3, 4)))


def exact_energies(model) -> np.ndarray:
    """Energy of every bit pattern: ``evaluate``'s terms summed exactly, then
    rounded once to a float.  Every float is an integer over a power of two,
    so the sums run in integers over the largest of those denominators."""
    coeffs = [Fraction(c) for c in (model.constant, *model.linear,
                                    *model.quadratic.values())]
    den = max(c.denominator for c in coeffs)
    const, *rest = [c.numerator * (den // c.denominator) for c in coeffs]
    linear, quad = rest[:model.n], list(zip(model.quadratic, rest[model.n:]))
    v0, v1 = (int(x) for x in model.values(np.array([0.0, 1.0])))
    out = []
    for k in range(1 << model.n):
        v = [v1 if k >> i & 1 else v0 for i in range(model.n)]
        out.append(float(Fraction(
            const + sum(a * vi for a, vi in zip(linear, v))
            + sum(b * v[i] * v[j] for (i, j), b in quad), den)))
    return np.array(out)


def level_tolerance(m):
    """8 n eps L1, with L1 the sum of the coefficients' magnitudes; where L1
    overflows a float, the product is taken exactly and rounded once."""
    l1 = (abs(m.constant) + sum(abs(a) for a in m.linear)
          + sum(abs(b) for b in m.quadratic.values()))
    if math.isinf(l1):
        coeffs = (m.constant, *m.linear, *m.quadratic.values())
        return float(8 * m.n * Fraction(np.finfo(float).eps)
                     * sum(abs(Fraction(c)) for c in coeffs))
    return 8 * m.n * np.finfo(float).eps * l1


def spectrum_cases(rng: np.random.Generator):
    """Every preset in both conventions, then random float and integer QUBOs
    with n = 1-8."""
    for name in PRESET_NAMES:
        model = preset_instance(name).model
        yield model
        yield as_ising(model)
    for n in range(1, 9):
        yield random_qubo(rng, n)
        yield random_integer_qubo(rng, n)


def central_differences(f, params, h=1e-6):
    """Second-order central differences with one absolute step h."""
    params = np.asarray(params, dtype=float)
    grad = np.empty_like(params)
    for i in range(params.size):
        up, dn = params.copy(), params.copy()
        up[i] += h
        dn[i] -= h
        grad[i] = (f(up) - f(dn)) / (2.0 * h)
    return grad


def objective_value(objective):
    """The E(T) of an ``AnnealObjective`` as a function of its parameters."""
    return lambda params: objective.value_and_gradient(params)[0]


def stencil_gradient(f, params, rel_step=1e-3):
    """Five-point (fourth-order) central stencil with per-coordinate step
    h_i = rel_step * (1 + |p_i|)."""
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


def reference_run_steps(enc, schedule, psi0, n_steps, ground_indices,
                        x_total, cfm4=False):
    """One eigh per exponential: the loop the stacked blocks replaced.

    The midpoint rule takes exp(-i dt H) of H at each step midpoint.  CFM4
    builds H1 and H2 at the Gauss nodes t + (1/2 -+ sqrt(3)/6) dt and takes
    exp(-i dt (a2 H1 + a1 H2)), then exp(-i dt (a1 H1 + a2 H2)), with
    a1,2 = (3 -+ 2 sqrt(3))/12.  Returns the final state and the trajectory
    at every stride-th grid time, as ``_run_steps`` does.
    """
    t_grid = np.linspace(0.0, schedule.t_total, n_steps + 1)
    mid = 0.5 * (t_grid[:-1] + t_grid[1:])
    dg, om = schedule.profiles(mid)
    dt = schedule.t_total / n_steps
    v_part, delta_part = enc.diagonal_parts
    stride = n_steps // (schedule.sample_count - 1)
    psi = psi0.astype(complex).copy()
    states = [psi]
    nodes = 0.5 + np.array([-1.0, 1.0]) * math.sqrt(3.0) / 6.0
    a1, a2 = (3.0 - 2.0 * math.sqrt(3.0)) / 12.0, (3.0 + 2.0 * math.sqrt(3.0)) / 12.0

    def hamiltonian(delta_g, omega):
        h = (omega / 2.0) * x_total
        h[np.diag_indices_from(h)] += v_part - delta_g * delta_part
        return h

    for step in range(n_steps):
        if cfm4:
            h1, h2 = (hamiltonian(*schedule.profiles(t_grid[step] + c * dt))
                      for c in nodes)
            exponents = (a2 * h1 + a1 * h2, a1 * h1 + a2 * h2)
        else:
            exponents = (hamiltonian(dg[step], om[step]),)
        for h in exponents:
            evals, evecs = np.linalg.eigh(h)
            psi = evecs @ (np.exp(-1j * evals * dt) * (evecs.conj().T @ psi))
        if (step + 1) % stride == 0:
            states.append(psi)
    return psi, trajectory_of(enc, schedule, states, ground_indices,
                              t_grid[::stride])


def trajectory_of(enc, schedule, states, ground_indices, times):
    """The trajectory of the given states at the given times, one state at a
    time."""
    target = enc.diagonal_energies()
    records = []
    for psi in states:
        probs = np.abs(psi) ** 2
        records.append((float(probs @ target) + enc.constant,
                        float(probs[list(ground_indices)].sum()),
                        abs(math.sqrt(float(probs.sum())) - 1.0)))
    e, f, nrm = (np.array(column) for column in zip(*records))
    delta_g, omega = schedule.profiles(times)
    return Trajectory(times, omega, delta_g, e, f, float(nrm.max()))


@pytest.fixture
def rng():
    return np.random.default_rng(7)
