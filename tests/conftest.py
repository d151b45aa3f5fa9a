import itertools
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from rydqubo.annealer import Trajectory
from rydqubo.encoding import EncodedTarget
from rydqubo.models import (IsingModel, QuboModel, as_ising,
                            enumerate_spectrum)
from rydqubo.pipeline import encode_for_annealing
from rydqubo.problems import PRESET_NAMES, preset_instance

# A QUBO for which V - Delta_G(0) sum_j Delta_j(T) x_j, H(0)'s diagonal
# without the uniform detuning term, has tied minima without |00..0> among
# them at each Delta_G(0) in {-4, -2, -1, -0.5, 0.5, 2, 4}; at -1 six states
# tie, the lowest index 6.  With the term, |00..0> is the unique minimum.
TIED_START_MODEL = {"n": 5, "linear": [-2, -2, 2, -2, 0],
                    "quadratic": [[0, 3, -2], [1, 3, 1]]}

# The basis dimension of each preset's anneal: the cells of its start
# state's quotient, which are the orbits of the basis states under the atom
# permutations that keep V, the detunings and the start state.
PRESET_CELLS = {"two_sat": 8, "xor_sat": 4, "mixed": 8, "set_packing": 6,
                "qap": 6, "clustering": 32, "protein": 30}

# Integer-valued targets with a planted atom permutation: (n, permutation,
# start index), where start None is a superposition that the permutation
# keeps.  The starts 1 and 0b100001 keep only part of the symmetry.
PLANTED = {"planted-3cycle": (3, (1, 2, 0), 0),
           "planted-swaps": (4, (1, 0, 3, 2), 0),
           "planted-swaps-superposition": (4, (1, 0, 3, 2), None),
           "planted-mirror": (5, (4, 3, 2, 1, 0), 0),
           "planted-ring": (6, (1, 2, 3, 4, 5, 0), 1),
           "planted-mirror-start": (6, (5, 4, 3, 2, 1, 0), 0b100001)}


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


def pauli_x_total(n):
    """sum_j X_j on the full basis, one entry (k ^ 2^j, k) at a time."""
    x = np.zeros((1 << n, 1 << n))
    for k in range(1 << n):
        for j in range(n):
            x[k ^ (1 << j), k] += 1.0
    return x


def planted_target(name):
    """(target, start state) of a PLANTED case: V takes the value k on the
    k-th orbit of atom pairs under the permutation, and the detunings the
    value k or -k, by parity, on the k-th orbit of atoms."""
    n, perm, start = PLANTED[name]
    v, delta = np.zeros((n, n)), np.zeros(n)
    orbits = 0
    for pair in itertools.combinations(range(n), 2):
        orbits += v[pair] == 0
        while v[pair] == 0:
            v[pair] = v[pair[::-1]] = orbits
            pair = perm[pair[0]], perm[pair[1]]
    orbits = 0
    for atom in range(n):
        orbits += delta[atom] == 0
        while delta[atom] == 0:
            delta[atom] = orbits * (-1) ** orbits
            atom = perm[atom]
    psi0 = np.zeros(1 << n, dtype=complex)
    if start is None:
        image = [sum((k >> i & 1) << perm[i] for i in range(n))
                 for k in range(1 << n)]
        rng = np.random.default_rng(n)
        psi0 = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
        psi0 = psi0 + psi0[image]
        psi0 /= np.linalg.norm(psi0)
    else:
        psi0[start] = 1.0
    return EncodedTarget(n, v, delta, 0.5), psi0


def orbit_count(enc, psi0):
    """Orbits of the basis states under every atom permutation that keeps V,
    the detunings and psi0, by brute force over all n! permutations."""
    n = enc.n
    images = []
    for perm in map(list, itertools.permutations(range(n))):
        image = np.array([sum((k >> i & 1) << perm[i] for i in range(n))
                          for k in range(1 << n)])
        if ((enc.v[np.ix_(perm, perm)] == enc.v).all()
                and (enc.delta_final[perm] == enc.delta_final).all()
                and (psi0[image] == psi0).all()):
            images.append(image)
    orbit = np.full(1 << n, -1)
    for k in range(1 << n):
        if orbit[k] < 0:
            for image in images:
                orbit[image[k]] = k
    return len(np.unique(orbit))


def uniform_term(enc):
    """s count(x) for every pattern x: the diagonal of the uniform detuning
    term -s (1 - t/T) at t = 0, with count(x) the number of excited atoms
    and s the target's largest |V_jk| or |Delta_j|."""
    s = max(np.abs(enc.v).max(initial=0.0),
            np.abs(enc.delta_final).max(initial=0.0))
    return s * np.array([bin(k).count("1") for k in range(1 << enc.n)],
                        dtype=float)


def start_diagonal(enc, schedule):
    """The diagonal of H(0): V(x) - Delta_G(0) sum_j Delta_j(T) x_j
    + s count(x)."""
    v_part, delta_part = enc.diagonal_parts
    return (v_part - schedule.profiles(0.0)[0] * delta_part
            + uniform_term(enc))


def reference_run_steps(enc, schedule, psi0, n_steps, ground_indices,
                        cfm4=False):
    """One eigh per exponential on the full basis: the loop the stacked
    blocks replaced.  H(t) has the diagonal V(x) - Delta_G(t) sum_j
    Delta_j(T) x_j + (1 - t/T) s count(x), built here from ``uniform_term``.

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
    uniform = uniform_term(enc)
    x_total = pauli_x_total(enc.n)
    stride = n_steps // (schedule.sample_count - 1)
    psi = psi0.astype(complex).copy()
    states = [psi]
    nodes = 0.5 + np.array([-1.0, 1.0]) * math.sqrt(3.0) / 6.0
    a1, a2 = (3.0 - 2.0 * math.sqrt(3.0)) / 12.0, (3.0 + 2.0 * math.sqrt(3.0)) / 12.0

    def hamiltonian(delta_g, omega, t):
        h = (omega / 2.0) * x_total
        h[np.diag_indices_from(h)] += (v_part - delta_g * delta_part
                                       + (1.0 - t / schedule.t_total) * uniform)
        return h

    for step in range(n_steps):
        if cfm4:
            times = (t_grid[step] + c * dt for c in nodes)
            h1, h2 = (hamiltonian(*schedule.profiles(t), t) for t in times)
            exponents = (a2 * h1 + a1 * h2, a1 * h1 + a2 * h2)
        else:
            exponents = (hamiltonian(dg[step], om[step], mid[step]),)
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


def outputs_on_blas_threads(script: str) -> list[str]:
    """The stdout of ``script`` run in a fresh interpreter on 1 and on 2
    OpenBLAS threads, importing rydqubo from this checkout."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=src)
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, check=True,
                              timeout=300)
        outputs.append(proc.stdout)
    return outputs


@pytest.fixture
def rng():
    return np.random.default_rng(7)
