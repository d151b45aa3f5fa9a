"""Time-dependent Rydberg Hamiltonian and exact state-vector propagation.

All detunings follow one global profile: Delta_j(t) = Delta_G(t) * Delta_j(T),
where Delta_G(T) = 1 and Omega(0) = Omega(T) = 0 hold exactly by construction
of the pulse basis.

Every step is a product of exact exponentials of the real-symmetric H, one
eigh each.  ``energy_gradient`` is the optimizer's objective and its exact
gradient; it takes midpoint steps, one exponential per step, of H at the
step midpoint.  That rule is second order, but a CFM4 objective and gradient
would take two eighs per step, and eigh is most of an optimizer pass.
``propagate`` scores an anneal, the final one included; it takes the two
exponentials per step of the fourth-order commutator-free Magnus integrator
CFM4, whose E(T) change falls 16x per step doubling against the midpoint
rule's 4x, and doubles the steps until E(T) converges.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar, Sequence

import numpy as np

from .encoding import EncodedTarget, HardwareLimits
from .models import _float, _int

DIM_CAP = 10  # atoms; 2^10 state-vector entries
MAX_DOUBLINGS = 10  # adaptive step doublings before AnnealerError
BLOCK_BYTES = 1 << 18  # bytes of stacked step Hamiltonians per eigh call

# CFM4 (Blanes & Moan 2006; Alvermann & Fehske, JCP 230, 5930, 2011): a step
# of dt is exp(-i dt (a1 H1 + a2 H2)) exp(-i dt (a2 H1 + a1 H2)), with H1, H2
# at the Gauss nodes t + (1/2 -+ sqrt(3)/6) dt and a1,2 = (3 -+ 2 sqrt(3))/12.
# H is affine in (Delta_G, Omega) and a1 + a2 = 1/2, so each exponential is
# of H at the node controls blended by the rows of _CFM4_WEIGHTS, over dt/2.
_CFM4_NODES = 0.5 + np.array([-1.0, 1.0]) * (math.sqrt(3.0) / 6.0)
_CFM4_WEIGHTS = 0.5 + np.array([[1.0, -1.0], [-1.0, 1.0]]) * (math.sqrt(3.0) / 3.0)


class AnnealerError(RuntimeError):
    pass


@dataclass(frozen=True)
class Schedule:
    """Pulse profiles over [0, T] in the one Fourier basis.

    Delta_G(t) = delta0*(1 - t/T) + t/T + sum_n a_n sin(n pi t/T) and
    Omega(t) = sum_n b_n sin(n pi t/T), clipped to |Omega| <= omega_max.
    """

    t_total: float
    delta_coeffs: tuple[float, ...]
    omega_coeffs: tuple[float, ...]
    delta0: float = -1.0
    omega_max: float = HardwareLimits.omega_max
    sample_count: int = 201

    def __post_init__(self):
        if not _float(self.t_total) > 0:
            raise ValueError("protocol duration must be positive")
        if not _float(self.omega_max) > 0:
            raise ValueError("omega_max must be positive")
        _float(self.delta0)  # refuses a string or a non-finite value
        object.__setattr__(self, "sample_count", _int(self.sample_count))
        if self.sample_count < 2:
            raise ValueError("sample_count must be at least 2")
        object.__setattr__(self, "delta_coeffs", tuple(map(_float, self.delta_coeffs)))
        object.__setattr__(self, "omega_coeffs", tuple(map(_float, self.omega_coeffs)))

    def sine_table(self, t) -> tuple[np.ndarray, np.ndarray]:
        """(tau, S): tau = t/T and S[..., n-1] = sin(n pi tau) for every mode
        n of either profile; S is dDelta_G/da_n and, where the clip is
        inactive, dOmega/db_n."""
        t = np.asarray(t, dtype=float)
        if np.any(t < -1e-12) or np.any(t > self.t_total + 1e-12):
            raise ValueError("time outside [0, T]")
        tau = np.clip(t, 0.0, self.t_total) / self.t_total
        modes = max(len(self.delta_coeffs), len(self.omega_coeffs))
        return tau, np.sin(np.multiply.outer(tau, np.arange(1, modes + 1) * math.pi))

    def profiles(self, t) -> tuple[np.ndarray, np.ndarray]:
        """(Delta_G(t), Omega(t)), each summed mode by mode from one sine table."""
        tau, sines = self.sine_table(t)
        delta_g = self.delta0 * (1.0 - tau) + tau
        for k, a in enumerate(self.delta_coeffs):
            delta_g = delta_g + a * sines[..., k]
        omega = np.zeros_like(tau)
        for k, b in enumerate(self.omega_coeffs):
            omega = omega + b * sines[..., k]
        return delta_g, np.clip(omega, -self.omega_max, self.omega_max)

    def to_dict(self) -> dict:
        return {"T_us": self.t_total, "basis": "fourier",
                "delta": {"coeffs": list(self.delta_coeffs), "delta0": self.delta0},
                "omega": {"coeffs": list(self.omega_coeffs),
                          "omega_max": self.omega_max},
                "sample_count": self.sample_count}

    @staticmethod
    def from_dict(data: dict) -> "Schedule":
        if data.get("basis", "fourier") != "fourier":
            raise ValueError(f"unknown basis {data['basis']!r}")
        return Schedule(_float(data["T_us"]),
                        tuple(data["delta"]["coeffs"]),
                        tuple(data["omega"]["coeffs"]),
                        _float(data["delta"].get("delta0", -1.0)),
                        _float(data["omega"].get("omega_max", Schedule.omega_max)),
                        _int(data.get("sample_count", 201)))


@dataclass(frozen=True)
class Trajectory:
    times: np.ndarray
    omega: np.ndarray
    delta_g: np.ndarray
    energy: np.ndarray     # <H_target> + encoding constant at each sample
    fidelity: np.ndarray
    norm_error: float      # worst | ||psi|| - 1 | seen at samples


def _initial_steps(value) -> int:
    """A step count read as an int, refusing one below 1."""
    steps = _int(value)
    if steps < 1:
        raise ValueError("initial_steps must be at least 1")
    return steps


@dataclass(frozen=True)
class PropagationConfig:
    initial_steps: int = 200
    tolerance_rel: float = 1e-8     # on E(T), relative to the target energy scale
    # not a field; bench/tracing.py reads it, and ROADMAP item 1 drops both
    adaptive: ClassVar[bool] = True

    def __post_init__(self):
        object.__setattr__(self, "initial_steps",
                           _initial_steps(self.initial_steps))
        object.__setattr__(self, "tolerance_rel", _float(self.tolerance_rel))
        if not self.tolerance_rel > 0:
            raise ValueError("tolerance_rel must be positive and finite")


def _pauli_x_total(n: int) -> np.ndarray:
    """sum_j X_j: entry (k ^ 2^j, k) is 1 for every state k and atom j."""
    states = np.arange(1 << n)[:, None]
    x = np.zeros((1 << n, 1 << n))
    x[states ^ (1 << np.arange(n)), states] = 1.0
    return x


def _check_cap(n: int) -> None:
    if n > DIM_CAP:
        raise AnnealerError(f"n={n} exceeds the propagation cap of {DIM_CAP} atoms")


def initial_basis_index(enc: EncodedTarget,
                        schedule: Schedule) -> tuple[int, int]:
    """(start index, number of tied minima) of the diagonal H(0).

    Among tied minima the anneal starts from |00..0> if it is one of them,
    the easy state to prepare, and otherwise from the lowest tied index.
    """
    _check_cap(enc.n)
    v_part, delta_part = enc.diagonal_parts
    diag0 = v_part - schedule.delta0 * delta_part
    tol = 1e-9 * enc.energy_scale
    minima = np.flatnonzero(diag0 <= diag0.min() + tol)
    return (0 if 0 in minima else int(minima[0])), len(minima)


def _start_state(enc: EncodedTarget, schedule: Schedule) -> np.ndarray:
    """The basis state ``initial_basis_index`` picks, as a state vector."""
    psi0 = np.zeros(1 << enc.n, dtype=complex)
    psi0[initial_basis_index(enc, schedule)[0]] = 1.0
    return psi0


def _step_grid(schedule: Schedule, n_steps: int) -> tuple[np.ndarray, np.ndarray]:
    """(grid times t_0..t_N, step midpoints) of n_steps equal steps."""
    t_grid = np.linspace(0.0, schedule.t_total, n_steps + 1)
    return t_grid, 0.5 * (t_grid[:-1] + t_grid[1:])


def _exponentials(schedule: Schedule, n_steps: int, cfm4: bool = False
                  ) -> tuple[np.ndarray, np.ndarray, float]:
    """(Delta_G, Omega, duration) of each exponential of n_steps equal steps.

    The midpoint rule takes one exponential per step, of H at the step
    midpoint over dt.  CFM4 takes two per step, each over dt/2, of H at the
    controls of the two Gauss nodes blended by one row of _CFM4_WEIGHTS.
    """
    t_grid, mid = _step_grid(schedule, n_steps)
    dt = schedule.t_total / n_steps
    if not cfm4:
        return (*schedule.profiles(mid), dt)
    nodes = schedule.profiles(t_grid[:-1, None] + _CFM4_NODES * dt)
    return (*((p @ _CFM4_WEIGHTS).ravel() for p in nodes), 0.5 * dt)


def _sweep(enc: EncodedTarget, psi: np.ndarray, delta_g: np.ndarray,
           omega: np.ndarray, dt: float, x_total: np.ndarray):
    """Apply exp(-i dt H(delta_g[k], omega[k])) for k = 0, 1, ... in turn.

    Each exponential comes from an eigendecomposition of the real-symmetric
    H, so the norm is preserved to round-off.  The Hamiltonians are
    decomposed in stacked blocks of at most BLOCK_BYTES.  Yields, per block,
    (lo, evals, evecs, states): the eigen-pairs of exponentials lo, lo + 1,
    ... and states[k], the state before exponential lo + k, whose last row is
    the state after the block.
    """
    v_part, delta_part = enc.diagonal_parts
    psi = psi.astype(complex)
    diag = np.arange(len(psi))
    block = max(1, BLOCK_BYTES // x_total.nbytes)
    for lo in range(0, len(delta_g), block):
        hi = min(lo + block, len(delta_g))
        h = (omega[lo:hi, None, None] / 2.0) * x_total
        h[:, diag, diag] += v_part - delta_g[lo:hi, None] * delta_part
        evals, evecs = np.linalg.eigh(h)
        phase = np.exp(-1j * evals * dt)
        states = np.empty((hi - lo + 1, len(psi)), dtype=complex)
        states[0] = psi
        for k in range(hi - lo):
            psi = evecs[k] @ (phase[k] * (evecs[k].T @ psi))
            states[k + 1] = psi
        yield lo, evals, evecs, states


def _run_steps(enc: EncodedTarget, schedule: Schedule, psi0: np.ndarray,
               n_steps: int, ground_indices: Sequence[int],
               x_total: np.ndarray) -> tuple[np.ndarray, Trajectory]:
    """``_sweep`` over n_steps CFM4 steps, read at every stride-th state,
    stride = exponentials / (sample_count - 1): returns the final state and
    the trajectory at those grid times.  n_steps must be a multiple of
    sample_count - 1, as ``propagate`` makes it and doubling keeps it."""
    intervals = schedule.sample_count - 1
    delta_g, omega, dt = _exponentials(schedule, n_steps, cfm4=True)
    stride = len(delta_g) // intervals
    snaps = []
    for lo, _, _, states in _sweep(enc, psi0, delta_g, omega, dt, x_total):
        # a block's last row is the next block's first; copies free the block
        snaps.append(states[-lo % stride:-1:stride].copy())

    target = enc.diagonal_energies()
    probs = np.abs(np.concatenate([*snaps, states[-1:]])) ** 2
    energy = np.array([row @ target for row in probs]) + enc.constant
    fids = probs[:, list(ground_indices)].sum(axis=1)
    norm_err = np.abs(np.sqrt(probs.sum(axis=1)) - 1.0)
    times = _step_grid(schedule, n_steps)[0][::n_steps // intervals]
    delta_g, omega = schedule.profiles(times)
    return states[-1], Trajectory(times, omega, delta_g, energy, fids,
                                  float(norm_err.max()))


def energy_gradient(enc: EncodedTarget, schedule: Schedule,
                    initial_steps: int = 200) -> tuple[float, np.ndarray]:
    """(E(T), dE/d(delta_coeffs, omega_coeffs)) of the midpoint-rule anneal.

    The anneal takes ``initial_steps`` steps, as given, from the state
    ``initial_basis_index`` picks, and the gradient is the exact gradient of
    that discretized E(T) (GRAPE, Khaneja et al., JMR 172, 296, 2005).  One
    forward sweep keeps each step's eigen-pairs H_k = V diag(lambda) V^T,
    which costs n_steps * 4^n * 8 bytes; an adjoint sweep runs back from
    lam_N = D psi_N by lam_k = U_k^dag lam_{k+1}.  The sensitivity of step k
    to a parameter theta of H_k is 2 Re[a^H (Gamma o V^T dH/dtheta V) b]
    with a = V^T lam_{k+1}, b = V^T psi_k and the eigenbasis Frechet
    derivative of exp(-i dt H) (de Fouquieres et al., JMR 212, 412, 2011)
    Gamma_jl = -i dt exp(-i dt (lambda_j + lambda_l)/2)
    sinc(dt (lambda_j - lambda_l)/2), which stays finite at degenerate
    eigenvalues.  dH/dOmega = X_total/2 and dH/dDelta_G = -diag(delta); the
    coefficient gradients are S^T times these sensitivities, with S the sine
    table, and the Omega gradient is zero on steps where the clip is active.
    A non-finite value or gradient raises FloatingPointError.
    """
    _check_cap(enc.n)
    x_total = _pauli_x_total(enc.n)
    n_steps = _initial_steps(initial_steps)
    _, omega, dt = controls = _exponentials(schedule, n_steps)
    _, delta_part = enc.diagonal_parts
    target = enc.diagonal_energies()
    blocks = list(_sweep(enc, _start_state(enc, schedule), *controls, x_total))
    psi = blocks[-1][3][-1]
    energy = float(np.abs(psi) ** 2 @ target + enc.constant)

    # dE/dDelta_G and dE/dOmega at each step midpoint
    sens = np.empty((2, n_steps))
    lam = target * psi
    for lo, evals, evecs, states in reversed(blocks):
        vt = evecs.transpose(0, 2, 1)
        b = (vt @ states[:-1, :, None])[..., 0]
        a = np.empty_like(b)
        back = np.exp(1j * evals * dt)
        for k in reversed(range(len(b))):
            a[k] = vt[k] @ lam
            lam = evecs[k] @ (back[k] * a[k])
        # the sensitivity is 2 sum_pq (dH/dtheta)_pq (V R V^T)_pq with
        # R_jl = Re[conj(a_j) Gamma_jl b_l] = dt sinc_jl Im[conj(a_j) p_j p_l b_l]
        # and p = exp(-i dt lambda / 2)
        half = np.exp(-0.5j * dt * evals)
        sinc = np.sinc((0.5 * dt / math.pi)
                       * (evals[:, :, None] - evals[:, None, :]))
        r = dt * sinc * ((a.conj() * half)[:, :, None]
                         * (half * b)[:, None, :]).imag
        vr = evecs @ r
        # dH/dDelta_G = -diag(delta), dH/dOmega = X_total / 2
        sens[0, lo:lo + len(b)] = -2.0 * (vr * evecs).sum(axis=2) @ delta_part
        sens[1, lo:lo + len(b)] = (vr * (x_total @ evecs)).sum(axis=(1, 2))

    _, sines = schedule.sine_table(_step_grid(schedule, n_steps)[1])
    sens[1] *= np.abs(omega) < schedule.omega_max
    grad = np.concatenate((sines[:, :len(schedule.delta_coeffs)].T @ sens[0],
                           sines[:, :len(schedule.omega_coeffs)].T @ sens[1]))
    if not (math.isfinite(energy) and np.isfinite(grad).all()):
        raise FloatingPointError("non-finite objective or gradient")
    return energy, grad


def propagate(enc: EncodedTarget, schedule: Schedule,
              cfg: PropagationConfig = PropagationConfig(), *,
              ground_indices: Sequence[int],
              psi0: np.ndarray | None = None) -> tuple[np.ndarray, Trajectory]:
    """Solve i dpsi/dt = H(t) psi with CFM4 steps.

    The run starts at ``initial_steps`` rounded up to a multiple of the
    sample intervals and doubles the step count until E(T) moves by less
    than ``tolerance_rel`` times the energy scale, at most MAX_DOUBLINGS
    times.  F sums the probability of the basis states ``ground_indices``.
    Without ``psi0`` the anneal starts from the basis state that
    ``initial_basis_index`` picks.
    """
    _check_cap(enc.n)
    x_total = _pauli_x_total(enc.n)
    if psi0 is None:
        psi0 = _start_state(enc, schedule)

    tol = cfg.tolerance_rel * enc.energy_scale
    intervals = schedule.sample_count - 1
    n_steps = intervals * -(-cfg.initial_steps // intervals)
    e_prev = math.inf
    for _ in range(1 + MAX_DOUBLINGS):
        psi, traj = _run_steps(enc, schedule, psi0, n_steps, ground_indices,
                               x_total)
        if abs(traj.energy[-1] - e_prev) < tol:
            return psi, traj
        e_prev, n_steps = traj.energy[-1], 2 * n_steps
    raise AnnealerError(f"E(T) not converged to {cfg.tolerance_rel} after "
                        f"{MAX_DOUBLINGS} step doublings")
