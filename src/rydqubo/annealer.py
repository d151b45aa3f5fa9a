"""Time-dependent Rydberg Hamiltonian and exact state-vector propagation.

All detunings follow one global profile: Delta_j(t) = Delta_G(t) * Delta_j(T),
where Delta_G(T) = 1 and Omega(0) = Omega(T) = 0 hold exactly by construction
of the pulse basis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .encoding import EncodedTarget, HardwareLimits

DIM_CAP = 10  # atoms; 2^10 state-vector entries
MAX_DOUBLINGS = 10  # adaptive step doublings before AnnealerError
BLOCK_BYTES = 1 << 18  # bytes of stacked step Hamiltonians per eigh call


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
        if self.t_total <= 0:
            raise ValueError("protocol duration must be positive")
        if self.sample_count < 2:
            raise ValueError("sample_count must be at least 2")
        object.__setattr__(self, "delta_coeffs", tuple(float(c) for c in self.delta_coeffs))
        object.__setattr__(self, "omega_coeffs", tuple(float(c) for c in self.omega_coeffs))

    def profiles(self, t) -> tuple[np.ndarray, np.ndarray]:
        """(Delta_G(t), Omega(t)), each summed mode by mode from one sine table."""
        t = np.asarray(t, dtype=float)
        if np.any(t < -1e-12) or np.any(t > self.t_total + 1e-12):
            raise ValueError("time outside [0, T]")
        tau = np.clip(t, 0.0, self.t_total) / self.t_total
        modes = max(len(self.delta_coeffs), len(self.omega_coeffs))
        sines = np.sin(np.multiply.outer(tau, np.arange(1, modes + 1) * math.pi))
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
        return Schedule(float(data["T_us"]),
                        tuple(data["delta"]["coeffs"]),
                        tuple(data["omega"]["coeffs"]),
                        float(data["delta"].get("delta0", -1.0)),
                        float(data["omega"].get("omega_max", Schedule.omega_max)),
                        int(data.get("sample_count", 201)))


@dataclass(frozen=True)
class Trajectory:
    times: np.ndarray
    omega: np.ndarray
    delta_g: np.ndarray
    energy: np.ndarray     # <H_target> + encoding constant at each sample
    fidelity: np.ndarray
    norm_error: float      # worst | ||psi|| - 1 | seen at samples


@dataclass(frozen=True)
class PropagationConfig:
    initial_steps: int = 200
    tolerance_rel: float = 1e-8     # on E(T), relative to the target energy scale
    adaptive: bool = True


def _pauli_x_total(n: int) -> np.ndarray:
    dim = 1 << n
    x = np.zeros((dim, dim))
    for k in range(dim):
        for j in range(n):
            x[k ^ (1 << j), k] += 1.0
    return x


def _check_cap(n: int) -> None:
    if n > DIM_CAP:
        raise AnnealerError(f"n={n} exceeds the propagation cap of {DIM_CAP} atoms")


def target_ground_indices(enc: EncodedTarget) -> np.ndarray:
    d = enc.diagonal_energies()
    return np.flatnonzero(d <= d.min() + 1e-12 * enc.energy_scale)


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


def _run_steps(enc: EncodedTarget, schedule: Schedule, psi0: np.ndarray,
               n_steps: int, sample_times: np.ndarray,
               ground_indices: Sequence[int], x_total: np.ndarray):
    """Piecewise-constant propagation with exact step exponentials.

    H is evaluated at each step midpoint; the step unitary comes from an
    eigendecomposition of the real-symmetric H, so the norm is preserved to
    round-off.  The step Hamiltonians are decomposed in stacked blocks of at
    most BLOCK_BYTES.  Returns the final state and, at each sample time, the
    grid time, energy, fidelity and | ||psi|| - 1 |.
    """
    t_grid = np.linspace(0.0, schedule.t_total, n_steps + 1)
    mid = 0.5 * (t_grid[:-1] + t_grid[1:])
    dg, om = schedule.profiles(mid)
    dt = schedule.t_total / n_steps
    v_part, delta_part = enc.diagonal_parts
    target = enc.diagonal_energies()

    sample_idx = np.searchsorted(t_grid, sample_times - 1e-12)
    snap_steps, snap_of_sample = np.unique(sample_idx, return_inverse=True)
    snap_row = {step: row for row, step in enumerate(snap_steps.tolist())}
    snaps = np.empty((len(snap_steps), len(psi0)), dtype=complex)
    psi = psi0.astype(complex)
    snaps[snap_steps == 0] = psi
    diag = np.arange(len(psi0))
    block = max(1, BLOCK_BYTES // x_total.nbytes)
    for lo in range(0, n_steps, block):
        hi = min(lo + block, n_steps)
        h = (om[lo:hi, None, None] / 2.0) * x_total
        h[:, diag, diag] += v_part - dg[lo:hi, None] * delta_part
        evals, evecs = np.linalg.eigh(h)
        phase = np.exp(-1j * evals * dt)
        for k in range(hi - lo):
            psi = evecs[k] @ (phase[k] * (evecs[k].T @ psi))
            if lo + k + 1 in snap_row:
                snaps[snap_row[lo + k + 1]] = psi

    probs = np.abs(snaps[snap_of_sample]) ** 2
    energy = np.array([row @ target for row in probs]) + enc.constant
    fids = probs[:, list(ground_indices)].sum(axis=1)
    norm_err = np.abs(np.sqrt(probs.sum(axis=1)) - 1.0)
    return psi, t_grid[sample_idx], energy, fids, norm_err


def propagate(enc: EncodedTarget, schedule: Schedule,
              cfg: PropagationConfig = PropagationConfig(),
              ground_indices: Sequence[int] | None = None,
              psi0: np.ndarray | None = None) -> tuple[np.ndarray, Trajectory]:
    """Solve i dpsi/dt = H(t) psi; step count doubles until E(T) is converged.

    Without ``psi0`` the anneal starts from the basis state that
    ``initial_basis_index`` picks; without ``ground_indices`` the fidelity is
    taken on the ground set of the target.
    """
    _check_cap(enc.n)
    x_total = _pauli_x_total(enc.n)
    if ground_indices is None:
        ground_indices = target_ground_indices(enc)
    if psi0 is None:
        psi0 = np.zeros(1 << enc.n, dtype=complex)
        psi0[initial_basis_index(enc, schedule)[0]] = 1.0

    sample_times = np.linspace(0.0, schedule.t_total, schedule.sample_count)
    tol = cfg.tolerance_rel * enc.energy_scale

    # keep the step grid commensurate with the sample grid, so the last
    # sample is the final step
    intervals = schedule.sample_count - 1
    n_steps = intervals * max(1, -(-cfg.initial_steps // intervals))
    psi, times, energy, fids, norm_err = _run_steps(
        enc, schedule, psi0, n_steps, sample_times, ground_indices, x_total)
    if cfg.adaptive:
        for _ in range(MAX_DOUBLINGS):
            n_steps *= 2
            e_prev = energy[-1]
            psi, times, energy, fids, norm_err = _run_steps(
                enc, schedule, psi0, n_steps, sample_times, ground_indices,
                x_total)
            if abs(energy[-1] - e_prev) < tol:
                break
        else:
            raise AnnealerError(
                f"E(T) not converged to {cfg.tolerance_rel} after "
                f"{MAX_DOUBLINGS} step doublings")

    delta_g, omega = schedule.profiles(times)
    traj = Trajectory(times, omega, delta_g, energy, fids, float(norm_err.max()))
    return psi, traj
