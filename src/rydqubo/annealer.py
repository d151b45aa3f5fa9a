"""Time-dependent Rydberg Hamiltonian and exact state-vector propagation.

All detunings follow one global profile: Delta_j(t) = Delta_G(t) * Delta_j(T),
where Delta_G(T) = 1 and Omega(0) = Omega(T) = 0 hold exactly by construction
of the pulse bases.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.interpolate import CubicSpline

from .encoding import EncodedTarget

DIM_CAP = 10  # atoms; 2^10 state-vector entries
MAX_DOUBLINGS = 10  # adaptive step doublings before AnnealerError


class AnnealerError(RuntimeError):
    pass


class DegenerateInitialStateError(AnnealerError):
    """H(0) has a degenerate diagonal ground state; pick a different Delta_G(0)."""


@dataclass(frozen=True)
class Schedule:
    """Pulse profiles over [0, T].

    Fourier basis: Delta_G(t) = delta0*(1 - t/T) + t/T + sum_n a_n sin(n pi t/T)
    and Omega(t) = sum_n b_n sin(n pi t/T), clipped to |Omega| <= omega_max.
    Spline basis: clamped cubics through equally spaced interior control
    points, with the same fixed endpoint values.
    """

    t_total: float
    delta_coeffs: tuple[float, ...]
    omega_coeffs: tuple[float, ...]
    delta0: float = -1.0
    basis: str = "fourier"
    omega_max: float = 2.0 * math.pi * 5.0
    sample_count: int = 201

    def __post_init__(self):
        if self.t_total <= 0:
            raise ValueError("protocol duration must be positive")
        if self.basis not in ("fourier", "spline"):
            raise ValueError(f"unknown basis {self.basis!r}")
        if self.sample_count < 2:
            raise ValueError("sample_count must be at least 2")
        object.__setattr__(self, "delta_coeffs", tuple(float(c) for c in self.delta_coeffs))
        object.__setattr__(self, "omega_coeffs", tuple(float(c) for c in self.omega_coeffs))

    def _check_time(self, t: np.ndarray) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        if np.any(t < -1e-12) or np.any(t > self.t_total + 1e-12):
            raise ValueError("time outside [0, T]")
        return np.clip(t, 0.0, self.t_total)

    def _spline(self, values: Sequence[float], v0: float, v1: float) -> CubicSpline:
        m = len(values)
        knots = np.linspace(0.0, self.t_total, m + 2)
        return CubicSpline(knots, [v0, *values, v1], bc_type="clamped")

    def delta_profile(self, t) -> np.ndarray | float:
        t = self._check_time(t)
        tau = t / self.t_total
        if self.basis == "fourier":
            out = self.delta0 * (1.0 - tau) + tau
            for k, a in enumerate(self.delta_coeffs, start=1):
                out = out + a * np.sin(k * math.pi * tau)
        else:
            out = self._spline(self.delta_coeffs, self.delta0, 1.0)(t)
        return out if out.ndim else float(out)

    def omega_profile(self, t) -> np.ndarray | float:
        t = self._check_time(t)
        if self.basis == "fourier":
            tau = t / self.t_total
            out = np.zeros_like(tau)
            for k, b in enumerate(self.omega_coeffs, start=1):
                out = out + b * np.sin(k * math.pi * tau)
        else:
            out = np.asarray(self._spline(self.omega_coeffs, 0.0, 0.0)(t))
        out = np.clip(out, -self.omega_max, self.omega_max)
        return out if out.ndim else float(out)

    def to_dict(self) -> dict:
        return {"T_us": self.t_total, "basis": self.basis,
                "delta": {"coeffs": list(self.delta_coeffs), "delta0": self.delta0},
                "omega": {"coeffs": list(self.omega_coeffs),
                          "omega_max": self.omega_max},
                "sample_count": self.sample_count}

    @staticmethod
    def from_dict(data: dict) -> "Schedule":
        return Schedule(float(data["T_us"]),
                        tuple(data["delta"]["coeffs"]),
                        tuple(data["omega"]["coeffs"]),
                        float(data["delta"].get("delta0", -1.0)),
                        data.get("basis", "fourier"),
                        float(data["omega"].get("omega_max", 2.0 * math.pi * 5.0)),
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


def initial_state(enc: EncodedTarget, schedule: Schedule) -> np.ndarray:
    """Basis state minimizing the diagonal H(0); must be unique."""
    idx = initial_basis_index(enc, schedule, require_unique=True)
    psi = np.zeros(1 << enc.n, dtype=complex)
    psi[idx] = 1.0
    return psi


def initial_basis_index(enc: EncodedTarget, schedule: Schedule,
                        require_unique: bool = True) -> int:
    _check_cap(enc.n)
    v_part, delta_part = enc.diagonal_parts
    diag0 = v_part - schedule.delta_profile(0.0) * delta_part
    tol = 1e-9 * enc.energy_scale
    minima = np.flatnonzero(diag0 <= diag0.min() + tol)
    if len(minima) > 1 and require_unique:
        raise DegenerateInitialStateError(
            f"{len(minima)} basis states tie for the H(0) minimum; "
            "choose a different Delta_G(0)")
    # prefer the all-ground-atoms pattern among ties: it is the easy state to prepare
    return 0 if 0 in minima else int(minima[0])


def expectation(state: np.ndarray, enc: EncodedTarget) -> float:
    """<psi|H_target|psi> + encoding constant (diagonal target operator)."""
    norm = float(np.vdot(state, state).real)
    if abs(norm - 1.0) > 1e-6:
        raise AnnealerError(f"state norm {math.sqrt(norm):.8f} violates tolerance")
    probs = np.abs(state) ** 2
    return float(probs @ enc.diagonal_energies()) + enc.constant


def fidelity(state: np.ndarray, ground_indices: Sequence[int]) -> float:
    """Total overlap probability with the degenerate ground basis states."""
    if len(ground_indices) == 0:
        raise ValueError("empty ground set")
    probs = np.abs(np.asarray(state)[list(ground_indices)]) ** 2
    return float(probs.sum())


def _run_steps(enc: EncodedTarget, schedule: Schedule, psi0: np.ndarray,
               n_steps: int, sample_times: np.ndarray,
               ground_indices: Sequence[int], x_total: np.ndarray):
    """Piecewise-constant propagation with exact step exponentials.

    H is evaluated at each step midpoint; the step unitary comes from an
    eigendecomposition of the real-symmetric H, so the norm is preserved to
    round-off.
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

    def record(step_index: int):
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
    return psi, t_grid, sample_idx, records


def propagate(enc: EncodedTarget, schedule: Schedule,
              cfg: PropagationConfig = PropagationConfig(),
              ground_indices: Sequence[int] | None = None,
              psi0: np.ndarray | None = None) -> tuple[np.ndarray, Trajectory]:
    """Solve i dpsi/dt = H(t) psi; step count doubles until E(T) is converged."""
    _check_cap(enc.n)
    x_total = _pauli_x_total(enc.n)
    if ground_indices is None:
        ground_indices = target_ground_indices(enc)
    if psi0 is None:
        psi0 = initial_state(enc, schedule)

    sample_times = np.linspace(0.0, schedule.t_total, schedule.sample_count)
    tol = cfg.tolerance_rel * enc.energy_scale

    # keep the step grid commensurate with the sample grid
    intervals = schedule.sample_count - 1
    n_steps = intervals * max(1, -(-cfg.initial_steps // intervals))
    psi, t_grid, sample_idx, records = _run_steps(
        enc, schedule, psi0, n_steps, sample_times, ground_indices, x_total)
    e_final = records[n_steps][0]
    if cfg.adaptive:
        for _ in range(MAX_DOUBLINGS):
            n2 = 2 * n_steps
            psi2, t2, si2, rec2 = _run_steps(
                enc, schedule, psi0, n2, sample_times, ground_indices, x_total)
            converged = abs(rec2[n2][0] - e_final) < tol
            n_steps, psi, t_grid, sample_idx, records = n2, psi2, t2, si2, rec2
            e_final = records[n_steps][0]
            if converged:
                break
        else:
            raise AnnealerError(
                f"E(T) not converged to {cfg.tolerance_rel} after "
                f"{MAX_DOUBLINGS} step doublings")

    times, energies, fids = [], [], []
    worst_norm = 0.0
    for si in sample_idx:
        key = int(si) if int(si) in records else n_steps
        e, f, nrm = records[key]
        times.append(float(t_grid[key]))
        energies.append(e)
        fids.append(f)
        worst_norm = max(worst_norm, nrm)
    traj = Trajectory(np.asarray(times),
                      np.asarray(schedule.omega_profile(np.asarray(times))),
                      np.asarray(schedule.delta_profile(np.asarray(times))),
                      np.asarray(energies), np.asarray(fids), worst_norm)
    return psi, traj
