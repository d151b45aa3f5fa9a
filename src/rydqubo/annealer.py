"""Time-dependent Rydberg Hamiltonian and exact state-vector propagation.

Every detuning is Delta_j(t) = Delta_G(t) Delta_j(T) - s (1 - t/T), with s
the target's energy scale (``ramp_depth``); Delta_G(0) = 0, Delta_G(T) = 1
and Omega(0) = Omega(T) = 0 hold exactly by construction of the pulse basis.
So H(T) is the target, and H(t)'s diagonal is v_part - Delta_G(t)
delta_part + s (1 - t/T) count, with count(x) the excited atoms of x.  An
anneal given no start state begins at |0..0>, as on hardware.  H(0)'s
diagonal is V(x) + s count(x): on a repulsive target (V >= 0, as every
gauge-fixable or physical-mode model is) |0..0> is its unique minimum.  A
frustrated ideal-mode target keeps a negative V, can put another state
lower, and starts at |0..0> all the same.

The anneal runs in the start state's symmetry subspace.  Colour refinement
finds the coarsest partition of the 2^n basis states into cells on which
v_part, delta_part, count and the start amplitude are constant and whose
members each have the same number of cube neighbours (one atom flipped) in
every cell.  So H(t)'s diagonal is constant on each cell, and the drive
Omega(t) sum_j X_j / 2 is global: H(t) maps the span of the normalized cell
indicators into itself at every t.  The anneal never leaves that span, and
the quotient is exact, not an approximation.  An atom permutation that keeps
V, Delta(T) and the start state maps every cell onto itself, so cells are
unions of its orbits; on the presets they are the orbits:

    preset   two_sat  xor_sat  mixed  set_packing  qap  clustering  protein
    2^n            8        8      8           16   16          32       64
    cells          8        4      8            6    6          32       30

A target without symmetry has one state per cell and runs in the full basis,
whose X the quotient builds bit for bit.  DIM_CAP bounds n, not the cell
count: the refinement walks all 2^n states.

Every step is a product of exact exponentials of the real-symmetric H, one
eigh each.  ``energy_gradient`` is the optimizer's objective and its exact
gradient; it takes midpoint steps, one exponential per step, of H at the
step midpoint.  That rule is second order, but a CFM4 objective and gradient
would take two eighs per step, and eigh is most of an optimizer pass.
``propagate`` scores an anneal, the final one included; it takes the two
exponentials per step of the fourth-order commutator-free Magnus integrator
CFM4, whose E(T) change falls 16x per step doubling against the midpoint
rule's 4x, and doubles the steps until E(T) converges.

Both run one sweep, ``_sweep``, which carries the state in the eigenbasis
of the exponential about to act on it: c_k = V_k^T psi_k.  A step is then
a phase and one real overlap, c_{k+1} = V_{k+1}^T V_k (p_k o c_k), and the
overlaps of a block of steps come from one stacked product.  The state
itself, psi_k = V_k c_k, is formed only where it is read: at the samples
and at T.  The gradient's adjoint runs back through the same overlaps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar, NamedTuple, Sequence

import numpy as np

from .encoding import EncodedTarget, HardwareLimits
from .models import QuboModel, _float, _int

DIM_CAP = 10  # atoms; 2^10 state-vector entries
MAX_DOUBLINGS = 10  # adaptive step doublings before AnnealerError
BLOCK_BYTES = 1 << 18  # bytes of stacked step Hamiltonians per eigh call

# CFM4 (Blanes & Moan 2006; Alvermann & Fehske, JCP 230, 5930, 2011): a step
# of dt is exp(-i dt (a1 H1 + a2 H2)) exp(-i dt (a2 H1 + a1 H2)), with H1, H2
# at the Gauss nodes t + (1/2 -+ sqrt(3)/6) dt and a1,2 = (3 -+ 2 sqrt(3))/12.
# H is affine in its controls (Delta_G, Omega, 1 - t/T) and a1 + a2 = 1/2, so
# each exponential is of H at the node controls blended by the rows of
# _CFM4_WEIGHTS, over dt/2.
_CFM4_NODES = 0.5 + np.array([-1.0, 1.0]) * (math.sqrt(3.0) / 6.0)
_CFM4_WEIGHTS = 0.5 + np.array([[1.0, -1.0], [-1.0, 1.0]]) * (math.sqrt(3.0) / 3.0)


class AnnealerError(RuntimeError):
    pass


class ScheduleLimitError(ValueError):
    """A schedule past the hardware limits' t_max or omega_max."""


@dataclass(frozen=True)
class Schedule:
    """Pulse profiles over [0, T] in the one Fourier basis.

    Delta_G(t) = t/T + sum_n a_n sin(n pi t/T) and
    Omega(t) = sum_n b_n sin(n pi t/T), clipped to |Omega| <= omega_max.
    So Delta_G(0) = 0, and H(0)'s detunings are the uniform term alone.
    """

    t_total: float
    delta_coeffs: tuple[float, ...]
    omega_coeffs: tuple[float, ...]
    omega_max: float = HardwareLimits.omega_max
    sample_count: int = 201

    def __post_init__(self):
        if not _float(self.t_total) > 0:
            raise ValueError("protocol duration must be positive")
        if not _float(self.omega_max) > 0:
            raise ValueError("omega_max must be positive")
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
        return self._mode_sums(*self.sine_table(t))[:2]

    def _mode_sums(self, tau, sines) -> tuple[np.ndarray, ...]:
        """(Delta_G, Omega, 1 - t/T), the controls H is affine in, at the
        times of a ``sine_table``, from that table."""
        delta_g = tau
        for k, a in enumerate(self.delta_coeffs):
            delta_g = delta_g + a * sines[..., k]
        omega = np.zeros_like(tau)
        for k, b in enumerate(self.omega_coeffs):
            omega = omega + b * sines[..., k]
        return delta_g, np.clip(omega, -self.omega_max, self.omega_max), 1.0 - tau

    def within(self, limits: HardwareLimits) -> "Schedule":
        """The schedule, if T and omega_max are within the limits' t_max and
        omega_max; else ScheduleLimitError naming the limit."""
        for key, value, name in (("T_us", self.t_total, "t_max"),
                                 ("omega_max", self.omega_max, "omega_max")):
            if value > getattr(limits, name):
                raise ScheduleLimitError(f"schedule {key} = {value} exceeds the"
                                         f" hardware limit {name} = "
                                         f"{getattr(limits, name)}")
        return self

    def to_dict(self) -> dict:
        return {"T_us": self.t_total, "basis": "fourier",
                "delta": {"coeffs": list(self.delta_coeffs)},
                "omega": {"coeffs": list(self.omega_coeffs),
                          "omega_max": self.omega_max},
                "sample_count": self.sample_count}

    @staticmethod
    def from_dict(data: dict) -> "Schedule":
        if data.get("basis", "fourier") != "fourier":
            raise ValueError(f"unknown basis {data['basis']!r}")
        # Delta_G(0) is 0 by construction: a file that sets another value
        # is refused, not run at 0
        if _float(data["delta"].get("delta0", 0.0)) != 0.0:
            raise ValueError("delta.delta0 must be 0: Delta_G(0) is fixed at 0")
        return Schedule(_float(data["T_us"]),
                        tuple(data["delta"]["coeffs"]),
                        tuple(data["omega"]["coeffs"]),
                        _float(data["omega"].get("omega_max", Schedule.omega_max)),
                        _int(data.get("sample_count", Schedule.sample_count)))


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
    """Start step count and E(T) tolerance of an adaptive ``propagate``.

    E(T) converges only to round-off, which grows with the step count, so
    ``tolerance_rel`` has a floor of about 1e-12.  On each preset's seed-0
    optimized pulse the smallest change of E(T) between doublings is
    1.4e-14 (xor_sat) to 9.5e-13 (qap) of the energy scale: 1e-12 converges
    on all seven presets, qap only just; 1e-13 on two_sat, xor_sat and
    clustering; 1e-14 on none.  Below the floor ``propagate`` raises
    AnnealerError after MAX_DOUBLINGS doublings; 1e-11 leaves a margin.
    """

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


def _check_cap(n: int) -> None:
    if n > DIM_CAP:
        raise AnnealerError(f"n={n} exceeds the propagation cap of {DIM_CAP} atoms")


def ramp_depth(enc: EncodedTarget) -> float:
    """s of the uniform detuning term -s (1 - t/T): the energy scale."""
    return enc.energy_scale


def _start_state(n: int) -> np.ndarray:
    """|0..0>, every atom in its ground state."""
    return np.eye(1, 1 << n, dtype=complex)[0]


class _Quotient(NamedTuple):
    """H(t) and the start state in the normalized indicator basis of the
    cells of an equitable partition of the basis states."""
    cell: np.ndarray   # (2^n,) cell of each basis state
    size: np.ndarray   # (m,) states per cell
    v: np.ndarray      # (m,) v_part at each cell's members
    delta: np.ndarray  # (m,) delta_part there
    ramp: np.ndarray   # (m,) s times the excitation count there
    x: np.ndarray      # (m, m) sum_j X_j: edges from A to B / sqrt(|A||B|)
    start: np.ndarray  # (m,) psi0 at each cell's members times sqrt(|A|)


def _quotient(enc: EncodedTarget, psi0: np.ndarray) -> _Quotient:
    """The coarsest equitable partition of the n-cube on which v_part,
    delta_part, the excitation count and psi0 are constant, by colour
    refinement (McKay 1981): seed cells by exact equality of the four, then
    split them by the multiset of neighbour cells until the cell count stops
    changing.  An explicit psi0 can tie patterns whose counts differ, so
    the count keeps the quotient exact for any start.  Cells are numbered
    by their smallest member, so a partition into singletons is the full
    basis, bit for bit.  Cached on the target, like its ``diagonal_parts``,
    for the last start it was built for."""
    psi0 = np.asarray(psi0, dtype=complex)
    cached = enc.__dict__.get("_quotient")
    if cached is not None and cached[0] == psi0.tobytes():
        return cached[1]
    v_part, delta_part = enc.diagonal_parts
    count = QuboModel(enc.n, (1.0,) * enc.n, {}).energies()
    flips = np.arange(1 << enc.n)[:, None] ^ (1 << np.arange(enc.n))
    seed = np.column_stack((v_part, delta_part, count, psi0.real, psi0.imag))
    cell = np.unique(seed, axis=0, return_inverse=True)[1]
    while True:
        signature = np.column_stack((cell, np.sort(cell[flips], axis=1)))
        refined = np.unique(signature, axis=0, return_inverse=True)[1]
        if refined.max() == cell.max():
            break
        cell = refined
    smallest = np.unique(cell, return_index=True)[1][cell]
    reps, cell = np.unique(smallest, return_inverse=True)
    m, size = len(reps), np.bincount(cell).astype(float)
    edges = np.bincount((cell[flips] * m + cell[:, None]).ravel(),
                        minlength=m * m).reshape(m, m)
    q = _Quotient(cell, size, v_part[reps], delta_part[reps],
                  ramp_depth(enc) * count[reps],
                  edges / np.sqrt(np.multiply.outer(size, size)),
                  psi0[reps] * np.sqrt(size))
    enc.__dict__["_quotient"] = (psi0.tobytes(), q)
    return q


def _expand(q: _Quotient, c: np.ndarray) -> np.ndarray:
    """Basis-state amplitudes psi_k = c_A(k) / sqrt(|A(k)|) of coefficients c."""
    return (c / np.sqrt(q.size))[..., q.cell]


def _step_grid(schedule: Schedule, n_steps: int) -> tuple[np.ndarray, np.ndarray]:
    """(grid times t_0..t_N, step midpoints) of n_steps equal steps."""
    t_grid = np.linspace(0.0, schedule.t_total, n_steps + 1)
    return t_grid, 0.5 * (t_grid[:-1] + t_grid[1:])


def _midpoint_exponentials(schedule: Schedule, n_steps: int) -> tuple[
        np.ndarray, tuple[np.ndarray, np.ndarray, np.ndarray, float]]:
    """(S, (Delta_G, Omega, 1 - t/T, duration)) of the midpoint rule's
    n_steps equal steps: one exponential per step, of H at the step midpoint
    over dt, with the controls summed from the sine table S there."""
    tau, sines = schedule.sine_table(_step_grid(schedule, n_steps)[1])
    return sines, (*schedule._mode_sums(tau, sines), schedule.t_total / n_steps)


def _cfm4_exponentials(schedule: Schedule, n_steps: int
                       ) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """(Delta_G, Omega, 1 - t/T, duration) of CFM4's two exponentials per
    step of n_steps equal steps, each over dt/2, of H at the controls of the
    two Gauss nodes blended by one row of _CFM4_WEIGHTS."""
    dt = schedule.t_total / n_steps
    nodes = schedule._mode_sums(*schedule.sine_table(
        _step_grid(schedule, n_steps)[0][:-1, None] + _CFM4_NODES * dt))
    return (*((p @ _CFM4_WEIGHTS).ravel() for p in nodes), 0.5 * dt)


def _rotate(v: np.ndarray, c: np.ndarray) -> np.ndarray:
    """v @ c for real matrices v and complex vectors c, stacked alike: c
    passes as (..., m, 2) float columns, so v is never copied to complex."""
    c = np.ascontiguousarray(c)
    return (v @ c.view(float).reshape(*c.shape, 2)).view(complex)[..., 0]


def _sweep(q: _Quotient, delta_g, omega, ramp, dt: float):
    """Apply exp(-i dt H(delta_g[k], omega[k], ramp[k])) for k = 0, 1, ...
    in turn to the start coefficients of the quotient basis, carrying each state in the
    eigenbasis of the exponential about to act on it.

    One eigh of the real-symmetric H_k = V_k diag(lambda_k) V_k^T gives
    exponential k, so the norm is preserved to round-off.  The state psi_k
    before exponential k is carried as c_k = V_k^T psi_k and advanced by
    c_{k+1} = O_{k+1} (p_k o c_k), with p_k = exp(-i dt lambda_k) and the
    real overlap O_{k+1} = V_{k+1}^T V_k.  The Hamiltonians are decomposed,
    and their overlaps formed by one stacked product, in blocks of at most
    BLOCK_BYTES; a block's first overlap reaches back to the previous
    block's last V, and the first block's to the identity, which makes
    c_0 = V_0^T psi_0.  A complex vector meets a real matrix as an (m, 2)
    float view, written by np.dot into preallocated rows.  Yields, per
    block, (lo, evals, evecs, over, coeffs): the eigen-pairs and overlaps
    O_k of exponentials lo, lo + 1, ..., and coeffs[k] = c_{lo+k}, so that
    psi_{lo+k} = V_{lo+k} c_{lo+k}; the last row is p o c of the block's
    last exponential, the state after the block in that exponential's
    eigenbasis.
    """
    m = len(q.start)
    diag = np.arange(m)
    block = max(1, BLOCK_BYTES // q.x.nbytes)
    basis, carry = np.eye(m), q.start
    scaled = np.empty(m, dtype=complex)
    scaled_f = scaled.view(float).reshape(m, 2)
    for lo in range(0, len(delta_g), block):
        hi = min(lo + block, len(delta_g))
        h = (omega[lo:hi, None, None] / 2.0) * q.x
        h[:, diag, diag] += (q.v - delta_g[lo:hi, None] * q.delta
                             + ramp[lo:hi, None] * q.ramp)
        evals, evecs = np.linalg.eigh(h)
        phase = np.exp(-1j * evals * dt)
        over = np.empty_like(evecs)
        np.matmul(evecs[0].T, basis, out=over[0])
        np.matmul(evecs[1:].transpose(0, 2, 1), evecs[:-1], out=over[1:])
        coeffs = np.empty((hi - lo + 1, m), dtype=complex)
        coeffs_f = coeffs.view(float).reshape(hi - lo + 1, m, 2)
        np.dot(over[0], carry.view(float).reshape(m, 2), out=coeffs_f[0])
        for k in range(1, hi - lo):
            np.multiply(phase[k - 1], coeffs[k - 1], out=scaled)
            np.dot(over[k], scaled_f, out=coeffs_f[k])
        np.multiply(phase[-1], coeffs[-2], out=coeffs[-1])
        basis, carry = evecs[-1], coeffs[-1]
        yield lo, evals, evecs, over, coeffs


def _run_steps(enc: EncodedTarget, schedule: Schedule, psi0: np.ndarray,
               n_steps: int, ground_indices: Sequence[int]
               ) -> tuple[np.ndarray, Trajectory]:
    """``_sweep`` over n_steps CFM4 steps in the quotient of psi0, read at
    every stride-th state, stride = exponentials / (sample_count - 1):
    returns the final state and the trajectory at those grid times.  n_steps
    must be a multiple of sample_count - 1, as ``propagate`` makes it and
    doubling keeps it."""
    q = _quotient(enc, psi0)
    intervals = schedule.sample_count - 1
    controls = _cfm4_exponentials(schedule, n_steps)
    stride = len(controls[0]) // intervals
    snaps = []
    for lo, _, evecs, _, coeffs in _sweep(q, *controls):
        rows = slice(-lo % stride, len(evecs), stride)
        snaps.append(_rotate(evecs[rows], coeffs[rows]))
    psi = _rotate(evecs[-1], coeffs[-1])

    target = q.v - q.delta
    probs = np.abs(np.concatenate([*snaps, psi[None]])) ** 2
    energy = np.array([row @ target for row in probs]) + enc.constant
    # a ground state g holds the share 1/|A(g)| of its cell's probability
    fids = (probs / q.size)[:, q.cell[list(ground_indices)]].sum(axis=1)
    norm_err = np.abs(np.sqrt(probs.sum(axis=1)) - 1.0)
    times = _step_grid(schedule, n_steps)[0][::n_steps // intervals]
    delta_g, omega = schedule.profiles(times)
    return _expand(q, psi), Trajectory(times, omega, delta_g, energy,
                                       fids, float(norm_err.max()))


def energy_gradient(enc: EncodedTarget, schedule: Schedule,
                    initial_steps: int = 200) -> tuple[float, np.ndarray]:
    """(E(T), dE/d(delta_coeffs, omega_coeffs)) of the midpoint-rule anneal.

    The anneal takes ``initial_steps`` steps, as given, from |0..0>, and
    the gradient is the exact gradient of that discretized E(T) (GRAPE, Khaneja et al., JMR 172, 296, 2005).  The
    anneal runs in the start state's quotient basis of m cells, where E(T)
    is the same function of the coefficients.  The forward ``_sweep`` keeps
    each step's eigen-pairs H_k = V_k diag(lambda_k) V_k^T, overlaps
    O_k = V_k^T V_{k-1} and eigenbasis states c_k = V_k^T psi_k, which costs
    2 n_steps m^2 8 bytes.  The adjoint lam_N = D psi_N, lam_k =
    U_k^dag lam_{k+1}, runs back in the same bases: a_k = V_k^T lam_{k+1}
    starts from a_{N-1} = V_{N-1}^T lam_N and steps by
    a_{k-1} = O_k^T (conj(p_k) o a_k), with p_k = exp(-i dt lambda_k).  The
    sensitivity of step k to a parameter theta of H_k is
    2 Re[a^H (Gamma o V^T dH/dtheta V) b] with a = a_k, b = c_k and the
    eigenbasis Frechet derivative of exp(-i dt H) (de Fouquieres et al.,
    JMR 212, 412, 2011) Gamma_jl = -i dt exp(-i dt (lambda_j + lambda_l)/2)
    sinc(dt (lambda_j - lambda_l)/2), which stays finite at degenerate
    eigenvalues.  dH/dOmega = X/2 and dH/dDelta_G = -diag(delta); the
    uniform detuning term has no coefficient and adds no term; the
    coefficient gradients are S^T times these sensitivities, with S the sine
    table at the step midpoints that the controls were summed from, and the
    Omega gradient is zero on steps where the clip is active.  A non-finite
    value or gradient raises FloatingPointError.
    """
    _check_cap(enc.n)
    n_steps = _initial_steps(initial_steps)
    sines, controls = _midpoint_exponentials(schedule, n_steps)
    omega, dt = controls[1], controls[-1]
    q = _quotient(enc, _start_state(enc.n))
    target = q.v - q.delta
    blocks = list(_sweep(q, *controls))
    _, _, evecs, _, coeffs = blocks[-1]
    psi = _rotate(evecs[-1], coeffs[-1])
    energy = float(np.abs(psi) ** 2 @ target + enc.constant)

    # dE/dDelta_G and dE/dOmega at each step midpoint
    sens = np.empty((2, n_steps))
    # a_{k-1} = O_k^T (conj(p_k) o a_k), through the block's first overlap
    # into the block before
    adj = _rotate(evecs[-1].T, target * psi)
    scaled = np.empty_like(adj)
    adj_f, scaled_f = (v.view(float).reshape(len(v), 2) for v in (adj, scaled))
    for lo, evals, evecs, over, coeffs in reversed(blocks):
        b = coeffs[:-1]
        a = np.empty_like(b)
        a_f = a.view(float).reshape(*a.shape, 2)
        a[-1] = adj
        back = np.exp(1j * evals * dt)
        for k in range(len(a) - 1, -1, -1):
            np.multiply(back[k], a[k], out=scaled)
            np.dot(over[k].T, scaled_f, out=a_f[k - 1] if k else adj_f)
        # the sensitivity is 2 sum_pq (dH/dtheta)_pq (V R V^T)_pq with
        # R_jl = Re[conj(a_j) Gamma_jl b_l] = dt sinc_jl Im[conj(a_j) p_j p_l b_l]
        # and p = exp(-i dt lambda / 2)
        half = np.exp(-0.5j * dt * evals)
        sinc = np.sinc((0.5 * dt / math.pi)
                       * (evals[:, :, None] - evals[:, None, :]))
        r = dt * sinc * ((a.conj() * half)[:, :, None]
                         * (half * b)[:, None, :]).imag
        vr = evecs @ r
        # dH/dDelta_G = -diag(delta), dH/dOmega = X / 2
        sens[0, lo:lo + len(b)] = -2.0 * (vr * evecs).sum(axis=2) @ q.delta
        sens[1, lo:lo + len(b)] = (vr * (q.x @ evecs)).sum(axis=(1, 2))

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
    Without ``psi0`` the anneal starts from |0..0>; a given ``psi0`` seeds
    the partition with its own amplitudes, so the run in its quotient is
    exact for any start.
    """
    _check_cap(enc.n)
    psi0 = _start_state(enc.n) if psi0 is None else psi0

    tol = cfg.tolerance_rel * enc.energy_scale
    intervals = schedule.sample_count - 1
    n_steps = intervals * -(-cfg.initial_steps // intervals)
    e_prev = math.inf
    for _ in range(1 + MAX_DOUBLINGS):
        psi, traj = _run_steps(enc, schedule, psi0, n_steps, ground_indices)
        if abs(traj.energy[-1] - e_prev) < tol:
            return psi, traj
        e_prev, n_steps = traj.energy[-1], 2 * n_steps
    raise AnnealerError(f"E(T) not converged to {cfg.tolerance_rel} after "
                        f"{MAX_DOUBLINGS} step doublings")
