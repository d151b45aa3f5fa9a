"""Mapping Ising models onto Rydberg hardware quantities.

The pairwise interaction is V_jk = 4 J_jk and the final detuning is
Delta_j = 2 h_j + (1/2) sum_{k != j} V_jk, with excitation number n_j
identified with the binary variable x_j.  With that choice the diagonal
Hamiltonian  -sum_j Delta_j n_j + sum_{k<j} V_kj n_k n_j  equals the Ising
energy minus a stored offset on every assignment, which is the contract the
rest of the package relies on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np

from .models import IsingModel, QuboModel, _float

# hbar = 1; energies/frequencies in rad/us, lengths in um, times in us.
GHZ_TO_RAD_PER_US = 2.0 * math.pi * 1.0e3
C6_DEFAULT = 139.0 * GHZ_TO_RAD_PER_US  # 139 GHz um^6 -> 2*pi*1.39e5 rad/us um^6
EMBED_RESTARTS = 16  # random starts, stacked into one layout stress descent


class NotEncodableError(ValueError):
    """Coupling structure incompatible with purely repulsive interactions."""

    def __init__(self, message: str, pair: tuple[int, int] | None = None):
        super().__init__(message)
        self.pair = pair


class FrustratedModelError(NotEncodableError):
    """No spin-flip gauge makes all couplings nonnegative."""


@dataclass(frozen=True)
class HardwareLimits:
    delta_max: float = 2.0 * math.pi * 20.0   # rad/us
    omega_max: float = 2.0 * math.pi * 5.0    # rad/us
    r_min: float = 2.0                        # um
    r_far: float = 12.0                       # um
    t_max: float = 200.0                      # us
    c6: float = C6_DEFAULT                    # rad/us * um^6

    def __post_init__(self):
        for name in (f.name for f in fields(self)):
            value = getattr(self, name)
            if isinstance(value, (str, bool)) or not value > 0:  # NaN too
                raise ValueError(f"{name} must be positive, got {value!r}")
            object.__setattr__(self, name, _float(value))  # refuses inf


@dataclass(frozen=True)
class EncodedTarget:
    """Interaction matrix, final detunings, and the affine energy bookkeeping.

    For every bit pattern x:  diagonal_energy(x) + constant == scale * E(x),
    where E is the source model energy (constant included).
    """

    n: int
    v: np.ndarray            # (n, n) symmetric, zero diagonal
    delta_final: np.ndarray  # (n,)
    constant: float
    scale: float = 1.0

    def __post_init__(self):
        v = np.asarray(self.v, dtype=float)
        d = np.asarray(self.delta_final, dtype=float)
        if v.shape != (self.n, self.n) or d.shape != (self.n,):
            raise ValueError("shape mismatch in encoded target")
        if not (np.isfinite(v).all() and np.isfinite(d).all()):
            raise ValueError("V and the detunings must be finite")
        if not np.allclose(v, v.T) or np.any(np.diag(v) != 0):
            raise ValueError("V must be symmetric with zero diagonal")
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "delta_final", d)

    @cached_property
    def diagonal_parts(self) -> tuple[np.ndarray, np.ndarray]:
        """(sum_{j<k} V_jk x_j x_k, sum_j Delta_j x_j) for every bit pattern.

        Built on first use by the models' bit-doubling kernel and cached
        read-only: the annealer reads it on every propagation, while callers
        that never propagate never allocate the 2^n-entry arrays.
        """
        pairs = {(i, j): self.v[i, j]
                 for i, j in np.argwhere(np.triu(self.v, 1)).tolist()}
        v_part = QuboModel(self.n, (0.0,) * self.n, pairs).energies()
        delta_part = QuboModel(self.n, tuple(self.delta_final), {}).energies()
        v_part.flags.writeable = delta_part.flags.writeable = False
        return v_part, delta_part

    def diagonal_energies(self) -> np.ndarray:
        """-sum Delta_j x_j + sum_{j<k} V_jk x_j x_k for every bit pattern."""
        v_part, delta_part = self.diagonal_parts
        return v_part - delta_part

    @property
    def energy_scale(self) -> float:
        parts = [np.max(np.abs(self.v)) if self.n > 1 else 0.0,
                 np.max(np.abs(self.delta_final)) if self.n else 0.0]
        return max(max(parts), 1e-30)


def encode(m: IsingModel, allow_negative: bool = False) -> EncodedTarget:
    """Map an Ising model to interactions and final detunings.

    Requires antiferromagnetic couplings (J >= 0) unless ``allow_negative``
    is set, in which case the signed interactions are kept; such a target can
    be simulated in ideal mode but not realized by a van der Waals layout.
    A V, Delta or constant that overflows a float is not encodable either.
    """
    n = m.n
    v = np.zeros((n, n))
    for (i, j), coupling in m.quadratic.items():
        if coupling < 0 and not allow_negative:
            raise NotEncodableError(
                f"negative coupling J[{i},{j}] = {coupling}; C6 > 0 requires "
                "J >= 0 (try a gauge fix or allow_negative for ideal mode)",
                pair=(i, j))
        v[i, j] = v[j, i] = 4.0 * coupling
    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        delta = 2.0 * np.asarray(m.linear) + 0.5 * v.sum(axis=1)
    constant = m.constant + sum(m.linear) + sum(m.quadratic.values())
    if not np.isfinite(np.r_[v.ravel(), delta, constant]).all():
        raise NotEncodableError("the encoded V, Delta or constant overflows "
                                "a float")
    return EncodedTarget(n, v, delta, constant, 1.0)


def gauge_fix(m: IsingModel) -> tuple[IsingModel, tuple[int, ...]]:
    """Flip a subset of spins so all couplings become nonnegative.

    Returns the gauged model and the 0/1 flip mask; a bit pattern x of the
    gauged model corresponds to x XOR flips in the original.  Raises
    ``FrustratedModelError`` when some cycle carries an odd number of
    negative couplings, which no gauge can repair.
    """
    adj: dict[int, list[tuple[int, int]]] = {i: [] for i in range(m.n)}
    for (i, j), coupling in m.quadratic.items():
        if coupling == 0.0:
            continue
        sign = 1 if coupling < 0 else 0
        adj[i].append((j, sign))
        adj[j].append((i, sign))
    flips = [-1] * m.n
    for root in range(m.n):
        if flips[root] != -1:
            continue
        flips[root] = 0
        stack = [root]
        while stack:
            u = stack.pop()
            for w, sign in adj[u]:
                want = flips[u] ^ sign
                if flips[w] == -1:
                    flips[w] = want
                    stack.append(w)
                elif flips[w] != want:
                    raise FrustratedModelError(
                        "frustrated coupling signs: no spin-flip gauge yields "
                        "all-nonnegative couplings", pair=(min(u, w), max(u, w)))
    h = tuple(hi if f == 0 else -hi for hi, f in zip(m.linear, flips))
    jj = {key: (c if flips[key[0]] == flips[key[1]] else -c)
          for key, c in m.quadratic.items()}
    return IsingModel(m.n, h, jj, m.constant), tuple(flips)


def rescale(t: EncodedTarget, limits: HardwareLimits) -> tuple[EncodedTarget, str]:
    """Uniform multiplicative shrink so detunings and distances are feasible.

    Returns the target and the limit that binds: "none", "delta_max" or
    "r_min".  The factor leaves the ground set unchanged but not an anneal's
    R, since the drive and duration stay fixed; ``delta_max`` bounds only the
    final detunings.  Targets already within limits are returned as they are.
    """
    lam = 1.0
    binding = "none"
    max_delta = float(np.max(np.abs(t.delta_final))) if t.n else 0.0
    if max_delta > limits.delta_max:
        lam = limits.delta_max / max_delta
        binding = "delta_max"
    max_v = float(np.max(t.v)) if t.n > 1 else 0.0
    v_cap = limits.c6 / limits.r_min**6
    if max_v > 0 and max_v * lam > v_cap:
        lam = v_cap / max_v
        binding = "r_min"
    if lam == 1.0:
        return t, "none"
    scaled = EncodedTarget(t.n, t.v * lam, t.delta_final * lam,
                           t.constant * lam, t.scale * lam)
    return scaled, binding


# --- geometry --------------------------------------------------------------

@dataclass(frozen=True)
class AtomLayout:
    positions: np.ndarray  # (n, dim) in um
    c6: float = C6_DEFAULT

    def __post_init__(self):
        pos = np.asarray(self.positions, dtype=float)
        if pos.ndim != 2 or pos.shape[1] not in (2, 3):
            raise ValueError("positions must be (n, 2) or (n, 3)")
        if not np.all(np.isfinite(pos)):
            raise ValueError("positions must be finite")
        if not self.c6 > 0:  # also rejects nan
            raise ValueError("C6 must be positive")
        object.__setattr__(self, "positions", pos)

    @property
    def n(self) -> int:
        return self.positions.shape[0]

    @property
    def dim(self) -> int:
        return self.positions.shape[1]

    def to_dict(self) -> dict:
        return {"dim": self.dim, "positions_um": self.positions.tolist(),
                "C6": self.c6}

    @staticmethod
    def from_dict(data: dict) -> "AtomLayout":
        return AtomLayout(np.array([[_float(x) for x in row]
                                    for row in data["positions_um"]]),
                          _float(data.get("C6", C6_DEFAULT)))


def layout_interactions(layout: AtomLayout) -> np.ndarray:
    """V_jk = C6 / r_jk^6, symmetric with zero diagonal."""
    pos = layout.positions
    diff = pos[:, None, :] - pos[None, :, :]
    r = np.sqrt((diff**2).sum(axis=-1))
    n = layout.n
    off = ~np.eye(n, dtype=bool)
    if np.any(r[off] == 0.0):
        raise ValueError("coincident atoms")
    v = np.zeros((n, n))
    v[off] = layout.c6 / r[off] ** 6
    return v


def _pair_data(t: EncodedTarget, c6: float):
    """Per-embed constants of the stress kernel, one entry per atom pair
    (i < j, in ``np.triu_indices`` order).

    ``inc`` is the signed pair-incidence matrix, shaped ``(pairs, n)``: +1
    at i and -1 at j, so ``inc @ x`` is every ``x_i - x_j``, each rounded
    once, and ``inc.T @ y`` scatters pair terms back onto the atoms.  Then
    the connected-pair mask, the zero-V mask, the target distance (0 where
    V is 0) and the scale the relative distance error divides by (1 where V
    is 0).
    """
    iu, ju = np.triu_indices(t.n, k=1)
    vt = t.v[iu, ju]
    if np.any(vt < 0):
        raise NotEncodableError("negative interactions cannot be embedded")
    pos_mask = vt > 0
    r_target = np.zeros_like(vt)
    r_target[pos_mask] = (c6 / vt[pos_mask]) ** (1.0 / 6.0)
    pairs = np.arange(iu.size)
    inc = np.zeros((iu.size, t.n))
    inc[pairs, iu] = 1.0
    inc[pairs, ju] = -1.0
    r_scale = np.where(pos_mask, r_target, 1.0)
    return inc, pos_mask, ~pos_mask, r_target, r_scale


def _minimize(*args, **kwargs):
    """``scipy.optimize.minimize``, imported on first use: only layouts and
    the pulse optimizer need it, and it is most of the package's import time."""
    from scipy.optimize import minimize
    return minimize(*args, **kwargs)


def _stress_and_grad(flat: np.ndarray, shape: tuple[int, int, int], inc,
                     pos_mask, zero_mask, r_target, r_scale, r_far: float):
    """Layout stress of a stack of restarts; ``flat`` holds ``shape`` =
    ``(restarts, n, dim)`` positions, and the pair constants are
    ``_pair_data``'s.

    Returns the stress summed over the restarts, its gradient (flat, like
    ``flat``) and each restart's own stress.  No term couples two restarts,
    so descending the sum descends every restart at once.  The gather of
    pair differences and the scatter of pair forces are one matrix product
    each with the incidence matrix; the gather is exact, the differences
    ``pos[:, iu] - pos[:, ju]`` bit for bit.
    """
    pos = flat.reshape(shape)
    d = inc @ pos
    r = np.maximum(np.sqrt((d**2).sum(axis=-1)), 1e-12)
    # relative distance error on connected pairs
    rel = np.where(pos_mask, (r - r_target) / r_scale, 0.0)
    # hinge on unconnected pairs closer than r_far
    hinge = np.where(zero_mask & (r < r_far), r_far - r, 0.0)
    each = (rel**2).sum(axis=1) + (hinge**2).sum(axis=1)
    coeff = 2.0 * rel / r_scale - 2.0 * hinge
    grad = inc.T @ ((coeff / r)[..., None] * d)
    return float(each.sum()), grad.ravel(), each


def embed_layout(t: EncodedTarget, dim: int = 2, seed: int = 0,
                 limits: HardwareLimits | None = None
                 ) -> tuple[AtomLayout, ValidationReport]:
    """Place atoms so C6/r^6 approximates V, by multi-start stress descent.

    The ``EMBED_RESTARTS`` random starts are stacked and descended together
    by one L-BFGS-B run: their stresses are independent terms of one sum.
    The run stops when the gradient falls below ``gtol`` 1e-12, when an
    iteration no longer lowers the stress at all (``ftol`` 0) or after 2000
    iterations; a stop on a small relative gain would end a slowly
    converging restart short of criterion 8's residual bound.  The layout
    is the restart with the least stress, centred.  Infeasibility
    (including unwanted-interaction leakage on zero pairs) is reported
    through the residual, never raised.
    """
    limits = limits or HardwareLimits()
    if dim not in (2, 3):
        raise ValueError("dim must be 2 or 3")
    n = t.n
    if n < 2:
        layout = AtomLayout(np.zeros((n, dim)), limits.c6)
        return layout, validate(t, layout)
    inc, pos_mask, zero_mask, r_target, r_scale = _pair_data(t, limits.c6)
    if not np.any(pos_mask):
        raise NotEncodableError("V has no positive entry to embed")
    span = max(float(np.max(r_target[pos_mask])), limits.r_far)
    shape = (EMBED_RESTARTS, n, dim)
    args = (shape, inc, pos_mask, zero_mask, r_target, r_scale, limits.r_far)
    x0 = np.random.default_rng(seed).normal(scale=0.5 * span,
                                            size=EMBED_RESTARTS * n * dim)
    res = _minimize(lambda x: _stress_and_grad(x, *args)[:2], x0, jac=True,
                    method="L-BFGS-B",
                    options={"maxiter": 2000, "ftol": 0.0, "gtol": 1e-12})
    pos = res.x.reshape(shape)[np.argmin(_stress_and_grad(res.x, *args)[2])]
    layout = AtomLayout(pos - pos.mean(axis=0), limits.c6)
    return layout, validate(t, layout)


@dataclass(frozen=True)
class ValidationReport:
    max_rel_error: float       # worst |C6/r^6 - V| / max(V), leakage included
    worst_pair: tuple[int, int]
    worst_unwanted: float      # largest leakage on a zero-V pair, relative to max V
    offending_pairs: tuple[tuple[int, int], ...]
    passed: bool


def validate(t: EncodedTarget, layout: AtomLayout, tol: float = 1e-3) -> ValidationReport:
    """Per-pair relative interaction errors of a layout against a target."""
    if layout.n != t.n:
        raise ValueError("layout and target atom counts differ")
    if t.n < 2:  # no pair, so nothing to get wrong
        return ValidationReport(0.0, (-1, -1), 0.0, (), True)
    achieved = layout_interactions(layout)
    vmax = float(np.max(t.v))
    if vmax <= 0:
        raise NotEncodableError("target has no positive interaction to validate")
    iu, ju = np.triu_indices(t.n, k=1)
    pair_errs = np.abs(achieved[iu, ju] - t.v[iu, ju]) / vmax
    worst = int(np.argmax(pair_errs))  # the first largest, or the first NaN
    unwanted = max([0.0, *pair_errs[t.v[iu, ju] == 0.0].tolist()])
    bad = ~(pair_errs <= tol)  # a NaN error offends too
    offending = tuple(zip(iu[bad].tolist(), ju[bad].tolist()))
    return ValidationReport(float(pair_errs[worst]),
                            (int(iu[worst]), int(ju[worst])),
                            unwanted, offending, not offending)
