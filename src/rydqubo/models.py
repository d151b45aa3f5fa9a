"""Canonical QUBO and Ising representations with exhaustive-spectrum oracles.

Bit/spin convention used throughout the package: ``s_i = 1 - 2*x_i``, so a
binary 0 maps to spin +1 (the atomic ground state) and a binary 1 maps to
spin -1 (the excited state).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar, Mapping, Sequence

import numpy as np

ENUMERATION_CAP = 20


class ModelError(ValueError):
    """Invalid model data or incompatible model operands."""


def _int(value) -> int:
    """int(value), refusing a string, a boolean and a float that is not
    integral (infinities and NaN included)."""
    if isinstance(value, (str, bool)) or (isinstance(value, float)
                                          and not value.is_integer()):
        raise ValueError(f"expected an integer, got {value!r}")
    return int(value)


def _float(value) -> float:
    """float(value), refusing a string, a boolean and a non-finite number."""
    if isinstance(value, (str, bool)) or not math.isfinite(value):
        raise ValueError(f"expected a finite number, got {value!r}")
    return float(value)


def _normalize_pairs(n: int, quadratic: Mapping) -> dict[tuple[int, int], float]:
    out: dict[tuple[int, int], float] = {}
    for (i, j), coeff in quadratic.items():
        if i == j:
            raise ModelError(f"diagonal pair ({i}, {j}) is not allowed")
        if i > j:
            i, j = j, i
        if not (0 <= i < j < n):
            raise ModelError(f"pair ({i}, {j}) out of range for n={n}")
        out[(i, j)] = out.get((i, j), 0.0) + float(coeff)
    return dict(sorted(out.items()))


@dataclass(frozen=True)
class _QuadraticModel:
    """const + sum_i linear_i v_i + sum_{i<j} quadratic_ij v_i v_j.

    A subclass names its ``convention`` and says through ``values`` how a
    bit pattern x maps to the variable values v.
    """

    n: int
    linear: tuple[float, ...]
    quadratic: dict[tuple[int, int], float]
    constant: float = 0.0
    convention: ClassVar[str]

    def __post_init__(self):
        if self.n < 0:
            raise ModelError("n must be nonnegative")
        if len(self.linear) != self.n:
            raise ModelError("linear coefficient count must equal n")
        object.__setattr__(self, "linear", tuple(float(a) for a in self.linear))
        object.__setattr__(self, "quadratic", _normalize_pairs(self.n, self.quadratic))
        object.__setattr__(self, "constant", float(self.constant))
        coeffs = (self.constant, *self.linear, *self.quadratic.values())
        if not all(map(math.isfinite, coeffs)):
            raise ModelError("model coefficients must be finite")

    def evaluate(self, v: Sequence[int]) -> float:
        if len(v) != self.n:
            raise ModelError(f"assignment length {len(v)} != n={self.n}")
        e = self.constant
        for i, a in enumerate(self.linear):
            e += a * v[i]
        for (i, j), b in self.quadratic.items():
            e += b * v[i] * v[j]
        return e

    def energies(self) -> np.ndarray:
        """Energy of every assignment, indexed by the integer bit pattern x.

        Built by bit doubling in O(2^n) memory: appending bit k maps the
        energies e of the first 2^k patterns to [e + v0 g, e + v1 g], where
        v0 and v1 are the values of a 0 and a 1 bit and g = a_k + f_k with
        f_k = sum_{j<k} b_jk v_j, itself built by doubling over j.
        """
        v0, v1 = self.values(np.array([0.0, 1.0])).tolist()
        e = np.empty(1 << self.n)
        f = np.empty(1 << max(self.n - 1, 0))
        e[0] = self.constant
        for k, a in enumerate(self.linear):
            f[0] = 0.0
            for j in range(k):
                b = self.quadratic.get((j, k), 0.0)
                np.add(f[:1 << j], v1 * b, out=f[1 << j:2 << j])
                if v0:
                    f[:1 << j] += v0 * b
            g = f[:1 << k]
            g += a
            np.add(e[:1 << k], v1 * g, out=e[1 << k:2 << k])
            if v0:
                e[:1 << k] += v0 * g
        return e

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "linear": list(self.linear),
            "quadratic": [[i, j, c] for (i, j), c in self.quadratic.items()],
            "constant": self.constant,
            "convention": self.convention,
        }


class QuboModel(_QuadraticModel):
    """Quadratic polynomial over binary variables x in {0, 1}^n."""

    convention = "qubo"

    @staticmethod
    def values(bits: np.ndarray) -> np.ndarray:
        return bits


class IsingModel(_QuadraticModel):
    """Spin model over s in {-1, +1}^n, with s_i = 1 - 2 x_i."""

    convention = "ising"

    @staticmethod
    def values(bits: np.ndarray) -> np.ndarray:
        return 1.0 - 2.0 * bits


def _substitute(m: _QuadraticModel, offset: float, scale: float, cls):
    """``m`` as a ``cls`` model after the substitution v = offset + scale * w."""
    linear = [0.0] * m.n
    const = m.constant
    for i, a in enumerate(m.linear):
        const += a * offset
        linear[i] += a * scale
    for (i, j), b in m.quadratic.items():
        const += b * (offset * offset)
        linear[i] += b * (offset * scale)
        linear[j] += b * (offset * scale)
    quad = {key: b * (scale * scale) for key, b in m.quadratic.items()}
    return cls(m.n, tuple(linear), quad, const)


def qubo_to_ising(q: QuboModel) -> IsingModel:
    """Convert via x_i = (1 - s_i)/2; energies agree exactly on every assignment."""
    return _substitute(q, 0.5, -0.5, IsingModel)


def ising_to_qubo(m: IsingModel) -> QuboModel:
    """Inverse substitution s_i = 1 - 2 x_i."""
    return _substitute(m, 1.0, -2.0, QuboModel)


@dataclass(frozen=True)
class SpectrumTable:
    """Exhaustive spectrum as arrays.

    ``energies`` are the levels in ascending order (each its first member's
    energy; ``enumerate_spectrum`` states the level rule), ``counts`` their
    multiplicities and ``ground_states`` the ground level's bit patterns as
    an ascending int64 array (bit i of a pattern is x_i).  The level of an
    energy e is ``np.searchsorted(energies, e, "right") - 1``.
    """

    n: int
    energies: np.ndarray
    counts: np.ndarray
    ground_states: np.ndarray

    @property
    def e_min(self) -> float:
        return float(self.energies[0])

    @property
    def e_max(self) -> float:
        return float(self.energies[-1])


def state_bits(state: int, n: int) -> tuple[int, ...]:
    return tuple((state >> i) & 1 for i in range(n))


def enumerate_spectrum(m: IsingModel | QuboModel) -> SpectrumTable:
    """Exhaustive spectrum of the classical cost, from one sort of the 2^n
    energies.

    Adjacent sorted energies that differ by at most 8 n eps L1, with L1 the
    sum of the coefficients' magnitudes (constant included), are one level,
    whose energy is its first member's; the largest magnitude is factored
    out of an L1 that overflows.  The bound is four times the largest
    difference, 2 n eps L1, that the round-off of the doubling sums in
    ``energies`` can put between two energies equal in exact arithmetic.
    A level starts only where a tie run does, so levels are split on the
    runs' distinct values.
    """
    if m.n > ENUMERATION_CAP:
        raise ModelError(f"n={m.n} exceeds enumeration cap {ENUMERATION_CAP}")
    l1 = (abs(m.constant) + sum(map(abs, m.linear))
          + sum(map(abs, m.quadratic.values())))
    tol = 8 * m.n * np.finfo(float).eps * l1
    if math.isinf(l1):  # finite magnitudes whose sum overflows
        mags = [abs(c) for c in (m.constant, *m.linear, *m.quadratic.values())]
        big = max(mags)
        tol = 8 * m.n * np.finfo(float).eps * big * sum(a / big for a in mags)
    # Each 2^n array is deleted once used up: three are live at most, four
    # when the energies are all distinct.
    # an overflow gives a non-finite level, which analyze_spectrum refuses
    with np.errstate(over="ignore", invalid="ignore"):
        e = m.energies()
    index = np.argsort(e)
    ordered = e[index]
    del e
    # Tied energies share their bits, except +-0.0 and the NaNs (sorted
    # last): give the first of each such run its lowest index's bits.
    zeros = np.searchsorted(ordered, 0.0), np.searchsorted(ordered, 0.0, "right")
    nans = np.searchsorted(ordered, np.nan), ordered.size
    for lo, hi in (zeros, nans):
        if lo < hi:
            ordered[lo] = ordered[lo + np.argmin(index[lo:hi])]
    new = np.concatenate(([True], ordered[1:] != ordered[:-1]))  # run starts
    new[nans[0] + 1:] = False
    values = ordered[new]
    del ordered
    runs = np.flatnonzero(new)
    del new
    level = np.concatenate(([True], np.diff(values) > tol))
    energies = values[level]
    del values
    starts = runs[level]
    del runs
    counts = np.append(starts[1:], index.size)
    counts -= starts
    return SpectrumTable(m.n, energies, counts, np.sort(index[:counts[0]]))


def model_from_dict(data: Mapping) -> QuboModel | IsingModel:
    try:
        n = _int(data["n"])
        linear = [_float(a) for a in data["linear"]]
        quadratic: dict[tuple[int, int], float] = {}
        for i, j, c in data["quadratic"]:  # a repeated pair sums, as (j, i) does
            key = (_int(i), _int(j))
            quadratic[key] = quadratic.get(key, 0.0) + _float(c)
        constant = _float(data.get("constant", _QuadraticModel.constant))
        convention = data.get("convention", "qubo")
    except (KeyError, OverflowError, TypeError, ValueError) as exc:
        raise ModelError(f"malformed model data: {exc}") from exc
    for cls in (QuboModel, IsingModel):
        if convention == cls.convention:
            return cls(n, tuple(linear), quadratic, constant)
    raise ModelError(f"unknown convention {convention!r}")


def as_ising(model: QuboModel | IsingModel) -> IsingModel:
    return model if isinstance(model, IsingModel) else qubo_to_ising(model)


def as_qubo(model: QuboModel | IsingModel) -> QuboModel:
    return model if isinstance(model, QuboModel) else ising_to_qubo(model)
