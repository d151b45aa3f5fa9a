"""Builders turning seven combinatorial problem families into QUBO models.

Each builder produces a :class:`~rydqubo.models.QuboModel` whose minimum
encodes the problem optimum.  ``build_from_params`` reads family parameters
through one family table, and ``preset_instance`` builds the small named
instances used in the demos and the report table from theirs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .models import QuboModel, _float, _int

Literal = tuple[int, bool]  # (variable index, negated flag)


class ProblemError(ValueError):
    """Invalid problem instance data."""


def _merge(acc: dict, i: int, j: int, coeff: float) -> None:
    if i > j:
        i, j = j, i
    acc[(i, j)] = acc.get((i, j), 0.0) + coeff


# --- two-SAT ---------------------------------------------------------------

@dataclass(frozen=True)
class TwoSatInstance:
    n: int
    clauses: tuple[tuple[Literal, Literal], ...]
    penalty: float = 1.0

    def __post_init__(self):
        if self.penalty <= 0:
            raise ProblemError("penalty must be positive")
        for clause in self.clauses:
            if len(clause) != 2:
                raise ProblemError("each clause needs exactly two literals")
            for idx, _neg in clause:
                if not 0 <= idx < self.n:
                    raise ProblemError(f"literal index {idx} out of range")

    def violated(self, x: Sequence[int]) -> int:
        count = 0
        for clause in self.clauses:
            sat = any((x[i] == 1) != neg for i, neg in clause)
            count += 0 if sat else 1
        return count


def build_two_sat(inst: TwoSatInstance) -> QuboModel:
    """Each clause adds P * (product of unsatisfied-literal factors).

    A positive literal contributes (1 - x), a negated one contributes x, so
    the cost equals P times the number of violated clauses.
    """
    n, p = inst.n, inst.penalty
    const = 0.0
    linear = [0.0] * n
    quad: dict[tuple[int, int], float] = {}
    for (i, neg_i), (j, neg_j) in inst.clauses:
        # factor = (a + b*x_i)(c + d*x_j): positive literal -> (1 - x), negated -> x
        a, b = (0.0, 1.0) if neg_i else (1.0, -1.0)
        c, d = (0.0, 1.0) if neg_j else (1.0, -1.0)
        if i == j:
            # (x or x) or (x or not x) style degenerate clause; x*x = x
            const += p * a * c
            linear[i] += p * (a * d + b * c + b * d)
            continue
        const += p * a * c
        linear[i] += p * b * c
        linear[j] += p * a * d
        _merge(quad, i, j, p * b * d)
    return QuboModel(n, tuple(linear), quad, const)


# --- XOR-SAT ---------------------------------------------------------------

@dataclass(frozen=True)
class XorSatInstance:
    n: int
    constraints: tuple[tuple[int, int, int], ...]  # (i, j, parity bit)
    weight: float = 1.0

    def __post_init__(self):
        if not self.weight > 0:
            raise ProblemError("weight must be positive")
        for i, j, b in self.constraints:
            if i == j:
                raise ProblemError("xor constraint needs two distinct variables")
            if not (0 <= i < self.n and 0 <= j < self.n):
                raise ProblemError(f"constraint ({i}, {j}) out of range")
            if b not in (0, 1):
                raise ProblemError("parity bit must be 0 or 1")

    def violated(self, x: Sequence[int]) -> int:
        return sum(1 for i, j, b in self.constraints if (x[i] ^ x[j]) != b)


def build_xor_sat(inst: XorSatInstance) -> QuboModel:
    """Squared-constraint penalties: b=1 -> (x_i + x_j - 1)^2, b=0 -> (x_i - x_j)^2."""
    n, w = inst.n, inst.weight
    const = 0.0
    linear = [0.0] * n
    quad: dict[tuple[int, int], float] = {}
    for i, j, b in inst.constraints:
        if b == 1:
            const += w
            linear[i] -= w
            linear[j] -= w
            _merge(quad, i, j, 2.0 * w)
        else:
            linear[i] += w
            linear[j] += w
            _merge(quad, i, j, -2.0 * w)
    return QuboModel(n, tuple(linear), quad, const)


def build_mixed(ts: TwoSatInstance, xs: XorSatInstance) -> QuboModel:
    """Coefficient-wise sum of the two-SAT and XOR-SAT builders."""
    if ts.n != xs.n:
        raise ProblemError(f"variable counts differ: {ts.n} vs {xs.n}")
    a = build_two_sat(ts)
    b = build_xor_sat(xs)
    quad = dict(a.quadratic)
    for key, coeff in b.quadratic.items():
        quad[key] = quad.get(key, 0.0) + coeff
    linear = tuple(la + lb for la, lb in zip(a.linear, b.linear))
    return QuboModel(ts.n, linear, quad, a.constant + b.constant)


# --- set packing -----------------------------------------------------------

@dataclass(frozen=True)
class SetPackingInstance:
    n: int
    weights: tuple[float, ...]
    conflicts: tuple[tuple[int, int], ...]
    penalty: float = 2.0

    def __post_init__(self):
        if len(self.weights) != self.n:
            raise ProblemError("weight count must equal n")
        if any(w <= 0 for w in self.weights):
            raise ProblemError("weights must be positive")
        if self.penalty <= 0:
            raise ProblemError("penalty must be positive")
        seen = set()
        for i, j in self.conflicts:
            if i == j or not (0 <= i < self.n and 0 <= j < self.n):
                raise ProblemError(f"bad conflict pair ({i}, {j})")
            key = (min(i, j), max(i, j))
            if key in seen:
                raise ProblemError(f"duplicate conflict pair {key}")
            seen.add(key)


def build_set_packing(inst: SetPackingInstance) -> QuboModel:
    linear = tuple(-w for w in inst.weights)
    quad: dict[tuple[int, int], float] = {}
    for i, j in inst.conflicts:
        _merge(quad, i, j, inst.penalty)
    return QuboModel(inst.n, linear, quad, 0.0)


# --- quadratic assignment --------------------------------------------------

@dataclass(frozen=True)
class QapInstance:
    flow: tuple[tuple[float, ...], ...]
    distance: tuple[tuple[float, ...], ...]
    penalty_facility: float
    penalty_location: float

    def __post_init__(self):
        a = np.asarray(self.flow, dtype=float)
        b = np.asarray(self.distance, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ProblemError("flow matrix must be square")
        if b.shape != a.shape:
            raise ProblemError("distance matrix must match flow matrix size")
        if np.any(np.diag(a) != 0) or np.any(np.diag(b) != 0):
            raise ProblemError("flow and distance diagonals must be zero")
        if self.penalty_facility <= 0 or self.penalty_location <= 0:
            raise ProblemError("penalties must be positive")

    @property
    def n(self) -> int:
        return len(self.flow)

    def assignment_cost(self, perm: Sequence[int]) -> float:
        """Cost sum_{i,k} A_ik B_{perm(i) perm(k)} of a feasible permutation."""
        a = np.asarray(self.flow)
        b = np.asarray(self.distance)
        return float(sum(a[i, k] * b[perm[i], perm[k]]
                         for i in range(self.n) for k in range(self.n)))


def build_qap(inst: QapInstance) -> QuboModel:
    """QUBO over N = n^2 assignment variables with one-hot row/column penalties.

    Asymmetric flow/distance matrices are handled by the symmetrized coupling
    (a_ik b_jl + a_ki b_lj)/2 for each unordered variable pair.
    """
    n = inst.n
    a = np.asarray(inst.flow, dtype=float)
    b = np.asarray(inst.distance, dtype=float)
    p1, p2 = inst.penalty_facility, inst.penalty_location
    nvar = n * n
    const = n * (p1 + p2)
    linear = [-(p1 + p2)] * nvar
    quad: dict[tuple[int, int], float] = {}
    for p in range(nvar):
        i, j = divmod(p, n)
        for q in range(p + 1, nvar):
            k, l = divmod(q, n)
            if i == k and j == l:
                continue
            if i == k:
                _merge(quad, p, q, 2.0 * p1)
            elif j == l:
                _merge(quad, p, q, 2.0 * p2)
            else:
                coeff = a[i, k] * b[j, l] + a[k, i] * b[l, j]
                if coeff != 0.0:
                    _merge(quad, p, q, coeff)
    return QuboModel(nvar, tuple(linear), quad, const)


# --- binary clustering -----------------------------------------------------

@dataclass(frozen=True)
class ClusteringInstance:
    dissimilarity: tuple[tuple[float, ...], ...]

    def __post_init__(self):
        w = np.asarray(self.dissimilarity, dtype=float)
        if w.ndim != 2 or w.shape[0] != w.shape[1]:
            raise ProblemError("dissimilarity matrix must be square")
        if not np.array_equal(w, w.T):
            raise ProblemError("dissimilarity matrix must be symmetric")
        if np.any(np.diag(w) != 0):
            raise ProblemError("dissimilarity diagonal must be zero")
        if np.any(w < 0):
            raise ProblemError("dissimilarity weights must be nonnegative")

    @property
    def n(self) -> int:
        return len(self.dissimilarity)

    def cut_weight(self, x: Sequence[int]) -> float:
        w = np.asarray(self.dissimilarity)
        return float(sum(w[i, j] for i in range(self.n) for j in range(i + 1, self.n)
                         if x[i] != x[j]))


def build_binary_clustering(inst: ClusteringInstance) -> QuboModel:
    """Cost = -(cut weight): -sum_{i<j} w_ij (x_i + x_j - 2 x_i x_j)."""
    w = np.asarray(inst.dissimilarity, dtype=float)
    n = inst.n
    linear = [0.0] * n
    quad: dict[tuple[int, int], float] = {}
    for i in range(n):
        for j in range(i + 1, n):
            if w[i, j] == 0.0:
                continue
            linear[i] -= w[i, j]
            linear[j] -= w[i, j]
            _merge(quad, i, j, 2.0 * w[i, j])
    return QuboModel(n, tuple(linear), quad, 0.0)


# --- toy protein folding ---------------------------------------------------

@dataclass(frozen=True)
class ProteinToyInstance:
    """Contact-variable HP toy model on a chain of length L.

    One binary variable per residue pair (i, j) with i < j, ordered by the
    index map p = (i-1)L - i(i+1)/2 + j (1-based); exclusions are unordered
    pairs of those contact variables (zero-based indices); None means the
    pairs that share a residue.
    """

    length: int
    hydrophobic: tuple[int, ...]
    exclusions: tuple[tuple[int, int], ...] | None = None
    penalty_linear: float = 0.5
    penalty_exclusion: float = 2.0

    def __post_init__(self):
        if len(self.hydrophobic) != self.length:
            raise ProblemError("hydrophobicity flag count must equal chain length")
        if any(hf not in (0, 1) for hf in self.hydrophobic):
            raise ProblemError("hydrophobicity flags must be 0/1")
        if self.penalty_linear <= 0 or self.penalty_exclusion <= 0:
            raise ProblemError("penalties must be positive")
        if self.exclusions is None:
            object.__setattr__(self, "exclusions",
                               shared_residue_exclusions(self.length))
        nvar = self.n_contacts
        for p, q in self.exclusions:
            if p == q or not (0 <= p < nvar and 0 <= q < nvar):
                raise ProblemError(f"bad exclusion pair ({p}, {q})")

    @property
    def n_contacts(self) -> int:
        return self.length * (self.length - 1) // 2

    def contact_index(self, i: int, j: int) -> int:
        """Zero-based variable index of the residue pair (i, j), 1-based residues."""
        if not 1 <= i < j <= self.length:
            raise ProblemError(f"bad residue pair ({i}, {j})")
        return (i - 1) * self.length - i * (i + 1) // 2 + j - 1

    def contact_pairs(self) -> tuple[tuple[int, int], ...]:
        return tuple((i, j) for i in range(1, self.length)
                     for j in range(i + 1, self.length + 1))

    def contact_rewards(self) -> tuple[int, ...]:
        """c_p = 1 iff both residues hydrophobic and non-adjacent (|i-j| > 1)."""
        rewards = []
        for i, j in self.contact_pairs():
            both_h = self.hydrophobic[i - 1] == 1 and self.hydrophobic[j - 1] == 1
            rewards.append(1 if both_h and j - i > 1 else 0)
        return tuple(rewards)


def shared_residue_exclusions(length: int) -> tuple[tuple[int, int], ...]:
    """Default exclusion set: contact-variable pairs sharing a residue."""
    pairs = [(i, j) for i in range(1, length) for j in range(i + 1, length + 1)]
    out = []
    for p in range(len(pairs)):
        for q in range(p + 1, len(pairs)):
            if set(pairs[p]) & set(pairs[q]):
                out.append((p, q))
    return tuple(out)


def build_protein_toy(inst: ProteinToyInstance) -> QuboModel:
    """Linear (P1 - c_p) per contact variable, quadratic P2 on exclusion pairs."""
    rewards = inst.contact_rewards()
    linear = tuple(inst.penalty_linear - c for c in rewards)
    quad: dict[tuple[int, int], float] = {}
    for p, q in inst.exclusions:
        _merge(quad, p, q, inst.penalty_exclusion)
    return QuboModel(inst.n_contacts, linear, quad, 0.0)


# --- family parameters ----------------------------------------------------

def _flag(value) -> bool:
    """A negation flag: a JSON boolean or the integer 0 or 1, nothing else."""
    if isinstance(value, int) and value in (0, 1):
        return bool(value)
    raise ValueError(f"expected a boolean flag, got {value!r}")


def _literal(value) -> Literal:
    i, neg = value
    return _int(i), _flag(neg)


def _rows(read):
    """A reader of a JSON list, each item read by ``read``."""
    return lambda items: tuple(map(read, items))


# family -> (instance class, builder, {JSON key: reader}); the keys are the
# class's fields, so a key left out takes the class's default
_FAMILIES = {
    "two_sat": (TwoSatInstance, build_two_sat,
                {"n": _int, "clauses": _rows(_rows(_literal)), "penalty": _float}),
    "xor_sat": (XorSatInstance, build_xor_sat,
                {"n": _int, "constraints": _rows(_rows(_int)), "weight": _float}),
    "mixed": (lambda two_sat, xor_sat: (two_sat, xor_sat),
              lambda parts: build_mixed(*parts),
              {"two_sat": lambda params: _read_instance("two_sat", params),
               "xor_sat": lambda params: _read_instance("xor_sat", params)}),
    "set_packing": (SetPackingInstance, build_set_packing,
                    {"n": _int, "weights": _rows(_float),
                     "conflicts": _rows(_rows(_int)), "penalty": _float}),
    "qap": (QapInstance, build_qap,
            {"flow": _rows(_rows(_float)), "distance": _rows(_rows(_float)),
             "penalty_facility": _float, "penalty_location": _float}),
    "clustering": (ClusteringInstance, build_binary_clustering,
                   {"dissimilarity": _rows(_rows(_float))}),
    "protein": (ProteinToyInstance, build_protein_toy,
                {"length": _int, "hydrophobic": _rows(_int),
                 "exclusions": _rows(_rows(_int)), "penalty_linear": _float,
                 "penalty_exclusion": _float}),
}


def _read_instance(family: str, params: dict):
    """One family's instance from JSON-style parameters; mixed's is a pair."""
    if family not in _FAMILIES:
        raise ProblemError(f"unknown family {family!r}")
    cls, _, readers = _FAMILIES[family]
    params = {**params}  # TypeError unless a mapping
    unread = sorted(set(params) - set(readers))
    if unread:
        raise ValueError(f"{family} does not read {', '.join(unread)}")
    return cls(**{key: readers[key](value) for key, value in params.items()})


def build_from_params(family: str, params: dict) -> tuple[object, QuboModel]:
    """(instance, model) of one family from JSON-style parameters, as the CLI
    reads them.  The keys are the instance class's fields; a missing required
    key raises TypeError, and a key the family does not read, a string or
    non-finite value where a number is read, a non-integral integer field and
    a two_sat negation flag that is not a boolean, 0 or 1 raise ValueError."""
    inst = _read_instance(family, params)
    return inst, _FAMILIES[family][1](inst)


# --- named reference instances ---------------------------------------------

_TWO_SAT = {"n": 3, "clauses": (((0, False), (1, False)), ((0, True), (2, False)))}
_QAP_PENALTY = 2.0 * 3.0 * 2.0 * 2.0  # 2 * max(A) * max(B) * n

# name -> (parameters of the family of that name, metadata).
# ``degeneracy_pinned`` marks instances whose ground degeneracy is fixed by
# the instance alone; for qap/clustering/protein it depends on the penalty
# choices and must be flagged in reports.
_PRESETS = {
    "two_sat": (_TWO_SAT,
                {"description": "(x1 or x2) and (not x1 or x3)",
                 "penalty": TwoSatInstance.penalty,
                 "degeneracy_pinned": True, "duration_us": 40.0}),
    "xor_sat": ({"n": 3, "constraints": ((0, 1, 1), (1, 2, 1), (2, 0, 1))},
                {"description": "frustrated xor triangle (odd parity cycle)",
                 "degeneracy_pinned": True, "duration_us": 40.0}),
    "mixed": ({"two_sat": _TWO_SAT,
               "xor_sat": {"n": 3, "constraints": ((1, 2, 1),)}},
              {"description": "two-SAT clauses plus x2 xor x3 = 1",
               "penalty": TwoSatInstance.penalty,
               "degeneracy_pinned": True, "duration_us": 60.0}),
    "set_packing": ({"n": 4, "weights": (1.0, 1.0, 1.0, 1.0),
                     "conflicts": ((0, 2), (0, 3), (1, 2), (1, 3))},
                    {"description": "four unit-weight sets, bipartite conflicts",
                     "penalty": SetPackingInstance.penalty,
                     "degeneracy_pinned": True, "duration_us": 40.0}),
    "qap": ({"flow": ((0.0, 3.0), (3.0, 0.0)),
             "distance": ((0.0, 2.0), (2.0, 0.0)),
             "penalty_facility": _QAP_PENALTY, "penalty_location": _QAP_PENALTY},
            {"description": "2x2 facility/location assignment",
             "penalty_facility": _QAP_PENALTY, "penalty_location": _QAP_PENALTY,
             "degeneracy_pinned": False, "duration_us": 40.0}),
    "clustering": ({"dissimilarity": ((0.0, 3.0, 0.0, 0.0, 1.0),
                                      (3.0, 0.0, 2.0, 0.0, 0.0),
                                      (0.0, 2.0, 0.0, 4.0, 1.0),
                                      (0.0, 0.0, 4.0, 0.0, 2.0),
                                      (1.0, 0.0, 1.0, 2.0, 0.0))},
                   {"description": "weighted five-node max-cut",
                    "degeneracy_pinned": False, "duration_us": 60.0}),
    "protein": ({"length": 4, "hydrophobic": (1, 1, 0, 1)},
                {"description": "HHPH contact-variable toy chain",
                 "penalty_linear": ProteinToyInstance.penalty_linear,
                 "penalty_exclusion": ProteinToyInstance.penalty_exclusion,
                 "exclusions": "contact pairs sharing a residue",
                 "degeneracy_pinned": False, "duration_us": 80.0}),
}
PRESET_NAMES = tuple(_PRESETS)


@dataclass(frozen=True)
class Preset:
    name: str
    instance: object
    model: QuboModel
    metadata: dict


def preset_instance(name: str) -> Preset:
    """A small named instance and a fresh copy of its metadata."""
    if name not in _PRESETS:
        raise ProblemError(f"unknown preset {name!r}; choose from {PRESET_NAMES}")
    params, meta = _PRESETS[name]
    return Preset(name, *build_from_params(name, params), dict(meta))
