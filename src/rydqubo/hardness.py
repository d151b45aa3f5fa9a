"""Spectral subspace clustering and the method-independent hardness parameter.

The parameter combines ground degeneracy, the gap to the first excited
subspace, and an exponentially gap-suppressed sum over "threatening"
subspaces: HP = Sigma / (|E0| * D_opt * G^2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .models import (IsingModel, ModelError, QuboModel, SpectrumTable,
                     enumerate_spectrum)

DEFAULT_EPSILON = 1e-10


class HardnessError(ValueError):
    pass


@dataclass(frozen=True)
class Subspace:
    mean_energy: float
    degeneracy: int


@dataclass(frozen=True)
class HardnessReport:
    e0: float
    gap: float
    d_opt: int
    d_first_excited: int
    threat_count: int
    sigma: float
    hp: float
    normalized_by_width: bool
    epsilon: float


def _check_epsilon(epsilon: float) -> None:
    if not 0 < epsilon < math.inf:  # also rejects nan
        raise HardnessError("epsilon must be positive and finite")


def cluster_subspaces(spectrum: SpectrumTable, epsilon: float = DEFAULT_EPSILON
                      ) -> tuple[Subspace, ...]:
    """Greedy left-to-right clustering of near-degenerate energies.

    A new subspace starts when the next distinct energy differs from the
    running degeneracy-weighted mean by at least epsilon.
    """
    _check_epsilon(epsilon)
    out: list[Subspace] = []
    weighted = total = 0
    for e, m in zip(spectrum.energies.tolist(), spectrum.counts.tolist()):
        if total and abs(e - weighted / total) >= epsilon:
            out.append(Subspace(weighted / total, total))
            weighted = total = 0
        weighted += e * m
        total += m
    out.append(Subspace(weighted / total, total))
    return tuple(out)


def threatening_set(subspaces: Sequence[Subspace]) -> tuple[int, ...]:
    """Indices alpha > 0 that are gap-adjacent or highly degenerate.

    A subspace threatens if its excitation energy is within one gap of the
    ground subspace or its degeneracy reaches max(1, D_opt / 2).
    """
    if len(subspaces) < 2:
        return ()
    e0 = subspaces[0].mean_energy
    gap = subspaces[1].mean_energy - e0
    d_thresh = max(1.0, subspaces[0].degeneracy / 2.0)
    selected = []
    for alpha in range(1, len(subspaces)):
        sub = subspaces[alpha]
        if (sub.mean_energy - e0) <= gap or sub.degeneracy >= d_thresh:
            selected.append(alpha)
    return tuple(selected)


def sigma(subspaces: Sequence[Subspace], threats: Sequence[int],
          gap: float) -> float:
    """Sum of threatening degeneracies, exponentially suppressed by the gap."""
    if gap <= 0:
        raise HardnessError("spectral gap must be positive")
    e0 = subspaces[0].mean_energy
    return float(sum(subspaces[a].degeneracy *
                     math.exp(-(subspaces[a].mean_energy - e0) / gap)
                     for a in threats))


def hardness_parameter(e0: float, d_opt: int, gap: float, sigma_value: float,
                       e_max: float | None = None) -> tuple[float, bool]:
    """HP = Sigma / (|E0| * D_opt * G^2).

    When |E0| is numerically zero the spectral width (E_max - E0) replaces
    the normalization and the returned flag is set.
    """
    if gap <= 0:
        raise HardnessError("spectral gap must be positive")
    if d_opt < 1:
        raise HardnessError("ground degeneracy D_opt must be at least 1")
    scale = abs(e0)
    by_width = False
    if scale < 1e-9:
        if e_max is None:
            raise HardnessError("|E0| ~ 0 requires e_max for width normalization")
        scale = e_max - e0
        by_width = True
        if scale <= 0:
            raise HardnessError("constant spectrum has no hardness normalization")
    return sigma_value / (scale * d_opt * gap * gap), by_width


def analyze_spectrum(spectrum: SpectrumTable,
                     epsilon: float = DEFAULT_EPSILON,
                     energy_shift: float = 0.0) -> HardnessReport:
    subspaces = cluster_subspaces(spectrum, epsilon)
    if len(subspaces) < 2:
        raise HardnessError("constant spectrum: no excited subspace")
    e0 = subspaces[0].mean_energy + energy_shift
    gap = subspaces[1].mean_energy - subspaces[0].mean_energy
    threats = threatening_set(subspaces)
    s = sigma(subspaces, threats, gap)
    e_max = subspaces[-1].mean_energy + energy_shift
    hp, by_width = hardness_parameter(e0, subspaces[0].degeneracy, gap, s, e_max)
    return HardnessReport(e0, gap, subspaces[0].degeneracy,
                          subspaces[1].degeneracy, len(threats), s, hp,
                          by_width, epsilon)


def analyze_model(model: IsingModel | QuboModel,
                  epsilon: float = DEFAULT_EPSILON,
                  energy_shift: float = 0.0) -> HardnessReport:
    return analyze_spectrum(enumerate_spectrum(model), epsilon, energy_shift)


def analyze_supplied(e0: float, gap: float, d_opt: int, d_first_excited: int,
                     threat_degeneracies: Sequence[tuple[float, float]],
                     e_max: float | None) -> HardnessReport:
    """Hardness from given spectral quantities instead of a model.

    ``threat_degeneracies`` lists (degeneracy, E_alpha - E0) per threatening
    subspace; no clustering takes place, so ``epsilon`` is NaN.
    """
    subspaces = [Subspace(0.0, d_opt)] + [Subspace(de, d)
                                          for d, de in threat_degeneracies]
    s = sigma(subspaces, range(1, len(subspaces)), gap)
    hp, by_width = hardness_parameter(e0, d_opt, gap, s, e_max)
    return HardnessReport(e0, gap, d_opt, d_first_excited, len(subspaces) - 1,
                          s, hp, by_width, math.nan)


REPORT_COLUMNS = ("problem", "E0", "gap", "D_opt", "D_E1", "threats",
                  "Sigma", "HP", "note")


def report_row(problem: str, rep: HardnessReport, note: str = "") -> dict:
    """One REPORT_COLUMNS row; a width normalization is appended to the note."""
    if rep.normalized_by_width:
        note = (note + "; " if note else "") + "normalized by spectral width"
    return {"problem": problem, "E0": rep.e0, "gap": rep.gap,
            "D_opt": rep.d_opt, "D_E1": rep.d_first_excited,
            "threats": rep.threat_count, "Sigma": rep.sigma, "HP": rep.hp,
            "note": note}


def report_rows(named_models: Sequence[tuple[str, IsingModel | QuboModel, str]],
                epsilon: float = DEFAULT_EPSILON) -> list[dict]:
    """One row per model, holding the model's HardnessError or ModelError if
    it has one; an epsilon that fails every row is raised."""
    _check_epsilon(epsilon)
    rows = []
    for name, model, note in named_models:
        try:
            rep = analyze_model(model, epsilon)
        except (HardnessError, ModelError) as exc:
            rows.append({"problem": name, "error": str(exc), "note": note})
            continue
        rows.append(report_row(name, rep, note))
    return rows


def format_value(value) -> str:
    """The package's output format: floats to 12 significant digits."""
    return f"{value:.12g}" if isinstance(value, float) else str(value)


def format_table(rows: Sequence[dict]) -> str:
    table = [[format_value(row.get(col, row.get("error", "")))
              for col in REPORT_COLUMNS] for row in rows]
    widths = [max(len(col), *(len(r[k]) for r in table)) if table else len(col)
              for k, col in enumerate(REPORT_COLUMNS)]
    lines = ["  ".join(col.ljust(w) for col, w in zip(REPORT_COLUMNS, widths))]
    for r in table:
        lines.append("  ".join(c.ljust(w) for c, w in zip(r, widths)))
    return "\n".join(lines)


def format_csv(rows: Sequence[dict],
               columns: Sequence[str] = REPORT_COLUMNS) -> str:
    lines = [",".join(columns)]
    for row in rows:
        cells = [format_value(row.get(col, row.get("error", ""))) for col in columns]
        lines.append(",".join('"' + c + '"' if "," in c else c for c in cells))
    return "\n".join(lines)
