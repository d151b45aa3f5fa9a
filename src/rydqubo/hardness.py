"""The method-independent hardness parameter of a spectrum's levels.

The levels of ``enumerate_spectrum`` are the subspaces: its level rule alone
says which energies are one level.  The parameter combines the ground
degeneracy, the gap to the first excited level, and an exponentially
gap-suppressed sum over "threatening" levels: HP = Sigma / (|E0| * D_opt * G^2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .models import (IsingModel, ModelError, QuboModel, SpectrumTable,
                     enumerate_spectrum)


class HardnessError(ValueError):
    pass


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


def threatening_set(energies: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Indices alpha > 0 of the levels that are gap-adjacent or highly
    degenerate.

    A level threatens if its excitation energy is within one gap of the
    ground level or its degeneracy reaches max(1, D_opt / 2).
    """
    with np.errstate(over="ignore"):  # beyond the float range is beyond the gap
        excitation = energies[1:] - energies[0]
    gap = excitation[:1]  # empty for a one-level spectrum, which has no threats
    d_thresh = max(1.0, counts[0] / 2.0)
    return np.flatnonzero((excitation <= gap) | (counts[1:] >= d_thresh)) + 1


def sigma(energies: np.ndarray, counts: np.ndarray,
          threats: Sequence[int] | np.ndarray, gap: float) -> float:
    """Sum of threatening degeneracies, exponentially suppressed by the gap,
    added left to right in level order.  An excitation wider than the float
    range is taken as E_alpha / G - E0 / G."""
    if gap <= 0:
        raise HardnessError("spectral gap must be positive")
    e = energies[threats]
    with np.errstate(over="ignore"):
        excitation = e - energies[0]
        x = excitation / gap
        wide = np.isinf(excitation) & np.isfinite(e)
        x[wide] = e[wide] / gap - energies[0] / gap
    return float(sum((counts[threats] * np.exp(-x)).tolist()))


def hardness_parameter(e0: float, d_opt: int, gap: float, sigma_value: float,
                       e_max: float | None = None) -> tuple[float, bool]:
    """HP = Sigma / (|E0| * D_opt * G^2).

    When |E0| is below 1e-9 gaps the spectral width (E_max - E0) replaces
    the normalization and the returned flag is set.  An HP beyond the float
    range, or a normalization that underflows to 0, is refused.
    """
    if gap <= 0:
        raise HardnessError("spectral gap must be positive")
    if d_opt < 1:
        raise HardnessError("ground degeneracy D_opt must be at least 1")
    scale = abs(e0)
    by_width = False
    if scale < 1e-9 * gap:
        if e_max is None:
            raise HardnessError("|E0| ~ 0 requires e_max for width normalization")
        scale = e_max - e0
        by_width = True
        if scale <= 0:
            raise HardnessError("constant spectrum has no hardness normalization")
    norm = scale * d_opt * gap * gap
    if not (norm > 0 and sigma_value / norm < np.inf):
        raise HardnessError("HP overflows a float: |E0| * D_opt * G^2 is "
                            "too small")
    return sigma_value / norm, by_width


def analyze_spectrum(spectrum: SpectrumTable) -> HardnessReport:
    """The hardness of a spectrum's levels.  E0 is the lowest level, so the
    model's ``constant`` sets the energy zero that |E0| is measured from."""
    energies, counts = spectrum.energies, spectrum.counts
    if energies.size < 2:
        raise HardnessError("constant spectrum: no excited subspace")
    # a NaN energy is inf - inf, and that inf is the lowest or highest level
    if not np.isfinite(energies[[0, -1]]).all():
        raise HardnessError("a level is not finite: the energies overflow "
                            "a float")
    (e0, e_1), (d_opt, d_1) = energies[:2].tolist(), counts[:2].tolist()
    gap = e_1 - e0
    threats = threatening_set(energies, counts)
    s = sigma(energies, counts, threats, gap)
    hp, by_width = hardness_parameter(e0, d_opt, gap, s, spectrum.e_max)
    return HardnessReport(e0, gap, d_opt, d_1, threats.size, s, hp, by_width)


def analyze_model(model: IsingModel | QuboModel) -> HardnessReport:
    return analyze_spectrum(enumerate_spectrum(model))


def analyze_supplied(e0: float, gap: float, d_opt: int, d_first_excited: int,
                     threat_degeneracies: Sequence[tuple[float, float]],
                     e_max: float | None) -> HardnessReport:
    """Hardness from given spectral quantities instead of a model.

    ``threat_degeneracies`` lists (degeneracy, E_alpha - E0) per threatening
    level.
    """
    energies = np.array([0.0, *(de for _, de in threat_degeneracies)])
    counts = np.array([d_opt, *(d for d, _ in threat_degeneracies)], dtype=float)
    threats = np.arange(1, energies.size)
    s = sigma(energies, counts, threats, gap)
    hp, by_width = hardness_parameter(e0, d_opt, gap, s, e_max)
    return HardnessReport(e0, gap, d_opt, d_first_excited, threats.size, s, hp,
                          by_width)


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


def report_rows(named_models: Sequence[tuple[str, IsingModel | QuboModel, str]]
                ) -> list[dict]:
    """One row per model, holding the model's HardnessError or ModelError if
    it has one."""
    rows = []
    for name, model, note in named_models:
        try:
            rep = analyze_model(model)
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
