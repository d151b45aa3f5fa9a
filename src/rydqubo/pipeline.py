"""End-to-end orchestration: build -> encode -> optimize -> report.

Shared by the CLI and by programmatic callers.  Runs are described by a
manifest whose hash is embedded in every output file; identical manifests
produce identical numeric output.
"""

from __future__ import annotations

import datetime
import hashlib
import json
from dataclasses import asdict, dataclass, replace

import numpy as np

from . import __version__
from .annealer import Schedule, Trajectory, initial_basis_index
from .encoding import (EncodedTarget, FrustratedModelError, HardwareLimits,
                       encode, gauge_fix, rescale)
from .hardness import format_csv
from .models import (IsingModel, QuboModel, SpectrumTable, as_ising,
                     enumerate_spectrum)
from .optimizer import (AnnealObjective, OptimizationResult, StagePlan,
                        run_hybrid)
from .problems import preset_instance

DELTA0_CANDIDATES = (-1.0, -0.5, -2.0, 0.5, 2.0, -4.0, 4.0)
TEMPLATE_MODES = 6  # Fourier coefficients per profile in the default template


@dataclass(frozen=True)
class RunManifest:
    instance: str
    mode: str                  # "ideal" or "physical"
    schedule: dict
    plan: dict
    seed: int
    version: str = __version__
    timestamp: str = ""

    def to_dict(self) -> dict:
        return asdict(self)

    def hash(self) -> str:
        # the timestamp is metadata, not identity
        payload = {k: v for k, v in self.to_dict().items() if k != "timestamp"}
        return hashlib.sha256(
            json.dumps(payload, sort_keys=True).encode()).hexdigest()[:16]


@dataclass(frozen=True)
class EncodingOutcome:
    target: EncodedTarget
    flips: tuple[int, ...]         # XOR mask mapping encoded bits to source bits
    signed: bool                   # negative interactions kept (ideal mode only)
    scale_binding: str

    def ground_indices(self, spectrum: SpectrumTable) -> np.ndarray:
        """The source spectrum's ground states as encoded basis indices,
        ascending: the gauge flips map pattern x to x XOR flips."""
        mask = sum(bit << i for i, bit in enumerate(self.flips))
        return np.sort(np.array(spectrum.ground_states) ^ mask)


def encode_for_annealing(model: IsingModel | QuboModel,
                         mode: str = "ideal",
                         limits: HardwareLimits | None = None) -> EncodingOutcome:
    """Gauge-fix, encode and rescale a model.

    Frustrated coupling signs cannot be gauged away; in ideal mode the signed
    interactions are kept (they cannot be realized geometrically, which is
    flagged), in physical mode the error propagates.
    """
    ising = as_ising(model)
    signed = False
    try:
        ising, flips = gauge_fix(ising)
    except FrustratedModelError:
        if mode != "ideal":
            raise
        flips, signed = (0,) * ising.n, True
    target, binding = rescale(encode(ising, allow_negative=signed),
                              limits or HardwareLimits())
    return EncodingOutcome(target, flips, signed, binding)


def default_schedule(preset_name: str | None, enc: EncodedTarget,
                     t_total: float | None = None,
                     limits: HardwareLimits | None = None) -> Schedule:
    """Schedule template with a Delta_G(0) for which H(0) has a usable start.

    Scans a small candidate list for a non-degenerate diagonal minimum; if
    every candidate is degenerate, picks the first one whose start state is
    the all-ground-atoms state.
    """
    limits = limits or HardwareLimits()
    if t_total is None:
        meta = preset_instance(preset_name).metadata if preset_name else {}
        t_total = float(meta.get("duration_us", 60.0))
    t_total = min(t_total, limits.t_max)
    base = Schedule(t_total, (0.0,) * TEMPLATE_MODES, (0.0,) * TEMPLATE_MODES,
                    omega_max=limits.omega_max)
    fallback = None
    for cand in DELTA0_CANDIDATES:
        sched = replace(base, delta0=cand)
        index, ties = initial_basis_index(enc, sched)
        if ties == 1:
            return sched
        if fallback is None and index == 0:
            fallback = sched
    return fallback if fallback is not None else replace(base, delta0=-1.0)


@dataclass(frozen=True)
class PipelineResult:
    manifest: RunManifest
    outcome: EncodingOutcome
    optimization: OptimizationResult
    spectrum: SpectrumTable        # of the source model

    @property
    def ground_states(self) -> tuple[int, ...]:
        """Ground patterns of the source spectrum, in the source-model frame;
        the final F sums the same states, mapped through the gauge flips."""
        return self.spectrum.ground_states


def run_pipeline(model: IsingModel | QuboModel,
                 instance_name: str = "custom",
                 preset_name: str | None = None,
                 mode: str = "ideal",
                 plan: StagePlan | None = None,
                 seed: int = 0,
                 schedule: Schedule | None = None,
                 limits: HardwareLimits | None = None) -> PipelineResult:
    limits = limits or HardwareLimits()
    plan = plan or StagePlan.default()
    outcome = encode_for_annealing(model, mode=mode, limits=limits)
    enc = outcome.target
    if schedule is None:
        schedule = default_schedule(preset_name, enc, limits=limits)

    spectrum = enumerate_spectrum(model)
    result = run_hybrid(AnnealObjective(enc, schedule), plan, seed,
                        ground_indices=outcome.ground_indices(spectrum),
                        c_opt=spectrum.e_min, c_max=spectrum.e_max)

    manifest = RunManifest(instance_name, mode, schedule.to_dict(),
                           plan.to_dict(), seed,
                           timestamp=datetime.datetime.now(
                               datetime.timezone.utc).isoformat())
    return PipelineResult(manifest, outcome, result, spectrum)


def trajectory_csv(traj: Trajectory, delta_final: np.ndarray) -> str:
    """The trajectory as CSV, one row per sample: t, Omega, Delta_G, each
    Delta_j(t) = Delta_G(t) Delta_j(T), E and F."""
    columns = ["t_us", "omega", "delta_G",
               *(f"delta_{j + 1}" for j in range(len(delta_final))), "E", "F"]
    table = np.column_stack((traj.times, traj.omega, traj.delta_g,
                             np.multiply.outer(traj.delta_g, delta_final),
                             traj.energy, traj.fidelity))
    return format_csv([dict(zip(columns, row)) for row in table.tolist()],
                      columns)


def result_json(result: PipelineResult) -> dict:
    opt = result.optimization
    return {
        "manifest": result.manifest.to_dict(),
        "manifest_hash": result.manifest.hash(),
        "instance": result.manifest.instance,
        "mode": result.manifest.mode,
        "signed_interactions": result.outcome.signed,
        "gauge_flips": list(result.outcome.flips),
        "scale": result.outcome.target.scale,
        "scale_binding": result.outcome.scale_binding,
        "schedule": opt.schedule.to_dict(),
        "E_final": opt.e_best,
        "F_final": opt.f_best,
        "R": opt.ratio,
        "C_opt": result.spectrum.e_min,
        "C_max": result.spectrum.e_max,
        "C_obt": opt.c_obt,
        "evaluations": opt.evaluations,
        "budget_exhausted": opt.budget_exhausted,
        "seed": opt.seed,
        "ground_states": [int(g) for g in result.ground_states],
    }
