"""Pulse-shape optimization: BFGS stages on the exact gradient.

The objective is the final-time expectation of the encoded target
Hamiltonian.  Each stage runs BFGS on the objective's value and its exact
adjoint gradient (``annealer.energy_gradient``), restarted at the incumbent;
the default plan is one stage of 800 evaluations.  A stage budget counts
objective evaluations: a value is 1, a gradient 2P for P coefficients, the
central-difference probes it replaces.  Identical (target, plan, seed) inputs
reproduce bit-identical results.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .annealer import (PropagationConfig, Schedule, Trajectory,
                       _initial_steps, energy_gradient, propagate)
# a module global, looked up per call, so a tracer can rebind it
from .encoding import EncodedTarget, _minimize as minimize
from .models import _float, _int


@dataclass(frozen=True)
class Stage:
    kind: str                  # "gradient", the only kind; plan files name it
    max_evals: int
    tolerance: float = 1e-9

    def __post_init__(self):
        if self.kind != "gradient":
            raise ValueError(f"unknown stage kind {self.kind!r}")
        object.__setattr__(self, "max_evals", _int(self.max_evals))
        object.__setattr__(self, "tolerance", _float(self.tolerance))
        if self.max_evals < 1:
            raise ValueError("stage budget must be positive")
        if self.tolerance < 0:
            raise ValueError("stage tolerance must not be negative")


@dataclass(frozen=True)
class StagePlan:
    stages: tuple[Stage, ...]

    def __post_init__(self):
        if not self.stages:
            raise ValueError("plan needs at least one stage")

    @staticmethod
    def default() -> "StagePlan":
        return StagePlan((Stage("gradient", 800),))

    def to_dict(self) -> dict:
        return {"stages": [{"kind": s.kind, "max_evals": s.max_evals,
                            "tolerance": s.tolerance} for s in self.stages]}

    @staticmethod
    def from_dict(data: dict) -> "StagePlan":
        return StagePlan(tuple(Stage(s["kind"], s["max_evals"],
                                     s.get("tolerance", 1e-9))
                               for s in data["stages"]))


@dataclass(frozen=True)
class OptimizationResult:
    params: np.ndarray
    e_best: float              # encoded-convention energy at T
    f_best: float
    ratio: float
    evaluations: int
    stage_history: tuple[tuple[float, ...], ...]  # best-so-far trace per stage
    seed: int
    budget_exhausted: bool
    schedule: Schedule
    c_obt: float               # source-convention expected cost
    trajectory: Trajectory     # adaptive high-accuracy propagation of params


def approximation_ratio(c_max: float, c_opt: float, c_obt: float) -> float:
    """R = (C_max - C_obt) / (C_max - C_opt); constant costs count as solved."""
    if c_max < c_opt:
        raise ValueError("c_max must be >= c_opt")
    if c_max == c_opt:
        return 1.0
    return (c_max - c_obt) / (c_max - c_opt)


class AnnealObjective:
    """E(T) of ``energy_gradient`` at ``initial_steps`` midpoint steps, as a
    function of flattened schedule coefficients (deltas, omegas)."""

    def __init__(self, enc: EncodedTarget, template: Schedule,
                 initial_steps: int = 200):
        self.enc = enc
        self.template = template
        self.initial_steps = _initial_steps(initial_steps)
        self.n_delta = len(template.delta_coeffs)
        self.n_omega = len(template.omega_coeffs)

    def schedule_for(self, params: Sequence[float]) -> Schedule:
        params = tuple(float(p) for p in params)
        if len(params) != self.n_delta + self.n_omega:
            raise ValueError("parameter vector length mismatch")
        return replace(self.template,
                       delta_coeffs=params[:self.n_delta],
                       omega_coeffs=params[self.n_delta:])

    def value_and_gradient(self, params: Sequence[float]
                           ) -> tuple[float, np.ndarray]:
        """(E(T), exact dE/dparams)."""
        return energy_gradient(self.enc, self.schedule_for(params),
                               self.initial_steps)


class _BudgetExceeded(Exception):
    pass


class _Tracker:
    """Wraps an objective: counts evaluations, tracks the incumbent, enforces budgets.

    The trace gets one best-so-far entry per charged evaluation.
    """

    def __init__(self, fn: AnnealObjective):
        self.fn = fn
        self.best_e = math.inf
        self.best_params: np.ndarray | None = None
        self.count = 0
        self.limit = 0
        self.trace: list[float] = []

    def set_budget(self, limit: int):
        self.limit = self.count + limit

    def value_and_gradient(self, params: np.ndarray) -> tuple[float, np.ndarray]:
        """1 evaluation for the value, then 2P for the gradient; when fewer
        than 2P remain, the rest is charged and the budget is exceeded."""
        if self.count >= self.limit:
            raise _BudgetExceeded
        e, grad = self.fn.value_and_gradient(params)
        if e < self.best_e:
            self.best_e = e
            self.best_params = np.asarray(params, dtype=float).copy()
        charged = min(1 + 2 * grad.size, self.limit - self.count)
        self.count += charged
        self.trace.extend([self.best_e] * charged)
        if charged < 1 + 2 * grad.size:
            raise _BudgetExceeded
        return e, grad


def initial_parameters(template: Schedule, seed: int = 0) -> np.ndarray:
    """Zeroed delta coefficients plus a small fundamental-mode Rabi seed.

    Seeds other than 0 add a small deterministic perturbation so repeated
    runs can restart from distinct points: 5 % of the ramp span
    |1 - delta0| on the Delta_G coefficients and 5 % of omega_max on the
    Omega coefficients.
    """
    n_delta = len(template.delta_coeffs)
    p = np.zeros(n_delta + len(template.omega_coeffs))
    if template.omega_coeffs:
        p[n_delta] = 0.1 * template.omega_max
    if seed != 0:
        scale = np.full(p.size, 0.05 * template.omega_max)
        scale[:n_delta] = 0.05 * abs(1.0 - template.delta0)
        p += np.random.default_rng(seed).normal(scale=scale)
    return p


def run_hybrid(objective: AnnealObjective, plan: StagePlan | None = None,
               seed: int = 0, *, ground_indices: Sequence[int],
               c_opt: float, c_max: float) -> OptimizationResult:
    """Run the staged optimizer; returns the best schedule found, never raises
    on budget exhaustion.  F sums the probability of the encoded basis
    states ``ground_indices``, and R reads ``c_opt`` and ``c_max``, in source
    units; ``run_pipeline`` takes all three from the source spectrum."""
    plan = plan or StagePlan.default()
    enc = objective.enc
    tracker = _Tracker(objective)
    params = initial_parameters(objective.template, seed)

    stage_history: list[tuple[float, ...]] = []
    exhausted = False
    for stage in plan.stages:
        tracker.set_budget(stage.max_evals)
        mark = len(tracker.trace)
        try:
            minimize(tracker.value_and_gradient, params, jac=True, method="BFGS",
                     options={"maxiter": stage.max_evals,
                              "gtol": stage.tolerance})
        except _BudgetExceeded:
            exhausted = True
        # energy_gradient refuses a non-finite E: the first point is incumbent
        params = tracker.best_params
        stage_history.append(tuple(tracker.trace[mark:]))

    # final high-accuracy propagation of the incumbent
    _, traj = propagate(enc, objective.schedule_for(params),
                        PropagationConfig(max(objective.initial_steps, 200)),
                        ground_indices=ground_indices)
    e_best = float(traj.energy[-1])
    f_best = float(traj.fidelity[-1])
    c_obt = e_best / enc.scale
    ratio = approximation_ratio(c_max, c_opt, c_obt)
    return OptimizationResult(params, e_best, f_best, ratio,
                              tracker.count, tuple(stage_history), seed,
                              exhausted, objective.schedule_for(params),
                              c_obt, traj)
