"""Acceptance gate: one test per release criterion, oracles computed in-test.

Each test finishes by printing a single PASS line; any assertion failure
turns that criterion's line into a pytest FAILED entry instead.
"""

import itertools
import math
import time

import numpy as np
import pytest

from rydqubo.annealer import PropagationConfig, Schedule, propagate
from rydqubo.encoding import (AtomLayout, EncodedTarget, HardwareLimits,
                              encode, embed_layout, layout_interactions,
                              rescale, validate)
from rydqubo.hardness import hardness_parameter, report_rows
from rydqubo.models import IsingModel, as_ising, enumerate_spectrum, state_bits
from rydqubo.optimizer import AnnealObjective, run_hybrid
from rydqubo.pipeline import encode_for_annealing, run_pipeline
from rydqubo.problems import preset_instance

from conftest import objective_value, random_antiferro_ising, stencil_gradient


def report(line: str):
    print(f"\n{line}")


def test_criterion_1_hardness_formula_closure():
    hp_a, _ = hardness_parameter(-0.15, 4, 0.30, 4.0 * math.exp(-1.0))
    hp_b, _ = hardness_parameter(-0.30, 6, 0.60, 2.0 * math.exp(-1.0))
    assert hp_a == pytest.approx(27.25, rel=0.01)
    assert hp_b == pytest.approx(1.13, rel=0.01)
    report(f"PASS criterion 1: hardness closure HP = {hp_a:.4f}, {hp_b:.4f} "
           "(reference 27.25, 1.13 within 1%)")


def test_criterion_2_ground_degeneracy_oracle():
    expected = {"two_sat": 4, "xor_sat": 6, "mixed": 2, "set_packing": 2}
    for name, d_opt in expected.items():
        table = enumerate_spectrum(preset_instance(name).model)
        assert len(table.ground_states) == d_opt, name
    # instances whose degeneracy depends on penalty defaults must be flagged
    named = []
    for name in ("qap", "clustering", "protein"):
        preset = preset_instance(name)
        assert preset.metadata["degeneracy_pinned"] is False
        named.append((name, preset.model,
                      "degeneracy depends on unpinned penalty defaults"))
    for row in report_rows(named):
        assert "unpinned" in row["note"]
    report("PASS criterion 2: D_opt = 4/6/2/2 for two_sat/xor_sat/mixed/"
           "set_packing; qap/clustering/protein rows flagged")


def test_criterion_3_brute_force_instance_values():
    clustering = preset_instance("clustering").instance
    best_cut = max(clustering.cut_weight(x)
                   for x in itertools.product((0, 1), repeat=clustering.n))
    assert best_cut == pytest.approx(11.0)

    qap = preset_instance("qap").instance
    costs = [qap.assignment_cost(perm)
             for perm in itertools.permutations(range(qap.n))]
    assert costs == pytest.approx([12.0, 12.0])

    xor = preset_instance("xor_sat").instance
    min_viol = min(xor.violated(x)
                   for x in itertools.product((0, 1), repeat=xor.n))
    assert min_viol == 1
    report("PASS criterion 3: max cut 11, QAP cost 12 (both permutations), "
           "XOR triangle minimum violations 1")


def test_criterion_4_encoding_exactness():
    rng = np.random.default_rng(42)
    limits = HardwareLimits()
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 9))
        m = random_antiferro_ising(rng, n)
        enc = encode(m)
        e_src = m.energies()
        scale_ref = max(1.0, float(np.abs(e_src).max()))
        err = np.abs(enc.diagonal_energies() + enc.constant - e_src).max()
        worst = max(worst, err / scale_ref)
        assert err <= 1e-10 * scale_ref

        scaled, _ = rescale(
            EncodedTarget(enc.n, enc.v * 1e4, enc.delta_final * 1e4,
                          enc.constant * 1e4, enc.scale * 1e4), limits)
        e_a = enc.diagonal_energies()
        e_b = scaled.diagonal_energies()
        span_a = max(float(np.ptp(e_a)), 1e-12)
        span_b = max(float(np.ptp(e_b)), 1e-12)
        mins_a = set(np.flatnonzero(e_a <= e_a.min() + 1e-9 * span_a))
        mins_b = set(np.flatnonzero(e_b <= e_b.min() + 1e-9 * span_b))
        assert mins_a == mins_b
    report(f"PASS criterion 4: 100 random antiferromagnetic encodings exact "
           f"(worst relative error {worst:.2e} <= 1e-10); rescale preserves "
           "argmin sets")


def test_criterion_5_propagator_physics():
    # Rabi closed form on a single resonant atom
    enc1 = EncodedTarget(1, np.zeros((1, 1)), np.zeros(1), 0.0)
    t_total, b1 = 4.0, 1.2
    sched = Schedule(t_total, (), (b1,), sample_count=81)
    psi0 = np.array([1.0, 0.0], dtype=complex)
    _, rabi = propagate(enc1, sched, PropagationConfig(tolerance_rel=1e-12),
                        ground_indices=[1], psi0=psi0)
    area = b1 * 2.0 * t_total / math.pi
    rabi_err = abs(rabi.fidelity[-1] - math.sin(area / 2.0) ** 2)
    assert rabi_err < 1e-6
    assert rabi.norm_error < 1e-9

    # diagonal evolution leaves populations fixed
    enc2 = encode(IsingModel(2, (0.0, 0.0), {(0, 1): 0.5}, 0.5))
    rng = np.random.default_rng(3)
    psi = rng.normal(size=4) + 1j * rng.normal(size=4)
    psi /= np.linalg.norm(psi)
    final, diag_traj = propagate(enc2, Schedule(5.0, (0.3,), ()),
                                 ground_indices=[1, 2], psi0=psi)
    assert np.abs(np.abs(final) ** 2 - np.abs(psi) ** 2).max() < 1e-9
    assert diag_traj.norm_error < 1e-9

    # adiabatic ramp on the XOR-pair encoding
    _, adiab = propagate(enc2, Schedule(100.0, (), (1.0,), delta0=-1.0),
                         ground_indices=[1, 2])
    assert adiab.fidelity[-1] > 0.99
    assert adiab.norm_error < 1e-9
    report(f"PASS criterion 5: norm error <= 1e-9, Rabi closed form within "
           f"{rabi_err:.1e}, diagonal populations fixed, adiabatic XOR-pair "
           f"F = {adiab.fidelity[-1]:.4f} > 0.99")


THRESHOLDS = {"two_sat": 0.99, "xor_sat": 0.99, "set_packing": 0.99,
              "clustering": 0.99, "mixed": 0.97, "qap": 0.97, "protein": 0.97}


@pytest.mark.parametrize("name", list(THRESHOLDS))
def test_criterion_6_end_to_end_quality(name):
    start = time.monotonic()
    result = run_pipeline(preset_instance(name).model, name,
                          preset_name=name, seed=0)
    elapsed = time.monotonic() - start
    ratio = result.optimization.ratio
    assert elapsed <= 300.0, f"{name} took {elapsed:.0f}s"
    assert ratio >= THRESHOLDS[name], f"{name}: R = {ratio:.5f}"
    report(f"PASS criterion 6 ({name}): R = {ratio:.5f} >= "
           f"{THRESHOLDS[name]} in {elapsed:.0f}s")


@pytest.mark.parametrize("name, seed", [("qap", 1), ("qap", 2),
                                        ("clustering", 1), ("protein", 1)])
def test_criterion_6_holds_at_other_optimizer_seeds(name, seed):
    """The seeded start noise is scaled per block (the ramp span for Delta_G,
    omega_max for Omega), so a seeded start stays a pulse whose final
    adaptive propagation converges and whose R meets the threshold.  The
    fourth-order final propagation keeps protein at seed 1 to seconds (its
    midpoint-rule propagation took about 160 s)."""
    result = run_pipeline(preset_instance(name).model, name,
                          preset_name=name, seed=seed)
    assert result.optimization.evaluations == 800
    assert result.optimization.ratio >= THRESHOLDS[name], (
        f"{name} seed {seed}: R = {result.optimization.ratio:.5f}")


def test_criterion_7_gradient_check():
    rng = np.random.default_rng(11)
    worst = 0.0
    for name in ("two_sat", "xor_sat", "mixed"):
        outcome = encode_for_annealing(as_ising(preset_instance(name).model))
        template = Schedule(8.0, (0.0, 0.0), (0.0, 0.0), sample_count=21)
        obj = AnnealObjective(outcome.target, template, initial_steps=40)
        for _ in range(20):
            p = rng.normal(scale=0.5, size=4)
            p[2] += 1.0
            g = obj.value_and_gradient(p)[1]
            oracle = stencil_gradient(objective_value(obj), p)
            rel = np.linalg.norm(g - oracle) / max(np.linalg.norm(oracle),
                                                   1e-9)
            worst = max(worst, rel)
            assert rel < 1e-3, f"{name}: gradient mismatch {rel:.2e}"
    report(f"PASS criterion 7: adjoint gradients within 1e-3 of the "
           f"fourth-order stencil (worst {worst:.2e}, 20 vectors x 3 "
           "instances)")


def test_criterion_8_geometry_round_trip():
    worst_feasible = 0.0
    # feasible targets: V computed from actual chain and triangle geometry
    chain = np.stack([np.arange(4) * 6.0, np.zeros(4)], axis=1)
    triangle = 7.0 * np.array([[0.0, 0.0], [1.0, 0.0], [0.5, math.sqrt(3) / 2]])
    for pos in (chain, triangle):
        v = layout_interactions(AtomLayout(pos))
        target = EncodedTarget(len(pos), v, np.ones(len(pos)), 0.0)
        layout, rep = embed_layout(target, dim=2, seed=1)
        worst_feasible = max(worst_feasible, rep.max_rel_error)
        assert rep.max_rel_error <= 1e-6
        assert validate(target, layout, tol=1e-6).passed

    # infeasible star graph: leakage must surface in the residual
    n = 7
    v = np.zeros((n, n))
    v[0, 1:] = v[1:, 0] = layout_interactions(
        AtomLayout(np.array([[0.0, 0.0], [6.0, 0.0]])))[0, 1]
    star = EncodedTarget(n, v, np.ones(n), 0.0)
    _, star_rep = embed_layout(star, dim=2, seed=0,
                               limits=HardwareLimits(r_far=30.0))
    assert star_rep.max_rel_error > 1e-3
    report(f"PASS criterion 8: chain/triangle round trip residual "
           f"{worst_feasible:.1e} <= 1e-6; star-graph leakage reported "
           f"({star_rep.max_rel_error:.2e})")
