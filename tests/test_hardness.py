import math

import numpy as np
import pytest

from rydqubo.hardness import (DEFAULT_EPSILON, HardnessError, Subspace,
                              analyze_model, analyze_spectrum,
                              cluster_subspaces, format_csv, format_table,
                              hardness_parameter, report_rows, sigma,
                              threatening_set)
from rydqubo.models import ENUMERATION_CAP, QuboModel, enumerate_spectrum
from rydqubo.problems import PRESET_NAMES, preset_instance

from conftest import random_qubo, spectrum_cases


def test_cluster_subspaces_merges_within_epsilon():
    q = QuboModel(2, (1.0, 1.0 + 1e-12), {})
    tight = cluster_subspaces(enumerate_spectrum(q), epsilon=1e-15)
    loose = cluster_subspaces(enumerate_spectrum(q), epsilon=1e-9)
    assert [s.degeneracy for s in tight] == [1, 1, 1, 1]
    assert [s.degeneracy for s in loose] == [1, 2, 1]


def test_cluster_subspaces_idempotent(rng):
    q = random_qubo(rng, 6)
    subspaces = cluster_subspaces(enumerate_spectrum(q))
    assert sum(s.degeneracy for s in subspaces) == 1 << 6
    means = [s.mean_energy for s in subspaces]
    assert means == sorted(means)
    # consecutive subspace means are separated by at least epsilon
    assert all(b - a >= DEFAULT_EPSILON for a, b in zip(means, means[1:]))


def _reference_cluster_subspaces(spectrum, epsilon):
    """The clustering loop the running sums replaced: each cluster's mean is
    recomputed from its members for every level.  Returns [(mean, D), ...]."""
    out, members = [], []

    def flush():
        if members:
            total = sum(m for _, m in members)
            out.append((sum(e * m for e, m in members) / total, total))
            members.clear()

    for energy, count in zip(spectrum.energies.tolist(), spectrum.counts.tolist()):
        if members:
            total = sum(m for _, m in members)
            mean = sum(e * m for e, m in members) / total
            if abs(energy - mean) >= epsilon:
                flush()
        members.append((energy, count))
    flush()
    return out


@pytest.mark.parametrize("epsilon", [1e-15, 1e-10, 1e-6, 0.3])
def test_cluster_subspaces_matches_reference(rng, epsilon):
    for model in spectrum_cases(rng):
        spectrum = enumerate_spectrum(model)
        got = [(s.mean_energy.hex(), s.degeneracy)
               for s in cluster_subspaces(spectrum, epsilon)]
        want = [(mean.hex(), d)
                for mean, d in _reference_cluster_subspaces(spectrum, epsilon)]
        assert got == want


def sub(mean, deg):
    return Subspace(mean, deg)


def test_threatening_set_rules():
    subs = (sub(0.0, 4), sub(0.5, 1), sub(0.6, 2), sub(5.0, 1), sub(6.0, 8))
    # gap G = 0.5; low-lying subspaces threaten, as do large ones
    threats = threatening_set(subs)
    assert 1 in threats        # within one gap of the ground subspace
    assert 2 in threats        # D = 2 >= max(1, 4/2)
    assert 3 not in threats    # high energy, small degeneracy
    assert 4 in threats        # D = 8 >= 2


def test_sigma_weighting():
    subs = (sub(0.0, 4), sub(0.5, 2))
    val = sigma(subs, [1], 0.5)
    assert val == pytest.approx(2.0 * math.exp(-1.0))
    with pytest.raises(HardnessError):
        sigma(subs, [1], 0.0)


def test_sigma_at_least_first_excited_term(rng):
    for name in PRESET_NAMES:
        rep = analyze_model(preset_instance(name).model)
        assert rep.sigma >= rep.d_first_excited * math.exp(-1.0) - 1e-12


def test_hardness_closure_reference_values():
    hp1, flag1 = hardness_parameter(-0.15, 4, 0.30, 4.0 * math.exp(-1.0))
    assert not flag1
    assert hp1 == pytest.approx(27.25, rel=0.01)
    hp2, flag2 = hardness_parameter(-0.30, 6, 0.60, 2.0 * math.exp(-1.0))
    assert not flag2
    assert hp2 == pytest.approx(1.13, rel=0.01)


def test_hardness_width_fallback():
    hp, flagged = hardness_parameter(0.0, 2, 1.0, 1.0, e_max=4.0)
    assert flagged
    assert hp == pytest.approx(1.0 / (4.0 * 2 * 1.0))
    with pytest.raises(HardnessError):
        hardness_parameter(0.0, 2, 1.0, 1.0, e_max=None)


def test_hardness_rejects_empty_ground_space():
    with pytest.raises(HardnessError):
        hardness_parameter(-1.0, 0, 0.5, 1.0)


def test_hardness_scale_covariance(rng):
    q = random_qubo(rng, 5)
    # make sure |E0| is comfortably nonzero
    q = QuboModel(q.n, q.linear, q.quadratic, q.constant - 50.0)
    lam = 3.0
    scaled = QuboModel(q.n, tuple(lam * a for a in q.linear),
                       {k: lam * v for k, v in q.quadratic.items()},
                       lam * q.constant)
    a = analyze_model(q)
    b = analyze_model(scaled)
    assert b.sigma == pytest.approx(a.sigma, rel=1e-9)
    assert b.hp == pytest.approx(a.hp / lam**3, rel=1e-9)


def test_energy_shift_changes_normalization_only():
    q = preset_instance("xor_sat").model
    a = analyze_model(q)
    b = analyze_model(q, energy_shift=-2.0)
    assert b.gap == a.gap and b.sigma == a.sigma
    assert b.e0 == pytest.approx(a.e0 - 2.0)


def test_constant_spectrum_rejected():
    q = QuboModel(2, (0.0, 0.0), {})
    with pytest.raises(HardnessError):
        analyze_model(q)


def test_analyze_known_presets():
    rep = analyze_model(preset_instance("two_sat").model)
    assert rep.d_opt == 4 and rep.gap == pytest.approx(1.0)
    assert rep.normalized_by_width  # E0 = 0 for the satisfiable instance
    rep = analyze_model(preset_instance("xor_sat").model)
    assert rep.d_opt == 6 and rep.e0 == pytest.approx(1.0)
    assert not rep.normalized_by_width


def test_report_rows_isolation_and_flags():
    constant = QuboModel(1, (0.0,), {})
    too_large = QuboModel(ENUMERATION_CAP + 1, (0.0,) * (ENUMERATION_CAP + 1), {})
    rows = report_rows([("good", preset_instance("xor_sat").model, ""),
                        ("bad", constant, "flagged"),
                        ("large", too_large, "")])
    assert rows[0]["HP"] > 0
    assert "error" in rows[1]
    assert rows[1]["note"] == "flagged"
    assert "enumeration cap" in rows[2]["error"]
    table = format_table(rows)
    assert "good" in table and "bad" in table
    csv = format_csv(rows)
    assert csv.splitlines()[0].startswith("problem,")


@pytest.mark.parametrize("epsilon", [0.0, -1.0, math.nan])
def test_report_rows_raises_bad_epsilon(epsilon):
    """An epsilon that is not positive would fail every row alike, so it is
    raised."""
    with pytest.raises(HardnessError, match="epsilon must be positive"):
        report_rows([("good", preset_instance("xor_sat").model, "")], epsilon)
