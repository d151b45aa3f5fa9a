import itertools
import math
import warnings

import numpy as np
import pytest

from rydqubo.hardness import (HardnessError, analyze_model, analyze_spectrum,
                              format_csv, format_table, hardness_parameter,
                              report_rows, sigma, threatening_set)
from rydqubo.models import (ENUMERATION_CAP, IsingModel, QuboModel, as_ising,
                            as_qubo, enumerate_spectrum)
from rydqubo.problems import PRESET_NAMES, preset_instance

from conftest import random_qubo, spectrum_cases


def _reference_threatening_set(levels):
    """The per-level loop the mask replaced, over (energy, degeneracy)
    pairs."""
    if len(levels) < 2:
        return ()
    e0 = levels[0][0]
    gap = levels[1][0] - e0
    d_thresh = max(1.0, levels[0][1] / 2.0)
    return tuple(alpha for alpha in range(1, len(levels))
                 if levels[alpha][0] - e0 <= gap or levels[alpha][1] >= d_thresh)


def _reference_sigma(levels, threats, gap):
    """The per-level sum that np.exp replaced, added in level order."""
    e0 = levels[0][0]
    return float(sum(levels[a][1] * math.exp(-(levels[a][0] - e0) / gap)
                     for a in threats))


def test_threats_and_sigma_match_the_per_level_loops(rng):
    for model in spectrum_cases(rng):
        spectrum = enumerate_spectrum(model)
        levels = list(zip(spectrum.energies.tolist(), spectrum.counts.tolist()))
        threats = _reference_threatening_set(levels)
        got = threatening_set(spectrum.energies, spectrum.counts)
        assert got.tolist() == list(threats)
        gap = levels[1][0] - levels[0][0]
        want = _reference_sigma(levels, threats, gap)
        hp, _ = hardness_parameter(levels[0][0], levels[0][1], gap, want,
                                   levels[-1][0])
        rep = analyze_spectrum(spectrum)
        assert rep.threat_count == len(threats)
        assert rep.sigma == pytest.approx(want, rel=1e-14, abs=0)
        assert rep.hp == pytest.approx(hp, rel=1e-14, abs=0)


def test_levels_at_the_float_limit():
    """Levels -1e308 x2, 0 x4 and 1e308 x2: D_opt / 2 = 1, so both excited
    levels threaten, at one gap and at two gaps, and the second excitation,
    2e308, is wider than a float.  A running sum of energy * degeneracy gave
    E0 = -inf and a NaN Sigma here."""
    model = QuboModel(3, (1e308, -1e308, 1.0), {(0, 1): 5.0})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = analyze_model(model)
    assert (rep.e0, rep.gap, rep.d_opt, rep.d_first_excited,
            rep.threat_count) == (-1e308, 1e308, 2, 4, 2)
    assert rep.sigma == pytest.approx(4 * math.exp(-1) + 2 * math.exp(-2),
                                      rel=1e-15)
    # Sigma / (1e308 * 2 * 1e616) underflows to zero
    assert rep.hp == 0.0 and not rep.normalized_by_width


def test_threatening_set_rules():
    energies = np.array([0.0, 0.5, 0.6, 5.0, 6.0])
    counts = np.array([4, 1, 2, 1, 8])
    # gap G = 0.5; low-lying levels threaten, as do large ones
    threats = threatening_set(energies, counts)
    assert 1 in threats        # within one gap of the ground level
    assert 2 in threats        # D = 2 >= max(1, 4/2)
    assert 3 not in threats    # high energy, small degeneracy
    assert 4 in threats        # D = 8 >= 2
    assert threatening_set(np.array([1.0]), np.array([2])).size == 0


def test_sigma_weighting():
    energies, counts = np.array([0.0, 0.5]), np.array([4, 2])
    val = sigma(energies, counts, [1], 0.5)
    assert val == pytest.approx(2.0 * math.exp(-1.0))
    assert sigma(energies, counts, [], 0.5) == 0.0
    with pytest.raises(HardnessError):
        sigma(energies, counts, [1], 0.0)


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
    # |E0| ~ 0 is measured in gaps, so a uniform scale does not flip it
    for lam in (1e-12, 1.0, 1e12):
        assert not hardness_parameter(lam * 1e-6, 2, lam, 1.0, lam * 4.0)[1]
        assert hardness_parameter(lam * 1e-10, 2, lam, 1.0, lam * 4.0)[1]


def test_hardness_rejects_empty_ground_space():
    with pytest.raises(HardnessError):
        hardness_parameter(-1.0, 0, 0.5, 1.0)


def test_hardness_refuses_an_hp_beyond_the_float_range():
    """|E0| G^2 of 1e-310 gave HP = inf, and of 1e-350, which underflows to
    0, a ZeroDivisionError."""
    for e0, gap in ((1e-100, 1e-105), (1e-110, 1e-120)):
        with pytest.raises(HardnessError, match="HP overflows a float"):
            hardness_parameter(e0, 1, gap, 0.5)
        with pytest.raises(HardnessError, match="HP overflows a float"):
            analyze_model(QuboModel(1, (gap,), {}, e0))
    assert hardness_parameter(1e-100, 1, 1e-100, 0.5)[0] == pytest.approx(5e299)


def test_energy_shift_changes_normalization_only():
    """The model's constant sets the energy zero that |E0| is measured
    from."""
    q = preset_instance("xor_sat").model
    a = analyze_model(q)
    b = analyze_model(type(q)(q.n, q.linear, q.quadratic, q.constant - 2.0))
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
    # energies beyond the float range: a lowest level -inf, a highest level
    # +inf, and x = 111 summing -inf and +inf to NaN beside x = 011 at -inf
    overflowing = [QuboModel(2, (-1e308, -1e308), {}),
                   QuboModel(2, (1e308, 1e308), {}),
                   QuboModel(3, (-1e308, -1e308, 0.0),
                             {(0, 2): 1e308, (1, 2): 1e308})]
    with np.errstate(over="ignore", invalid="ignore"):
        rows = report_rows([("good", preset_instance("xor_sat").model, ""),
                            ("bad", constant, "flagged"),
                            ("large", too_large, ""),
                            *(("overflow", m, "") for m in overflowing)])
    assert rows[0]["HP"] > 0
    assert "error" in rows[1]
    assert rows[1]["note"] == "flagged"
    assert "enumeration cap" in rows[2]["error"]
    assert [row["error"] for row in rows[3:]] == [
        "a level is not finite: the energies overflow a float"] * 3
    table = format_table(rows)
    assert "good" in table and "bad" in table
    csv = format_csv(rows)
    assert csv.splitlines()[0].startswith("problem,")


def _scaled(model, lam):
    return type(model)(model.n, tuple(lam * a for a in model.linear),
                       {k: lam * b for k, b in model.quadratic.items()},
                       lam * model.constant)


def _permuted(model, perm):
    """``model`` with variable i renamed perm[i]."""
    linear = [0.0] * model.n
    for i, a in enumerate(model.linear):
        linear[perm[i]] = a
    return type(model)(model.n, tuple(linear),
                       {(perm[i], perm[j]): b
                        for (i, j), b in model.quadratic.items()},
                       model.constant)


def _gauge_flipped(model, flips):
    """The Ising form of ``model`` with spin i negated where flips[i]."""
    m = as_ising(model)
    sign = [-1.0 if f else 1.0 for f in flips]
    return IsingModel(m.n, tuple(s * h for s, h in zip(sign, m.linear)),
                      {(i, j): sign[i] * sign[j] * b
                       for (i, j), b in m.quadratic.items()}, m.constant)


METAMORPHIC_CASES = ([(name, conv) for name in PRESET_NAMES
                      for conv in ("qubo", "ising")]
                     + [("random", k) for k in range(20)])


@pytest.mark.parametrize("source, key", METAMORPHIC_CASES,
                         ids=[f"{s}-{k}" for s, k in METAMORPHIC_CASES])
def test_hardness_is_metamorphic(source, key):
    """Relabeling the variables, flipping Ising gauges, converting between
    QUBO and Ising and back, and scaling every coefficient by lambda keep
    D_opt, the threat count, Sigma and the normalization, scale HP by
    1 / lambda^3, and map the ground states as they map the variables."""
    rng = np.random.default_rng([19, METAMORPHIC_CASES.index((source, key))])
    if source == "random":
        model = random_qubo(rng, 2 + key % 6)
    else:
        model = preset_instance(source).model
        model = as_ising(model) if key == "ising" else model
    ising = isinstance(model, IsingModel)
    other = as_qubo(model) if ising else as_ising(model)
    n = model.n
    same = lambda x: x
    perms = list(itertools.permutations(range(n)))
    variants = [(_permuted(model, perms[k]), 1.0,
                 lambda x, p=perms[k]: sum((x >> i & 1) << p[i]
                                           for i in range(n)))
                for k in rng.choice(len(perms), min(24, len(perms)),
                                    replace=False)]
    variants += [(_gauge_flipped(model, flips), 1.0,
                  lambda x, m=int(flips @ (1 << np.arange(n))): x ^ m)
                 for flips in rng.integers(0, 2, size=(8, n))]
    variants += [(other, 1.0, same),
                 (as_ising(other) if ising else as_qubo(other), 1.0, same)]
    variants += [(_scaled(model, lam), lam, same)
                 for lam in [3.0] + [10.0 ** k for k in range(-12, 13)]]
    spectrum = enumerate_spectrum(model)
    base = analyze_spectrum(spectrum)
    for variant, lam, relabel in variants:
        mapped = enumerate_spectrum(variant)
        rep = analyze_spectrum(mapped)
        assert ((rep.d_opt, rep.threat_count, rep.normalized_by_width)
                == (base.d_opt, base.threat_count, base.normalized_by_width))
        assert rep.sigma == pytest.approx(base.sigma, rel=1e-9)
        assert rep.hp * lam ** 3 == pytest.approx(base.hp, rel=1e-9)
        assert mapped.ground_states.tolist() == sorted(
            map(relabel, spectrum.ground_states.tolist()))
