import hashlib
import itertools
import json

import numpy as np
import pytest

from rydqubo.cli import main
from rydqubo.models import enumerate_spectrum, state_bits
from rydqubo.problems import (_PRESETS, PRESET_NAMES, ClusteringInstance,
                              ProblemError, ProteinToyInstance, QapInstance,
                              SetPackingInstance, TwoSatInstance,
                              XorSatInstance, build_from_params, build_mixed,
                              build_qap, build_two_sat, build_xor_sat,
                              preset_instance, shared_residue_exclusions)


def spectrum_multiset(model):
    table = enumerate_spectrum(model)
    return list(zip(table.energies.tolist(), table.counts.tolist()))


# --- two-SAT -----------------------------------------------------------------

def test_two_sat_cost_counts_violations(rng):
    for _ in range(20):
        n = int(rng.integers(2, 6))
        clauses = tuple(
            ((int(rng.integers(n)), bool(rng.integers(2))),
             (int(rng.integers(n)), bool(rng.integers(2))))
            for _ in range(int(rng.integers(1, 7))))
        p = float(rng.uniform(0.5, 3.0))
        inst = TwoSatInstance(n, clauses, p)
        model = build_two_sat(inst)
        for x in itertools.product((0, 1), repeat=n):
            assert model.evaluate(x) == pytest.approx(p * inst.violated(x))


def test_two_sat_preset_spectrum():
    preset = preset_instance("two_sat")
    assert spectrum_multiset(preset.model) == [(0.0, 4), (1.0, 4)]


def test_two_sat_validation():
    with pytest.raises(ProblemError):
        TwoSatInstance(2, (((0, False), (5, False)),))
    with pytest.raises(ProblemError):
        TwoSatInstance(2, (((0, False), (1, False)),), penalty=0.0)


# --- XOR-SAT -----------------------------------------------------------------

def test_xor_sat_cost_counts_violations(rng):
    for _ in range(20):
        n = int(rng.integers(2, 6))
        cons = []
        for _ in range(int(rng.integers(1, 7))):
            i, j = rng.choice(n, size=2, replace=False)
            cons.append((int(i), int(j), int(rng.integers(2))))
        w = float(rng.uniform(0.5, 3.0))
        inst = XorSatInstance(n, tuple(cons), w)
        model = build_xor_sat(inst)
        for x in itertools.product((0, 1), repeat=n):
            assert model.evaluate(x) == pytest.approx(w * inst.violated(x))


def test_xor_triangle_preset_spectrum():
    # odd parity cycle: at least one constraint always violated
    preset = preset_instance("xor_sat")
    assert spectrum_multiset(preset.model) == [(1.0, 6), (3.0, 2)]


def test_xor_sat_validation():
    with pytest.raises(ProblemError):
        XorSatInstance(3, ((0, 0, 1),))
    with pytest.raises(ProblemError):
        XorSatInstance(3, ((0, 1, 2),))
    for weight in (0.0, -1.0, float("nan")):
        with pytest.raises(ProblemError, match="weight must be positive"):
            XorSatInstance(2, ((0, 1, 1),), weight)


# --- mixed -------------------------------------------------------------------

def test_mixed_is_coefficient_sum():
    ts = TwoSatInstance(3, (((0, False), (1, False)), ((0, True), (2, False))))
    xs = XorSatInstance(3, ((1, 2, 1),))
    model = build_mixed(ts, xs)
    for x in itertools.product((0, 1), repeat=3):
        assert model.evaluate(x) == pytest.approx(
            ts.violated(x) + xs.violated(x))


def test_mixed_preset_ground_states():
    preset = preset_instance("mixed")
    table = enumerate_spectrum(preset.model)
    grounds = {state_bits(s, 3) for s in table.ground_states}
    assert grounds == {(0, 1, 0), (1, 0, 1)}
    assert spectrum_multiset(preset.model) == [(0.0, 2), (1.0, 4), (2.0, 2)]


def test_mixed_size_mismatch():
    with pytest.raises(ProblemError):
        build_mixed(TwoSatInstance(2, ()), XorSatInstance(3, ()))


# --- set packing -------------------------------------------------------------

def test_set_packing_cost(rng):
    inst = preset_instance("set_packing").instance
    model = preset_instance("set_packing").model
    for x in itertools.product((0, 1), repeat=inst.n):
        both = sum(x[i] * x[j] for i, j in inst.conflicts)
        expected = -sum(w * xi for w, xi in zip(inst.weights, x)) \
            + inst.penalty * both
        assert model.evaluate(x) == pytest.approx(expected)


def test_set_packing_preset_spectrum():
    assert spectrum_multiset(preset_instance("set_packing").model) == \
        [(-2.0, 2), (-1.0, 4), (0.0, 5), (1.0, 4), (4.0, 1)]


def test_set_packing_penalty_dominance():
    # P > max weight keeps all optima conflict-free
    inst = preset_instance("set_packing").instance
    table = enumerate_spectrum(preset_instance("set_packing").model)
    for s in table.ground_states:
        x = state_bits(s, inst.n)
        assert all(x[i] * x[j] == 0 for i, j in inst.conflicts)


def test_set_packing_validation():
    with pytest.raises(ProblemError):
        SetPackingInstance(2, (1.0, -1.0), (), 2.0)
    with pytest.raises(ProblemError):
        SetPackingInstance(3, (1.0,) * 3, ((0, 1), (1, 0)), 2.0)


# --- QAP ---------------------------------------------------------------------

def feasible_states(n):
    """Bit patterns of permutation matrices under p = facility*n + location."""
    out = {}
    for perm in itertools.permutations(range(n)):
        state = 0
        for fac, loc in enumerate(perm):
            state |= 1 << (fac * n + loc)
        out[perm] = state
    return out


def test_qap_feasible_costs_match_checker():
    inst = preset_instance("qap").instance
    model = preset_instance("qap").model
    energies = model.energies()
    for perm, state in feasible_states(inst.n).items():
        assert energies[state] == pytest.approx(inst.assignment_cost(perm))


def test_qap_penalty_dominance():
    inst = preset_instance("qap").instance
    model = preset_instance("qap").model
    energies = model.energies()
    feas = set(feasible_states(inst.n).values())
    worst_feasible = max(energies[s] for s in feas)
    best_infeasible = min(e for k, e in enumerate(energies) if k not in feas)
    assert best_infeasible > worst_feasible


def test_qap_preset_spectrum():
    assert spectrum_multiset(preset_instance("qap").model) == \
        [(12.0, 2), (48.0, 8), (60.0, 4), (96.0, 1), (120.0, 1)]


def test_qap_asymmetric_matrices():
    inst = QapInstance(((0.0, 1.0, 0.0), (2.0, 0.0, 1.0), (0.0, 3.0, 0.0)),
                       ((0.0, 2.0, 4.0), (1.0, 0.0, 2.0), (3.0, 1.0, 0.0)),
                       50.0, 50.0)
    energies = build_qap(inst).energies()
    for perm, state in feasible_states(3).items():
        assert energies[state] == pytest.approx(inst.assignment_cost(perm))


def test_qap_validation():
    with pytest.raises(ProblemError):
        QapInstance(((1.0,),), ((0.0,),), 1.0, 1.0)
    with pytest.raises(ProblemError):
        QapInstance(((0.0, 1.0), (1.0, 0.0)), ((0.0,),), 1.0, 1.0)


# --- clustering --------------------------------------------------------------

def test_clustering_cost_is_negative_cut(rng):
    inst = preset_instance("clustering").instance
    model = preset_instance("clustering").model
    for x in itertools.product((0, 1), repeat=inst.n):
        assert model.evaluate(x) == pytest.approx(-inst.cut_weight(x))


def test_clustering_max_cut_value():
    table = enumerate_spectrum(preset_instance("clustering").model)
    assert table.e_min == pytest.approx(-11.0)
    assert len(table.ground_states) == 4


def test_clustering_flip_symmetry():
    model = preset_instance("clustering").model
    energies = model.energies()
    full = (1 << model.n) - 1
    np.testing.assert_allclose(energies, energies[[k ^ full
                                                   for k in range(len(energies))]])
    assert (enumerate_spectrum(model).counts % 2 == 0).all()


def test_clustering_validation():
    with pytest.raises(ProblemError):
        ClusteringInstance(((0.0, 1.0), (2.0, 0.0)))
    with pytest.raises(ProblemError):
        ClusteringInstance(((0.0, -1.0), (-1.0, 0.0)))


# --- protein toy -------------------------------------------------------------

def test_protein_contact_index_bijection():
    for length in (3, 4, 5, 6):
        inst = ProteinToyInstance(length, (1,) * length, ())
        indices = [inst.contact_index(i, j) for i, j in inst.contact_pairs()]
        assert sorted(indices) == list(range(inst.n_contacts))


def test_protein_contact_rewards_rule():
    inst = preset_instance("protein").instance
    rewards = dict(zip(inst.contact_pairs(), inst.contact_rewards()))
    # hydrophobic flags H H P H: rewarded contacts need both H and |i-j| > 1
    assert rewards[(1, 4)] == 1
    assert rewards[(2, 4)] == 1
    assert rewards[(1, 3)] == 0   # residue 3 is polar
    assert rewards[(1, 2)] == 0   # adjacent on the chain
    assert rewards[(3, 4)] == 0


def test_protein_shared_residue_exclusions():
    inst = ProteinToyInstance(4, (1, 1, 0, 1), shared_residue_exclusions(4))
    assert ProteinToyInstance(4, (1, 1, 0, 1)) == inst  # None is this default
    pairs = inst.contact_pairs()
    for p, q in inst.exclusions:
        assert set(pairs[p]) & set(pairs[q])
    excl = set(inst.exclusions)
    for p in range(len(pairs)):
        for q in range(p + 1, len(pairs)):
            if set(pairs[p]) & set(pairs[q]):
                assert (p, q) in excl or (q, p) in excl


def test_protein_preset_extremes():
    model = preset_instance("protein").model
    table = enumerate_spectrum(model)
    assert table.e_min == pytest.approx(-0.5)
    assert len(table.ground_states) == 2
    assert table.e_max == pytest.approx(25.0)


def test_protein_validation():
    with pytest.raises(ProblemError):
        ProteinToyInstance(3, (1, 1), ())
    with pytest.raises(ProblemError):
        ProteinToyInstance(3, (1, 1, 2), ())


# --- presets -----------------------------------------------------------------

def test_all_presets_build():
    for name in PRESET_NAMES:
        preset = preset_instance(name)
        assert preset.model.n >= 2
        assert "degeneracy_pinned" in preset.metadata
        assert preset.metadata["duration_us"] > 0


def test_unknown_preset():
    with pytest.raises(ProblemError):
        preset_instance("nonexistent")


def test_presets_are_family_parameters(capsys):
    for name in PRESET_NAMES:
        params = _PRESETS[name][0]
        preset = preset_instance(name)
        assert (preset.instance, preset.model) == build_from_params(name, params)
        emitted = []
        for argv in (["--preset", name],
                     ["--family", name, "--params", json.dumps(params)]):
            assert main(["problem", *argv]) == 0
            payload = json.loads(capsys.readouterr().out)
            del payload["metadata"]
            emitted.append(payload)
        assert emitted[0] == emitted[1] == preset.model.to_dict()


def test_preset_metadata_is_a_fresh_copy():
    preset_instance("two_sat").metadata["penalty"] = 5.0
    assert preset_instance("two_sat").metadata["penalty"] == 1.0


# sha256 of each preset's model and metadata, pinned so that a change to how
# presets are built cannot change what they are
PRESET_PINS = {
    "two_sat": "2441374322f8ea1561961f37fcb7289aba41fa31a3e7dd077aebd6ad06fc4d14",
    "xor_sat": "9830867c9683028692be07c51c71f4325d8873ea9b0bf75f3f85ea2b4ea6221d",
    "mixed": "a46bfe61b1e621bc455cb31b14c2f202e624308ba8ee28f8634882447905bb8a",
    "set_packing": "27a455755e92863e3a7bca215bdf3712f972cb9b3d9dd775526158f909816445",
    "qap": "61e491e3cd6a405411e80333ca227ced28eff5f3b06642f41fd7fe94649c4161",
    "clustering": "96632ff14231eb09bca53ab9ce56af54be473769ecfab7e379e99d28f1b83e18",
    "protein": "78b2a3105c365f9f5df54e02eb1985baae2f206ebac0f02a41ab6d58e43094e9",
}


def test_preset_models_and_metadata_pinned():
    for name in PRESET_NAMES:
        preset = preset_instance(name)
        text = json.dumps({"model": preset.model.to_dict(),
                           "metadata": preset.metadata}, sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == PRESET_PINS[name], name
