import hashlib
import json
import math
import tracemalloc

import numpy as np
import pytest

from rydqubo.encoding import encode
from rydqubo.hardness import analyze_model
from rydqubo.models import (ENUMERATION_CAP, ModelError, IsingModel,
                            QuboModel, as_ising, as_qubo, enumerate_spectrum,
                            ising_to_qubo, model_from_dict, qubo_to_ising,
                            state_bits)
from rydqubo.problems import PRESET_NAMES, preset_instance

from conftest import (exact_energies, level_tolerance, random_integer_qubo,
                      random_qubo, spectrum_cases)


def brute_energies(model):
    """Independent evaluation of every assignment, one at a time."""
    out = []
    for k in range(1 << model.n):
        x = state_bits(k, model.n)
        if isinstance(model, IsingModel):
            out.append(model.evaluate([1 - 2 * xi for xi in x]))
        else:
            out.append(model.evaluate(x))
    return np.asarray(out)


def test_vectorized_energies_match_pointwise(rng):
    for n in range(1, 9):
        q = random_qubo(rng, n)
        np.testing.assert_allclose(q.energies(), brute_energies(q), rtol=0,
                                   atol=1e-12)
        m = qubo_to_ising(q)
        np.testing.assert_allclose(m.energies(), brute_energies(m), rtol=0,
                                   atol=1e-12)


def test_qubo_ising_round_trip_exact(rng):
    for n in range(1, 11):
        q = random_qubo(rng, n)
        m = qubo_to_ising(q)
        np.testing.assert_allclose(q.energies(), m.energies(), atol=1e-12)
        q2 = ising_to_qubo(m)
        np.testing.assert_allclose(q.energies(), q2.energies(), atol=1e-12)


def test_ising_sign_convention():
    # x = 0 maps to s = +1, x = 1 to s = -1
    m = qubo_to_ising(QuboModel(1, (1.0,), {}, 0.0))
    assert m.evaluate([1]) == pytest.approx(0.0)   # s=+1 <-> x=0
    assert m.evaluate([-1]) == pytest.approx(1.0)  # s=-1 <-> x=1


def test_constant_shift_covariance(rng):
    q = random_qubo(rng, 5)
    shifted = QuboModel(q.n, q.linear, q.quadratic, q.constant + 2.5)
    np.testing.assert_allclose(shifted.energies(), q.energies() + 2.5,
                               atol=1e-12)


def test_quadratic_key_normalization():
    a = QuboModel(3, (0.0,) * 3, {(2, 0): 1.0, (0, 1): 2.0})
    b = QuboModel(3, (0.0,) * 3, {(0, 2): 1.0, (1, 0): 2.0})
    np.testing.assert_allclose(a.energies(), b.energies())
    with pytest.raises(ModelError):
        QuboModel(2, (0.0, 0.0), {(0, 0): 1.0})
    with pytest.raises(ModelError):
        QuboModel(2, (0.0, 0.0), {(0, 5): 1.0})


def test_spectrum_completeness_and_order(rng):
    for n in (1, 3, 6):
        q = random_qubo(rng, n)
        table = enumerate_spectrum(q)
        assert table.counts.sum() == 1 << n
        energies = table.energies.tolist()
        assert energies == sorted(energies)
        want = _reference_enumerate_spectrum(q)[0][1]
        assert table.ground_states.tolist() == sorted(want)


def test_spectrum_degeneracy_grouping():
    # two decoupled identical bits: energies 0, 1, 1, 2
    q = QuboModel(2, (1.0, 1.0), {})
    table = enumerate_spectrum(q)
    assert list(zip(table.energies.tolist(), table.counts.tolist())) == \
        [(0.0, 1), (1.0, 2), (2.0, 1)]
    assert table.ground_states.tolist() == [0]
    assert table.e_min == 0.0 and table.e_max == 2.0


def _reference_enumerate_spectrum(m):
    """One Python object per level, built state by state: a state joins the
    current level when its energy is within the level tolerance of the
    previous state's, and a level's energy is its first (lowest) member's.
    Returns [(energy, states), ...]."""
    e = m.energies()
    tol = level_tolerance(m)
    levels, prev = [], None
    for k in np.argsort(e, kind="stable"):
        ek = float(e[k])
        if prev is None or ek - prev > tol:
            levels.append((ek, []))
        levels[-1][1].append(int(k))
        prev = ek
    return [(energy, tuple(states)) for energy, states in levels]


def test_enumerate_spectrum_matches_reference(rng):
    for model in spectrum_cases(rng):
        table = enumerate_spectrum(model)
        want = _reference_enumerate_spectrum(model)
        got = zip(table.energies.tolist(), table.counts.tolist())
        assert [(e.hex(), c) for e, c in got] == \
            [(e.hex(), len(s)) for e, s in want]
        assert table.n == model.n
        assert table.ground_states.tolist() == sorted(want[0][1])
        assert table.e_min.hex() == want[0][0].hex()
        assert table.e_max.hex() == want[-1][0].hex()


def test_round_off_ties_share_one_level():
    """x = (1,1,0) and (0,0,1) tie in exact arithmetic, whatever the scale;
    compared exactly, round-off used to split them."""
    rng = np.random.default_rng(12)
    for _ in range(2000):
        a, b = -rng.uniform(0.01, 1.0, size=2)
        lam = 10.0 ** rng.uniform(3.0, 8.0)
        model = QuboModel(3, (lam * a, lam * b, lam * (a + b)),
                          {(0, 2): lam, (1, 2): lam})
        assert enumerate_spectrum(model).ground_states.tolist() == [3, 4]
        assert analyze_model(model).d_opt == 2
    model = QuboModel(3, (-0.1, -0.2, -0.3), {(0, 2): 1.0, (1, 2): 1.0})
    assert model.energies()[3] != model.energies()[4]
    assert enumerate_spectrum(model).ground_states.tolist() == [3, 4]
    assert analyze_model(model).d_opt == 2


def _stable_reference(m):
    """The stable argsort and the level rule, on the whole sorted array:
    (level energies as .hex(), counts, states in stable order)."""
    e = m.energies()
    states = np.argsort(e, kind="stable")
    ordered = e[states]
    with np.errstate(invalid="ignore"):  # inf - inf
        split = np.diff(ordered) > level_tolerance(m)
    starts = np.flatnonzero(np.concatenate(([True], split)))
    return ([x.hex() for x in ordered[starts].tolist()],
            np.diff(np.append(starts, e.size)), states)


def _assert_matches_stable_reference(m):
    table = enumerate_spectrum(m)
    energies, counts, states = _stable_reference(m)
    assert [x.hex() for x in table.energies.tolist()] == energies
    assert table.counts.dtype == counts.dtype and (table.counts == counts).all()
    assert table.ground_states.tolist() == np.sort(states[:counts[0]]).tolist()


def test_spectrum_order_matches_stable_sort_beyond_eight_variables(rng):
    """Many exact ties (integer coefficients) and none (float ones)."""
    for n in range(12, 17):
        ties, distinct = random_integer_qubo(rng, n), random_qubo(rng, n)
        assert np.unique(ties.energies()).size < 1 << (n - 4)
        assert np.unique(distinct.energies()).size == 1 << n
        for model in (ties, distinct, qubo_to_ising(ties)):
            _assert_matches_stable_reference(model)


def test_spectrum_order_zero_and_one_variable():
    for model in (QuboModel(0, (), {}, -1.5), IsingModel(0, (), {}),
                  QuboModel(1, (2.0,), {}), QuboModel(1, (0.0,), {}, 3.0),
                  IsingModel(1, (-0.5,), {}, 0.25)):
        _assert_matches_stable_reference(model)
    table = enumerate_spectrum(QuboModel(0, (), {}, -1.5))
    assert table.ground_states.tolist() == [0]


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                            "ignore:invalid value encountered:RuntimeWarning")
def test_spectrum_order_with_overflowing_energies():
    """Finite coefficients whose sums overflow to +-inf, and to NaN where
    an infinite energy meets an infinite coupling sum of the other sign."""
    big = 1e308
    overflowed = set()
    for model in (QuboModel(3, (big, big, 1.0), {}),
                  QuboModel(3, (-big, -big, 1.0), {(1, 2): 2.0}),
                  QuboModel(3, (big, big, 0.0), {(0, 2): -big, (1, 2): -big}),
                  IsingModel(3, (big, big, -big), {(0, 1): big})):
        overflowed |= {str(x) for x in model.energies().tolist()
                       if not math.isfinite(x)}
        _assert_matches_stable_reference(model)
    assert overflowed == {"inf", "-inf", "nan"}


def test_level_tolerance_survives_an_overflowing_l1():
    """The magnitudes sum to inf while every energy is finite: the tolerance
    was inf, and the spectrum one level of all 8 states at -1e308.  The
    levels are 1e308 apart and the four states with x0 = x1 lie within 6 of
    0, far under the tolerance of about 1e94."""
    model = QuboModel(3, (1e308, -1e308, 1.0), {(0, 1): 5.0})
    assert np.isfinite(model.energies()).all()
    table = enumerate_spectrum(model)
    assert table.energies.tolist() == [-1e308, 0.0, 1e308]
    assert table.counts.tolist() == [2, 4, 2]
    assert table.ground_states.tolist() == [2, 6]
    _assert_matches_stable_reference(model)


def test_spectrum_zero_level_keeps_its_first_members_sign():
    """+0.0 and -0.0 tie; the zero level's energy has the sign of its lowest
    state, which an unstable sort need not put first."""
    for model, want in ((QuboModel(12, (1.0, -1.0) * 6, {}, -0.0), "-0x0.0p+0"),
                        (IsingModel(12, (0.0,) * 12, {}, -0.0), "0x0.0p+0")):
        e = model.energies()
        signs = np.signbit(e[e == 0])
        assert signs.any() and not signs.all()
        _assert_matches_stable_reference(model)
        energies = enumerate_spectrum(model).energies.tolist()
        assert [x.hex() for x in energies if x == 0] == [want]


def test_spectrum_order_on_arbitrary_energy_arrays(monkeypatch):
    """Ties of +-0.0, +-inf and NaNs of either sign in every arrangement,
    under a finite level tolerance."""
    rng = np.random.default_rng(5)
    pool = np.array([0.0, -0.0, 1.0, 1.0 + 2e-15, -1.0, np.inf, -np.inf,
                     np.nan, -np.nan, 2.5])
    for _ in range(300):
        n = int(rng.integers(0, 11))
        values = pool[rng.permutation(pool.size)[:rng.integers(1, pool.size)]]
        e = rng.choice(values, size=1 << n)
        monkeypatch.setattr(QuboModel, "energies", lambda self, e=e: e.copy())
        model = QuboModel(n, (1.0,) * n, {})
        table = enumerate_spectrum(model)
        _assert_matches_stable_reference(model)
        first = _stable_reference(model)[2][np.cumsum(table.counts) - table.counts]
        assert table.energies.tobytes() == e[first].tobytes()


# SHA-256 over every spectrum's energies (.hex()), counts and ground
# states: the seven presets in both conventions, then seeded float and
# integer QUBOs with n = 0-16, as the table that kept every state in stable
# order gave them
SPECTRUM_SHA256 = (
    "eed34fc33f77793322f0f8e3961061ad06a06cf9f1cf8bb4b92c84e79616d565")


def test_spectrum_bytes_pinned():
    rng = np.random.default_rng(16)
    models = [m for name in PRESET_NAMES
              for m in (preset_instance(name).model,
                        as_ising(preset_instance(name).model))]
    models += [make(rng, n) for n in range(17)
               for make in (random_qubo, random_integer_qubo)]
    digest = hashlib.sha256()
    for model in models:
        table = enumerate_spectrum(model)
        digest.update(" ".join(x.hex() for x in table.energies.tolist()).encode())
        digest.update(table.counts.tobytes())
        digest.update(np.array(table.ground_states, dtype=np.int64).tobytes())
    assert digest.hexdigest() == SPECTRUM_SHA256


# tracemalloc peak bytes of enumerate_spectrum for the two n = 18 models of
# test_spectrum_memory_at_eighteen_variables, measured before the key sort
STABLE_SORT_PEAK_BYTES = {"ties": 6_554_287, "distinct": 10_486_928}


def test_spectrum_memory_at_eighteen_variables():
    """No more traced memory than the stable argsort took."""
    rng = np.random.default_rng(18)
    for kind, model in (("ties", random_integer_qubo(rng, 18)),
                        ("distinct", random_qubo(rng, 18))):
        tracemalloc.start()
        try:
            enumerate_spectrum(model)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= STABLE_SORT_PEAK_BYTES[kind], (kind, peak)


def test_spectrum_table_keeps_levels_not_states():
    """The ties model of the n = 18 memory test has 2^18 states; its table
    holds the levels and the ground states, far under 8 bytes a state."""
    model = random_integer_qubo(np.random.default_rng(18), 18)
    tracemalloc.start()
    try:
        table = enumerate_spectrum(model)
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert table.counts.sum() == 1 << 18
    assert kept < 2**19, kept


def test_ground_level_is_one_int64_array():
    """Every pattern of a flat model at n = 20 is a ground state; the table
    keeps them as one ascending int64 array, 8 bytes each, not as 2^20
    Python ints."""
    tracemalloc.start()
    try:
        table = enumerate_spectrum(QuboModel(20, (0.0,) * 20, {}))
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    ground = table.ground_states
    assert isinstance(ground, np.ndarray) and ground.dtype == np.int64
    assert np.array_equal(ground, np.arange(1 << 20))
    assert kept < 9 * 2**20, kept


@pytest.mark.parametrize("cls", [QuboModel, IsingModel])
def test_doubled_energies_match_exact_sums(rng, cls):
    """Bit for bit on integer coefficients, where every sum is exact; within
    the level tolerance on float coefficients."""
    for n in range(13):
        for source, exact in ((random_integer_qubo(rng, n), True),
                              (random_qubo(rng, n), False)):
            model = cls(n, source.linear, source.quadratic, source.constant)
            want = exact_energies(model)
            got = model.energies()
            assert got.shape == want.shape
            if exact:
                assert got.tobytes() == want.tobytes()
            else:
                assert np.abs(got - want).max() <= level_tolerance(model)


@pytest.mark.parametrize("source", ["qubo", "ising", "diagonal_parts"])
def test_spectrum_memory_at_twenty_variables(rng, source):
    """No (2^n, n) table: at n = 20 the spectrum in either convention and the
    encoded target's diagonal parts each peak below 64 MB (the float bit
    table alone is 160 MB)."""
    q = random_qubo(rng, 20)
    model = q if source == "qubo" else qubo_to_ising(q)
    target = encode(qubo_to_ising(q), allow_negative=True)
    tracemalloc.start()
    try:
        if source == "diagonal_parts":
            sizes = [part.size for part in target.diagonal_parts]
        else:
            sizes = [enumerate_spectrum(model).counts.sum()]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sizes == [1 << 20] * len(sizes)
    assert peak < 64 * 2**20, peak


def test_models_refuse_non_finite_coefficients():
    """A NaN or infinite coefficient has no spectrum: under the level
    tolerance it would read as one level holding every state."""
    nan, inf = float("nan"), float("inf")
    for fields in ((2, (nan, 1.0), {}), (2, (0.0, 1.0), {(0, 1): inf}),
                   (1, (0.0,), {}, -inf)):
        for cls in (QuboModel, IsingModel):
            with pytest.raises(ModelError, match="finite"):
                cls(*fields)


def test_enumeration_cap():
    n = ENUMERATION_CAP + 1
    q = QuboModel(n, (0.0,) * n, {})
    with pytest.raises(ModelError):
        enumerate_spectrum(q)


def test_json_round_trip(rng):
    q = random_qubo(rng, 4)
    q2 = model_from_dict(json.loads(json.dumps(q.to_dict())))
    assert isinstance(q2, QuboModel)
    np.testing.assert_allclose(q.energies(), q2.energies(), atol=0)
    m = qubo_to_ising(q)
    m2 = model_from_dict(json.loads(json.dumps(m.to_dict())))
    assert isinstance(m2, IsingModel)
    np.testing.assert_allclose(m.energies(), m2.energies(), atol=0)


def test_qubo_and_ising_models_stay_distinct():
    fields = (2, (1.0, -0.5), {(0, 1): 0.25}, 0.75)
    q, m = QuboModel(*fields), IsingModel(*fields)
    assert q != m and m != q
    assert q == QuboModel(*fields) and m == IsingModel(*fields)
    for model in (q, m):
        again = model_from_dict(model.to_dict())
        assert type(again) is type(model)
        assert again == model


def test_json_rejects_bad_convention():
    with pytest.raises(ModelError):
        model_from_dict({"n": 1, "linear": [0.0], "quadratic": [],
                         "convention": "spins"})


def test_json_sums_repeated_pairs():
    for pairs in ([[0, 1, 1.0], [0, 1, 2.0]], [[0, 1, 1.0], [1, 0, 2.0]]):
        model = model_from_dict({"n": 2, "linear": [0.0, 0.0],
                                 "quadratic": pairs})
        assert model.quadratic == {(0, 1): 3.0}


def test_json_rejects_fractional_integers():
    for data in ({"n": 2.9, "linear": [1.0, 1.0], "quadratic": []},
                 {"n": 3, "linear": [0.0] * 3, "quadratic": [[0.5, 2, 1.0]]}):
        with pytest.raises(ModelError, match="expected an integer"):
            model_from_dict(data)
    model = model_from_dict({"n": 3.0, "linear": [0.0] * 3,
                             "quadratic": [[0.0, 2.0, 1.0]]})
    assert model.n == 3 and model.quadratic == {(0, 2): 1.0}


def test_json_rejects_overflowing_size():
    with pytest.raises(ModelError, match="malformed model data"):
        model_from_dict(json.loads('{"n": 1e400, "linear": [], "quadratic": []}'))


def test_json_rejects_strings_and_non_finite_numbers():
    """float("nan") reads the string "nan", so a quoted number is refused
    wherever a number is read."""
    base = {"n": 3, "linear": [1.0, 1.0, 1.0], "quadratic": [[0, 1, 1.0]]}
    for key, bad in (("linear", ["nan", 1, 1]), ("linear", [1, 1.5, "1"]),
                     ("linear", [float("inf"), 1, 1]),
                     ("quadratic", [[0, 1, "2"]]), ("quadratic", [["0", 1, 2]]),
                     ("quadratic", [[0, 1, float("nan")]]), ("constant", "0"),
                     ("constant", -float("inf")), ("n", "3")):
        with pytest.raises(ModelError, match="malformed model data"):
            model_from_dict({**base, key: bad})


def test_as_conversions(rng):
    q = random_qubo(rng, 3)
    assert as_qubo(q) is q
    m = as_ising(q)
    assert as_ising(m) is m
    np.testing.assert_allclose(as_qubo(m).energies(), q.energies(), atol=1e-12)
