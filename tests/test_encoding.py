import hashlib

import numpy as np
import pytest

from rydqubo.encoding import (AtomLayout, C6_DEFAULT, EncodedTarget,
                              FrustratedModelError, HardwareLimits,
                              NotEncodableError, _pair_data, _stress_and_grad,
                              embed_layout, encode, gauge_fix,
                              layout_interactions, rescale, validate)
from rydqubo.models import IsingModel, QuboModel, as_ising
from rydqubo.pipeline import encode_for_annealing
from rydqubo.problems import PRESET_NAMES, preset_instance

from conftest import (exact_energies, level_tolerance, outputs_on_blas_threads,
                      random_antiferro_ising)


def test_encode_reproduces_energies(rng):
    for _ in range(30):
        n = int(rng.integers(1, 9))
        m = random_antiferro_ising(rng, n)
        enc = encode(m)
        np.testing.assert_allclose(enc.diagonal_energies() + enc.constant,
                                   m.energies(),
                                   rtol=0,
                                   atol=1e-10 * max(1.0, np.abs(m.energies()).max()))


def test_encoded_target_refuses_non_finite_entries():
    """np.allclose(inf, inf) holds, so the symmetry check alone passed an
    infinite V; the fault then showed only when diagonal_parts was read."""
    inf, nan = float("inf"), float("nan")
    with pytest.raises(ValueError, match="must be finite"):
        EncodedTarget(2, [[0, inf], [inf, 0]], [1, nan], 0)
    with pytest.raises(ValueError, match="must be finite"):
        EncodedTarget(2, np.zeros((2, 2)), [1, nan], 0)


def test_encode_rejects_negative_couplings():
    m = IsingModel(2, (0.0, 0.0), {(0, 1): -1.0})
    with pytest.raises(NotEncodableError) as err:
        encode(m)
    assert err.value.pair == (0, 1)
    enc = encode(m, allow_negative=True)
    np.testing.assert_allclose(enc.diagonal_energies() + enc.constant,
                               m.energies(), atol=1e-12)


def test_xor_pair_encoding_values():
    # single parity constraint on two variables: V = 2, Delta = (+1, +1)
    m = as_ising(preset_instance("xor_sat").model)
    pair = IsingModel(2, (0.0, 0.0), {(0, 1): 0.5}, 0.5)
    enc = encode(pair)
    np.testing.assert_allclose(enc.v, [[0.0, 2.0], [2.0, 0.0]])
    np.testing.assert_allclose(enc.delta_final, [1.0, 1.0])
    np.testing.assert_allclose(enc.diagonal_energies() + enc.constant,
                               [1.0, 0.0, 0.0, 1.0], atol=1e-12)
    # the frustrated triangle needs a uniform Delta = 2 with V = 2
    enc3 = encode(m)
    np.testing.assert_allclose(enc3.delta_final, [2.0, 2.0, 2.0])


def test_gauge_fix_round_trip(rng):
    for _ in range(20):
        n = int(rng.integers(2, 8))
        base = random_antiferro_ising(rng, n)
        flips = rng.integers(2, size=n)
        # flip spins of a nonneg-coupling model to hide the signs
        h = tuple(hi if f == 0 else -hi for hi, f in zip(base.linear, flips))
        j = {key: (c if flips[key[0]] == flips[key[1]] else -c)
             for key, c in base.quadratic.items()}
        disguised = IsingModel(n, h, j, base.constant)
        gauged, mask = gauge_fix(disguised)
        assert all(c >= 0 for c in gauged.quadratic.values())
        # energies are a permutation of the originals: x <-> x XOR mask
        mask_int = sum(b << i for i, b in enumerate(mask))
        e_g = gauged.energies()
        e_d = disguised.energies()
        perm = [k ^ mask_int for k in range(1 << n)]
        np.testing.assert_allclose(e_g, e_d[perm], atol=1e-12)


def test_gauge_fix_frustrated_raises():
    m = IsingModel(3, (0.0,) * 3,
                   {(0, 1): 1.0, (0, 2): -1.0, (1, 2): 1.0})
    with pytest.raises(FrustratedModelError):
        gauge_fix(m)


def test_rescale_preserves_argmin(rng):
    limits = HardwareLimits()
    for _ in range(20):
        m = random_antiferro_ising(rng, int(rng.integers(2, 7)))
        enc = encode(m)
        big = EncodedTarget(enc.n, enc.v * 1e4, enc.delta_final * 1e4,
                            enc.constant * 1e4, enc.scale * 1e4)
        scaled, binding = rescale(big, limits)
        assert scaled.scale < big.scale
        assert binding in ("delta_max", "r_min")
        e_before = big.diagonal_energies()
        e_after = scaled.diagonal_energies()
        argmin_before = set(np.flatnonzero(e_before <= e_before.min() + 1e-9 * np.ptp(e_before)))
        argmin_after = set(np.flatnonzero(e_after <= e_after.min() + 1e-9 * np.ptp(e_after)))
        assert argmin_before == argmin_after
        # the affine bookkeeping still maps back to the source energies
        np.testing.assert_allclose(
            (e_after + scaled.constant) / scaled.scale, m.energies(),
            atol=1e-8 * max(1.0, np.abs(m.energies()).max()))


def test_rescale_within_limits_is_identity():
    enc = encode(IsingModel(2, (0.1, 0.1), {(0, 1): 0.5}))
    scaled, binding = rescale(enc, HardwareLimits())
    assert scaled.scale == 1.0 and binding == "none"
    assert scaled is enc


def test_interaction_power_law(rng):
    pos = rng.uniform(0.0, 20.0, size=(4, 2))
    v1 = layout_interactions(AtomLayout(pos))
    v2 = layout_interactions(AtomLayout(2.0 * pos))
    np.testing.assert_allclose(v2, v1 / 2.0**6, rtol=1e-12)


def test_layout_coincident_atoms_rejected():
    with pytest.raises(ValueError):
        layout_interactions(AtomLayout(np.zeros((2, 2))))


def test_layout_json_round_trip(rng):
    layout = AtomLayout(rng.uniform(size=(3, 3)), C6_DEFAULT)
    again = AtomLayout.from_dict(layout.to_dict())
    np.testing.assert_allclose(layout.positions, again.positions)
    assert again.c6 == layout.c6


def test_layout_json_rejects_strings_and_non_finite_numbers():
    pair = [[0.0, 0.0], [10.0, 0.0]]
    for data in ({"positions_um": pair, "C6": "nan"},
                 {"positions_um": pair, "C6": float("inf")},
                 {"positions_um": [["0", 0.0], [10.0, 0.0]]},
                 {"positions_um": [[0.0, float("nan")], [10.0, 0.0]]}):
        with pytest.raises(ValueError):
            AtomLayout.from_dict(data)


def test_validate_counts_a_nan_error_as_offending():
    """A NaN pair error is not within tolerance: it must fail validation."""
    v = np.array([[0.0, 1.0], [1.0, 0.0]])
    target = EncodedTarget(2, v, np.ones(2), 0.0)
    layout = AtomLayout(np.array([[0.0, 0.0], [10.0, 0.0]]))
    # AtomLayout refuses a NaN C6; validate must not rely on that
    object.__setattr__(layout, "c6", float("nan"))
    report = validate(target, layout)
    assert report.offending_pairs == ((0, 1),)
    assert not report.passed


def chain_target(n, spacing=6.0):
    """A fully-realizable target: V from actual positions on a line."""
    pos = np.stack([np.arange(n) * spacing, np.zeros(n)], axis=1)
    v = layout_interactions(AtomLayout(pos))
    return EncodedTarget(n, v, np.ones(n), 0.0)


@pytest.mark.parametrize("dim", (2, 3))
@pytest.mark.parametrize("seed", range(10))
@pytest.mark.parametrize("n", (4, 5, 6))
def test_embed_round_trip_chain(n, seed, dim):
    """A realizable chain reaches criterion 8's residual bound at embed seeds
    0-9 in both dimensions.  The stacked descent does not stop on a small
    relative gain, which leaves residuals of 1.5e-10 to 3.3e-7 here."""
    target = chain_target(n)
    layout, report = embed_layout(target, dim=dim, seed=seed)
    assert report.max_rel_error <= 1e-6
    achieved = layout_interactions(layout)
    np.testing.assert_allclose(achieved, target.v,
                               atol=1e-6 * target.v.max())


@pytest.mark.parametrize("restarts", (1, 16))
@pytest.mark.parametrize("dim", (2, 3))
def test_stacked_stress_gradient_and_per_restart_terms(rng, restarts, dim):
    """The stacked stress kernel's gradient matches central differences of
    its summed stress, and each restart's stress (and gradient) is the
    kernel's on that restart alone, as a stack of one.  Each restart's
    stress is also, bit for bit, the one computed from the differences
    ``pos[:, iu] - pos[:, ju]``, so the incidence-matrix gather is exact.
    Targets mix connected pairs with zero-V pairs, and the random positions
    put zero-V pairs both inside and outside r_far."""
    r_far, h = 12.0, 1e-6
    seen_inside = seen_outside = False
    for n in range(2, 11):
        r_want = rng.uniform(3.0, 10.0, size=(n, n))
        v = np.triu(np.where(rng.random((n, n)) < 0.5,
                             C6_DEFAULT / r_want**6, 0.0), 1)
        v[0, 1] = C6_DEFAULT / 5.0**6  # at least one connected pair
        target = EncodedTarget(n, v + v.T, np.zeros(n), 0.0)
        terms = _pair_data(target, C6_DEFAULT)
        _, pos_mask, _, r_target, r_scale = terms
        iu, ju = np.triu_indices(n, k=1)
        shape = (restarts, n, dim)
        x = rng.normal(scale=8.0, size=restarts * n * dim)
        args = (shape, *terms, r_far)
        total, grad, each = _stress_and_grad(x, *args)
        assert grad.shape == x.shape and each.shape == (restarts,)
        assert total == pytest.approx(each.sum(), rel=1e-15)
        stack = x.reshape(shape)
        d = stack[:, iu] - stack[:, ju]
        r = np.maximum(np.sqrt((d**2).sum(axis=-1)), 1e-12)
        rel = np.where(pos_mask, (r - r_target) / r_scale, 0.0)
        hinge = np.where(~pos_mask & (r < r_far), r_far - r, 0.0)
        want = [(rel[k]**2).sum() + (hinge[k]**2).sum()
                for k in range(restarts)]
        assert each.tolist() == want
        seen_inside |= bool(np.any(~pos_mask & (r < r_far)))
        seen_outside |= bool(np.any(~pos_mask & (r > r_far)))
        fd = np.empty_like(x)
        for k in range(x.size):
            step = np.zeros_like(x)
            step[k] = h
            fd[k] = (_stress_and_grad(x + step, *args)[0]
                     - _stress_and_grad(x - step, *args)[0]) / (2 * h)
        # the differences' round-off, eps |total| / h, stays below 3e-8 of
        # the largest component on these stacks
        np.testing.assert_allclose(grad, fd, rtol=0,
                                   atol=1e-6 * np.abs(grad).max())
        for k in range(restarts):
            one, one_grad, one_each = _stress_and_grad(
                stack[k].ravel(), (1, n, dim), *args[1:])
            # equal up to the order numpy sums each row in
            np.testing.assert_allclose([each[k], one_each[0]], one, rtol=1e-14)
            np.testing.assert_allclose(grad.reshape(shape)[k].ravel(), one_grad,
                                       rtol=0, atol=1e-14 * np.abs(grad).max())
    assert seen_inside and seen_outside


_EMBED_LAYOUTS = """
import numpy as np
from rydqubo.encoding import (C6_DEFAULT, EncodedTarget, FrustratedModelError,
                              embed_layout)
from rydqubo.pipeline import encode_for_annealing
from rydqubo.problems import PRESET_NAMES, preset_instance

targets = []
for name in PRESET_NAMES:
    try:
        targets.append(encode_for_annealing(preset_instance(name).model,
                                            "physical").target)
    except FrustratedModelError:
        pass
rng = np.random.default_rng(10)
r_want = rng.uniform(4.0, 12.0, size=(10, 10))
v = np.triu(np.where(rng.random((10, 10)) < 0.5, C6_DEFAULT / r_want**6, 0.0),
            1)
v[0, 1] = C6_DEFAULT / 6.0**6
targets.append(EncodedTarget(10, v + v.T, np.zeros(10), 0.0))
for target in targets:
    for dim in (2, 3):
        layout, _ = embed_layout(target, dim=dim, seed=3)
        print(target.n, dim,
              *map(float.hex, layout.positions.ravel().tolist()))
"""


def test_layouts_invariant_to_blas_threads():
    """The stress kernel gathers and scatters through BLAS matrix products,
    so a layout must not depend on the BLAS thread count: every
    gauge-fixable preset and a seeded 10-atom target, in 2D and 3D, give
    bit-identical positions on 1 and 2 threads."""
    outputs = outputs_on_blas_threads(_EMBED_LAYOUTS)
    assert len(outputs[0].splitlines()) == 14
    assert outputs[0] == outputs[1]


def test_embed_star_reports_leakage():
    # equal center-leaf interactions with zero leaf-leaf terms are
    # geometrically impossible for >= 6 leaves in the plane; the residual
    # must say so rather than being masked
    n = 7
    v = np.zeros((n, n))
    v[0, 1:] = v[1:, 0] = C6_DEFAULT / 6.0**6
    target = EncodedTarget(n, v, np.ones(n), 0.0)
    layout, report = embed_layout(target, dim=2, seed=0,
                                  limits=HardwareLimits(r_far=30.0))
    assert report.max_rel_error > 1e-3
    vrep = validate(target, layout, tol=1e-3)
    assert not vrep.passed
    assert vrep.offending_pairs


def test_embed_rejects_negative_target():
    v = np.array([[0.0, -1.0], [-1.0, 0.0]])
    with pytest.raises(NotEncodableError):
        embed_layout(EncodedTarget(2, v, np.zeros(2), 0.0))


def test_validate_flags_misplaced_atom():
    target = chain_target(3)
    layout, _ = embed_layout(target, dim=2, seed=1)
    bad = AtomLayout(layout.positions * 1.05, layout.c6)
    report = validate(target, bad, tol=1e-3)
    assert not report.passed
    good = validate(target, layout, tol=1e-3)
    assert good.passed


def test_validate_names_a_pair_on_an_exact_layout():
    """Every error is 0, so the worst pair is the first pair, never an atom
    paired with itself."""
    v = C6_DEFAULT / 2.0**6
    target = EncodedTarget(2, np.array([[0.0, v], [v, 0.0]]), np.zeros(2), 0.0)
    report = validate(target, AtomLayout(np.array([[0.0, 0.0], [2.0, 0.0]])))
    assert report.max_rel_error == 0.0
    assert report.worst_pair == (0, 1)
    assert report.passed


def test_hardware_limits_validation():
    """Every field is read as a finite float: a boolean or a string is
    refused, as NaN and a value that is not positive are, and an int is
    stored as a float."""
    for field in ("r_min", "omega_max", "t_max"):
        for value in (-1.0, float("nan"), True, "5"):
            with pytest.raises(ValueError, match=f"{field} must be positive"):
                HardwareLimits(**{field: value})
    limits = HardwareLimits(delta_max=5)
    assert limits.delta_max == 5.0 and type(limits.delta_max) is float


def test_layout_refuses_non_positive_c6():
    """With C6 = 0 or -1 every pair error is 1, and ``validate`` would
    report a failed layout rather than a malformed one; NaN is refused
    too."""
    pair = np.array([[0.0, 0.0], [10.0, 0.0]])
    for c6 in (0.0, -1.0, float("nan")):
        with pytest.raises(ValueError, match="C6 must be positive"):
            AtomLayout(pair, c6)
    for c6 in (0, -1):
        with pytest.raises(ValueError, match="C6 must be positive"):
            AtomLayout.from_dict({"positions_um": pair.tolist(), "C6": c6})


# SHA-256 over diagonal_parts (pair part, then detuning part) of every
# preset in both conventions and both modes at default limits: the bytes the
# per-pair loop over a (2^n, n) bit table gave before the doubling kernel
DIAGONAL_PARTS_SHA256 = (
    "c5d5c1ba5a8b37313e7717c02a7c9cd92abdc7abbbd16061ab128985fb7cf68c")


def test_diagonal_parts_bit_identical_to_pair_loop(rng):
    """Preset bytes pinned; on random targets, equal to the exact sums bit
    for bit with integer coefficients and within 8 n eps L1 with float
    ones."""
    digest = hashlib.sha256()
    for name in PRESET_NAMES:
        model = preset_instance(name).model
        for source in (model, as_ising(model)):
            for mode in ("ideal", "physical"):
                try:
                    target = encode_for_annealing(source, mode).target
                except FrustratedModelError:
                    assert (name, mode) == ("mixed", "physical")
                    continue
                for part in target.diagonal_parts:
                    digest.update(part.tobytes())
    assert digest.hexdigest() == DIAGONAL_PARTS_SHA256
    # couplings signed, zero or absent; n = 0-8
    for n in range(9):
        for exact in (True, False):
            v = np.triu(rng.choice([-1.0, 0.0, 0.0, 1.0, 3.0], size=(n, n)), 1)
            delta = rng.integers(-3, 4, size=n).astype(float)
            if not exact:
                v, delta = v * rng.normal(size=(n, n)), rng.normal(size=n)
            target = EncodedTarget(n, v + v.T, delta, 0.2)
            pairs = {(i, j): v[i, j] for i, j in np.argwhere(v).tolist()}
            for got, model in zip(target.diagonal_parts, (
                    QuboModel(n, (0.0,) * n, pairs),
                    QuboModel(n, tuple(delta), {}))):
                want = exact_energies(model)
                if exact:
                    assert got.tobytes() == want.tobytes()
                else:
                    assert np.abs(got - want).max() <= level_tolerance(model)
