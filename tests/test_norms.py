import math
import warnings

import numpy as np
import pytest

from nabla_calc.bundles import BundleSpec, TensorSection, magnetic_example_bundle
from nabla_calc.calculus import multiindex_derivative
from nabla_calc.errors import (
    EmptyCovering,
    ExponentMismatch,
    NonadmissibleWeight,
)
from nabla_calc.geometry import MetricField, WeightPair
from nabla_calc.grid import ChartGrid
from nabla_calc.norms import (
    _lp_combine,
    conformal_weighted_check,
    covering_multiplicity,
    covering_norm,
    equivalence_constant,
    hom_infty_norm,
    lp_norm,
    multiplication_constant,
    perturbed_norm_check,
    pointwise_norm_sq,
    sobolev_norm,
    weighted_sobolev_norm,
)
from nabla_calc.sections import (
    random_bump_section,
    random_section,
    random_skew_potentials,
    seeded_rng,
)

GRID = ChartGrid([(-1, 1), (-1, 1)], (65, 65))
FLAT = MetricField.flat(GRID)
BUNDLE = BundleSpec(GRID, 2)


def test_l2_norm_matches_gaussian_integral():
    grid = ChartGrid([(-1, 1)], (129,))
    metric = MetricField.flat(grid)
    sigma = 0.15
    u = TensorSection(
        grid, 0, np.exp(-grid.coords[0] ** 2 / (2 * sigma**2))[..., None], 1
    )
    got = lp_norm(u, 2, metric)
    want = (sigma * math.sqrt(math.pi)) ** 0.5
    assert abs(got - want) < 1e-10 * want


def test_zero_and_max_norms():
    z = TensorSection.zeros(GRID, 0, 2)
    assert lp_norm(z, 2, FLAT) == 0.0
    vals = np.zeros(GRID.shape + (1,), dtype=complex)
    vals[32, 32, 0] = 3.0
    u = TensorSection(GRID, 0, vals, 1)
    assert lp_norm(u, math.inf, FLAT) == pytest.approx(3.0)


def test_slot_norm_uses_metric_inverse():
    # a covector with |w|_g^2 = g^{11} at a conformal point
    grid = ChartGrid([(-1, 1), (-1, 1)], (17, 17))
    metric = MetricField.conformal(grid, 0.3 * grid.coords[0])
    vals = np.zeros(grid.shape + (2, 1), dtype=complex)
    vals[..., 0, 0] = 1.0
    w = TensorSection(grid, 1, vals, 1)
    ns = pointwise_norm_sq(w, metric)
    assert np.allclose(ns, metric.inv[..., 0, 0])


def test_sobolev_norm_order_zero_is_lp():
    rng = seeded_rng(20, "s0")
    u = random_section(GRID, 0, 2, rng)
    assert sobolev_norm(u, 0, 2, BUNDLE, FLAT) == pytest.approx(
        lp_norm(u, 2, FLAT, BUNDLE)
    )


def test_sobolev_norm_monotone_in_order():
    rng = seeded_rng(21, "monotone")
    u = random_section(GRID, 0, 2, rng)
    norms = [sobolev_norm(u, s, 2, BUNDLE, FLAT) for s in range(3)]
    assert norms[0] <= norms[1] <= norms[2]


def test_homogeneity_and_triangle():
    rng = seeded_rng(22, "vector-space")
    u = random_section(GRID, 0, 2, rng)
    v = random_section(GRID, 0, 2, seeded_rng(22, "vector-space", 1))
    for p in (1, 2, math.inf):
        nu = sobolev_norm(u, 1, p, BUNDLE, FLAT)
        scaled = TensorSection(GRID, 0, 2.5j * u.values, 2)
        assert sobolev_norm(scaled, 1, p, BUNDLE, FLAT) == pytest.approx(2.5 * nu)
        w = u + v
        assert sobolev_norm(w, 1, p, BUNDLE, FLAT) <= nu + sobolev_norm(
            v, 1, p, BUNDLE, FLAT
        ) + 1e-12


def test_magnetic_norm_equals_multiindex_assembly():
    grid = ChartGrid([(-1, 1), (-1, 1)], (97, 97))
    metric = MetricField.flat(grid)
    bundle = magnetic_example_bundle(grid)
    u = random_section(grid, 0, 2, seeded_rng(23, "assembly"))
    direct = sobolev_norm(u, 2, 2, bundle, metric)
    total = 0.0
    indices = [(), (1,), (2,), (1, 1), (1, 2), (2, 1), (2, 2)]
    for idx in indices:
        d = multiindex_derivative(u, idx, bundle, metric)
        total += lp_norm(d, 2, metric, bundle) ** 2
    assert math.sqrt(total) == pytest.approx(direct, rel=1e-12)


def test_weighted_norm_reduces_to_plain():
    rng = seeded_rng(24, "weights")
    u = random_section(GRID, 0, 2, rng)
    unit = WeightPair(GRID, np.ones(GRID.shape))
    assert weighted_sobolev_norm(u, 1, 2, unit, BUNDLE, FLAT) == pytest.approx(
        sobolev_norm(u, 1, 2, BUNDLE, FLAT)
    )
    halved = WeightPair(GRID, np.ones(GRID.shape), f0=2 * np.ones(GRID.shape))
    assert weighted_sobolev_norm(u, 0, 2, halved, BUNDLE, FLAT) == pytest.approx(
        0.5 * lp_norm(u, 2, FLAT, BUNDLE)
    )


def test_covering_multiplicity_box_families():
    a = ((-1.0, 0.1), (-1.0, 1.0))
    b = ((-0.1, 1.0), (-1.0, 1.0))
    c = ((-1.0, 1.0), (-0.5, 1.0))
    assert covering_multiplicity([a]) == 1
    assert covering_multiplicity([a, b]) == 2
    assert covering_multiplicity([a, b, c]) == 3
    left = ((-1.0, 0.0), (-1.0, 1.0))
    right = ((0.0, 1.0), (-1.0, 1.0))
    # closed boxes sharing a face intersect
    assert covering_multiplicity([left, right]) == 2
    apart = ((0.5, 1.0), (-1.0, 1.0))
    assert covering_multiplicity([((-1.0, 0.0), (-1.0, 1.0)), apart]) == 1


def test_covering_norm_single_box_and_bounds():
    rng = seeded_rng(25, "covering")
    u = random_section(GRID, 0, 2, rng)
    whole = [((-1.0, 1.0), (-1.0, 1.0))]
    value, mult = covering_norm(u, whole, 1, 2, BUNDLE, FLAT)
    base = sobolev_norm(u, 1, 2, BUNDLE, FLAT)
    assert mult == 1
    assert value == pytest.approx(base)
    halves = [((-1.0, 0.1), (-1.0, 1.0)), ((-0.1, 1.0), (-1.0, 1.0))]
    value, mult = covering_norm(u, halves, 1, 2, BUNDLE, FLAT)
    assert mult == 2
    assert base - 1e-10 <= value <= math.sqrt(2.0) * base + 1e-10
    vinf, _ = covering_norm(u, halves, 1, math.inf, BUNDLE, FLAT)
    assert vinf == pytest.approx(sobolev_norm(u, 1, math.inf, BUNDLE, FLAT))


def test_covering_norm_rejects_bad_coverings():
    u = TensorSection.zeros(GRID, 0, 2)
    with pytest.raises(EmptyCovering):
        covering_norm(u, [], 0, 2, BUNDLE, FLAT)
    small = [((-0.2, 0.2), (-0.2, 0.2))]
    with pytest.raises(EmptyCovering):
        covering_norm(u, small, 0, 2, BUNDLE, FLAT)


def test_multiplication_constant_values():
    assert multiplication_constant(0, 2, 2, 1) == 1.0
    assert multiplication_constant(1, 4, 4, 2) == pytest.approx(math.sqrt(5.0))
    assert multiplication_constant(2, 4, 4, 2) == pytest.approx(5.0)
    assert multiplication_constant(3, math.inf, math.inf, math.inf) == 8.0
    # (1 + 2^r) overflows a float; the constant itself is about 2^ell
    assert multiplication_constant(5, math.inf, 2000, 2000) == pytest.approx(32.0)
    with pytest.raises(ExponentMismatch):
        multiplication_constant(1, 2, 2, 3)


def test_lp_combine_scales_large_exponents():
    assert _lp_combine([3.0, 4.0], 2000) == 4.0
    assert _lp_combine([3.0, 4.0], 2) == pytest.approx(5.0)
    assert _lp_combine([0.0, 0.0], 2000) == 0.0
    assert _lp_combine([1.0, math.inf], 2000) == math.inf
    assert math.isnan(_lp_combine([1e300, math.nan], 2000))


def test_lp_norm_at_large_exponent_tends_to_the_sup():
    u = 10.0 * random_section(GRID, 0, 2, seeded_rng(9, "large-p"))
    sup = lp_norm(u, math.inf, FLAT, BUNDLE)
    big = lp_norm(u, 2000, FLAT, BUNDLE)
    assert math.isfinite(big) and 0.0 < big
    assert big == pytest.approx(sup, rel=1e-2)
    assert lp_norm(TensorSection.zeros(GRID, 0, 2), 2000, FLAT, BUNDLE) == 0.0


def test_lp_norm_region_ignores_larger_values_outside_it():
    # (1.5 / 0.5) ** 2000 overflows: the scale comes from the region's max,
    # so the values outside the region must not be raised to the power p
    left = GRID.coords[0] < 0.0
    vals = np.where(left, 0.5, 1.5)[..., None]
    u = TensorSection(GRID, 0, vals, 1)
    inside = TensorSection(GRID, 0, np.where(left, 0.5, 0.0)[..., None], 1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = lp_norm(u, 2000, FLAT, region=left)
        assert got == lp_norm(inside, 2000, FLAT)
        assert lp_norm(u, math.inf, FLAT, region=left) == 0.5
    assert got == pytest.approx(0.5, rel=1e-3)


def test_equivalence_constant_values():
    assert equivalence_constant(0, 2, 5.0) == 1.0
    assert equivalence_constant(1, 2, 0.0) == pytest.approx(2.0)
    assert equivalence_constant(1, 2, 1.0) == pytest.approx(math.sqrt(6.0))
    with pytest.raises(ValueError):
        equivalence_constant(1, math.inf, 1.0)


def test_perturbed_norm_check_zero_perturbation():
    rng = seeded_rng(26, "perturb")
    u = random_section(GRID, 0, 2, rng)
    zero = np.zeros(GRID.shape + (2, 2, 2), dtype=complex)
    report = perturbed_norm_check(u, zero, 1, 2, BUNDLE, FLAT)
    assert report["passed"]
    assert report["ratio"] == pytest.approx(1.0)
    assert report["coefficient_norm"] == 0.0


def test_perturbed_norm_check_magnetic_potential():
    grid = ChartGrid([(-1, 1), (-1, 1)], (97, 97))
    metric = MetricField.flat(grid)
    flat_bundle = BundleSpec(grid, 2)
    magnetic = magnetic_example_bundle(grid)
    u = random_section(grid, 0, 2, seeded_rng(26, "perturb", 1))
    report = perturbed_norm_check(u, magnetic.potentials, 1, 2, flat_bundle, metric)
    assert report["passed"]
    # the magnetic potential has pointwise Frobenius norm sqrt(2)
    assert report["coefficient_norm"] == pytest.approx(math.sqrt(2.0), rel=1e-6)
    assert report["constant"] == pytest.approx(math.sqrt(8.0), rel=1e-6)


def test_perturbed_norm_check_random_skew_trials():
    rng_a = seeded_rng(27, "skew-a")
    for trial in range(5):
        u = random_section(GRID, 0, 2, seeded_rng(27, "skew-u", trial))
        pert = random_skew_potentials(GRID, 2, seeded_rng(27, "skew-a", trial))
        report = perturbed_norm_check(u, pert, 2, 2, BUNDLE, FLAT)
        assert report["passed"], report
    del rng_a


def test_perturbed_norm_check_rejects_non_skew():
    u = TensorSection.zeros(GRID, 0, 2)
    bad = np.zeros(GRID.shape + (2, 2, 2), dtype=complex)
    bad[..., 0, 0, 0] = 1.0
    with pytest.raises(ValueError):
        perturbed_norm_check(u, bad, 1, 2, BUNDLE, FLAT)


def _half_line(shape=(257,)):
    grid = ChartGrid([(1.0, 3.0)], shape)
    metric = MetricField.flat(grid)
    bundle = BundleSpec(grid, 1)
    weight = WeightPair(grid, grid.coords[0].copy(), admissible=True)
    return grid, metric, bundle, weight


def test_conformal_check_unit_weight_is_exact():
    rng = seeded_rng(28, "conformal")
    u = random_section(GRID, 0, 2, rng)
    unit = WeightPair(GRID, np.ones(GRID.shape), admissible=True)
    report = conformal_weighted_check(u, unit, 1, 2, BUNDLE, FLAT)
    assert report["passed"]
    assert report["ratio"] == pytest.approx(1.0, rel=1e-12)


def test_conformal_check_half_line_order_zero_exact():
    grid, metric, bundle, weight = _half_line()
    u = random_section(grid, 0, 1, seeded_rng(28, "halfline"))
    report = conformal_weighted_check(u, weight, 0, 2, bundle, metric)
    assert report["ratio"] == pytest.approx(1.0, rel=1e-12)


def test_conformal_check_half_line_order_one():
    grid, metric, bundle, weight = _half_line()
    bumps = random_bump_section(
        grid, 0, 1, seeded_rng(28, "halfline", 1), sigma_range=(0.1, 0.12)
    )
    u = bumps.section(grid)
    report = conformal_weighted_check(u, weight, 1, 2, bundle, metric, bound=1.05)
    assert report["passed"], report
    # the squared norms differ by exactly -|u|_L2^2 / 4: the half-density
    # twist r^{1/2} trades first-order mass against the cross term
    l2 = lp_norm(u, 2, metric, bundle)
    predicted = math.sqrt(1.0 - 0.25 * l2**2 / report["weighted_norm"] ** 2)
    assert report["ratio"] == pytest.approx(predicted, abs=2e-4)


def test_conformal_check_requires_admissible_flag():
    grid, metric, bundle, _ = _half_line((65,))
    plain = WeightPair(grid, grid.coords[0].copy(), admissible=False)
    u = TensorSection.zeros(grid, 0, 1)
    with pytest.raises(NonadmissibleWeight):
        conformal_weighted_check(u, plain, 0, 2, bundle, metric)


def test_hom_infty_norm_constant_field():
    field = np.zeros(GRID.shape + (2, 2, 2), dtype=complex)
    field[..., 1, 0, 1] = 2.0
    got = hom_infty_norm(field, 0, BUNDLE, FLAT)
    assert got == pytest.approx(2.0)


def test_hom_infty_norm_propagates_nan():
    field = np.zeros(GRID.shape + (2, 2, 2), dtype=complex)
    field[GRID.shape[0] // 2, GRID.shape[1] // 2, 0, 0, 1] = np.nan
    assert math.isnan(hom_infty_norm(field, 1, BUNDLE, FLAT))


def _einsum_norm_sq(u, ginv, h):
    """The grid-field contraction pointwise_norm_sq uses for varying metrics."""
    r = u.rank
    ul, vl = "abcd"[:r], "efgh"[:r]
    script = f"...{ul}y,...{vl}z"
    args = [u.values, np.conj(u.values)]
    for k in range(r):
        script += f",...{ul[k]}{vl[k]}"
        args.append(ginv)
    args.append(h)
    out = np.einsum(script + ",...yz->...", *args).real
    return np.maximum(out, 0.0)


def _random_rank_section(grid, rank, d, seed):
    rng = np.random.default_rng(seed)
    shape = grid.shape + (grid.dim,) * rank + (d,)
    return TensorSection(
        grid, rank, rng.normal(size=shape) + 1j * rng.normal(size=shape), d
    )


SMALL = ChartGrid([(-1, 1), (-1, 1)], (17, 19))
SPD = np.array([[2.0, 0.3], [0.3, 0.7]])
HERM = np.array([[1.5, 0.2 - 0.4j], [0.2 + 0.4j, 0.9]])


@pytest.mark.parametrize("rank", [0, 1, 2, 3])
def test_constant_non_identity_metric_norm_is_the_grid_einsum(rank):
    metric = MetricField(SMALL, np.broadcast_to(SPD, SMALL.shape + (2, 2)))
    bundle = BundleSpec(SMALL, 2, fiber_metric=HERM)
    assert metric.is_constant and bundle.metric_is_constant
    u = _random_rank_section(SMALL, rank, 2, rank)
    got = pointwise_norm_sq(u, metric, bundle)
    assert got.shape == SMALL.shape
    assert np.array_equal(got, _einsum_norm_sq(u, metric.inv, HERM))
    ginv = np.broadcast_to(np.linalg.inv(SPD), SMALL.shape + (2, 2))
    h = np.broadcast_to(HERM, SMALL.shape + (2, 2))
    want = _einsum_norm_sq(u, ginv, h)
    assert np.max(np.abs(got - want) / want) < 1e-13


@pytest.mark.parametrize("rank", [0, 1, 2, 3])
def test_identity_metric_norm_matches_grid_einsum_and_keeps_nan(rank):
    flat = MetricField.flat(SMALL)
    u = _random_rank_section(SMALL, rank, 2, 10 + rank)
    eye = np.broadcast_to(np.eye(2), SMALL.shape + (2, 2))
    want = _einsum_norm_sq(u, eye, eye)
    got = pointwise_norm_sq(u, flat, BundleSpec(SMALL, 2))
    assert np.max(np.abs(got - want) / want) < 1e-13
    u.values[(4, 5) + (0,) * rank + (1,)] = np.nan
    for bundle in (BundleSpec(SMALL, 2), BundleSpec(SMALL, 2, fiber_metric=HERM)):
        got = pointwise_norm_sq(u, flat, bundle)
        assert np.isnan(got[4, 5])
        assert np.sum(np.isnan(got)) == 1


def test_varying_metric_norm_is_the_grid_einsum():
    x1, x2 = SMALL.coords
    metric = MetricField.conformal(SMALL, 0.3 * x1 * x2)
    assert not metric.is_constant
    bundle = BundleSpec(SMALL, 2, fiber_metric=HERM)
    for rank in range(4):
        u = _random_rank_section(SMALL, rank, 2, 20 + rank)
        got = pointwise_norm_sq(u, metric, bundle)
        assert np.array_equal(got, _einsum_norm_sq(u, metric.inv, HERM))


def _nan_at_one_point_bundle():
    pots = np.zeros(GRID.shape + (2, 2, 2), dtype=complex)
    pots[32, 32, 0, 0, 0] = np.nan
    return BundleSpec(GRID, 2, pots)


def test_sup_sobolev_norm_propagates_nan_from_first_derivative():
    bundle = _nan_at_one_point_bundle()
    u = random_section(GRID, 0, 2, seeded_rng(4, "nan-sup"))
    assert math.isfinite(sobolev_norm(u, 0, math.inf, bundle, FLAT))
    assert math.isnan(sobolev_norm(u, 1, math.inf, bundle, FLAT))
    value, _ = covering_norm(
        u, [((-1, 0.2), (-1, 1)), ((-0.2, 1), (-1, 1))], 1, math.inf, bundle, FLAT
    )
    assert math.isnan(value)
