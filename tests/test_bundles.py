import numpy as np
import pytest

from nabla_calc.bundles import (
    BundleSpec,
    TensorSection,
    compatibility_defect,
    induced_tensor_bundle,
    magnetic_example_bundle,
    pointwise_kron,
)
from nabla_calc.calculus import covariant_derivative, multiindex_derivative
from nabla_calc.errors import ShapeMismatch
from nabla_calc.geometry import MetricField
from nabla_calc.grid import ChartGrid
from nabla_calc.operators import _hom_derivative
from nabla_calc.sections import random_section, random_trig_field, seeded_rng

from dense_reference import hom_potentials, reference_induced


@pytest.fixture
def grid():
    return ChartGrid([(-1, 1), (-1, 1)], (33, 33))


def test_pointwise_kron_matches_numpy():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(4, 2, 3)) + 1j * rng.normal(size=(4, 2, 3))
    b = rng.normal(size=(4, 3, 2))
    # the same draws with the grid axis of 4 points last
    a, b = np.moveaxis(a, 0, -1), np.moveaxis(b, 0, -1)
    got = pointwise_kron(a, b)
    assert got.shape == (6, 6, 4)
    for i in range(4):
        assert np.allclose(got[..., i], np.kron(a[..., i], b[..., i]))


def test_magnetic_example_layout(grid):
    bundle = magnetic_example_bundle(grid)
    x1 = grid.coords[0]
    assert np.all(bundle.potentials[0] == 0)
    assert np.allclose(bundle.potentials[1, 0, 1], np.exp(1j * x1**3))
    assert np.allclose(bundle.potentials[1, 1, 0], -np.exp(-1j * x1**3))
    # A_2^2 = -identity
    a2 = bundle.potentials[1]
    square = np.einsum("ab...,bc...->ac...", a2, a2)
    assert np.allclose(square, -np.eye(2)[:, :, None, None])


def test_magnetic_connection_preserves_metric(grid):
    assert compatibility_defect(magnetic_example_bundle(grid)) < 1e-14


def test_compatibility_defect_detects_non_skew(grid):
    pots = np.zeros((2, 2, 2) + grid.shape, dtype=complex)
    pots[0, 0, 0] = 1.0  # symmetric, not skew
    bundle = BundleSpec(grid, 2, pots)
    assert compatibility_defect(bundle) == pytest.approx(2.0)


def test_compatibility_defect_on_varying_fiber_metric():
    # h = e^{2f} I is preserved by A_k = (d_k f) I, since d_k h = 2 (d_k f) h
    grid = ChartGrid([(-1, 1), (-1, 1)], (65, 65))
    x1, x2 = grid.coords
    f = x1 * x2 / 4
    eye = np.eye(2).reshape(2, 2, 1, 1)
    h = np.exp(2 * f) * eye
    pots = np.zeros((2, 2, 2) + grid.shape, dtype=complex)
    pots[0] = (x2 / 4) * eye
    pots[1] = (x1 / 4) * eye
    assert compatibility_defect(BundleSpec(grid, 2, pots, h)) <= 1e-6
    assert compatibility_defect(BundleSpec(grid, 2, None, h)) >= 0.1
    # f = x1 / 4: h is stored (N1, 1), and only its x1 axis is differentiated
    h = np.exp(x1 / 2) * eye
    pots = np.zeros((2, 2, 2, 1, 1), dtype=complex)
    pots[0] = eye / 4
    one_axis = BundleSpec(grid, 2, pots, h)
    assert one_axis.fiber_metric.shape == (2, 2, 65, 1)
    assert compatibility_defect(one_axis) <= 1e-6
    assert compatibility_defect(BundleSpec(grid, 2, None, h)) >= 0.1


@pytest.mark.parametrize("shape", [(17,), (17, 17)])
@pytest.mark.parametrize("de,df", [(1, 1), (1, 3), (2, 3), (3, 2)])
def test_hom_derivative_matches_explicit_kronecker_terms(shape, de, df):
    # D a + A^F a - a A^E against the vec'd field under A^F (x) I - I (x) A^E^T
    g = ChartGrid([(-1, 1)] * len(shape), shape)
    metric = MetricField.flat(g)
    rng = np.random.default_rng(7)

    def field(size):
        """Draws over grid + size, moved grid-last."""
        x = rng.normal(size=g.shape + size) + 1j * rng.normal(size=g.shape + size)
        return np.moveaxis(x, range(g.dim), range(-g.dim, 0))

    be = BundleSpec(g, de, field((g.dim, de, de)))
    bf = BundleSpec(g, df, field((g.dim, df, df)))
    a = field((df, de))
    got = _hom_derivative(a, (be, 0), (bf, 0), metric)
    vec = a.reshape((1, df * de) + g.shape)
    want = np.stack([g.diff(vec[0], axis=y) for y in range(g.dim)])
    want = want + np.einsum("yab...,zb...->ya...", hom_potentials(be, bf), vec)
    g.zero_band(want, g.stencil_radius)
    assert np.allclose(got.reshape(want.shape), want, rtol=1e-14, atol=1e-12)


def test_section_shape_guards(grid):
    with pytest.raises(ShapeMismatch):
        TensorSection(grid, 1, np.zeros((3,) + grid.shape), 3)
    sec = TensorSection(grid, 2, np.zeros((2, 2, 2) + grid.shape), 2)
    flat = TensorSection(grid, 0, sec.values.reshape((8,) + grid.shape), 8)
    assert flat.rank == 0 and flat.fiber_dim == 8


def test_section_arithmetic(grid):
    rng = seeded_rng(6, "arith")
    a = random_section(grid, 1, 2, rng)
    b = random_section(grid, 1, 2, rng)
    c = TensorSection(grid, 1, a.values + 2.0 * b.values - b.values, 2)
    assert np.allclose(c.values, a.values + b.values)


def _assert_matches_reference(got, bundle, metric, slots):
    """Fiber metric, covariant derivatives and nabla_(2,1) of ranks 0-2
    over an induced bundle against a plain bundle with the explicit
    Kronecker potentials."""
    pots, fiber_metric = reference_induced(bundle, metric, slots)
    assert np.array_equal(
        np.broadcast_to(got.fiber_metric, fiber_metric.shape), fiber_metric
    )
    dense = BundleSpec(bundle.grid, got.fiber_dim, pots, fiber_metric)
    for rank in range(3):
        u = random_section(bundle.grid, rank, got.fiber_dim, seeded_rng(8, "ind", rank))
        for derivative in (covariant_derivative, _mixed_second):
            one = derivative(u, got, metric).values
            two = derivative(u, dense, metric).values
            assert np.max(np.abs(one - two)) <= 1e-13 * np.max(np.abs(two))


def _mixed_second(u, bundle, metric):
    return multiindex_derivative(u, (2, 1), bundle, metric)


def test_induced_bundle_of_an_induced_bundle_lifts_the_base(grid):
    x1, x2 = grid.coords
    metric = MetricField.conformal(grid, 0.2 * x1 * x2)
    bundle = magnetic_example_bundle(grid)
    assert bundle.base is None and bundle.slots == 0
    twice = induced_tensor_bundle(induced_tensor_bundle(bundle, metric, 1), metric, 1)
    assert twice.base is bundle and twice.slots == 2
    _assert_matches_reference(twice, bundle, metric, 2)


def test_potentials_are_stored_once_grid_last(grid):
    # the magnetic potentials vary over x1 alone: stored (2, 2, 2, N1, 1)
    bundle = magnetic_example_bundle(grid)
    pots = bundle.potentials
    assert pots.flags.c_contiguous and pots.shape == (2, 2, 2, grid.shape[0], 1)
    assert not pots.flags.writeable


@pytest.mark.parametrize("slots", [1, 2, 3])
@pytest.mark.parametrize("g", [np.eye(2), np.array([[2.0, 0.3], [0.3, 0.7]])])
def test_constant_metric_induced_bundle_matches_grid_construction(grid, slots, g):
    h = np.array([[1.5, 0.2 - 0.4j], [0.2 + 0.4j, 0.9]])[:, :, None, None]
    bundle = BundleSpec(grid, 2, magnetic_example_bundle(grid).potentials, h)
    metric = MetricField(grid, np.broadcast_to(g[:, :, None, None], (2, 2) + grid.shape))
    got = induced_tensor_bundle(bundle, metric, slots)
    assert got.fiber_metric.shape == (got.fiber_dim, got.fiber_dim, 1, 1)
    _assert_matches_reference(got, bundle, metric, slots)


@pytest.mark.parametrize("slots", [1, 2, 3])
def test_curved_induced_bundle_matches_grid_construction(grid, slots):
    x1, x2 = grid.coords
    metric = MetricField.conformal(grid, 0.2 * x1 * x2)
    bundle = magnetic_example_bundle(grid)
    got = induced_tensor_bundle(bundle, metric, slots)
    assert not hasattr(got, "potentials")
    _assert_matches_reference(got, bundle, metric, slots)


@pytest.mark.parametrize("slots", [1, 2])
def test_curved_induced_bundle_of_a_fiber_wider_than_the_chart(grid, slots):
    # d = 3 != n = 2 tells the slot axes of the unfolded fiber from its own
    x1, x2 = grid.coords
    metric = MetricField.conformal(grid, 0.2 * x1 * x2)
    rng = seeded_rng(8, "wide")
    bundle = BundleSpec(grid, 3, random_trig_field(2, (2, 3, 3), rng).sample(grid))
    got = induced_tensor_bundle(bundle, metric, slots)
    _assert_matches_reference(got, bundle, metric, slots)
