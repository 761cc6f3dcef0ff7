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
from nabla_calc.errors import ShapeMismatch
from nabla_calc.geometry import MetricField
from nabla_calc.grid import ChartGrid
from nabla_calc.sections import random_section, random_skew_potentials, seeded_rng


@pytest.fixture
def grid():
    return ChartGrid([(-1, 1), (-1, 1)], (33, 33))


def test_pointwise_kron_matches_numpy():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(4, 2, 3)) + 1j * rng.normal(size=(4, 2, 3))
    b = rng.normal(size=(4, 3, 2))
    got = pointwise_kron(a, b)
    for i in range(4):
        assert np.allclose(got[i], np.kron(a[i], b[i]))


def test_magnetic_example_layout(grid):
    bundle = magnetic_example_bundle(grid)
    x1 = grid.coords[0]
    assert np.all(bundle.potentials[..., 0, :, :] == 0)
    assert np.allclose(bundle.potentials[..., 1, 0, 1], np.exp(1j * x1**3))
    assert np.allclose(bundle.potentials[..., 1, 1, 0], -np.exp(-1j * x1**3))
    # A_2^2 = -identity
    a2 = bundle.potentials[..., 1, :, :]
    assert np.allclose(a2 @ a2, -np.eye(2))


def test_magnetic_connection_preserves_metric(grid):
    assert compatibility_defect(magnetic_example_bundle(grid)) < 1e-14


def test_compatibility_defect_detects_non_skew(grid):
    pots = np.zeros(grid.shape + (2, 2, 2), dtype=complex)
    pots[..., 0, 0, 0] = 1.0  # symmetric, not skew
    bundle = BundleSpec(grid, 2, pots)
    assert compatibility_defect(bundle) == pytest.approx(2.0)


def test_compatibility_defect_on_varying_fiber_metric():
    # h = e^{2f} I is preserved by A_k = (d_k f) I, since d_k h = 2 (d_k f) h
    grid = ChartGrid([(-1, 1), (-1, 1)], (65, 65))
    x1, x2 = grid.coords
    f = x1 * x2 / 4
    h = np.exp(2 * f)[..., None, None] * np.eye(2)
    pots = np.zeros(grid.shape + (2, 2, 2), dtype=complex)
    pots[..., 0, :, :] = (x2 / 4)[..., None, None] * np.eye(2)
    pots[..., 1, :, :] = (x1 / 4)[..., None, None] * np.eye(2)
    assert compatibility_defect(BundleSpec(grid, 2, pots, h)) <= 1e-6
    assert compatibility_defect(BundleSpec(grid, 2, None, h)) >= 0.1


def test_dual_potentials_give_leibniz_pairing(grid):
    rng = seeded_rng(3, "dual")
    bundle = BundleSpec(grid, 2, random_skew_potentials(grid, 2, rng))
    dual = bundle.dual()
    assert np.allclose(
        dual.potentials, -np.swapaxes(bundle.potentials, -1, -2)
    )


def test_tensor_potential_acts_as_derivation(grid):
    rng = seeded_rng(4, "tensor")
    be = BundleSpec(grid, 2, random_skew_potentials(grid, 2, rng))
    bf = BundleSpec(grid, 3, random_skew_potentials(grid, 3, rng))
    bt = be.tensor(bf)
    u = random_section(grid, 0, 2, rng).values
    v = random_section(grid, 0, 3, rng).values
    uv = np.einsum("...a,...b->...ab", u, v).reshape(grid.shape + (6,))
    lhs = np.einsum("...kab,...b->...ka", bt.potentials, uv)
    au = np.einsum("...kab,...b->...ka", be.potentials, u)
    av = np.einsum("...kab,...b->...ka", bf.potentials, v)
    rhs = (
        np.einsum("...ka,...b->...kab", au, v)
        + np.einsum("...a,...kb->...kab", u, av)
    ).reshape(grid.shape + (2, 6))
    assert np.allclose(lhs, rhs)


def test_hom_potential_matches_commutator_action(grid):
    rng = seeded_rng(5, "hom")
    be = BundleSpec(grid, 2, random_skew_potentials(grid, 2, rng))
    bf = BundleSpec(grid, 3, random_skew_potentials(grid, 3, rng))
    bh = be.hom(bf)
    m = random_section(grid, 0, 6, rng).values.reshape(grid.shape + (3, 2))
    lhs = np.einsum(
        "...kab,...b->...ka", bh.potentials, m.reshape(grid.shape + (6,))
    ).reshape(grid.shape + (2, 3, 2))
    rhs = np.einsum("...kab,...bc->...kac", bf.potentials, m) - np.einsum(
        "...ab,...kbc->...kac", m, be.potentials
    )
    assert np.allclose(lhs, rhs)


def _reference_tensor_and_hom(be, bf):
    """The tensor and Hom potentials written out as explicit Kronecker terms."""
    lead = be.grid.dim + 1

    def eye(k):
        return np.eye(k, dtype=complex).reshape((1,) * lead + (k, k))

    de, df = be.fiber_dim, bf.fiber_dim
    tensor = pointwise_kron(be.potentials, eye(df)) + pointwise_kron(
        eye(de), bf.potentials
    )
    hom = pointwise_kron(bf.potentials, eye(de)) - pointwise_kron(
        eye(df), np.swapaxes(be.potentials, -1, -2)
    )
    return tensor, hom


@pytest.mark.parametrize("shape", [(17,), (17, 17)])
@pytest.mark.parametrize("de,df", [(1, 1), (1, 3), (2, 3), (3, 2)])
def test_tensor_and_hom_potentials_match_explicit_kronecker_terms(shape, de, df):
    g = ChartGrid([(-1, 1)] * len(shape), shape)
    rng = np.random.default_rng(7)

    def pots(d):
        size = g.shape + (g.dim, d, d)
        return rng.normal(size=size) + 1j * rng.normal(size=size)

    be = BundleSpec(g, de, pots(de))
    bf = BundleSpec(g, df, pots(df))
    tensor, hom = _reference_tensor_and_hom(be, bf)
    assert np.array_equal(be.tensor(bf).potentials, tensor)
    assert np.array_equal(be.hom(bf).potentials, hom)


def test_tensor_of_constant_and_field_fiber_metrics_broadcasts(grid):
    h = np.array([[1.5, 0.2 - 0.4j], [0.2 + 0.4j, 0.9]])
    x1 = grid.coords[0]
    field = np.zeros(grid.shape + (3, 3), dtype=complex)
    field[...] = np.diag([1.0, 2.0, 0.5])
    field[..., 0, 1] = field[..., 1, 0] = 0.3 * x1
    const = BundleSpec(grid, 2, fiber_metric=h)
    varying = BundleSpec(grid, 3, fiber_metric=field)
    h_field = np.broadcast_to(h, grid.shape + (2, 2))
    got = const.tensor(varying).fiber_metric
    assert got.shape == grid.shape + (6, 6)
    assert np.array_equal(got, pointwise_kron(h_field, field))
    assert np.array_equal(
        varying.tensor(const).fiber_metric, pointwise_kron(field, h_field)
    )


def test_section_shape_guards(grid):
    with pytest.raises(ShapeMismatch):
        TensorSection(grid, 1, np.zeros(grid.shape + (3,)), 3)
    sec = TensorSection.zeros(grid, 2, 2)
    flat = sec.flatten_fiber()
    assert flat.rank == 0 and flat.fiber_dim == 8


def test_section_arithmetic(grid):
    rng = seeded_rng(6, "arith")
    a = random_section(grid, 1, 2, rng)
    b = random_section(grid, 1, 2, rng)
    c = a + 2.0 * b - b
    assert np.allclose(c.values, a.values + b.values)


def _reference_induced(bundle, metric, slots):
    """Potentials and fiber metric as grid fields, Christoffel slots included."""
    n = bundle.grid.dim
    d = bundle.fiber_dim
    lead = n + 1

    def eye(k):
        return np.eye(k, dtype=complex).reshape((1,) * lead + (k, k))

    gamma = metric.christoffel_field()
    slot_mat = -np.swapaxes(np.moveaxis(gamma, -2, -3), -1, -2).astype(complex)
    pots = None
    for s in range(slots):
        term = pointwise_kron(eye(n**s), slot_mat)
        term = pointwise_kron(term, eye(n ** (slots - s - 1) * d))
        pots = term if pots is None else pots + term
    pots = pots + pointwise_kron(eye(n**slots), bundle.potentials)
    ginv = metric.inv.astype(complex)
    fiber_metric = ginv
    for _ in range(slots - 1):
        fiber_metric = pointwise_kron(fiber_metric, ginv)
    h = np.broadcast_to(bundle.fiber_metric, bundle.grid.shape + (d, d))
    return pots, pointwise_kron(fiber_metric, h)


def test_induced_bundle_of_an_induced_bundle_lifts_the_base(grid):
    x1, x2 = grid.coords
    metric = MetricField.conformal(grid, 0.2 * x1 * x2)
    bundle = magnetic_example_bundle(grid)
    assert bundle.base is None and bundle.slots == 0
    twice = induced_tensor_bundle(induced_tensor_bundle(bundle, metric, 1), metric, 1)
    assert twice.base is bundle and twice.slots == 2
    direct = induced_tensor_bundle(bundle, metric, 2)
    assert np.array_equal(twice.potentials, direct.potentials)
    assert np.array_equal(twice.fiber_metric, direct.fiber_metric)


def test_potentials_are_stored_once_grid_last(grid):
    bundle = magnetic_example_bundle(grid)
    pots = bundle.potentials_grid_last
    assert pots.flags.c_contiguous and pots.shape == (2, 2, 2) + grid.shape
    assert np.shares_memory(bundle.potentials, pots)
    assert bundle.potentials.shape == grid.shape + (2, 2, 2)


@pytest.mark.parametrize("slots", [1, 2, 3])
@pytest.mark.parametrize("g", [np.eye(2), np.array([[2.0, 0.3], [0.3, 0.7]])])
def test_constant_metric_induced_bundle_matches_grid_construction(grid, slots, g):
    h = np.array([[1.5, 0.2 - 0.4j], [0.2 + 0.4j, 0.9]])
    bundle = BundleSpec(grid, 2, magnetic_example_bundle(grid).potentials, h)
    metric = MetricField(grid, np.broadcast_to(g, grid.shape + (2, 2)))
    pots, fiber_metric = _reference_induced(bundle, metric, slots)
    got = induced_tensor_bundle(bundle, metric, slots)
    assert np.array_equal(got.potentials, pots)
    assert got.metric_is_constant
    assert np.array_equal(
        np.broadcast_to(got.fiber_metric, fiber_metric.shape), fiber_metric
    )


@pytest.mark.parametrize("slots", [1, 2, 3])
def test_curved_induced_bundle_matches_grid_construction(grid, slots):
    x1, x2 = grid.coords
    metric = MetricField.conformal(grid, 0.2 * x1 * x2)
    bundle = magnetic_example_bundle(grid)
    pots, fiber_metric = _reference_induced(bundle, metric, slots)
    got = induced_tensor_bundle(bundle, metric, slots)
    assert np.array_equal(got.potentials, pots)
    assert np.array_equal(got.fiber_metric, fiber_metric)
