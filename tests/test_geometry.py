import numpy as np
import pytest

from nabla_calc.errors import NonpositiveWeight, ShapeMismatch, SingularMetric
from nabla_calc.geometry import (
    MetricField,
    WeightPair,
    conformal_rescale,
    levi_civita_difference,
)
from nabla_calc.grid import ChartGrid
from nabla_calc.sections import random_vector_field, seeded_rng


def _conformal_setup(npts=129):
    grid = ChartGrid([(-1, 1), (-1, 1)], (npts, npts))
    x, y = np.broadcast_arrays(*grid.coords)
    phi = 0.2 * x * y + 0.1 * x - 0.05 * y**2
    metric = MetricField.conformal(grid, phi)
    # analytic phi gradient for the closed-form Christoffel oracle
    dphi = np.stack([0.2 * y + 0.1, 0.2 * x - 0.1 * y])
    return grid, phi, metric, dphi


def test_flat_metric_has_zero_christoffel():
    grid = ChartGrid([(-1, 1), (-1, 1)], (33, 33))
    metric = MetricField.flat(grid)
    assert metric.values.shape == (2, 2, 1, 1)
    assert metric.christoffel.shape == (2, 2, 2, 1, 1)
    assert np.all(np.broadcast_to(metric.christoffel, (2, 2, 2) + grid.shape) == 0)
    assert np.all(np.broadcast_to(metric.sqrt_det, grid.shape) == 1.0)


def test_christoffel_matches_conformal_closed_form():
    grid, phi, metric, dphi = _conformal_setup()
    n = grid.dim
    gamma = metric.christoffel
    eye = np.eye(n)
    expected = (
        np.einsum("mk,l...->mkl...", eye, dphi)
        + np.einsum("ml,k...->mkl...", eye, dphi)
        - np.einsum("kl,m...->mkl...", eye, dphi)
    )
    mask = grid.interior_mask(grid.stencil_radius)
    err = np.max(np.abs(gamma - expected)[..., mask])
    assert err < 1e-6


def test_christoffel_point_access():
    grid, phi, metric, dphi = _conformal_setup(33)
    pt = (16, 10)
    assert metric.sqrt_det[pt] == pytest.approx(np.exp(2 * 2 * phi[pt]) ** 0.5)
    # phi of x1 alone: values and Christoffel field (N1, 1), read on the
    # full grid through a broadcast view
    x = np.broadcast_to(grid.coords[0], grid.shape)
    one_axis = MetricField.conformal(grid, 0.1 * x)
    assert one_axis.values.shape == (2, 2, 33, 1)
    assert one_axis.christoffel.shape == (2, 2, 2, 33, 1)
    sqrt_det = np.broadcast_to(one_axis.sqrt_det, grid.shape)
    assert sqrt_det[pt] == pytest.approx(np.exp(2 * 0.1 * x[pt]))
    gamma = np.broadcast_to(one_axis.christoffel, (2, 2, 2) + grid.shape)
    assert np.any(gamma[(...,) + pt])
    assert np.array_equal(gamma[(...,) + pt], gamma[..., pt[0], grid.shape[1] // 2])


def test_volume_density_conformal():
    grid, phi, metric, _ = _conformal_setup(33)
    # det(e^{2 phi} I) = e^{4 phi} in 2d
    assert np.allclose(metric.sqrt_det, np.exp(2 * phi))


def test_metric_validation():
    grid = ChartGrid([(-1, 1)], (33,))
    with pytest.raises(ShapeMismatch):
        MetricField(grid, np.zeros((2, 2, 33)))
    bad = np.zeros((1, 1, 33))
    with pytest.raises(SingularMetric):
        MetricField(grid, bad)


def test_non_symmetric_rejected():
    grid = ChartGrid([(-1, 1), (-1, 1)], (17, 17), support_margin=2)
    vals = np.broadcast_to(np.array([[1.0, 0.3], [0.1, 1.0]])[:, :, None, None], (2, 2, 17, 17))
    with pytest.raises(ShapeMismatch):
        MetricField(grid, vals)


def test_conformal_rescale_constant_factor():
    grid = ChartGrid([(-1, 1)], (33,))
    metric = MetricField.flat(grid)
    scaled = conformal_rescale(metric, np.full(grid.shape, 2.0))
    assert np.allclose(scaled.values, 0.25 * metric.values)
    with pytest.raises(NonpositiveWeight):
        conformal_rescale(metric, np.zeros(grid.shape))


def test_levi_civita_difference_matches_christoffel_difference():
    grid, phi, metric, _ = _conformal_setup()
    metric0 = MetricField.flat(grid)
    rng = seeded_rng(4, "lcdiff")
    X = random_vector_field(grid, rng)
    Y = random_vector_field(grid, rng)
    got = levi_civita_difference(X, Y, phi, metric0)
    dgamma = metric.christoffel - metric0.christoffel
    expected = np.einsum("mkl...,k...,l...->m...", dgamma, X, Y)
    mask = grid.interior_mask(grid.stencil_radius)
    scale = np.max(np.abs(expected))
    assert np.max(np.abs(got - expected)[..., mask]) < 1e-5 * scale


def test_weight_pair_halfline_admissibility():
    grid = ChartGrid([(1.0, 3.0)], (129,))
    r = grid.coords[0]
    w = WeightPair(grid, r, admissible=True)
    metric = MetricField.flat(grid)
    # |dr/r| in the metric r^{-2} dr^2 is exactly 1
    assert w.admissibility_bound(metric) == pytest.approx(1.0, rel=1e-10)


def test_weight_pair_validation():
    grid = ChartGrid([(0.0, 1.0)], (33,))
    with pytest.raises(NonpositiveWeight):
        WeightPair(grid, grid.coords[0])  # hits zero at the left edge
    with pytest.raises(ShapeMismatch):
        WeightPair(grid, np.ones(5))


def test_constant_metric_is_validated_on_one_matrix(monkeypatch):
    grid = ChartGrid([(-1, 1), (-1, 1)], (17, 17), support_margin=2)
    shapes = []
    eigvalsh = np.linalg.eigvalsh

    def recording(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", recording)
    const = np.array([[2.0, 0.5], [0.5, 1.0]])[:, :, None, None]
    const = np.broadcast_to(const, (2, 2, 17, 17))
    assert MetricField(grid, const).values.shape == (2, 2, 1, 1)
    x = np.broadcast_to(grid.coords[0], grid.shape)
    MetricField.conformal(grid, 0.1 * x)
    assert shapes == [(1, 1, 2, 2), (17, 1, 2, 2)]


@pytest.mark.parametrize("constant", [True, False])
def test_metric_verdicts_do_not_depend_on_constancy(constant):
    # the finite, symmetry and eigenvalue-floor checks give the same errors
    # whether the metric is one matrix everywhere or varies
    grid = ChartGrid([(-1, 1), (-1, 1)], (17, 17), support_margin=2)
    x = np.broadcast_to(grid.coords[0], grid.shape)
    scale = np.ones_like(x) if constant else 1.0 + 0.1 * (x + 1)

    def field(mat):
        return scale * np.asarray(mat)[:, :, None, None]

    with pytest.raises(SingularMetric, match="not finite"):
        MetricField(grid, field([[1.0, np.nan], [np.nan, 1.0]]))
    with pytest.raises(ShapeMismatch, match="not symmetric"):
        MetricField(grid, field([[1.0, 0.3], [0.1, 1.0]]))
    with pytest.raises(SingularMetric, match="at or below the floor"):
        MetricField(grid, field([[1.0, 1.0], [1.0, 1.0]]))
    with pytest.raises(SingularMetric, match="at or below the floor"):
        MetricField(grid, field([[1.0, 0.0], [0.0, -1.0]]))
    stored = MetricField(grid, field([[1.0, 0.2], [0.2, 1.0]])).values
    assert (stored.shape == (2, 2, 1, 1)) == constant
