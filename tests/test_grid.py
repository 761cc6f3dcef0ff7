import numpy as np
import pytest

from nabla_calc._kernels import diff_axis
from nabla_calc.errors import ResolutionError, ShapeMismatch, SupportViolation
from nabla_calc.grid import ChartGrid


def test_basic_layout():
    g = ChartGrid([(-1, 1), (0, 2)], (33, 17), fd_order=4)
    assert g.dim == 2
    assert g.h == (2 / 32, 2 / 16)
    assert g.stencil_radius == 2
    assert g.support_margin == 6
    # each coordinate is stored at the shape it varies over, and the two
    # broadcast to the full-grid coordinates of every point
    assert g.coords[0].shape == (33, 1)
    assert g.coords[1].shape == (1, 17)
    assert g.coords[1][0, -1] == pytest.approx(2.0)
    points = [np.linspace(lo, hi, m) for (lo, hi), m in zip(g.box, g.shape)]
    full = np.meshgrid(*points, indexing="ij")
    for got, want in zip(np.broadcast_arrays(*g.coords), full, strict=True):
        assert np.array_equal(got, want)


def test_margin_below_radius_rejected():
    with pytest.raises(ValueError):
        ChartGrid([(-1, 1)], (33,), fd_order=4, support_margin=1)


def test_too_few_points_rejected():
    with pytest.raises(ResolutionError):
        ChartGrid([(-1, 1)], (9,), fd_order=4, support_margin=4)


def test_band_mask_counts():
    g = ChartGrid([(-1, 1), (-1, 1)], (17, 17), fd_order=2, support_margin=2)
    band = ~g.interior_mask(2)
    assert band.sum() == 17 * 17 - 13 * 13
    assert not g.interior_mask(2)[0, 5]
    assert g.interior_mask(0).all()


def test_check_support_passes_and_raises():
    g = ChartGrid([(-1, 1)], (33,), fd_order=4)
    u = np.zeros((2, 33), dtype=complex)
    u[0, 10] = 1.0
    g.check_support(u, 4)
    u[1, 2] = 1e-9
    with pytest.raises(SupportViolation):
        g.check_support(u, 4)
    with pytest.raises(SupportViolation):
        g.check_support(np.zeros((2, 33)), 10)


def test_quadrature_normalizes():
    g = ChartGrid([(0, 1), (0, 2)], (21, 21))
    total = g.integrate(np.ones(g.shape))
    assert total == pytest.approx(2.0)


def _former_quad_weights(g):
    """The trapezoid weights as ChartGrid.quad_weights built them on every
    call, before they were kept on the grid."""
    w = np.ones(g.shape, dtype=float)
    for k in range(g.dim):
        w1 = np.ones(g.shape[k])
        w1[0] = w1[-1] = 0.5
        w = w * w1.reshape(tuple(g.shape[k] if a == k else 1 for a in range(g.dim)))
    return w * g.cell_volume


@pytest.mark.parametrize("shape", [(33,), (21, 17), (9, 11, 13)])
def test_quad_weights_are_built_once_read_only_and_keep_their_bits(shape):
    g = ChartGrid([(-1.0, 2.0)] * len(shape), shape, fd_order=2, support_margin=1)
    w = g.quad_weights()
    assert g.quad_weights() is w
    assert not w.flags.writeable
    with pytest.raises(ValueError):
        w[(0,) * g.dim] = 1.0
    assert w.tobytes() == _former_quad_weights(g).tobytes()
    values = np.cos(sum(g.coords)) + 1j * np.sin(g.coords[0])
    assert g.integrate(values) == complex(np.sum(values * _former_quad_weights(g)))


def test_diff_shape_guard():
    g = ChartGrid([(-1, 1)], (33,))
    with pytest.raises(ShapeMismatch):
        g.diff(np.zeros((5, 3)), 0)


def test_diff_on_grid_last_values_is_the_grid_first_stencil():
    g = ChartGrid([(-1, 1), (0, 2)], (33, 17))
    rng = np.random.default_rng(3)
    first = rng.normal(size=g.shape + (2, 3)) + 1j * rng.normal(size=g.shape + (2, 3))
    last = np.ascontiguousarray(np.moveaxis(first, (0, 1), (-2, -1)))
    for axis in range(g.dim):
        stencil = diff_axis(first, axis, g.h[axis], g.fd_order)
        want = np.moveaxis(stencil, (0, 1), (-2, -1))
        assert np.array_equal(g.diff(last, axis), want)
        out = np.empty_like(last)
        assert g.diff(last, axis, out=out) is out
        assert np.array_equal(out, want)
    with pytest.raises(ShapeMismatch, match="each grid axis full or of length 1"):
        g.diff(first, 0)


def test_diff_of_a_compact_field_is_the_difference_of_its_full_broadcast():
    g = ChartGrid([(-1, 1), (0, 2)], (33, 17))
    x1, x2 = g.coords
    field = np.stack([np.sin(3 * x1), np.cos(x1) ** 2]) * (1 + 0.5j)
    assert field.shape == (2, 33, 1)
    full = np.ascontiguousarray(np.broadcast_to(field, (2,) + g.shape))
    # a full-length axis: the stencil of the broadcast field, at field's shape
    got = g.diff(field, 0)
    assert got.shape == field.shape
    assert np.array_equal(np.broadcast_to(got, full.shape), g.diff(full, 0))
    # a length-1 axis: an exact zero of the field's shape, also through out;
    # the broadcast field's stencil is zero too, off its zero-padded band
    zero = g.diff(field, 1)
    assert zero.shape == field.shape and zero.dtype == field.dtype
    assert not np.any(zero)
    inner = (Ellipsis, slice(g.stencil_radius, -g.stencil_radius))
    assert np.array_equal(g.diff(full, 1)[inner], np.broadcast_to(zero, full.shape)[inner])
    out = np.full_like(field, 7.0)
    assert g.diff(field, 1, out=out) is out and not np.any(out)
    # a constant field differences to zero along every axis
    assert not np.any(g.diff(np.ones((3, 1, 1)), 0))
    # an axis neither full nor of length 1 is rejected
    with pytest.raises(ShapeMismatch, match="each grid axis full or of length 1"):
        g.diff(np.zeros((2, 33, 2)), 0)
    with pytest.raises(ShapeMismatch):
        g.diff(x2[0], 1)


def test_coords_are_the_one_read_only_coordinate_store():
    g = ChartGrid([(-1, 1), (0, 2)], (33, 17))
    assert not hasattr(g, "axes") and not hasattr(g, "band_mask")
    assert not any(x.flags.writeable for x in g.coords)


def test_grid_equality_and_hash():
    a = ChartGrid([(-1, 1)], (33,))
    b = ChartGrid([(-1, 1)], (33,))
    c = ChartGrid([(-1, 1)], (65,))
    assert a == b and hash(a) == hash(b)
    assert a != c
