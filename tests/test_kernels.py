import numpy as np
import pytest

from nabla_calc._kernels import STENCIL_RADIUS, diff_axis


def _poly_field(x, degree):
    coeffs = np.arange(1.0, degree + 2.0)
    return sum(c * x**k for k, c in enumerate(coeffs)), sum(
        k * c * x ** (k - 1) for k, c in enumerate(coeffs) if k > 0
    )


@pytest.mark.parametrize("order,degree", [(2, 2), (4, 4)])
def test_exact_on_low_degree_polynomials(order, degree):
    x = np.linspace(-1, 1, 41)
    h = x[1] - x[0]
    f, df = _poly_field(x, degree)
    got = diff_axis(f.astype(complex), 0, h, order)
    r = STENCIL_RADIUS[order]
    inner = slice(r, -r)
    assert np.max(np.abs(got[inner] - df[inner])) < 1e-12 * np.max(np.abs(df))


@pytest.mark.parametrize("order", [2, 4])
def test_zero_padding_at_edges(order):
    u = np.zeros(11, dtype=complex)
    u[0] = 1.0
    got = diff_axis(u, 0, 1.0, order)
    # the stencil sees zero beyond the edge, so only real neighbors contribute
    coeffs = {2: [0, -0.5], 4: [0, -8 / 12, 1 / 12]}[order]
    for i, c in enumerate(coeffs):
        assert got[i] == pytest.approx(c)


def _paired_reference(u, axis, h, order):
    """The compiled stencil loop in plain Python: pair the shifts, then scale."""
    moved = np.moveaxis(u, axis, 0)
    flat = moved.reshape(moved.shape[0], -1)
    n, m = flat.shape
    out = np.zeros_like(flat)
    zero = flat[0, 0] * 0

    def at(i, j):
        return flat[i, j] if 0 <= i < n else zero

    inv_h = 1.0 / h
    for i in range(n):
        for j in range(m):
            if order == 2:
                out[i, j] = (at(i + 1, j) - at(i - 1, j)) * (0.5 * inv_h)
            else:
                c1 = (8.0 / 12.0) * inv_h
                c2 = (1.0 / 12.0) * inv_h
                out[i, j] = (at(i + 1, j) - at(i - 1, j)) * c1 - (
                    at(i + 2, j) - at(i - 2, j)
                ) * c2
    return np.moveaxis(out.reshape(moved.shape), 0, axis)


@pytest.mark.parametrize("axis", [0, 1])
@pytest.mark.parametrize("order", [2, 4])
def test_matches_paired_reference_bitwise(order, axis):
    rng = np.random.default_rng(42)
    u = rng.normal(size=(33, 17, 3)) + 1j * rng.normal(size=(33, 17, 3))
    got = diff_axis(u, axis, 0.05, order)
    assert np.array_equal(got, _paired_reference(u, axis, 0.05, order))


@pytest.mark.parametrize("axis", [0, 1])
@pytest.mark.parametrize("order", [2, 4])
def test_constant_interior_has_exactly_zero_derivative(order, axis):
    u = np.full((19, 23, 2), 0.7 - 1.3j)
    r = STENCIL_RADIUS[order]
    for h in (1.0, 0.1, 2 / 128):
        got = diff_axis(u, axis, h, order)
        inner = np.take(got, np.arange(r, u.shape[axis] - r), axis=axis)
        assert np.array_equal(inner, np.zeros_like(inner))


@pytest.mark.parametrize("order", [2, 4])
def test_discrete_skew_symmetry(order):
    # zero-padded central differences form an exactly skew-symmetric matrix,
    # so the summation-by-parts identity holds to round-off for any data
    rng = np.random.default_rng(3)
    u = rng.normal(size=64) + 1j * rng.normal(size=64)
    v = rng.normal(size=64) + 1j * rng.normal(size=64)
    h = 0.031
    lhs = np.sum(diff_axis(u, 0, h, order) * v)
    rhs = -np.sum(u * diff_axis(v, 0, h, order))
    assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(lhs))


def test_real_dtype_passthrough():
    x = np.linspace(0, 1, 21)
    got = diff_axis(x**2, 0, x[1] - x[0], 4)
    assert got.dtype == np.float64
    assert got[10] == pytest.approx(2 * x[10])


def test_bad_order_rejected():
    with pytest.raises(ValueError):
        diff_axis(np.zeros(9), 0, 0.1, 3)


@pytest.mark.parametrize("order", [2, 4])
def test_out_block_gets_the_bits_of_a_fresh_result(order):
    rng = np.random.default_rng(7)
    u = rng.normal(size=(2, 3, 33, 17)) + 1j * rng.normal(size=(2, 3, 33, 17))
    parts = np.empty((2,) + u.shape, dtype=complex)
    for k in range(2):
        block = parts[k]
        assert diff_axis(u, k - 2, 0.05, order, out=block) is block
        assert np.array_equal(block, diff_axis(u, k - 2, 0.05, order))


def test_out_must_be_contiguous_and_of_u_shape():
    u = np.zeros((9, 9), dtype=complex)
    with pytest.raises(ValueError, match="C-contiguous"):
        diff_axis(u, 0, 0.1, 2, out=np.zeros((9, 18), dtype=complex)[:, ::2])
    with pytest.raises(ValueError, match="C-contiguous"):
        diff_axis(u, 0, 0.1, 2, out=np.zeros((9, 8), dtype=complex))
