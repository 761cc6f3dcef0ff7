import tracemalloc

import numpy as np
import pytest

from nabla_calc._kernels import diff_axis
from nabla_calc.bundles import (
    BundleSpec,
    TensorSection,
    induced_tensor_bundle,
    magnetic_example_bundle,
)
from nabla_calc.calculus import (
    contract_with_vector,
    covariant_derivative,
    curvature,
    directional_derivative,
    divergence,
    formal_adjoint_directional,
    multiindex_derivative,
    tower,
)
from nabla_calc.errors import ChartMismatch, ShapeMismatch, SupportViolation
from nabla_calc.geometry import MetricField
from nabla_calc.grid import ChartGrid
from nabla_calc.sections import (
    random_bump_section,
    random_section,
    random_skew_potentials,
    random_trig_field,
    random_vector_field,
    seeded_rng,
)

from dense_reference import einsum_covariant_derivative, einsum_multiindex_derivative

GRID = ChartGrid([(-1, 1), (-1, 1)], (129, 129))
FLAT = MetricField.flat(GRID)
MAGNETIC = magnetic_example_bundle(GRID)


def _first(values, g):
    """A grid-last array read grid-first, as a view."""
    return np.moveaxis(values, range(-g, 0), range(g))


def _last(values, g):
    """A grid-first array copied grid-last, C-contiguous."""
    return np.ascontiguousarray(np.moveaxis(values, range(g), range(-g, 0)))


def _conformal_metric(grid):
    x, y = grid.coords
    return MetricField.conformal(grid, 0.15 * x * y + 0.1 * x)


def _magnetic_oracle(grid, bumps, idx):
    """Closed forms of the oscillating-potential example.

    The section's own derivatives are rendered with the same stencils; the
    potential's derivative uses its displayed analytic form.
    """
    xi = bumps.section(grid).values
    x1 = grid.coords[0]
    phase = np.exp(1j * x1**3)
    d1 = grid.diff(xi, 0)
    d2 = grid.diff(xi, 1)

    def a2(v):
        return np.stack([phase * v[1], -np.conj(phase) * v[0]])

    def da2(v):
        w = np.stack([phase * v[1], np.conj(phase) * v[0]])
        return 3j * x1**2 * w

    if idx == (1, 1):
        return grid.diff(d1, 0)
    if idx == (1, 2):
        return grid.diff(d2, 0) + da2(xi) + a2(d1)
    if idx == (2, 1):
        return grid.diff(d1, 1) + a2(d1)
    if idx == (2, 2):
        return grid.diff(d2, 1) + 2 * a2(d2) - xi
    raise AssertionError(idx)


@pytest.mark.parametrize("idx", [(1, 1), (1, 2), (2, 1), (2, 2)])
def test_magnetic_multiindex_matches_closed_form(idx):
    rng = seeded_rng(100, "magnetic-closed-form")
    bumps = random_bump_section(GRID, 0, 2, rng, kappa_max=1.5)
    sec = bumps.section(GRID)
    got = multiindex_derivative(sec, idx, MAGNETIC, FLAT)
    want = _magnetic_oracle(GRID, bumps, idx)
    scale = np.max(np.abs(want))
    assert np.max(np.abs(got.values - want)) < 1e-5 * scale


def test_first_slot_is_prepended_leftmost():
    rng = seeded_rng(101, "slotorder")
    sec = random_section(GRID, 0, 2, rng)
    grad = covariant_derivative(sec, MAGNETIC, FLAT)
    assert grad.rank == 1
    # slot k of the gradient is the k-direction derivative
    d1 = multiindex_derivative(sec, (1,), MAGNETIC, FLAT)
    assert np.allclose(grad.values[0], d1.values)


def test_multiindex_composes_right_to_left():
    rng = seeded_rng(102, "order")
    sec = random_section(GRID, 0, 2, rng)
    inner = multiindex_derivative(sec, (2,), MAGNETIC, FLAT)
    outer = multiindex_derivative(inner, (1,), MAGNETIC, FLAT)
    both = multiindex_derivative(sec, (1, 2), MAGNETIC, FLAT)
    assert np.allclose(both.values, outer.values)


def test_multiindex_agrees_with_iterated_contraction():
    grid = ChartGrid([(-1, 1), (-1, 1)], (65, 65))
    metric = _conformal_metric(grid)
    rng = seeded_rng(103, "iter")
    bundle = BundleSpec(grid, 2)
    sec = random_section(grid, 1, 2, rng)
    *_, two = tower(sec, bundle, metric, 2)
    picked = two.values[0, 1]  # slots (i_1, i_2) = (1, 2)
    via_idx = multiindex_derivative(sec, (1, 2), bundle, metric)
    assert np.max(np.abs(picked - via_idx.values)) < 1e-12 * np.max(
        np.abs(picked)
    )


def test_tower_yields_each_iterated_derivative():
    grid = ChartGrid([(-1, 1), (-1, 1)], (65, 65))
    metric = _conformal_metric(grid)
    bundle = magnetic_example_bundle(grid)
    sec = random_section(grid, 0, 2, seeded_rng(105, "tower"))
    levels = list(tower(sec, bundle, metric, 3))
    assert len(levels) == 4
    expected = sec
    for j, level in enumerate(levels):
        assert level.rank == j
        assert np.array_equal(level.values, expected.values)
        expected = covariant_derivative(expected, bundle, metric, check_support=False)


def test_leibniz_for_endomorphism_coefficient():
    # nabla(a u) = (nabla a) u + (1 (x) a) nabla u with the endomorphism
    # derivative nabla a = da + [A, a]; the A terms cancel pointwise, so the
    # residual is the discrete product-rule defect of the stencils.
    rng = seeded_rng(104, "leibniz")
    a_field = random_trig_field(2, (2, 2), rng)
    a = a_field.sample(GRID)
    da = np.stack([a_field.sample(GRID, (k,)) for k in range(2)])
    sec = random_section(GRID, 0, 2, rng)
    au = TensorSection(GRID, 0, np.einsum("ab...,b...->a...", a, sec.values), 2)
    lhs = covariant_derivative(au, MAGNETIC, FLAT).values
    pots = MAGNETIC.potentials
    nabla_a = (
        da
        + np.einsum("kab...,bc...->kac...", pots, a)
        - np.einsum("ab...,kbc...->kac...", a, pots)
    )
    grad_u = covariant_derivative(sec, MAGNETIC, FLAT).values
    rhs = np.einsum("kab...,b...->ka...", nabla_a, sec.values) + np.einsum(
        "ab...,kb...->ka...", a, grad_u
    )
    scale = np.max(np.abs(lhs))
    assert np.max(np.abs(lhs - rhs)) < 1e-5 * scale


def test_commutator_equals_curvature():
    rng = seeded_rng(105, "curvature")
    sec = random_section(GRID, 0, 2, rng)
    r = curvature(MAGNETIC)
    lhs = (
        multiindex_derivative(sec, (1, 2), MAGNETIC, FLAT).values
        - multiindex_derivative(sec, (2, 1), MAGNETIC, FLAT).values
    )
    rhs = np.einsum("ab...,b...->a...", r.values[0, 1], sec.values)
    scale = max(np.max(np.abs(rhs)), np.max(np.abs(sec.values)))
    assert np.max(np.abs(lhs - rhs)) < 1e-5 * scale


def test_curvature_against_displayed_form():
    r = curvature(MAGNETIC)
    x1 = GRID.coords[0]
    want = np.zeros((2, 2) + GRID.shape, dtype=complex)
    want[0, 1] = 3j * x1**2 * np.exp(1j * x1**3)
    want[1, 0] = 3j * x1**2 * np.exp(-1j * x1**3)
    mask = GRID.interior_mask(GRID.stencil_radius)
    err = np.max(np.abs(r.values[0, 1] - want)[..., mask])
    assert err < 1e-5
    assert np.max(np.abs(r.values + np.swapaxes(r.values, 0, 1))) == 0
    assert r.skew_hermitian_defect() < 1e-5


def test_directional_is_contraction_of_gradient():
    rng = seeded_rng(106, "directional")
    sec = random_section(GRID, 0, 2, rng)
    X = random_vector_field(GRID, seeded_rng(106, "field"))
    got = directional_derivative(sec, X, MAGNETIC, FLAT)
    grad = covariant_derivative(sec, MAGNETIC, FLAT)
    want = contract_with_vector(grad, X)
    assert np.allclose(got.values, want.values)


def test_divergence_two_routes():
    grid = ChartGrid([(-1, 1), (-1, 1)], (129, 129))
    metric = _conformal_metric(grid)
    X = random_vector_field(grid, seeded_rng(107, "div"))
    got = divergence(X, metric)
    # density route: div X = (1/sqrt g) d_k (sqrt g X^k)
    sg = metric.sqrt_det
    want = sum(grid.diff(sg * X[k], k) for k in range(2)) / sg
    grid.zero_band(want, grid.stencil_radius)
    mask = grid.interior_mask(2 * grid.stencil_radius)
    scale = np.max(np.abs(want))
    assert np.max(np.abs(got - want)[mask]) < 1e-5 * scale


def _pairing_residual(X, grid, bundle, metric, xi, eta):
    adj = formal_adjoint_directional(X, bundle, metric)
    dxi = directional_derivative(xi, X, bundle, metric)
    lhs = grid.integrate(np.einsum("a...,a...->...", dxi.values, np.conj(eta.values)))
    adj_eta = adj(eta).values
    rhs = grid.integrate(np.einsum("a...,a...->...", xi.values, np.conj(adj_eta)))
    scale = np.sqrt(
        abs(grid.integrate(np.sum(np.abs(xi.values) ** 2, axis=0)))
        * abs(grid.integrate(np.sum(np.abs(eta.values) ** 2, axis=0)))
    )
    return abs(lhs - rhs), scale


def test_adjoint_pairing_constant_direction_exact():
    # with constant X the zero-padded stencils are exactly skew, and the
    # skew-Hermitian potential terms cancel pointwise, so the residual is
    # pure round-off
    rng = seeded_rng(108, "adjoint")
    xi = random_section(GRID, 0, 2, rng)
    eta = random_section(GRID, 0, 2, rng)
    X = np.zeros((2,) + GRID.shape)
    X[1] = 1.0
    residual, scale = _pairing_residual(X, GRID, MAGNETIC, FLAT, xi, eta)
    assert residual < 1e-13 * scale


def test_adjoint_pairing_varying_direction():
    # a varying X leaves the discrete product-rule defect, fourth order in h
    rng = seeded_rng(108, "adjoint")
    xi = random_section(GRID, 0, 2, rng)
    eta = random_section(GRID, 0, 2, rng)
    X = random_vector_field(GRID, seeded_rng(108, "field"))
    residual, scale = _pairing_residual(X, GRID, MAGNETIC, FLAT, xi, eta)
    assert residual < 1e-5 * scale


def test_flattened_bundle_reproduces_slot_derivative():
    grid = ChartGrid([(-1, 1), (-1, 1)], (65, 65))
    metric = _conformal_metric(grid)
    rng = seeded_rng(109, "flat-bundle")
    bundle = BundleSpec(grid, 2, potentials=None)
    sec = random_section(grid, 1, 2, rng)
    grad = covariant_derivative(sec, bundle, metric)
    big = induced_tensor_bundle(bundle, metric, 1)
    flat_sec = TensorSection(grid, 0, sec.values.reshape((4,) + grid.shape), 4)
    grad_flat = covariant_derivative(flat_sec, big, metric)
    # flatten only the original slot of grad; the new slot stays a slot
    want = grad.values.reshape((2, 4) + grid.shape)
    assert np.max(np.abs(want - grad_flat.values)) < 1e-12 * np.max(np.abs(want))


def _complex_normal(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


@pytest.mark.parametrize("shape", [(17,), (13, 13), (9, 9, 9)])
@pytest.mark.parametrize("d", [1, 2, 4])
def test_connection_term_matches_grid_first_einsum(shape, d):
    grid = ChartGrid([(-1, 1)] * len(shape), shape, support_margin=2)
    n = grid.dim
    rng = seeded_rng(112, f"grid-last-{shape}-{d}")
    draws = _complex_normal(rng, grid.shape + (n, d, d))
    bundle = BundleSpec(grid, d, _last(draws, n))
    metric = MetricField.flat(grid)
    for r in range(4):
        vals = _complex_normal(rng, grid.shape + (n,) * r + (d,))
        sec = TensorSection(grid, r, _last(vals, n), d)
        got = covariant_derivative(sec, bundle, metric, check_support=False)
        slots = "cdefghij"[:r]
        want = np.stack(
            [diff_axis(vals, k, grid.h[k], grid.fd_order) for k in range(n)], axis=n
        )
        want += np.einsum(f"...yab,...{slots}b->...y{slots}a", draws, vals)
        assert np.array_equal(_first(got.values, n), want)
    pots = bundle.potentials
    assert pots.flags.c_contiguous and pots.shape == (n, d, d) + grid.shape


def _random_3d_bundle():
    grid = ChartGrid([(-1, 1)] * 3, (15, 15, 15), support_margin=4)
    return BundleSpec(grid, 3, random_skew_potentials(grid, 3, seeded_rng(114, "3d")))


@pytest.mark.parametrize("name", ["magnetic", "random-3d"])
@pytest.mark.parametrize("rank", [0, 1, 2])
def test_connection_rows_match_the_einsum_formula(name, rank):
    # the compact magnetic potentials and full random ones on a 3-D chart,
    # added one fiber row at a time, against the product formed at once
    bundle = MAGNETIC if name == "magnetic" else _random_3d_bundle()
    grid = bundle.grid
    metric = MetricField.flat(grid)
    rng = seeded_rng(114, f"{name}-{rank}")
    u = random_section(grid, rank, bundle.fiber_dim, rng)
    got = covariant_derivative(u, bundle, metric).values
    assert np.array_equal(got, einsum_covariant_derivative(u, bundle, metric).values)
    n = grid.dim
    idxs = [(1,), (n,), (1, n), (n, 1), (n, n)]
    gots = multiindex_derivative(u, idxs, bundle, metric)
    for idx, got in zip(idxs, gots, strict=True):
        want = einsum_multiindex_derivative(u, idx, bundle, metric)
        assert np.array_equal(got.values, want)


def _grid_first_multiindex(sec, idx, bundle):
    """The former constant-metric composition, grid axes first."""
    grid = sec.grid
    slots = "cdefghij"[: sec.rank]
    vals = np.ascontiguousarray(_first(sec.values, grid.dim))
    for i in reversed(idx):
        out = diff_axis(vals, i - 1, grid.h[i - 1], grid.fd_order)
        if not bundle.is_flat:
            a_k = _first(bundle.potentials[i - 1], grid.dim)
            out = out + np.einsum(f"...ab,...{slots}b->...{slots}a", a_k, vals)
        vals = out
    return vals


def _stacked_curvature(bundle):
    """The former curvature formula over the stacked (n, n, d, d) arrays,
    grid-first."""
    grid = bundle.grid
    pots = _first(bundle.potentials, grid.dim)
    a = np.broadcast_to(pots, grid.shape + pots.shape[grid.dim :])
    da = np.stack(
        [diff_axis(a, k, grid.h[k], grid.fd_order) for k in range(grid.dim)], axis=-4
    )
    da = da - np.swapaxes(da, -4, -3)
    prod = np.einsum("...kab,...lbc->...klac", a, a)
    r = da + (prod - np.swapaxes(prod, -4, -3))
    r[~grid.interior_mask(grid.stencil_radius)] = 0
    return r


@pytest.mark.parametrize("shape", [(17,), (13, 13), (9, 9, 9)])
@pytest.mark.parametrize("d", [1, 2, 4])
def test_grid_last_products_match_grid_first_references(shape, d):
    grid = ChartGrid([(-1, 1)] * len(shape), shape, fd_order=2, support_margin=3)
    n = grid.dim
    rng = seeded_rng(113, f"grid-last-products-{shape}-{d}")
    bundle = BundleSpec(grid, d, _last(_complex_normal(rng, grid.shape + (n, d, d)), n))
    metric = MetricField.flat(grid)
    for r in range(3):
        vals = _last(_complex_normal(rng, grid.shape + (n,) * r + (d,)), n)
        sec = TensorSection(grid, r, grid.zero_band(vals, 3), d)
        for idx in [(n,), (1, n), (n, 1, n)]:
            got = multiindex_derivative(sec, idx, bundle, metric)
            want = _grid_first_multiindex(sec, idx, bundle)
            assert np.array_equal(_first(got.values, n), want)
    want = _stacked_curvature(bundle)
    assert np.array_equal(_first(curvature(bundle).values, n), want)


def test_flat_curvature_is_zero():
    grid = ChartGrid([(-1, 1), (-1, 1)], (13, 13), support_margin=2)
    bundle = BundleSpec(grid, 2)
    r = curvature(bundle).values
    # stored at the shape a flat bundle varies over: no grid axis at all
    assert r.shape == (2, 2, 2, 2, 1, 1) and not np.any(r)
    full = np.broadcast_to(r, (2, 2, 2, 2) + grid.shape)
    assert np.array_equal(_first(full, grid.dim), _stacked_curvature(bundle))


def test_curvature_peak_memory_below_three_results():
    bundle = magnetic_example_bundle(GRID)
    tracemalloc.start()
    try:
        r = curvature(bundle)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * r.values.nbytes


def test_tower_checks_its_order_and_the_support_once(monkeypatch):
    sec = random_section(GRID, 0, 2, seeded_rng(105, "tower-checks"))
    with pytest.raises(ValueError, match="^order must be >= 0, got -1$"):
        tower(sec, MAGNETIC, FLAT, -1)
    ones = TensorSection(GRID, 0, np.ones((2,) + GRID.shape, dtype=complex), 2)
    assert tower(ones, MAGNETIC, FLAT, 0) == [ones]
    with pytest.raises(SupportViolation):
        tower(ones, MAGNETIC, FLAT, 1)
    layers = []
    check = GRID.check_support
    monkeypatch.setattr(
        GRID, "check_support", lambda values, k: layers.append(k) or check(values, k)
    )
    assert len(tower(sec, MAGNETIC, FLAT, 3)) == 4
    assert layers == [3 * GRID.stencil_radius]


def test_support_violation_raised():
    vals = np.ones((2,) + GRID.shape, dtype=complex)
    sec = TensorSection(GRID, 0, vals, 2)
    with pytest.raises(SupportViolation):
        covariant_derivative(sec, MAGNETIC, FLAT)


def test_margin_budget_enforced():
    rng = seeded_rng(110, "budget")
    sec = random_section(GRID, 0, 2, rng)
    with pytest.raises(SupportViolation):
        # four steps need 8 layers, the margin is 6
        multiindex_derivative(sec, (1, 2, 1, 2), MAGNETIC, FLAT)


def test_chart_mismatch_raised():
    other = ChartGrid([(-1, 1), (-1, 1)], (65, 65))
    sec = TensorSection(other, 0, np.zeros((2,) + other.shape), 2)
    with pytest.raises(ChartMismatch):
        covariant_derivative(sec, MAGNETIC, FLAT)


def test_invalid_multiindex_entries():
    sec = TensorSection(GRID, 0, np.zeros((2,) + GRID.shape), 2)
    with pytest.raises(ShapeMismatch):
        multiindex_derivative(sec, (0, 1), MAGNETIC, FLAT)
    with pytest.raises(ShapeMismatch):
        multiindex_derivative(sec, (3,), MAGNETIC, FLAT)
