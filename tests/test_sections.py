import numpy as np
import pytest

from nabla_calc.grid import ChartGrid
from nabla_calc.sections import (
    AxisFactor,
    default_margin_width,
    random_bump_section,
    random_section,
    random_skew_potentials,
    random_trig_field,
    random_vector_field,
    seeded_rng,
)


def test_seeded_rng_is_reproducible():
    a = seeded_rng(11, "x", trial=3).normal(size=4)
    b = seeded_rng(11, "x", trial=3).normal(size=4)
    c = seeded_rng(11, "x", trial=4).normal(size=4)
    d = seeded_rng(12, "x", trial=3).normal(size=4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


def test_axis_factor_vanishes_exactly_on_margin():
    fac = AxisFactor(-1, 1, 0.1, 0.2, 0.3, 1.0)
    x = np.array([-1.0, -0.95, -0.9001, 0.9001, 1.0])
    assert np.all(fac(x) == 0)
    assert np.all(fac(x, 1) == 0)
    assert np.all(fac(x, 2) == 0)
    interior = fac(np.array([0.0, 0.2]))
    assert np.all(np.abs(interior) > 0)


def test_sections_vanish_on_margin_band():
    grid = ChartGrid([(-1, 1), (-1, 1)], (65, 65))
    rng = seeded_rng(5, "support")
    sec = random_section(grid, 1, 3, rng)
    grid.check_support(sec.values, grid.support_margin)


def test_analytic_partials_match_stencils():
    grid = ChartGrid([(-1, 1), (-1, 1)], (129, 129))
    rng = seeded_rng(9, "partials")
    bumps = random_bump_section(grid, 0, 2, rng)
    sec = bumps.section(grid)
    d1 = grid.diff(sec.values, 0)
    d12 = grid.diff(d1, 1)
    a1 = bumps.partial(grid, (1, 0))
    a12 = bumps.partial(grid, (1, 1))
    scale1 = np.max(np.abs(a1))
    scale12 = np.max(np.abs(a12))
    assert np.max(np.abs(d1 - a1)) < 2e-4 * scale1
    assert np.max(np.abs(d12 - a12)) < 2e-4 * scale12


def test_analytic_partials_convergence_order():
    box = [(-1, 1)]
    rng = seeded_rng(9, "order")
    errs = []
    for npts in (129, 257):
        grid = ChartGrid(box, (npts,))
        bumps = random_bump_section(
            grid, 0, 1, seeded_rng(9, "order"), margin_width=0.12
        )
        d2 = grid.diff(grid.diff(bumps.section(grid).values[0], 0), 0)
        a2 = bumps.partial(grid, (2,))[0]
        errs.append(np.max(np.abs(d2 - a2)) / np.max(np.abs(a2)))
    assert errs[0] / errs[1] > 12.0


def test_vector_field_is_real_and_supported():
    grid = ChartGrid([(-1, 1), (-1, 1)], (49, 49))
    x = random_vector_field(grid, seeded_rng(2, "vec"))
    assert x.dtype == np.float64
    assert x.shape == (2,) + grid.shape and x.flags.c_contiguous
    grid.check_support(x, grid.support_margin)


def test_skew_potentials_are_skew():
    grid = ChartGrid([(-1, 1), (-1, 1)], (49, 49))
    pots = random_skew_potentials(grid, 2, seeded_rng(2, "skew"))
    assert pots.shape == (2, 2, 2) + grid.shape
    assert np.max(np.abs(pots + np.conj(np.swapaxes(pots, 1, 2)))) < 1e-14


def test_margin_default_covers_declared_band():
    grid = ChartGrid([(-1, 1)], (65,), support_margin=6)
    width = default_margin_width(grid)
    assert width > 6 * grid.h[0]


def test_trig_field_derivatives_match_stencils():
    grid = ChartGrid([(-1, 1), (-1, 1)], (129, 129))
    field = random_trig_field(2, (2, 2), seeded_rng(7, "trig"))
    a = field.sample(grid)
    mask = grid.interior_mask(grid.stencil_radius)
    for axis in range(2):
        want = field.sample(grid, (axis,))
        got = grid.diff(a, axis)
        err = np.max(np.abs(got - want)[..., mask])
        assert err < 1e-8 * np.max(np.abs(want))
    mixed = field.sample(grid, (0, 1))
    got = grid.diff(grid.diff(a, 0), 1)
    mask2 = grid.interior_mask(2 * grid.stencil_radius)
    assert np.max(np.abs(got - mixed)[..., mask2]) < 1e-7 * np.max(np.abs(mixed))


def test_trig_field_is_bounded_not_supported():
    grid = ChartGrid([(-1, 1), (-1, 1)], (33, 33))
    field = random_trig_field(2, (2,), seeded_rng(8, "trig"))
    a = field.sample(grid)
    assert a.shape == (2,) + grid.shape
    # generic draws do not vanish at the box edge
    assert np.max(np.abs(a[:, 0, :])) > 1e-3


# a 2d and a 3d grid, each axis of its own length and box
SAMPLE_GRIDS = [
    ChartGrid([(-1, 1), (-0.5, 1.5)], (33, 21)),
    ChartGrid([(-1, 1), (0, 2), (-1.5, 0.5)], (17, 15, 19)),
]
ORDERS = [(), (0,), (1,), (0, 1)]


def _full_coords_sample(field, grid, orders):
    """TrigPolyField.sample as formerly written, on full-grid coordinates,
    with each wave's phase and each order's factor * phase stored whole."""
    coords = np.broadcast_arrays(*grid.coords)
    store = np.zeros(field.value_shape + grid.shape, dtype=complex)
    term = np.empty(grid.shape, dtype=complex)
    for w, c in zip(field.waves, field.coeffs):
        phase = np.exp(1j * sum(w[k] * coords[k] for k in range(grid.dim)))
        factor = 1.0 + 0.0j
        for a in orders:
            factor = factor * 1j * w[a]
        wave = factor * phase
        for entry in np.ndindex(field.value_shape):
            store[entry] += np.multiply(wave, c[entry], out=term)
    if not orders:
        for entry in np.ndindex(field.value_shape):
            store[entry] += field.const[entry]
    return store


@pytest.mark.parametrize("grid", SAMPLE_GRIDS, ids=["2d", "3d"])
def test_trig_sample_equals_the_full_coordinate_formula(grid):
    # each order sampled alone and all of them in one list call
    field = random_trig_field(grid.dim, (2, 3), seeded_rng(10, "trig-full", grid.dim))
    listed = field.sample(grid, ORDERS)
    for orders, got in zip(ORDERS, listed, strict=True):
        want = _full_coords_sample(field, grid, orders)
        assert np.array_equal(field.sample(grid, orders), want)
        assert np.array_equal(got, want)


@pytest.mark.parametrize("grid", SAMPLE_GRIDS, ids=["2d", "3d"])
def test_bump_sample_into_a_block_gives_the_bits_it_returns(grid):
    bumps = random_bump_section(grid, 1, 2, seeded_rng(10, "bump-out", grid.dim))
    for orders in (None, (1,) + (0,) * (grid.dim - 1), (0,) * (grid.dim - 1) + (2,)):
        values = bumps.partial(grid, orders)
        for comp, bump in bumps.components.items():
            want = bump.sample(grid, orders)
            # whatever the block held before is overwritten
            block = np.full(grid.shape, np.nan, dtype=complex)
            assert bump.sample(grid, orders, out=block) is block
            assert np.array_equal(block, want)
            assert np.array_equal(values[comp], want)
