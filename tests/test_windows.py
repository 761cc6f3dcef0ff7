"""Grid windows and the magnetic sup checks evaluated window by window.

A window is a strip of rows of axis 0 read as a grid of its own: its
coordinates are the whole grid's rows, bit for bit, its band is the
whole grid's band on those rows, and it equals only a window of the same
rows.  multiindex-formulas, leibniz-rule and curvature-commutator reduce
their sup residuals over the window cores; at any strip height their
measured values are those of the one window a 129^2 grid is, bit for
bit, and a halo one stencil radius short moves them.
"""

import numpy as np
import pytest

from nabla_calc import grid as grid_module
from nabla_calc.bundles import magnetic_example_bundle
from nabla_calc.checks import CHECKS
from nabla_calc.errors import ShapeMismatch, SupportViolation
from nabla_calc.geometry import MetricField
from nabla_calc.grid import ChartGrid
from nabla_calc.scenarios import build_context, builtin_scenario, parse_scenario

GRID = ChartGrid([(-1, 1), (-0.5, 2)], (41, 23))
MAGNETIC = ("multiindex-formulas", "leibniz-rule", "curvature-commutator")


def _rows(win):
    return slice(win.offset[0], win.offset[0] + win.shape[0])


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


@pytest.mark.parametrize("start, stop", [(0, 41), (0, 9), (3, 20), (30, 41), (40, 41)])
def test_window_coords_are_the_whole_grids_rows_bit_for_bit(start, stop):
    win = GRID.window(start, stop)
    assert win.shape == (stop - start, 23)
    assert win.h == GRID.h and win.box == GRID.box
    assert np.array_equal(_bits(win.coords[0]), _bits(GRID.coords[0][start:stop]))
    assert np.shares_memory(win.coords[0], GRID.coords[0])
    assert win.coords[1] is GRID.coords[1]
    assert not any(x.flags.writeable for x in win.coords)


@pytest.mark.parametrize("start, stop", [(0, 41), (0, 9), (3, 20), (5, 36), (30, 41)])
@pytest.mark.parametrize("layers", [1, 2, 4, 6])
def test_window_band_is_the_whole_grids_band_on_its_rows(start, stop, layers):
    win = GRID.window(start, stop)
    rows = _rows(win)
    assert np.array_equal(win.interior_mask(layers), GRID.interior_mask(layers)[rows])
    values = np.random.default_rng(layers).standard_normal((2, 3) + GRID.shape)
    want = GRID.zero_band(values.copy(), layers)[..., rows, :]
    assert np.array_equal(win.zero_band(values[..., rows, :].copy(), layers), want)
    # a field stored at length 1 along axis 0 has its band along axis 1 alone
    column = values[..., :1, :]
    assert np.array_equal(
        win.zero_band(column.copy(), layers), GRID.zero_band(column.copy(), layers)
    )
    # a field clear of the band along axis 1 fails the window's support
    # check exactly when the window holds a band row of axis 0
    field = values.copy()
    field[..., :layers] = 0
    field[..., -layers:] = 0
    win.check_support(GRID.zero_band(field.copy(), layers)[..., rows, :], layers)
    if start < layers or stop > 41 - layers:
        with pytest.raises(SupportViolation):
            win.check_support(field[..., rows, :], layers)
    else:
        win.check_support(field[..., rows, :], layers)


def test_windows_compare_by_their_rows():
    a, b, c = GRID.window(3, 20), GRID.window(3, 20), GRID.window(4, 21)
    assert a == b and hash(a) == hash(b)
    assert a != c and a != GRID
    # a window of the whole grid's rows is that grid
    assert GRID.window(0, 41) == GRID and hash(GRID.window(0, 41)) == hash(GRID)
    # the same shape at another offset, and a grid of the window's shape
    assert GRID.window(0, 17) != GRID.window(24, 41)
    assert GRID.window(0, 17) != ChartGrid(GRID.box, (17, 23))
    with pytest.raises(ValueError):
        GRID.window(5, 5)
    with pytest.raises(ValueError):
        GRID.window(0, 42)


def test_restrict_slices_full_rows_and_passes_length_one_through():
    win = GRID.window(7, 19)
    full = np.arange(2 * 41 * 23, dtype=float).reshape((2,) + GRID.shape)
    got = win.restrict(full)
    assert np.array_equal(got, full[:, 7:19]) and np.shares_memory(got, full)
    column = full[:, 5:6]
    assert win.restrict(column).shape == column.shape
    assert np.array_equal(win.restrict(column), column)
    assert np.shares_memory(win.restrict(column), column)
    row = full[:, :, :1]
    assert np.array_equal(win.restrict(row), row[:, 7:19])
    point = np.ones((2, 2, 1, 1))
    assert win.restrict(point).shape == point.shape
    with pytest.raises(ShapeMismatch):
        win.restrict(full[:, 7:19])
    # on the whole grid every field is read as it is
    assert np.array_equal(GRID.restrict(full), full)


def test_windows_tile_the_rows_with_a_halo_of_depth_radii(monkeypatch):
    grid = ChartGrid([(-1, 1), (-1, 1)], (129, 129))
    ((win, core),) = grid.windows(2)
    assert win == grid and core[1] == slice(0, 129)
    monkeypatch.setattr(grid_module, "_WINDOW_POINTS", 10 * 129)
    for depth in (0, 1, 2):
        halo = depth * grid.stencil_radius
        cores = []
        for win, core in grid.windows(depth):
            lo = win.offset[0] + core[1].start
            hi = win.offset[0] + core[1].stop
            cores.append((lo, hi))
            assert win.offset[0] == max(0, lo - halo)
            assert win.offset[0] + win.shape[0] == min(129, hi + halo)
        assert cores[0][0] == 0 and cores[-1][1] == 129
        assert all(a[1] == b[0] for a, b in zip(cores, cores[1:]))
        assert all(hi - lo >= 10 for lo, hi in cores)


def test_window_bundle_and_metric_are_views_of_the_whole_grids():
    metric = MetricField.conformal(GRID, 0.1 * GRID.coords[0] ** 2)
    bundle = magnetic_example_bundle(GRID)
    win = GRID.window(4, 30)
    wm, wb = metric.on(win), bundle.on(win)
    assert wm.grid == win and wb.grid == win and wb.live == bundle.live
    for name in ("values", "inv", "sqrt_det", "christoffel"):
        whole = getattr(metric, name)
        assert np.array_equal(getattr(wm, name), whole[..., 4:30, :])
        assert np.shares_memory(getattr(wm, name), whole)
    assert np.array_equal(wb.potentials, bundle.potentials[..., 4:30, :])
    assert np.shares_memory(wb.potentials, bundle.potentials)
    # the fiber metric is stored at one point, and passes through as it is
    assert np.array_equal(wb.fiber_metric, bundle.fiber_metric)


@pytest.fixture(scope="module")
def magnetic_ctx():
    scenario = parse_scenario(builtin_scenario("magnetic-example"))
    return build_context(scenario, h=2 / 128)


def _measured(ctx, name):
    entry = {"check": name, "tolerance": 1e-5, "trials": 2}
    return CHECKS[name][0](ctx, entry)["measured"]


@pytest.fixture(scope="module")
def one_window(magnetic_ctx):
    assert len(magnetic_ctx.grid.windows(2)) == 1
    return {name: _measured(magnetic_ctx, name) for name in MAGNETIC}


# strip heights in rows of 129 points: a core of 1 or 3 rows is shorter
# than the 4-row halo of a second derivative at fd order 4
@pytest.mark.parametrize("rows", [1, 3, 7, 50])
def test_magnetic_checks_on_narrow_windows_keep_their_bits(
    magnetic_ctx, one_window, monkeypatch, rows
):
    monkeypatch.setattr(grid_module, "_WINDOW_POINTS", rows * 129)
    assert len(magnetic_ctx.grid.windows(2)) > 1
    for name in MAGNETIC:
        assert repr(_measured(magnetic_ctx, name)) == repr(one_window[name])


def test_a_halo_one_radius_short_moves_the_measured_values(
    magnetic_ctx, one_window, monkeypatch
):
    monkeypatch.setattr(grid_module, "_WINDOW_POINTS", 20 * 129)
    windows = ChartGrid.windows
    monkeypatch.setattr(
        ChartGrid, "windows", lambda grid, depth: windows(grid, depth - 1)
    )
    moved = [name for name in MAGNETIC if _measured(magnetic_ctx, name) != one_window[name]]
    assert moved
