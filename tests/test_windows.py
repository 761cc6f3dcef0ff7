"""Grid windows and the magnetic sup checks evaluated window by window.

A window is a strip of rows of axis 0 read as a grid of its own: its
coordinates are the whole grid's rows, bit for bit, its band is the
whole grid's band on those rows, and it equals only a window of the same
rows.  multiindex-formulas, leibniz-rule and curvature-commutator reduce
their sup residuals over the window cores; at any strip height and any
thread count their measured values are those of the one window a 129^2
grid is, bit for bit, and a halo one stencil radius short moves them.
The windows in flight share one point budget, and a grid of one window
starts no thread.
"""

import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from nabla_calc import checks as checks_module
from nabla_calc import grid as grid_module
from nabla_calc.bundles import magnetic_example_bundle
from nabla_calc.checks import CHECKS
from nabla_calc.errors import ShapeMismatch, SupportViolation
from nabla_calc.geometry import MetricField
from nabla_calc.grid import ChartGrid
from nabla_calc.scenarios import (
    build_context,
    builtin_scenario,
    parse_scenario,
    run_scenario,
)

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


@pytest.mark.parametrize("fd_order", [2, 4])
@pytest.mark.parametrize("depth", [0, 1, 2, 3])
def test_no_core_is_shorter_than_its_halo(monkeypatch, fd_order, depth):
    # a window of a longer row holds fewer rows, down to the floor
    monkeypatch.setattr(grid_module, "_WINDOW_POINTS", 1)
    grid = ChartGrid([(-1, 1), (-1, 1)], (129, 33), fd_order=fd_order)
    halo = depth * grid.stencil_radius
    pairs = grid.windows(depth)
    assert len(pairs) > 1
    for win, core in pairs:
        assert core[1].stop - core[1].start >= halo
        assert win.shape[0] <= 3 * (core[1].stop - core[1].start)
        assert win.shape[0] >= 2 * grid.stencil_radius + 1


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


# strip heights in rows of 129 points: a core asked for 1 or 3 rows is
# raised to the 4-row halo of a second derivative at fd order 4
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
        ChartGrid,
        "windows",
        lambda grid, depth, workers=1: windows(grid, depth - 1, workers),
    )
    moved = [name for name in MAGNETIC if _measured(magnetic_ctx, name) != one_window[name]]
    assert moved


@pytest.mark.parametrize("depth", [1, 2])
def test_a_64_worker_plan_keeps_the_budget_and_two_halos(depth):
    # the plan alone, with no pool: a 64-core machine does not cut 513^2
    # into strips of one halo
    grid = ChartGrid([(-1, 1), (-1, 1)], (513, 513))
    halo = depth * grid.stencil_radius
    width = grid.window_workers(depth, 64)
    assert 1 < width < 64
    cores = [core[1].stop - core[1].start for _, core in grid.windows(depth, 64)]
    assert len(cores) > width
    assert min(cores) >= 2 * halo
    # the windows in flight hold the budget, give or take a row each
    assert width * (max(cores) - 1) * 513 <= grid_module._WINDOW_POINTS
    # one worker keeps its plan, and more workers than fit are not used
    assert grid.window_workers(depth, 1) == 1
    assert grid.windows(depth, width) == grid.windows(depth, 64)


def _magnetic_scenario(trials):
    cfg = builtin_scenario("magnetic-example")
    for entry in cfg["checks"]:
        entry["trials"] = trials
    return parse_scenario(cfg)


def _spy_threads(monkeypatch):
    """The idents of the threads that compare window cores."""
    seen = set()
    sup_parts = checks_module._sup_parts

    def spy(*args):
        seen.add(threading.get_ident())
        return sup_parts(*args)

    monkeypatch.setattr(checks_module, "_sup_parts", spy)
    return seen


@pytest.mark.parametrize("threads", [2, 3])
def test_a_one_window_grid_starts_no_thread(monkeypatch, threads):
    seen = _spy_threads(monkeypatch)
    before = threading.active_count()
    run_scenario(_magnetic_scenario(2), threads=threads)
    assert seen == {threading.get_ident()}
    assert threading.active_count() == before


@pytest.mark.parametrize("rows", [16, 30, 64])
def test_threaded_windows_keep_their_bits(monkeypatch, rows):
    # windows of about rows * 129 points in flight together, checked on up
    # to three threads under frequent switches, against the one window of
    # the default budget; every pool thread is joined by the return
    scenario = _magnetic_scenario(2)
    want = [repr(row.measured) for row in run_scenario(scenario, threads=1).checks]
    monkeypatch.setattr(grid_module, "_WINDOW_POINTS", rows * 129)
    seen = _spy_threads(monkeypatch)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for threads in (1, 2, 3):
            seen.clear()
            before = threading.active_count()
            got = run_scenario(scenario, threads=threads)
            assert [repr(row.measured) for row in got.checks] == want
            assert threading.active_count() == before
            if threads == 1:
                assert seen == {threading.get_ident()}
            else:
                assert len(seen) >= 2 and threading.get_ident() not in seen
    finally:
        sys.setswitchinterval(interval)


def test_sup_parts_read_and_write_the_core_alone():
    rng = np.random.default_rng(3)
    got, want = rng.standard_normal((2, 2, 41, 23))
    core = (Ellipsis, slice(5, 30), slice(None))
    got[..., :5, :] = np.inf
    want[..., 30:, :] = np.nan
    spent = got.copy()
    error, scale = checks_module._sup_parts(spent, want, core)
    assert error == np.max(np.abs(got[core] - want[core]))
    assert scale == np.max(np.abs(want[core]))
    assert np.array_equal(spent[..., :5, :], got[..., :5, :])
    assert np.array_equal(spent[..., 30:, :], got[..., 30:, :])


def test_in_order_keeps_item_order_and_bounds_the_calls_running():
    running, most = [0], [0]
    lock = threading.Lock()

    def call(item):
        with lock:
            running[0] += 1
            most[0] = max(most[0], running[0])
        time.sleep(0.001 * (item % 3))
        with lock:
            running[0] -= 1
        if item in (7, 11):
            raise ValueError(f"item {item}")
        return item * item

    with ThreadPoolExecutor(max_workers=4) as pool:
        assert checks_module._in_order(pool, 2, call, range(7)) == [i * i for i in range(7)]
        assert most[0] <= 2
        # the first item to raise, in item order, raises
        with pytest.raises(ValueError, match="item 7"):
            checks_module._in_order(pool, 3, call, range(20))
    # width 1 runs inline: no pool is needed
    assert checks_module._in_order(None, 1, call, range(3)) == [0, 1, 4]
