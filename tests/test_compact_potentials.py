"""Potentials stored at the shape they vary over.

BundleSpec keeps its potentials at the shape it is given, each grid axis
full or of length 1, and every connection product broadcasts that one
stored copy over the grid.  A compact bundle and its full-grid twin must
give the same bits in covariant_derivative, multiindex_derivative,
_hom_derivative, curvature and one trial of each magnetic check that
reads the potentials.  Also here: the tracemalloc peaks of the magnetic
build_context and of one trial of each check that this storage, the
trials' own early frees and their window-by-window evaluation lower.
"""

import tracemalloc

import numpy as np
import pytest

from nabla_calc.bundles import BundleSpec, induced_tensor_bundle, magnetic_example_bundle
from nabla_calc.calculus import covariant_derivative, curvature, multiindex_derivative
from nabla_calc.checks import CHECKS
from nabla_calc.errors import ShapeMismatch
from nabla_calc.geometry import MetricField
from nabla_calc.grid import ChartGrid
from nabla_calc.operators import _hom_derivative
from nabla_calc.scenarios import CheckContext, build_context, builtin_scenario, parse_scenario
from nabla_calc.sections import (
    random_section,
    random_skew_potentials,
    random_trig_field,
    seeded_rng,
)

GRID = ChartGrid([(-1, 1), (-1, 1)], (41, 37), support_margin=6)


def _conformal(grid):
    x, y = grid.coords
    return MetricField.conformal(grid, 0.1 * x * y - 0.05 * y)


def _one_axis_skew(axis):
    """Random skew potentials, both directions live, varying along one axis:
    the middle line across the other axis, kept at length 1."""
    pots = random_skew_potentials(GRID, 2, seeded_rng(11, "one-axis", axis))
    other = 1 - axis
    mid = GRID.shape[other] // 2
    sel = [slice(None)] * pots.ndim
    sel[3 + other] = slice(mid, mid + 1)
    return BundleSpec(GRID, 2, pots[tuple(sel)])


def _compact(name):
    if name == "magnetic":
        return magnetic_example_bundle(GRID)
    return _one_axis_skew({"x1-only": 0, "x2-only": 1}[name])


def _twins(name):
    """A compact bundle and the same potentials stored on the full grid."""
    compact = _compact(name)
    full = BundleSpec(GRID, 2, np.broadcast_to(compact.potentials, (2, 2, 2) + GRID.shape))
    assert full.potentials.shape == (2, 2, 2) + GRID.shape
    assert compact.potentials.size < full.potentials.size
    assert compact.live == full.live
    return compact, full


BUNDLES = ["magnetic", "x1-only", "x2-only"]


def test_constructor_keeps_the_shape_it_is_given():
    n1, n2 = GRID.shape
    assert magnetic_example_bundle(GRID).potentials.shape == (2, 2, 2, n1, 1)
    assert _one_axis_skew(1).potentials.shape == (2, 2, 2, 1, n2)
    flat = BundleSpec(GRID, 3)
    assert flat.potentials.shape == (2, 3, 3, 1, 1)
    assert flat.is_flat and not np.any(flat.potentials)


@pytest.mark.parametrize("shape", [(41, 2), (40, 37), (1, 36), (41,), (41, 37, 1)])
def test_constructor_rejects_an_axis_neither_full_nor_one(shape):
    with pytest.raises(ShapeMismatch):
        BundleSpec(GRID, 2, np.zeros((2, 2, 2) + shape, dtype=complex))


@pytest.mark.parametrize("name", BUNDLES + ["flat"])
def test_potentials_view_has_the_full_shape_and_is_read_only(name):
    # the one stored array is read-only, and it is read on the full grid
    # through a broadcast view of it, which copies nothing
    bundle = BundleSpec(GRID, 2) if name == "flat" else _compact(name)
    pots = bundle.potentials
    assert not pots.flags.writeable
    with pytest.raises(ValueError):
        pots[...] = 0
    view = np.broadcast_to(pots, (2, 2, 2) + GRID.shape)
    assert not view.flags.writeable
    assert np.shares_memory(view, pots)


def test_magnetic_view_holds_the_displayed_potentials():
    pots = magnetic_example_bundle(GRID).potentials
    pots = np.broadcast_to(pots, (2, 2, 2) + GRID.shape)
    phase = np.broadcast_to(np.exp(1j * GRID.coords[0] ** 3), GRID.shape)
    assert np.all(pots[0] == 0)
    assert np.array_equal(pots[1, 0, 1], phase)
    assert np.array_equal(pots[1, 1, 0], -np.conj(phase))


@pytest.mark.parametrize("name", BUNDLES)
@pytest.mark.parametrize("path", ["plain", "induced"])
def test_covariant_derivative_compact_equals_full(name, path):
    compact, full = _twins(name)
    metric = MetricField.flat(GRID)
    if path == "induced":
        metric = _conformal(GRID)
        compact = induced_tensor_bundle(compact, metric, 1)
        full = induced_tensor_bundle(full, metric, 1)
    for rank in range(3):
        u = random_section(GRID, rank, compact.fiber_dim, seeded_rng(12, name, rank))
        got = covariant_derivative(u, compact, metric).values
        assert np.array_equal(got, covariant_derivative(u, full, metric).values)


@pytest.mark.parametrize("name", BUNDLES)
@pytest.mark.parametrize("metric", ["flat", "conformal"])
def test_multiindex_list_call_compact_equals_full(name, metric):
    compact, full = _twins(name)
    metric = MetricField.flat(GRID) if metric == "flat" else _conformal(GRID)
    u = random_section(GRID, 1, 2, seeded_rng(13, name))
    idxs = [(1, 2), (2, 1), (2, 2), (1,), (1, 2, 2)]
    got = multiindex_derivative(u, idxs, compact, metric)
    want = multiindex_derivative(u, idxs, full, metric)
    for a, b in zip(got, want, strict=True):
        assert np.array_equal(a.values, b.values)


@pytest.mark.parametrize("name", BUNDLES)
@pytest.mark.parametrize("metric", ["flat", "conformal"])
def test_hom_derivative_compact_equals_full(name, metric):
    compact, full = _twins(name)
    metric = MetricField.flat(GRID) if metric == "flat" else _conformal(GRID)
    other = magnetic_example_bundle(GRID)
    a = random_trig_field(2, (2, 2), seeded_rng(14, name)).sample(GRID)
    got = _hom_derivative(a, (compact, 0), (other, 0), metric)
    assert np.array_equal(got, _hom_derivative(a, (full, 0), (other, 0), metric))
    # into T*M (x) E over the compact bundle: its potentials act on the rows
    a = np.concatenate([a, a])
    got = _hom_derivative(a, (other, 0), (compact, 1), metric)
    assert np.array_equal(got, _hom_derivative(a, (other, 0), (full, 1), metric))


@pytest.mark.parametrize("name", BUNDLES)
def test_curvature_compact_equals_full(name):
    # the compact curvature, broadcast and zeroed on the whole band, is the
    # full twin's entry for entry
    compact, full = _twins(name)
    r = curvature(compact).values
    assert r.shape == (2, 2, 2, 2) + compact.potentials.shape[3:]
    r = np.broadcast_to(r, (2, 2, 2, 2) + GRID.shape).copy()
    GRID.zero_band(r, GRID.stencil_radius)
    assert np.array_equal(r, curvature(full).values)


@pytest.mark.parametrize("name", BUNDLES)
def test_curvature_band_is_zeroed_along_full_length_axes_alone(name):
    bundle = _compact(name)
    r = curvature(bundle).values
    assert r.shape[4:] == bundle.potentials.shape[3:] != GRID.shape
    full = np.broadcast_to(r, r.shape[:4] + GRID.shape)
    width = GRID.stencil_radius
    for axis, m in enumerate(r.shape[4:]):
        lead = (Ellipsis,) + (slice(None),) * axis
        tail = (slice(None),) * (GRID.dim - 1 - axis)
        edges = [lead + (e,) + tail for e in (slice(width), slice(-width, None))]
        if m == GRID.shape[axis]:
            # a stencil ran along the axis: both edge slabs are zero
            assert not any(np.any(r[edge]) for edge in edges)
        else:
            # no difference was taken along it, so nothing on its band is
            # forced to zero: R read on the full grid is nonzero there
            assert m == 1
            assert all(np.any(full[edge]) for edge in edges)


def _context(bundle):
    return CheckContext(
        name="compact", grid=GRID, metric=MetricField.flat(GRID), bundle=bundle, seed=15
    )


@pytest.mark.parametrize("name", BUNDLES)
def test_magnetic_check_trials_compact_equal_full(name):
    compact, full = (_context(b) for b in _twins(name))
    for check in ("leibniz-rule", "curvature-commutator"):
        entry = {"check": check, "tolerance": 1e-5, "trials": 1}
        run = CHECKS[check][0]
        assert run(compact, entry)["measured"] == run(full, entry)["measured"]


def _peak(call):
    """call() and its tracemalloc peak above what was traced before it."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        out = call()
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    return out, peak


def _magnetic_context(h=2 / 128):
    """The magnetic-example context at grid spacing h, its build peak in
    rank-0 section bytes, and that section's byte count."""
    scenario = parse_scenario(builtin_scenario("magnetic-example"))
    ctx, peak = _peak(lambda: build_context(scenario, h=h))
    section = ctx.grid.shape[0] * ctx.grid.shape[1] * 2 * 16
    return ctx, peak / section, section


def test_magnetic_build_peak_stays_below_the_compact_bound():
    # 9.54 sections with the potentials stored on the full grid; 0.59 with
    # the two full-grid coordinate arrays, 0.09 now that each coordinate is
    # stored at the shape it varies over
    assert _magnetic_context()[1] <= 0.3


@pytest.mark.parametrize(
    # with the potentials on the full grid, the grid-first u kept alive and
    # the full curvature field held across trials: 17.32 and 14.51
    # sections; 15.07 and 13.20 with grid-first sections, and 13.47 and
    # 13.22 with grid-last ones, whose leibniz-rule copied the sampled
    # fields grid-last before any section existed; 12.26 and 10.00, with
    # multiindex-formulas at 9.27, before the curvature was stored at the
    # potentials' shape, the potential products went one fiber row at a
    # time and leibniz-rule freed each partial, nabla u, a and u before
    # the next full field was made: 8.52, 6.53 and 8.54; 8.51, 6.53 and
    # 8.55 (8.50, 6.50 and 8.51 at h = 2/512) before multiindex-formulas
    # compared and freed each closed form as it went, leibniz-rule sampled
    # each further partial alone and made nabla_k u one direction at a
    # time, and the trial fields were sampled without full-grid temporaries:
    # 7.51, 6.53 and 5.79 (7.27, 6.50 and 5.52 at h = 2/512) before the
    # three checks ran window by window, about four 128-row strips at
    # h = 2/512, and curvature-commutator subtracted in place: 7.52, 4.55
    # and 5.79 now, on the one window of 129^2 (1.88, 1.20 and 1.48 at
    # h = 2/512)
    "name, h, bound",
    [
        ("leibniz-rule", 2 / 128, 7.8),
        ("curvature-commutator", 2 / 128, 6.8),
        ("multiindex-formulas", 2 / 128, 6.0),
        ("leibniz-rule", 2 / 512, 2.0),
        ("curvature-commutator", 2 / 512, 1.3),
        ("multiindex-formulas", 2 / 512, 1.6),
    ],
)
def test_magnetic_trial_peak_stays_below_the_compact_bound(name, h, bound):
    ctx, _, section = _magnetic_context(h)
    # numpy imports numpy.random on first use, about 1.2 sections here; that
    # import is done before the measurement, since it is no field of a trial
    seeded_rng(0, "numpy.random")
    entry = {"check": name, "tolerance": 1e-5, "trials": 1}
    out, peak = _peak(lambda: CHECKS[name][0](ctx, entry))
    assert out["passed"]
    assert peak / section <= bound
