"""Metrics stored at the shape they vary over.

MetricField keeps values, inv, sqrt_det and the Christoffel field at the
shape the metric varies over, each grid axis full or of length 1, and
BundleSpec keeps its fiber metric the same way.  The Christoffel band is
zeroed along the full-length axes alone, and a constant metric has the
exact one-point zero.  A conformal metric of x1 alone, stored
(2, 2, N1, 1) with Gamma (2, 2, 2, N1, 1), must give the same bits as a
full-grid stand-in built from its broadcast values, and it is built from
phi at its own (N1, 1) shape: the full grid is never reached.
"""

import tracemalloc
import types

import numpy as np
import pytest

from nabla_calc.bundles import BundleSpec, magnetic_example_bundle
from nabla_calc.calculus import covariant_derivative, divergence, multiindex_derivative
from nabla_calc.errors import ShapeMismatch
from nabla_calc.geometry import MetricField
from nabla_calc.grid import ChartGrid, compact_grid_axes
from nabla_calc.operators import _hom_derivative
from nabla_calc import scenarios
from nabla_calc.scenarios import build_context, builtin_scenario, list_builtins, parse_scenario
from nabla_calc.sections import random_section, random_vector_field, seeded_rng

from dense_reference import all_direction_covariant
from test_grid_innermost import _christoffel, _last

GRID = ChartGrid([(-1, 1), (-1, 1)], (41, 37), support_margin=6)


def _is_compact(field, g):
    return compact_grid_axes(field, g).shape == field.shape


@pytest.mark.parametrize("name", list_builtins())
def test_builtin_metrics_are_stored_at_the_shape_they_vary_over(name):
    scenario = parse_scenario(builtin_scenario(name))
    ctx = build_context(scenario)
    g = ctx.grid.dim
    metric, bundle = ctx.metric, ctx.bundle
    pots = bundle.potentials
    for field in (metric.values, metric.inv, metric.sqrt_det, bundle.fiber_metric, pots):
        assert _is_compact(field, g)
    assert metric.inv.shape == metric.values.shape
    assert metric.sqrt_det.shape == metric.values.shape[2:]
    gamma = metric.christoffel
    assert gamma.shape == (g,) * 3 + metric.values.shape[2:]
    assert metric.constant == (metric.values.shape[2:] == (1,) * g)
    if metric.constant:
        assert gamma.shape == (g,) * 3 + (1,) * g and not np.any(gamma)
    if scenario.metric["kind"] == "flat":
        assert metric.values.shape == (g, g) + (1,) * g


def test_metric_values_reject_an_axis_neither_full_nor_one():
    with pytest.raises(ShapeMismatch, match="metric values"):
        MetricField(GRID, np.broadcast_to(np.eye(2)[:, :, None, None], (2, 2, 41, 2)))
    with pytest.raises(ShapeMismatch, match="fiber metric"):
        BundleSpec(GRID, 2, fiber_metric=np.eye(2))


def _one_axis_twins():
    """A conformal metric of x1 alone, given on the full grid, and a
    full-grid stand-in for it."""
    x1, _ = GRID.coords
    metric = MetricField.conformal(GRID, 0.3 * x1 - 0.2 * x1**2)
    full = np.broadcast_to(metric.values, (2, 2) + GRID.shape)
    first = np.moveaxis(full, (0, 1), (-2, -1))
    inv = np.linalg.inv(first)
    ref = types.SimpleNamespace(
        grid=GRID,
        values=full,
        inv=_last(inv),
        sqrt_det=np.sqrt(np.linalg.det(first)),
        christoffel=_last(_christoffel(GRID, first, inv)),
        constant=False,
    )
    return metric, ref


def _banded_full(gamma, grid):
    """A Christoffel field broadcast to the full grid and zeroed on the
    whole stencil band, as the full-grid construction stores it."""
    full = np.broadcast_to(gamma, gamma.shape[:3] + grid.shape).copy()
    return grid.zero_band(full, grid.stencil_radius)


def test_one_axis_metric_fields_equal_their_full_grid_twins():
    metric, ref = _one_axis_twins()
    assert metric.values.shape == (2, 2, GRID.shape[0], 1)
    assert metric.inv.shape == metric.values.shape
    assert metric.sqrt_det.shape == (GRID.shape[0], 1)
    assert np.array_equal(np.broadcast_to(metric.inv, ref.inv.shape), ref.inv)
    assert np.array_equal(np.broadcast_to(metric.sqrt_det, GRID.shape), ref.sqrt_det)
    gamma = metric.christoffel
    assert gamma.shape == (2, 2, 2, GRID.shape[0], 1) and gamma.flags.c_contiguous
    assert np.array_equal(_banded_full(gamma, GRID), ref.christoffel)
    # the band is zeroed along x1, which was differenced, and not along x2
    width = GRID.stencil_radius
    assert not np.any(gamma[..., :width, :]) and not np.any(gamma[..., -width:, :])
    inner = gamma[..., width:-width, :]
    assert np.any(inner)
    assert np.array_equal(inner, ref.christoffel[..., width:-width, width : width + 1])


def test_one_axis_metric_calculus_equals_its_full_grid_twin():
    metric, ref = _one_axis_twins()
    bundle = magnetic_example_bundle(GRID)
    rng = seeded_rng(5, "one-axis-metric")
    for rank in (0, 1, 2):
        u = random_section(GRID, rank, 2, rng)
        got = covariant_derivative(u, bundle, metric).values
        assert np.array_equal(got, all_direction_covariant(u, bundle, ref))
    X = random_vector_field(GRID, rng)
    want = sum(GRID.diff(X[k], axis=k) for k in range(2))
    want = want + np.einsum("kkl...,l...->...", ref.christoffel, X)
    GRID.zero_band(want, GRID.stencil_radius)
    assert np.array_equal(divergence(X, metric), want)
    u = random_section(GRID, 1, 2, rng)
    idxs = [(2, 1), (1,), (1, 2, 2)]
    got = multiindex_derivative(u, idxs, bundle, metric)
    for i, one in zip(idxs, got):
        assert np.array_equal(one.values, multiindex_derivative(u, i, bundle, ref).values)


def _x2_bundle():
    """A C^2 bundle whose one live potential varies over x2 alone, stored
    (2, 2, 2, 1, N2)."""
    phase = np.exp(1j * GRID.coords[1] ** 2)
    pots = np.zeros((2, 2, 2) + phase.shape, dtype=complex)
    pots[0, 0, 1] = phase
    pots[0, 1, 0] = -np.conj(phase)
    return BundleSpec(GRID, 2, pots)


@pytest.mark.parametrize("lead", [(1, 1), (GRID.shape[0], 1)])
def test_one_axis_hom_derivative_equals_its_full_grid_twin(lead):
    # Gamma varies over x1 and the potentials over x2, so a Christoffel
    # slot sum has neither the potentials' shape nor the result's
    metric, ref = _one_axis_twins()
    assert metric.christoffel.shape == (2, 2, 2, GRID.shape[0], 1)
    bundle = _x2_bundle()
    assert bundle.potentials.shape == (2, 2, 2, 1, GRID.shape[1])
    assert bundle.live == (0,)
    rng = seeded_rng(6, "one-axis-hom")
    for source, target in [((bundle, 0), (bundle, 1)), ((bundle, 1), (bundle, 0))]:
        rows = 2 ** (target[1] + 1)
        cols = 2 ** (source[1] + 1)
        re, im = rng.normal(size=(2, rows, cols) + lead)
        a = re + 1j * im
        got = _hom_derivative(a, source, target, metric)
        want = _hom_derivative(a, source, target, ref)
        assert got.shape == want.shape == (2, rows, cols) + GRID.shape
        assert np.any(got) and np.array_equal(got, want)


def _full_grid_christoffel(metric):
    """Gamma of the metric's values broadcast to the full grid, with the
    inverse taken there too, by the grid-first reference construction."""
    grid = metric.grid
    full = np.broadcast_to(metric.values, metric.values.shape[:2] + grid.shape)
    first = np.moveaxis(full, (0, 1), (-2, -1))
    return _last(_christoffel(grid, first, np.linalg.inv(first)), grid.dim)


def _one_axis_config(phi):
    cfg = builtin_scenario("magnetic-example")
    cfg["metric"] = {"kind": "conformal", "phi": phi}
    return cfg


@pytest.mark.parametrize("name", list_builtins() + ["conformal-x1"])
def test_christoffel_equals_its_full_grid_construction(name):
    if name == "conformal-x1":
        cfg = _one_axis_config("0.3*x1 - 0.2*x1^2")
    else:
        cfg = builtin_scenario(name)
    metric = build_context(parse_scenario(cfg)).metric
    grid = metric.grid
    gamma = metric.christoffel
    assert gamma.shape == (grid.dim,) * 3 + metric.values.shape[2:]
    if name == "conformal-x1":
        assert gamma.shape == (2, 2, 2, grid.shape[0], 1)
    assert np.array_equal(_banded_full(gamma, grid), _full_grid_christoffel(metric))


def test_conformal_exponent_is_taken_at_the_shape_it_varies_over():
    x1 = GRID.coords[0]
    phi = 0.3 * x1 - 0.2 * x1**2
    compact = MetricField.conformal(GRID, phi)
    full = MetricField.conformal(GRID, np.broadcast_to(phi, GRID.shape))
    for name in ("values", "inv", "sqrt_det", "christoffel"):
        assert getattr(compact, name).shape == getattr(full, name).shape
        assert np.array_equal(getattr(compact, name), getattr(full, name))
    with pytest.raises(ShapeMismatch, match="conformal exponent"):
        MetricField.conformal(GRID, phi[:-1])
    with pytest.raises(ShapeMismatch, match="conformal exponent"):
        MetricField.conformal(GRID, GRID.coords[0].ravel())


def test_one_axis_conformal_metric_never_reaches_the_full_grid():
    scenario = parse_scenario(_one_axis_config("0.1*x1"))
    grid = scenarios._build_grid(scenario, h=2 / 256, fd_order=4)
    tracemalloc.start()
    try:
        metric = scenarios._build_metric(scenario, grid, None, None)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert metric.values.shape == (2, 2, grid.shape[0], 1)
    assert metric.christoffel.shape == (2, 2, 2, grid.shape[0], 1)
    # 104-106 kB measured, where one full-grid Gamma alone was 4.2 MB and
    # the build that made it peaked above 4.5 of them: the build holds not
    # a quarter of one full-grid real scalar field
    assert peak < 0.25 * grid.shape[0] * grid.shape[1] * 8
