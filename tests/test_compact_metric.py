"""Metrics stored at the shape they vary over.

MetricField keeps values, inv and sqrt_det at the shape the metric varies
over, each grid axis full or of length 1, and BundleSpec keeps its fiber
metric the same way.  The Christoffel field is the exception: full-grid
for a metric that varies at all, an exact one-point zero for a constant
one.  A conformal metric of x1 alone, stored (2, 2, N1, 1), must give the same
bits as a full-grid stand-in built from its broadcast values, and it is
built from phi at its own (N1, 1) shape: the full grid is reached only by
the Christoffel field.
"""

import tracemalloc
import types

import numpy as np
import pytest

from nabla_calc.bundles import BundleSpec, compact_grid_axes, magnetic_example_bundle
from nabla_calc.calculus import covariant_derivative, divergence, multiindex_derivative
from nabla_calc.errors import ShapeMismatch
from nabla_calc.geometry import MetricField
from nabla_calc.grid import ChartGrid
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
    if metric.values.shape[2:] == (1,) * g:
        assert gamma.shape == (g,) * 3 + (1,) * g and not np.any(gamma)
    else:
        assert gamma.shape == (g,) * 3 + ctx.grid.shape
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
    )
    return metric, ref


def test_one_axis_metric_fields_equal_their_full_grid_twins():
    metric, ref = _one_axis_twins()
    assert metric.values.shape == (2, 2, GRID.shape[0], 1)
    assert metric.inv.shape == metric.values.shape
    assert metric.sqrt_det.shape == (GRID.shape[0], 1)
    assert np.array_equal(np.broadcast_to(metric.inv, ref.inv.shape), ref.inv)
    assert np.array_equal(np.broadcast_to(metric.sqrt_det, GRID.shape), ref.sqrt_det)
    assert metric.christoffel.shape == (2, 2, 2) + GRID.shape
    assert np.array_equal(metric.christoffel, ref.christoffel)


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
    if name == "conformal-x1":
        assert metric.values.shape == (2, 2, grid.shape[0], 1)
    gamma = np.broadcast_to(metric.christoffel, (grid.dim,) * 3 + grid.shape)
    assert np.array_equal(gamma, _full_grid_christoffel(metric))


def test_conformal_exponent_is_taken_at_the_shape_it_varies_over():
    x1 = GRID.axes[0][:, None]
    phi = 0.3 * x1 - 0.2 * x1**2
    compact = MetricField.conformal(GRID, phi)
    full = MetricField.conformal(GRID, np.broadcast_to(phi, GRID.shape))
    for name in ("values", "inv", "sqrt_det", "christoffel"):
        assert getattr(compact, name).shape == getattr(full, name).shape
        assert np.array_equal(getattr(compact, name), getattr(full, name))
    with pytest.raises(ShapeMismatch, match="conformal exponent"):
        MetricField.conformal(GRID, phi[:-1])
    with pytest.raises(ShapeMismatch, match="conformal exponent"):
        MetricField.conformal(GRID, GRID.axes[0])


def test_one_axis_conformal_metric_reaches_the_full_grid_only_in_gamma():
    scenario = parse_scenario(_one_axis_config("0.1*x1"))
    grid = scenarios._build_grid(scenario, h=2 / 256, fd_order=4)
    tracemalloc.start()
    try:
        metric = scenarios._build_metric(scenario, grid, None, None)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert metric.values.shape == (2, 2, grid.shape[0], 1)
    # the full-grid build this replaced peaked above 4.5 Gammas
    assert peak < 1.25 * metric.christoffel.nbytes
