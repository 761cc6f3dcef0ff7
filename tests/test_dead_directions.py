"""Connection products run over the live directions only.

A direction whose potential is identically zero is dead.  BundleSpec
records the live ones once, and covariant_derivative, the directional
steps of multiindex_derivative, _hom_derivative, curvature and the
leibniz-rule check skip the dead ones.  The results must equal the former
all-direction products in dense_reference.py.  Also here: list calls of
multiindex_derivative and TrigPolyField.sample.
"""

import numpy as np
import pytest

from nabla_calc.bundles import (
    BundleSpec,
    TensorSection,
    induced_tensor_bundle,
    magnetic_example_bundle,
)
from nabla_calc.calculus import covariant_derivative, curvature, multiindex_derivative
from nabla_calc.checks import CHECKS
from nabla_calc.geometry import MetricField
from nabla_calc.grid import ChartGrid
from nabla_calc.operators import _hom_derivative
from nabla_calc.scenarios import CheckContext
from nabla_calc.sections import (
    random_section,
    random_skew_potentials,
    random_trig_field,
    seeded_rng,
)

from dense_reference import (
    all_direction_covariant,
    all_direction_curvature,
    all_direction_hom_products,
)

GRID = ChartGrid([(-1, 1), (-1, 1)], (41, 41), support_margin=6)


def _conformal(grid):
    x, y = grid.coords
    return MetricField.conformal(grid, 0.1 * x * y - 0.05 * y)


def _dead_first(grid, rng):
    """Random skew potentials with direction 0 zeroed."""
    pots = random_skew_potentials(grid, 2, rng)
    pots[0] = 0
    return BundleSpec(grid, 2, pots)


def test_live_directions():
    assert BundleSpec(GRID, 2).live == () and BundleSpec(GRID, 2).is_flat
    magnetic = magnetic_example_bundle(GRID)
    assert magnetic.live == (1,) and not magnetic.is_flat
    skew = BundleSpec(GRID, 2, random_skew_potentials(GRID, 2, seeded_rng(3, "live")))
    assert skew.live == (0, 1)
    assert _dead_first(GRID, seeded_rng(3, "dead")).live == (1,)


@pytest.mark.parametrize("metric", ["flat", "conformal"])
def test_covariant_derivative_equals_all_direction_products(metric):
    metric = MetricField.flat(GRID) if metric == "flat" else _conformal(GRID)
    for bundle in (magnetic_example_bundle(GRID), _dead_first(GRID, seeded_rng(4, "cd"))):
        for rank in range(3):
            u = random_section(GRID, rank, 2, seeded_rng(4, "cd-section", rank))
            got = covariant_derivative(u, bundle, metric).values
            assert np.array_equal(got, all_direction_covariant(u, bundle, metric))


@pytest.mark.parametrize("metric", ["flat", "conformal"])
def test_hom_derivative_equals_all_direction_products(metric):
    metric = MetricField.flat(GRID) if metric == "flat" else _conformal(GRID)
    source = magnetic_example_bundle(GRID)
    for target in (BundleSpec(GRID, 3), _dead_first(GRID, seeded_rng(5, "hom"))):
        rng = seeded_rng(5, f"hom-field-{target.fiber_dim}")
        a = random_trig_field(2, (target.fiber_dim, 2), rng).sample(GRID)
        got = _hom_derivative(a, (source, 0), (target, 0), metric)
        assert np.array_equal(got, all_direction_hom_products(a, source, target, metric))


def test_curvature_equals_all_direction_products():
    grid = ChartGrid([(-1, 1)] * 3, (13, 13, 13), support_margin=3)
    pots = random_skew_potentials(grid, 2, seeded_rng(6, "curv"))
    pots[1] = 0
    for bundle in (magnetic_example_bundle(GRID), BundleSpec(grid, 2, pots)):
        # the curvature at the potentials' shape, broadcast and zeroed on the
        # whole band, against the full-grid reference
        r = curvature(bundle).values
        r = np.broadcast_to(r, r.shape[:4] + bundle.grid.shape).copy()
        bundle.grid.zero_band(r, bundle.grid.stencil_radius)
        assert np.array_equal(r, all_direction_curvature(bundle))


def test_no_potential_product_along_a_dead_direction(monkeypatch):
    # every einsum operand is checked against the dead A_1 of the magnetic
    # bundle; the former code passed it, or all of the potentials, to einsum
    grid = ChartGrid([(-1, 1), (-1, 1)], (33, 33))
    ctx = CheckContext(
        name="dead",
        grid=grid,
        metric=MetricField.flat(grid),
        bundle=magnetic_example_bundle(grid),
        seed=7,
    )
    dead = ctx.bundle.potentials[0]
    seen = []
    einsum = np.einsum

    def recording(script, *operands, **kwargs):
        seen.append(any(np.may_share_memory(x, dead) for x in operands))
        return einsum(script, *operands, **kwargs)

    monkeypatch.setattr(np, "einsum", recording)
    u = random_section(grid, 1, 2, seeded_rng(7, "dead-u"))
    covariant_derivative(u, ctx.bundle, ctx.metric)
    for idx in [(1, 2), (2, 1), (1, 1)]:
        multiindex_derivative(u, idx, ctx.bundle, ctx.metric)
    curvature(ctx.bundle)
    a = random_trig_field(2, (2, 2), seeded_rng(7, "dead-a")).sample(grid)
    _hom_derivative(a, (ctx.bundle, 0), (ctx.bundle, 0), ctx.metric)
    CHECKS["leibniz-rule"][0](ctx, {"check": "leibniz-rule", "tolerance": 1e-5, "trials": 1})
    assert seen and not any(seen)


def _per_index(u, idxs, bundle, metric):
    return [multiindex_derivative(u, idx, bundle, metric).values for idx in idxs]


@pytest.mark.parametrize("path", ["directional", "curved", "induced"])
def test_list_call_equals_one_call_per_index(path):
    bundle = magnetic_example_bundle(GRID)
    metric = MetricField.flat(GRID)
    if path == "curved":
        metric = _conformal(GRID)
    if path == "induced":
        bundle = induced_tensor_bundle(bundle, metric, 1)
    u = random_section(GRID, 1, bundle.fiber_dim, seeded_rng(8, f"list-{path}"))
    idxs = [(1, 2), (2, 2), (2, 1), (), (2,), (1, 2, 2)]
    got = multiindex_derivative(u, idxs, bundle, metric)
    assert all(isinstance(sec, TensorSection) and sec.rank == 1 for sec in got)
    for sec, want in zip(got, _per_index(u, idxs, bundle, metric), strict=True):
        assert np.array_equal(sec.values, want)


def test_trig_field_list_sample_equals_one_call_per_order():
    field = random_trig_field(2, (2, 3), seeded_rng(9, "trig-list"))
    orders = [(), (0,), (1,), (0, 1)]
    for got, order in zip(field.sample(GRID, orders), orders, strict=True):
        assert np.array_equal(got, field.sample(GRID, order))
