"""Ladder and form coefficients stored at the shape they vary over.

NablaOpSpec levels and BidiffSpec coefficients keep each grid axis at its
full length or at length 1, and every product broadcasts the stored
shapes.  A compact ladder or form must give the same bits as its full-grid
twin, built with the compaction switched off and every level copied to the
full grid, which is how every level was stored before: in compose,
_hom_derivative, apply_nabla_op, eval_bidiff, assemble_divergence_form,
mapping_constant and the mapping-bound check.  Also here: the shape rule
and its ShapeMismatch, the compact shapes of the flat-operators assembly
and of the drift-gradient levels, configured constant potentials, and the
tracemalloc peak of the half-order-2 assembly.
"""

import contextlib
import dataclasses
import tracemalloc

import numpy as np
import pytest

from nabla_calc import bidiff, operators
from nabla_calc.calculus import tower
from nabla_calc.bidiff import (
    BidiffSpec,
    _gradient_adjoint,
    assemble_divergence_form,
    eval_bidiff,
    l2_pairing,
    weighted_pairings,
)
from nabla_calc.bundles import BundleSpec, magnetic_example_bundle
from nabla_calc.checks import CHECKS, _ladder_form
from nabla_calc.errors import ShapeMismatch
from nabla_calc.geometry import MetricField
from nabla_calc.grid import ChartGrid, check_grid_shape, compact_grid_axes
from nabla_calc.operators import (
    MixedOpSpec,
    MixedTerm,
    NablaOpSpec,
    _hom_derivative,
    apply_nabla_op,
    coefficient_infty_norm,
    compose,
    mapping_constant,
)
from nabla_calc.scenarios import build_context, builtin_scenario, parse_scenario
from nabla_calc.sections import random_section, random_trig_field, seeded_rng

GRID = ChartGrid([(-1, 1), (-1, 1)], (41, 37), support_margin=6)
FLAT = MetricField.flat(GRID)
MAGNET = magnetic_example_bundle(GRID)
PLAIN = BundleSpec(GRID, 2)


def _conformal(grid):
    x, y = grid.coords
    return MetricField.conformal(grid, 0.1 * x * y - 0.05 * y)


def _full(a, grid):
    """The full-grid twin of a stored field: a C-contiguous copy."""
    lead = a.shape[: a.ndim - grid.dim]
    return np.ascontiguousarray(np.broadcast_to(a, lead + grid.shape))


def _same(compact, full):
    """Bit-equal once the compact array is broadcast to the full grid."""
    return compact.shape[:2] == full.shape[:2] and np.array_equal(
        np.broadcast_to(compact, full.shape), full
    )


@contextlib.contextmanager
def _full_grid(monkeypatch):
    """Every ladder level and form coefficient kept at the shape it is given."""
    with monkeypatch.context() as patch:
        for module in (operators, bidiff):
            patch.setattr(module, "compact_grid_axes", lambda a, g: a)
        yield


def _twin_ladder(spec):
    return NablaOpSpec(
        spec.source,
        spec.target,
        spec.metric,
        [None if a is None else _full(a, spec.grid) for a in spec.coefficients],
    )


def _same_ladder(compact, full):
    assert [a is None for a in compact.coefficients] == [
        b is None for b in full.coefficients
    ]
    for a, b in zip(compact.coefficients, full.coefficients):
        assert a is None or _same(a, b)


# where a field varies: (1, 1) constant, one axis, or the whole grid
SHAPES = ["const", "x1", "x2", "full"]


def _field(kind, tail, rng, grid=GRID):
    a = random_trig_field(grid.dim, tail, rng).sample(grid)
    mid = [m // 2 for m in grid.shape]
    keep = {"const": (), "x1": (0,), "x2": (1,), "full": (0, 1)}[kind]
    sel = (Ellipsis,) + tuple(
        slice(None) if k in keep else slice(mid[k], mid[k] + 1) for k in range(grid.dim)
    )
    return np.ascontiguousarray(a[sel])


def _ladder(kinds, source, target, rng, metric=FLAT):
    n, d = metric.grid.dim, source.fiber_dim
    levels = [
        _field(kind, (target.fiber_dim, n**j * d), rng, metric.grid)
        for j, kind in enumerate(kinds)
    ]
    return NablaOpSpec(source, target, metric, levels)


def test_shape_rule_accepts_full_or_one_and_rejects_other_lengths():
    n1, n2 = GRID.shape
    for shape in [(n1, n2), (n1, 1), (1, n2), (1, 1)]:
        check_grid_shape((2, 4) + shape, GRID, (2, 4), "coefficient 1")
    for shape in [(n1, 2), (n1 - 1, n2), (1, n2 - 1), (n1,), (n1, n2, 1)]:
        with pytest.raises(ShapeMismatch, match="each grid axis full or of length 1"):
            check_grid_shape((2, 4) + shape, GRID, (2, 4), "coefficient 1")


@pytest.mark.parametrize("shape", [(41, 2), (40, 37), (1, 36), (41,), (41, 37, 1)])
def test_every_stored_coefficient_rejects_an_axis_neither_full_nor_one(shape):
    bad = np.ones((2, 2) + shape, dtype=complex)
    with pytest.raises(ShapeMismatch):
        NablaOpSpec(MAGNET, MAGNET, FLAT, [bad])
    with pytest.raises(ShapeMismatch):
        BidiffSpec(MAGNET, MAGNET, FLAT, 0, {(0, 0): bad})
    with pytest.raises(ShapeMismatch):
        MixedOpSpec(MAGNET, MAGNET, FLAT, [MixedTerm(bad, ())])
    with pytest.raises(ShapeMismatch):
        coefficient_infty_norm(bad, MAGNET, MAGNET, FLAT, 1)


def test_constructors_keep_an_axis_only_where_the_field_varies():
    rng = seeded_rng(30, "compact-shapes")
    n1, n2 = GRID.shape
    kept = {"const": (1, 1), "x1": (n1, 1), "x2": (1, n2), "full": (n1, n2)}
    for kind, want in kept.items():
        a = _field(kind, (2, 2), rng)
        full = _full(a, GRID)
        assert NablaOpSpec(MAGNET, MAGNET, FLAT, [full]).coefficients[0].shape[2:] == want
        form = BidiffSpec(MAGNET, MAGNET, FLAT, 0, {(0, 0): full})
        assert form.coefficients[(0, 0)].shape[2:] == want
        # the stored copy does not keep the full array alive
        assert want == GRID.shape or not np.shares_memory(
            compact_grid_axes(full, 2), full
        )
    # a level that differs from its first slice only far away still varies
    a = np.zeros((2, 2) + GRID.shape, dtype=complex)
    a[..., -1, -1] = 1.0
    assert NablaOpSpec(MAGNET, MAGNET, FLAT, [a]).coefficients[0].shape[2:] == GRID.shape


@pytest.mark.parametrize("kind", SHAPES)
@pytest.mark.parametrize(
    "pair", ["magnet-magnet", "plain-magnet", "magnet-plain", "plain-plain", "induced"]
)
@pytest.mark.parametrize("curved", [False, True])
def test_hom_derivative_compact_equals_full(kind, pair, curved):
    metric = _conformal(GRID) if curved else FLAT
    names = {"magnet": MAGNET, "plain": PLAIN}
    if pair == "induced":
        source, target = (MAGNET, 1), (PLAIN, 2)
    else:
        src, tgt = pair.split("-")
        source, target = (names[src], 0), (names[tgt], 0)
    rows = GRID.dim ** target[1] * 2
    cols = GRID.dim ** source[1] * 2
    a = _field(kind, (rows, cols), seeded_rng(31, f"{kind}-{pair}"))
    got = _hom_derivative(a, source, target, metric)
    want = _hom_derivative(_full(a, GRID), source, target, metric)
    assert want.shape[3:] == GRID.shape
    assert _same(got, want)
    assert got.shape[3:] == GRID.shape or not np.any(got)


def test_hom_derivative_of_a_parallel_field_is_zero_before_the_grid():
    # the identity commutes with the magnetic potential: nothing of grid
    # shape is built, and the zero comes back at the broadcast shape
    eye = np.eye(2, dtype=complex).reshape(2, 2, 1, 1)
    got = _hom_derivative(eye, (MAGNET, 0), (MAGNET, 0), FLAT)
    assert got.shape == (2, 2, 2, GRID.shape[0], 1) and not np.any(got)
    assert not np.any(_hom_derivative(eye, (PLAIN, 0), (PLAIN, 0), FLAT))


@pytest.mark.parametrize(
    "kinds_q, kinds_p",
    [
        (["const", "x1"], ["x2", "const"]),
        (["x2", "const", "const"], ["const", "x1"]),
        (["const", "const"], ["full", "x2"]),
    ],
)
@pytest.mark.parametrize("curved", [False, True])
def test_compose_compact_equals_full(monkeypatch, kinds_q, kinds_p, curved):
    metric = _conformal(GRID) if curved else FLAT
    rng = seeded_rng(32, f"{kinds_q}-{kinds_p}-{curved}")
    p = _ladder(kinds_p, MAGNET, MAGNET, rng, metric)
    q = _ladder(kinds_q, MAGNET, PLAIN, rng, metric)
    got = compose(q, p)
    with _full_grid(monkeypatch):
        want = compose(_twin_ladder(q), _twin_ladder(p))
    _same_ladder(got, want)


@pytest.mark.parametrize("kinds", [["const", "x1"], ["x2", "const", "full"]])
def test_apply_and_eval_compact_equal_full(monkeypatch, kinds):
    rng = seeded_rng(33, str(kinds))
    spec = _ladder(kinds, MAGNET, MAGNET, rng)
    u = random_section(GRID, 0, 2, seeded_rng(33, "u"))
    w = random_section(GRID, 0, 2, seeded_rng(33, "w"))
    m = len(kinds) - 1
    table = {(i, j): _field(kinds[(i + j) % len(kinds)], (2 * 2**j, 2 * 2**i), rng)
             for i in range(m + 1) for j in range(m + 1)}
    form = BidiffSpec(MAGNET, MAGNET, FLAT, m, table)
    with _full_grid(monkeypatch):
        twin = _twin_ladder(spec)
        twin_form = BidiffSpec(
            MAGNET, MAGNET, FLAT, m, {k: _full(a, GRID) for k, a in table.items()}
        )
    us, ws = tower(u, MAGNET, FLAT, m), tower(w, MAGNET, FLAT, m)
    assert np.array_equal(apply_nabla_op(spec, us).values, apply_nabla_op(twin, us).values)
    assert np.array_equal(eval_bidiff(form, us, ws), eval_bidiff(twin_form, us, ws))


def _flat_operators(h):
    cfg = builtin_scenario("flat-operators")
    cfg["chart"]["h"] = h
    return build_context(parse_scenario(cfg))


def _random_embedding(h):
    cfg = builtin_scenario("random-embedding")
    cfg["chart"]["h"] = h
    return build_context(parse_scenario(cfg))


def _assembled_with_twin(ctx, half_order, monkeypatch):
    spec = _ladder_form(ctx, half_order)
    op = assemble_divergence_form(spec, ctx.gens, spec.cosource, ctx.metric)
    with _full_grid(monkeypatch):
        table = {k: _full(a, ctx.grid) for k, a in spec.coefficients.items()}
        twin_spec = BidiffSpec(spec.source, spec.cosource, ctx.metric, half_order, table)
        twin = assemble_divergence_form(twin_spec, ctx.gens, spec.cosource, ctx.metric)
    return op, twin


@pytest.mark.parametrize("half_order", [1, 2])
def test_flat_operators_assembly_is_constant_and_equals_its_full_grid_twin(
    monkeypatch, half_order
):
    ctx = _flat_operators(2 / 32)
    op, twin = _assembled_with_twin(ctx, half_order, monkeypatch)
    assert all(b is None or b.shape[2:] == ctx.grid.shape for b in twin.coefficients)
    for a in op.coefficients:
        assert a is None or a.shape[2:] == (1, 1)
    assert [a is None for a in op.coefficients] == [b is None for b in twin.coefficients]
    for a, b in zip(op.coefficients, twin.coefficients):
        assert a is None or _same(a, b)
    u = random_section(ctx.grid, 0, 2, seeded_rng(34, half_order))
    us = tower(u, op.source, ctx.metric, op.order)
    assert np.array_equal(apply_nabla_op(op, us).values, apply_nabla_op(twin, us).values)


def test_random_embedding_assembly_collapses_nothing_and_equals_its_twin(monkeypatch):
    ctx = _random_embedding(2 / 48)
    op, twin = _assembled_with_twin(ctx, 2, monkeypatch)
    # level 0 is the mass term's identity; every derivative level varies
    levels = [a for a in op.coefficients[1:] if a is not None]
    assert len(levels) == 4 and all(a.shape[2:] == ctx.grid.shape for a in levels)
    for a, b in zip(op.coefficients, twin.coefficients):
        assert (a is None) == (b is None)
        assert a is None or _same(a, b)


def test_gradient_adjoint_adds_no_zero_divergence_term(monkeypatch):
    ctx = _flat_operators(2 / 32)
    calls = []
    scaled = bidiff._scaled

    def counting(spec, factor):
        calls.append(np.ndim(factor))
        return scaled(spec, factor)

    monkeypatch.setattr(bidiff, "_scaled", counting)
    adjoint = _gradient_adjoint(ctx.bundle, ctx.metric, ctx.gens)
    # only the -1 of each -(grad_{Z_l} i_{W_l}): the identity frame is divergence-free
    assert calls == [0] * ctx.gens.n_gens
    assert adjoint.coefficients[0] is None


def test_weighted_duality_with_a_compact_form_equals_its_twin(monkeypatch):
    cfg = builtin_scenario("half-line-weighted")
    ctx = build_context(parse_scenario(cfg))
    spec = ctx.bidiff_forms["mass-gradient"]
    assert all(a.shape[2:] == (1,) for a in spec.coefficients.values())
    u = random_section(ctx.grid, 0, 1, seeded_rng(35, "u"))
    w = random_section(ctx.grid, 0, 1, seeded_rng(35, "w"))
    us, ws = tower(u, ctx.bundle, ctx.metric, 2), tower(w, ctx.bundle, ctx.metric, 1)

    def pairings(form):
        # the two pictures, and the weak-form pairing of the assembled operator
        op = assemble_divergence_form(form, ctx.gens, form.cosource, ctx.metric)
        weak = l2_pairing(apply_nabla_op(op, us), w, form.cosource, ctx.metric)
        return (*weighted_pairings(form, ctx.weight)(us, ws), weak)

    got = pairings(spec)
    with _full_grid(monkeypatch):
        table = {k: _full(a, ctx.grid) for k, a in spec.coefficients.items()}
        twin = BidiffSpec(spec.source, spec.cosource, ctx.metric, spec.half_order, table)
        want = pairings(twin)
    assert got == want


def test_drift_gradient_levels_vary_over_one_axis_each(monkeypatch):
    ctx = _flat_operators(2 / 64)
    spec = ctx.nabla_ops["drift-gradient"]
    n1, n2 = ctx.grid.shape
    # cos(x2)/4 on level 0; sin(x1)/3 and 1/2 on level 1
    assert [a.shape for a in spec.coefficients] == [(2, 2, 1, n2), (2, 4, n1, 1)]
    entry = {"tolerance": 2.0, "operator": "drift-gradient", "trials": 3}
    got = CHECKS["mapping-bound"][0](ctx, entry)
    constant = mapping_constant(spec, 1, 2.0)
    with _full_grid(monkeypatch):
        twin = _twin_ladder(spec)
        twin_ctx = dataclasses.replace(ctx, nabla_ops={"drift-gradient": twin})
        want = CHECKS["mapping-bound"][0](twin_ctx, entry)
        assert mapping_constant(twin, 1, 2.0) == constant
    # the certified bound holds up to a rounding slack of 1e-12
    assert got == want and got["measured"] <= 1.0 + 1e-12


def test_configured_constant_potentials_are_stored_at_one_point():
    cfg = {
        "name": "constant-potentials",
        "chart": {"box": [[-1, 1], [-1, 1]], "h": 2 / 64, "fd_order": 4},
        "metric": {
            "kind": "matrix",
            "entries": [["1 + 0.1*x1^2", "0"], ["0", "1"]],
        },
        "bundle": {
            "kind": "trivial",
            "fiber_dim": 1,
            "potentials": [[["0.5*i"]], [["0"]]],
            "fiber_metric": [["2 + x2"]],
        },
        "checks": [],
    }
    ctx = build_context(parse_scenario(cfg))
    assert ctx.bundle.potentials.shape == (2, 1, 1, 1, 1)
    assert ctx.bundle.live == (0,)
    # the metric varies over x1 alone and the fiber metric over x2 alone
    assert ctx.metric.values.shape == (2, 2, ctx.grid.shape[0], 1)
    assert ctx.bundle.fiber_metric.shape == (1, 1, 1, ctx.grid.shape[1])
    x1 = ctx.grid.coords[0]
    assert np.array_equal(ctx.metric.values[0, 0], 1 + 0.1 * x1**2)
    # potentials that vary over x1 alone keep x2 at length 1
    cfg["bundle"]["potentials"] = [[["0.5*i*x1"]], [["0"]]]
    pots = build_context(parse_scenario(cfg)).bundle.potentials
    assert pots.shape == (2, 1, 1, ctx.grid.shape[0], 1)
    assert np.array_equal(pots[0, 0, 0], 0.5j * ctx.grid.coords[0])


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


def test_half_order_two_assembly_peak_at_129():
    # 106.0 MiB with every level on the full grid, 2.04 MiB now
    ctx = _flat_operators(2 / 128)
    assert ctx.grid.shape == (129, 129)
    spec = _ladder_form(ctx, 2)
    op, peak = _peak(
        lambda: assemble_divergence_form(spec, ctx.gens, spec.cosource, ctx.metric)
    )
    assert op.order == 4
    assert peak <= 2.2 * 2**20
