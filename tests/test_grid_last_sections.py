"""Sections stored grid-last, against the former grid-first code.

Each reference below is the former code of a converted function, run on
grid-first copies of the same values: covariant_derivative (with its
Christoffel slot sum), pointwise_norm_sq, multiindex_derivative and
apply_nabla_op.  The results are moved back grid-first and must be
bit-identical, on a plain and an induced bundle, a flat and a curved
metric, and ranks 0 to 2.  One product sums in another order and is held
to 1e-13 relative instead:

- pointwise_norm_sq on a flat metric, when a section has 8 or more slot
  and fiber entries per point (rank 2 over C^2): numpy sums 8 or more
  trailing entries pairwise, and leading rows one after another.
"""

import numpy as np
import pytest

from nabla_calc._kernels import diff_axis
from nabla_calc.bundles import (
    TensorSection,
    induced_tensor_bundle,
    is_identity,
    magnetic_example_bundle,
)
from nabla_calc.calculus import (
    contract_with_vector,
    covariant_derivative,
    multiindex_derivative,
    tower,
)
from nabla_calc.errors import ShapeMismatch
from nabla_calc.geometry import MetricField
from nabla_calc.grid import ChartGrid
from nabla_calc.norms import pointwise_norm_sq
from nabla_calc.operators import NablaOpSpec, apply_nabla_op
from nabla_calc.sections import (
    random_section,
    random_trig_field,
    random_vector_field,
    seeded_rng,
)

GRID = ChartGrid([(-1, 1), (-1, 1)], (41, 41))
SLOTS = "cdefghij"


def _curved():
    x, y = GRID.coords
    return MetricField.conformal(GRID, 0.1 * x * y - 0.05 * y)


METRICS = {"flat": lambda: MetricField.flat(GRID), "curved": _curved}


def _bundle(kind, metric):
    plain = magnetic_example_bundle(GRID)
    return plain if kind == "plain" else induced_tensor_bundle(plain, metric, 1)


def _first(values):
    """Grid-last values copied to the former grid-first, C-contiguous layout."""
    g = GRID.dim
    return np.ascontiguousarray(np.moveaxis(values, range(-g, 0), range(g)))


def _last(values):
    """Grid-first values copied grid-last, C-contiguous."""
    g = GRID.dim
    return np.ascontiguousarray(np.moveaxis(values, range(g), range(-g, 0)))


def _view_first(values):
    """Grid-last values read grid-first, as a view."""
    g = GRID.dim
    return np.moveaxis(values, range(-g, 0), range(g))


def _diff(vals, k):
    """The grid stencil along grid axis k of a grid-first array."""
    return diff_axis(vals, k, GRID.h[k], GRID.fd_order)


def _gamma_slot_sum_reference(gamma, values, rank):
    letters = SLOTS[:rank]
    total = None
    for s in range(rank):
        u_sub = letters[:s] + "m" + letters[s + 1 :]
        script = f"...my{letters[s]},...{u_sub}z->...y{letters}z"
        term = np.einsum(script, gamma, values)
        total = term if total is None else total + term
    return total


def _covariant_reference(vals, bundle, metric):
    """The former covariant_derivative on grid-first values."""
    grid = metric.grid
    n = grid.dim
    if bundle.base is not None:
        base = bundle.base
        shape = vals.shape[:-1] + (n,) * bundle.slots + (base.fiber_dim,)
        out = _covariant_reference(vals.reshape(shape), base, metric)
        return out.reshape(out.shape[: vals.ndim] + (vals.shape[-1],))
    r = vals.ndim - n - 1
    parts = np.stack([_diff(vals, k) for k in range(n)], axis=n)
    letters = SLOTS[:r]
    if r > 0 and not metric.constant:
        gamma = _first(metric.christoffel)
        parts -= _gamma_slot_sum_reference(gamma, vals, r)
    if bundle.live:
        u_last = _last(vals)
        for y in bundle.live:
            term = np.einsum(
                f"ab...,{letters}b...->{letters}a...",
                bundle.potentials[y],
                u_last,
            )
            parts[(slice(None),) * n + (y,)] += _view_first(term)
    return parts


def _norm_reference(vals, metric, h):
    """The former pointwise_norm_sq on grid-first values."""
    g = metric.grid.dim
    r = vals.ndim - g - 1
    if metric.values.shape[2:] == (1,) * g and is_identity(h):
        if r == 0 or is_identity(metric.inv):
            return np.sum(vals.real**2 + vals.imag**2, axis=tuple(range(g, vals.ndim)))
    ul, vl = "abcd"[:r], "efgh"[:r]
    script = f"...{ul}y,...{vl}z"
    args = [vals, np.conj(vals)]
    for k in range(r):
        script += f",...{ul[k]}{vl[k]}"
        args.append(_first(metric.inv))
    args.append(_first(h))
    return np.maximum(np.einsum(script + ",...yz->...", *args).real, 0.0)


def _multiindex_reference(vals, idx, bundle, metric):
    """The former multiindex_derivative of one multi-index, grid-first."""
    grid = metric.grid
    n = grid.dim
    if metric.constant and bundle.base is None:
        r = vals.ndim - n - 1
        letters = SLOTS[:r]
        last = _last(vals)
        for i in reversed(idx):
            out = _last(_diff(_view_first(last), i - 1))
            if i - 1 in bundle.live:
                out += np.einsum(
                    f"ab...,{letters}b...->{letters}a...",
                    bundle.potentials[i - 1],
                    last,
                )
            last = out
        return _view_first(last)
    for _ in idx:
        vals = _covariant_reference(vals, bundle, metric)
    return vals[(slice(None),) * n + tuple(k - 1 for k in idx)]


def _apply_reference(spec, vals):
    """The former apply_nabla_op on grid-first values."""
    grid = spec.grid
    out = np.zeros(grid.shape + (spec.target.fiber_dim,), dtype=complex)
    level = vals
    for j, a in enumerate(spec.coefficients):
        if j:
            level = _covariant_reference(level, spec.source, spec.metric)
        if a is not None:
            flat = level.reshape(grid.shape + (-1,))
            out += np.einsum("...gk,...k->...g", _first(a), flat)
    return out


def _close(got, want, rtol=1e-13):
    return np.max(np.abs(got - want)) <= rtol * np.max(np.abs(want))


@pytest.mark.parametrize("kind", ["plain", "induced"])
@pytest.mark.parametrize("metric_name", sorted(METRICS))
@pytest.mark.parametrize("rank", [0, 1, 2])
def test_covariant_derivative_matches_grid_first_reference(kind, metric_name, rank):
    metric = METRICS[metric_name]()
    bundle = _bundle(kind, metric)
    rng = seeded_rng(24, f"covariant-{kind}-{metric_name}-{rank}")
    u = random_section(GRID, rank, bundle.fiber_dim, rng)
    got = covariant_derivative(u, bundle, metric)
    assert got.values.flags.c_contiguous
    assert got.values.shape == (2,) * (rank + 1) + (bundle.fiber_dim,) + GRID.shape
    want = _covariant_reference(_first(u.values), bundle, metric)
    assert np.array_equal(_first(got.values), want)


@pytest.mark.parametrize("kind", ["plain", "induced"])
@pytest.mark.parametrize("metric_name", sorted(METRICS))
def test_multiindex_derivative_matches_grid_first_reference(kind, metric_name):
    metric = METRICS[metric_name]()
    bundle = _bundle(kind, metric)
    idxs = [(2, 1), (1,), (1, 2, 2), ()]
    for rank in range(3):
        rng = seeded_rng(24, f"multiindex-{kind}-{metric_name}-{rank}")
        u = random_section(GRID, rank, bundle.fiber_dim, rng)
        got = multiindex_derivative(u, idxs, bundle, metric)
        for idx, one in zip(idxs, got):
            assert one.values.flags.c_contiguous
            want = _multiindex_reference(_first(u.values), idx, bundle, metric)
            assert np.array_equal(_first(one.values), want)


@pytest.mark.parametrize("kind", ["plain", "induced"])
@pytest.mark.parametrize("metric_name", sorted(METRICS))
def test_pointwise_norm_matches_grid_first_reference(kind, metric_name):
    # bit-identical but for the flat metric's plain sums over 8 or more
    # slot and fiber entries, which numpy sums pairwise grid-first
    metric = METRICS[metric_name]()
    bundle = _bundle(kind, metric)
    h = np.asarray(bundle.fiber_metric)
    rng = seeded_rng(24, f"norm-{kind}-{metric_name}")
    u = random_section(GRID, 0, bundle.fiber_dim, rng)
    for j, level in enumerate(tower(u, bundle, metric, 2)):
        got = pointwise_norm_sq(level, metric, bundle)
        want = _norm_reference(_first(level.values), metric, h)
        entries = level.values.size // GRID.shape[0] // GRID.shape[1]
        if metric_name == "flat" and is_identity(h) and entries >= 8:
            assert _close(got, want)
        else:
            assert np.array_equal(got, want), j


def _ladder(bundle, metric, rng):
    """An order-2 ladder: a constant level 0, levels 1 and 2 varying."""
    n, d = GRID.dim, bundle.fiber_dim
    levels = [random_trig_field(n, (d, n**j * d), rng).sample(GRID) for j in range(3)]
    levels[0] = levels[0][..., :1, :1]
    return NablaOpSpec(bundle, bundle, metric, levels)


@pytest.mark.parametrize("metric_name", sorted(METRICS))
def test_apply_nabla_op_matches_grid_first_reference(metric_name):
    metric = METRICS[metric_name]()
    bundle = magnetic_example_bundle(GRID)
    rng = seeded_rng(24, f"apply-{metric_name}")
    spec = _ladder(bundle, metric, rng)
    assert spec.coefficients[0].shape[2:] == (1, 1)
    u = random_section(GRID, 0, 2, rng)
    got = apply_nabla_op(spec, tower(u, bundle, metric, spec.order)).values
    assert got.flags.c_contiguous
    assert np.array_equal(_first(got), _apply_reference(spec, _first(u.values)))


def test_tower_makes_no_layout_copy_or_stack(monkeypatch):
    """No section is stacked or moved, and neither is any field: the
    Christoffel field is contracted as it is stored, on every step."""

    def refuse(*args, **kwargs):
        raise AssertionError("a layout copy or a stack in the tower")

    metric = _curved()
    plain = magnetic_example_bundle(GRID)
    bundles = [plain, induced_tensor_bundle(plain, metric, 1)]
    rng = seeded_rng(24, "no-copy")
    sections = [random_section(GRID, 1, b.fiber_dim, rng) for b in bundles]
    for name in ("stack", "moveaxis", "ascontiguousarray", "swapaxes", "transpose"):
        monkeypatch.setattr(np, name, refuse)
    for bundle, u in zip(bundles, sections):
        levels = list(tower(u, bundle, metric, 2))
        assert all(level.values.flags.c_contiguous for level in levels)


def test_sections_are_stored_grid_last_and_contiguous():
    rng = seeded_rng(24, "layout")
    for rank in range(3):
        u = random_section(GRID, rank, 2, rng)
        assert u.values.shape == (2,) * rank + (2,) + GRID.shape
        assert u.values.flags.c_contiguous
    X = random_vector_field(GRID, rng)
    assert X.shape == (2,) + GRID.shape and X.flags.c_contiguous
    v = contract_with_vector(random_section(GRID, 2, 2, rng), X)
    assert v.values.shape == (2, 2) + GRID.shape and v.values.flags.c_contiguous
    with pytest.raises(ShapeMismatch, match="grid axes last"):
        TensorSection(GRID, 0, np.zeros(GRID.shape + (2,)), 2)
