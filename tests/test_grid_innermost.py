"""Frame, Gram and vector contractions run grid-innermost, against grid-first copies.

Each reference below is the former grid-first code of a converted
function: the same einsum subscripts with the ellipsis leading, run on
grid-first copies of the stored grid-last fields, and its result is
compared grid-first.  Where the grid-last einsum keeps the sums in the
same order the results must be bit-identical; the contractions that round
differently are named and held to 1e-13 relative:

- the final pairing "...kl,...kl->..." of divergence_via_generators, and
  so its result; its Gamma term "...mlr,...kl,...r->...km" is held to the
  same bound;
- the generator-identities round trips "...jm,...ji,...i->...m".
"""

import numpy as np
import pytest

from nabla_calc._kernels import diff_axis
from nabla_calc.bidiff import _gradient_adjoint, l2_pairing
from nabla_calc.bundles import (
    BundleSpec,
    TensorSection,
    induced_tensor_bundle,
    magnetic_example_bundle,
)
from nabla_calc.calculus import contract_with_vector, covariant_derivative, divergence
from nabla_calc.checks import _random_mixed_spec
from nabla_calc.generators import (
    build_generators,
    coframe_gram,
    divergence_via_generators,
    polar_isometrize,
    random_embedding,
    sphere_ambient_embedding,
)
from nabla_calc.geometry import MetricField
from nabla_calc.grid import ChartGrid
from nabla_calc.operators import (
    _add_ladders,
    _scaled,
    apply_mixed_op,
    compose,
    directional_op,
    multiplication_op,
)
from nabla_calc.scenarios import build_context, builtin_scenario, parse_scenario
from nabla_calc.sections import random_section, random_vector_field, seeded_rng

GRID = ChartGrid([(-1, 1), (-1, 1)], (41, 41), fd_order=4, support_margin=4)


def _random_frame():
    """A conformal metric and a polar-isometrized frame with 4 generators."""
    x, y = GRID.coords
    metric = MetricField.conformal(GRID, 0.1 * x * y - 0.05 * y)
    emb = random_embedding(GRID, 4, seeded_rng(17, "grid-innermost"))
    return emb, metric


def _sphere_frame():
    return sphere_ambient_embedding(GRID)


FRAMES = {"random-embedding": _random_frame, "sphere-ffc": _sphere_frame}


def _first(values, g=2):
    """A grid-last field copied to the former grid-first layout, C-contiguous."""
    return np.ascontiguousarray(np.moveaxis(values, range(-g, 0), range(g)))


def _last(values, g=2):
    """A grid-first array copied grid-last, C-contiguous."""
    return np.ascontiguousarray(np.moveaxis(values, range(g), range(-g, 0)))


def _gram(phi):
    return np.einsum("...ji,...jk->...ik", phi, phi)


def _spd_power(mats, power):
    lam, vecs = np.linalg.eigh(mats)
    return np.einsum("...ik,...k,...jk->...ij", vecs, lam**power, vecs)


def _polar_phi(phi, metric_values):
    inv_root = _spd_power(_gram(phi), -0.5)
    g_root = _spd_power(metric_values, 0.5)
    return np.einsum("...ai,...ij,...jk->...ak", phi, inv_root, g_root)


def _isometric_frame(phi, inv):
    """Z and xi of build_generators for an isometric phi, grid-first."""
    psi = np.einsum("...ik,...jk->...ij", inv, phi)
    return np.swapaxes(psi, -1, -2), phi


def _christoffel(grid, values, inv):
    """Gamma[..., m, k, l] from full-grid, grid-first metric values."""
    n = grid.dim
    dg = np.stack(
        [diff_axis(values, k, grid.h[k], grid.fd_order) for k in range(n)], axis=-3
    )
    t1 = np.swapaxes(dg, -3, -2)
    t2 = np.swapaxes(t1, -2, -1)
    gamma = 0.5 * np.einsum("...mr,...rkl->...mkl", inv, t1 + t2 - dg)
    gamma[~grid.interior_mask(grid.stencil_radius)] = 0
    return gamma


def _metric_first(metric):
    """values, inv and Gamma of a metric, grid-first on the full grid."""
    grid = metric.grid
    full = (2, 2) + grid.shape
    values = _first(np.broadcast_to(metric.values, full))
    inv = _first(np.broadcast_to(metric.inv, full))
    return values, inv, _christoffel(grid, values, inv)


def _structure_functions(z, xi, grid, gamma):
    n = grid.dim
    dz = np.stack([diff_axis(z, l, grid.h[l], grid.fd_order) for l in range(n)], axis=-3)
    dz[~grid.interior_mask(grid.stencil_radius)] = 0
    flow = np.einsum("...il,...ljm->...ijm", z, dz)
    cov = flow + np.einsum("...mlr,...il,...jr->...ijm", gamma, z, z)
    bracket = flow - np.swapaxes(flow, -3, -2)
    return (
        np.einsum("...km,...ijm->...ijk", xi, cov),
        np.einsum("...km,...ijm->...ijk", xi, bracket),
    )


def _coframe_gram(inv, xi):
    return np.einsum("...im,...ki,...lm->...kl", inv, xi, xi)


def _frame_divergence(X, gens, metric, christoffel_term):
    """divergence_via_generators grid-first, with its Gamma term passed in."""
    grid = gens.grid
    z, xi, x = _first(gens.z), _first(gens.xi), _first(X, 2)
    values, inv, _ = _metric_first(metric)
    dx = np.stack(
        [diff_axis(x, l, grid.h[l], grid.fd_order) for l in range(grid.dim)], axis=-2
    )
    cov = np.einsum("...kl,...lm->...km", z, dx) + christoffel_term
    inner = np.einsum("...im,...ki,...lm->...kl", values, cov, z)
    out = np.einsum("...kl,...kl->...", _coframe_gram(inv, xi), inner)
    out[~grid.interior_mask(grid.stencil_radius)] = 0
    return out


def _gradient_adjoint_reference(bundle, metric, gens):
    rank_one = induced_tensor_bundle(bundle, metric, 1)
    _, inv, _ = _metric_first(metric)
    c = _coframe_gram(inv, _first(gens.xi))
    w = _last(np.einsum("...kl,...ky->...ly", c, _first(gens.z)))
    total = None
    for l in range(gens.n_gens):
        i_w = directional_op(w[l], bundle, metric).coefficients[1]
        pick = multiplication_op(i_w, rank_one, bundle, metric)
        direction = directional_op(gens.z[l], bundle, metric)
        total = _add_ladders(total, _scaled(compose(direction, pick), -1.0))
        div_l = divergence(gens.z[l], metric)
        total = _add_ladders(total, _scaled(pick, -div_l))
    return total


def _close(got, want, rtol=1e-13):
    return np.max(np.abs(got - want)) <= rtol * np.max(np.abs(want))


@pytest.mark.parametrize("frame", sorted(FRAMES))
def test_frame_build_matches_grid_first_reference(frame):
    emb, metric = FRAMES[frame]()
    phi = _first(emb.phi)
    values, inv, gamma = _metric_first(metric)
    assert np.array_equal(_first(emb.gram()), _gram(phi))
    polar = polar_isometrize(emb, metric)
    assert np.array_equal(_first(polar.phi), _polar_phi(phi, values))
    assert np.array_equal(_first(metric.christoffel), gamma)
    gens = build_generators(polar, metric)
    z, xi = _isometric_frame(_first(polar.phi), inv)
    assert np.array_equal(_first(gens.z), z) and np.array_equal(_first(gens.xi), xi)
    g_want, l_want = _structure_functions(_first(gens.z), _first(gens.xi), GRID, gamma)
    assert np.array_equal(_first(gens.g_structure), g_want)
    assert np.array_equal(_first(gens.l_structure), l_want)
    want = _coframe_gram(inv, _first(gens.xi))
    assert np.array_equal(_first(coframe_gram(gens, metric)), want)


@pytest.mark.parametrize("frame", sorted(FRAMES))
def test_gradient_adjoint_matches_grid_first_reference(frame):
    emb, metric = FRAMES[frame]()
    gens = build_generators(polar_isometrize(emb, metric), metric)
    bundle = BundleSpec(GRID, 1)
    got = _gradient_adjoint(bundle, metric, gens)
    want = _gradient_adjoint_reference(bundle, metric, gens)
    assert len(got.coefficients) == len(want.coefficients)
    for a, b in zip(got.coefficients, want.coefficients):
        assert (a is None and b is None) or np.array_equal(a, b)


@pytest.mark.parametrize("frame", sorted(FRAMES))
def test_frame_divergence_matches_grid_first_reference(frame):
    # within 1e-13 relative: the final pairing "...kl,...kl->..." rounds
    # differently grid-innermost
    emb, metric = FRAMES[frame]()
    gens = build_generators(polar_isometrize(emb, metric), metric)
    X = random_vector_field(GRID, seeded_rng(17, f"div-field-{frame}"))
    gamma = metric.christoffel
    moved = np.einsum("mlr...,kl...,r...->km...", gamma, gens.z, X)
    first = np.einsum(
        "...mlr,...kl,...r->...km", _metric_first(metric)[2], _first(gens.z), _first(X)
    )
    assert _close(_first(moved), first)
    want = _frame_divergence(X, gens, metric, _first(moved))
    assert _close(divergence_via_generators(X, gens, metric), want)


@pytest.mark.parametrize("frame", sorted(FRAMES))
def test_frame_round_trip_within_1e13_of_grid_first(frame):
    # the generator-identities round trips "...jm,...ji,...i->...m" round
    # differently grid-innermost
    emb, metric = FRAMES[frame]()
    gens = build_generators(polar_isometrize(emb, metric), metric)
    x = random_vector_field(GRID, seeded_rng(17, f"round-trip-{frame}"))
    for a, b in [(gens.z, gens.xi), (gens.xi, gens.z)]:
        got = np.einsum("jm...,ji...,i...->m...", a, b, x)
        want = np.einsum("...jm,...ji,...i->...m", _first(a), _first(b), _first(x))
        assert _close(_first(got), want)


@pytest.mark.parametrize("frame", sorted(FRAMES))
def test_l2_pairing_matches_grid_first_reference(frame):
    _, metric = FRAMES[frame]()
    rng = seeded_rng(17, f"l2-pairing-{frame}")
    h = np.array([[2.0, 0.5j], [-0.5j, 1.0]])
    fields = [h[:, :, None, None], np.broadcast_to(h[:, :, None, None], (2, 2) + GRID.shape)]
    for fiber_metric in fields:
        bundle = BundleSpec(GRID, 2, fiber_metric=fiber_metric)
        v = random_section(GRID, 0, 2, rng)
        w = random_section(GRID, 0, 2, rng)
        v_first, w_first = (_first(x.values) for x in (v, w))
        density = np.einsum(
            "...ab,...a,...b->...", _first(fiber_metric), v_first, np.conj(w_first)
        )
        want = complex(GRID.integrate(density * metric.sqrt_det))
        assert l2_pairing(v, w, bundle, metric) == want


@pytest.mark.parametrize("rank", [1, 2, 3])
def test_contract_with_vector_matches_grid_first_reference(rank):
    rng = seeded_rng(17, f"contract-{rank}")
    u = random_section(GRID, rank, 2, rng)
    X = random_vector_field(GRID, rng)
    slots = "cdefghij"[: rank - 1]
    want = np.einsum(f"...k,...k{slots}z->...{slots}z", _first(X), _first(u.values))
    got = contract_with_vector(u, X).values
    assert np.array_equal(_first(got), want)


def _apply_mixed_reference(spec, u, gens):
    """apply_mixed_op with its directional contractions and coefficient
    products grid-first, returned grid-first."""
    grid = spec.grid
    out = np.zeros(grid.shape + (spec.target.fiber_dim,), dtype=complex)
    for term in spec.terms:
        v = u
        for k in reversed(term.labels):
            full = covariant_derivative(v, spec.source, spec.metric, check_support=False)
            vals = np.einsum("...k,...ka->...a", _first(gens.z[k - 1]), _first(full.values))
            v = TensorSection(grid, 0, _last(vals), u.fiber_dim)
        coefficient = np.broadcast_to(term.coefficient, term.coefficient.shape[:2] + grid.shape)
        out += np.einsum("...gk,...k->...g", _first(coefficient), _first(v.values))
    return out


def test_apply_mixed_op_matches_grid_first_reference():
    ctx = build_context(parse_scenario(builtin_scenario("random-embedding")))
    ctx.bundle = magnetic_example_bundle(ctx.grid)
    for trial in range(3):
        spec = _random_mixed_spec(ctx, ctx.gens, trial, 2)
        u = random_section(ctx.grid, 0, 2, seeded_rng(17, "mixed-apply", trial))
        got = _first(apply_mixed_op(spec, u, ctx.gens).values, ctx.grid.dim)
        assert np.array_equal(got, _apply_mixed_reference(spec, u, ctx.gens))


def test_no_leading_ellipsis_einsum_with_three_operands(monkeypatch):
    calls = []
    einsum = np.einsum

    def recording(script, *operands, **kwargs):
        calls.append((script, len(operands)))
        return einsum(script, *operands, **kwargs)

    monkeypatch.setattr(np, "einsum", recording)
    ctx = build_context(parse_scenario(builtin_scenario("random-embedding")))
    X = random_vector_field(ctx.grid, seeded_rng(17, "guard"))
    divergence_via_generators(X, ctx.gens, ctx.metric)
    assert calls
    leading = [
        script
        for script, count in calls
        if count >= 3
        and any(term.startswith("...") for term in script.split("->")[0].split(","))
    ]
    assert not leading
