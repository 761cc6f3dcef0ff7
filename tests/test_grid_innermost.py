"""Frame, Gram and vector contractions run grid-innermost, against grid-first copies.

Each reference below is the former code of a converted function: the same
einsum subscripts, run with the grid axes first.  Where grid_einsum keeps
the sums in the same order the results must be bit-identical; the two
contractions that round differently are named and held to 1e-13 relative.
"""

import numpy as np
import pytest

from nabla_calc.bidiff import _gradient_adjoint, l2_pairing
from nabla_calc.bundles import (
    BundleSpec,
    TensorSection,
    grid_einsum,
    grid_first,
    grid_last,
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
    _term_fields,
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


def _gram(phi):
    return np.einsum("...ji,...jk->...ik", phi, phi)


def _spd_power(mats, power):
    lam, vecs = np.linalg.eigh(mats)
    return np.einsum("...ik,...k,...jk->...ij", vecs, lam**power, vecs)


def _polar_phi(phi, metric):
    inv_root = _spd_power(_gram(phi), -0.5)
    g_root = _spd_power(metric.values, 0.5)
    return np.einsum("...ai,...ij,...jk->...ak", phi, inv_root, g_root)


def _isometric_frame(phi, metric):
    """Z and xi of build_generators for an isometric phi."""
    psi = np.einsum("...ik,...jk->...ij", metric.inv, phi)
    return np.swapaxes(psi, -1, -2), phi


def _christoffel(metric):
    grid = metric.grid
    n = grid.dim
    dg = np.stack([grid.diff(metric.values, axis=k) for k in range(n)], axis=-3)
    t1 = np.swapaxes(dg, -3, -2)
    t2 = np.swapaxes(t1, -2, -1)
    gamma = 0.5 * np.einsum("...mr,...rkl->...mkl", metric.inv, t1 + t2 - dg)
    grid.zero_band(gamma, grid.stencil_radius)
    return gamma


def _structure_functions(gens, metric):
    grid = gens.grid
    z = gens.z
    dz = np.stack([grid.diff(z, axis=l) for l in range(grid.dim)], axis=-3)
    grid.zero_band(dz, grid.stencil_radius)
    flow = np.einsum("...il,...ljm->...ijm", z, dz)
    cov = flow + np.einsum("...mlr,...il,...jr->...ijm", _christoffel(metric), z, z)
    bracket = flow - np.swapaxes(flow, -3, -2)
    return (
        np.einsum("...km,...ijm->...ijk", gens.xi, cov),
        np.einsum("...km,...ijm->...ijk", gens.xi, bracket),
    )


def _coframe_gram(gens, metric):
    return np.einsum("...im,...ki,...lm->...kl", metric.inv, gens.xi, gens.xi)


def _frame_divergence(X, gens, metric, christoffel_term):
    """divergence_via_generators with its Gamma term passed in."""
    grid = gens.grid
    dx = np.stack([grid.diff(X, axis=l) for l in range(grid.dim)], axis=-2)
    cov = np.einsum("...kl,...lm->...km", gens.z, dx) + christoffel_term
    inner = np.einsum("...im,...ki,...lm->...kl", metric.values, cov, gens.z)
    out = np.einsum("...kl,...kl->...", _coframe_gram(gens, metric), inner)
    grid.zero_band(out, grid.stencil_radius)
    return out


def _gradient_adjoint_reference(bundle, metric, gens):
    rank_one = induced_tensor_bundle(bundle, metric, 1)
    c = _coframe_gram(gens, metric)
    w = np.einsum("...kl,...ky->...ly", c, gens.z)
    total = None
    for l in range(gens.n_gens):
        i_w = directional_op(w[..., l, :], bundle, metric).coefficients[1]
        pick = multiplication_op(i_w, rank_one, bundle, metric, "smooth")
        direction = directional_op(gens.z[..., l, :], bundle, metric, "smooth")
        total = _add_ladders(total, _scaled(compose(direction, pick), -1.0))
        div_l = divergence(gens.z[..., l, :], metric)
        total = _add_ladders(total, _scaled(pick, -div_l[..., None, None]))
    return total


def _first(values):
    """A section's grid-last values copied to the former grid-first layout."""
    return np.ascontiguousarray(grid_first(values, GRID.dim))


def _close(got, want, rtol=1e-13):
    return np.max(np.abs(got - want)) <= rtol * np.max(np.abs(want))


@pytest.mark.parametrize("frame", sorted(FRAMES))
def test_frame_build_matches_grid_first_reference(frame):
    emb, metric = FRAMES[frame]()
    assert np.array_equal(emb.gram(), _gram(emb.phi))
    polar = polar_isometrize(emb, metric)
    assert np.array_equal(polar.phi, _polar_phi(emb.phi, metric))
    assert np.array_equal(metric.christoffel, _christoffel(metric))
    gens = build_generators(polar, metric)
    z, xi = _isometric_frame(polar.phi, metric)
    assert np.array_equal(gens.z, z) and np.array_equal(gens.xi, xi)
    g_want, l_want = _structure_functions(gens, metric)
    assert np.array_equal(gens.g_structure, g_want)
    assert np.array_equal(gens.l_structure, l_want)
    assert np.array_equal(coframe_gram(gens, metric), _coframe_gram(gens, metric))


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
    # bit-identical but for the Gamma term "...mlr,...kl,...r->...km",
    # whose grid-innermost sum rounds differently
    emb, metric = FRAMES[frame]()
    gens = build_generators(polar_isometrize(emb, metric), metric)
    X = random_vector_field(GRID, seeded_rng(17, f"div-field-{frame}"))
    gamma = metric.christoffel
    script = "...mlr,...kl,...r->...km"
    moved = grid_einsum(script, gamma, gens.z, X)
    assert _close(moved, np.einsum(script, gamma, gens.z, X))
    want = _frame_divergence(X, gens, metric, moved)
    assert np.array_equal(divergence_via_generators(X, gens, metric), want)


@pytest.mark.parametrize("frame", sorted(FRAMES))
def test_frame_round_trip_within_1e13_of_grid_first(frame):
    # the generator-identities round trips "...jm,...ji,...i->...m" round
    # differently grid-innermost
    emb, metric = FRAMES[frame]()
    gens = build_generators(polar_isometrize(emb, metric), metric)
    x = random_vector_field(GRID, seeded_rng(17, f"round-trip-{frame}"))
    for a, b in [(gens.z, gens.xi), (gens.xi, gens.z)]:
        script = "...jm,...ji,...i->...m"
        assert _close(grid_einsum(script, a, b, x), np.einsum(script, a, b, x))


@pytest.mark.parametrize("frame", sorted(FRAMES))
def test_l2_pairing_matches_grid_first_reference(frame):
    _, metric = FRAMES[frame]()
    rng = seeded_rng(17, f"l2-pairing-{frame}")
    h = np.array([[2.0, 0.5j], [-0.5j, 1.0]])
    fields = [h[None, None], np.broadcast_to(h, GRID.shape + (2, 2)).copy()]
    for fiber_metric in fields:
        bundle = BundleSpec(GRID, 2, fiber_metric=fiber_metric)
        v = random_section(GRID, 0, 2, rng)
        w = random_section(GRID, 0, 2, rng)
        v_first, w_first = (_first(x.values) for x in (v, w))
        density = np.einsum(
            "...ab,...a,...b->...", fiber_metric, v_first, np.conj(w_first)
        )
        want = complex(GRID.integrate(density * metric.sqrt_det))
        assert l2_pairing(v, w, bundle, metric) == want


@pytest.mark.parametrize("rank", [1, 2, 3])
def test_contract_with_vector_matches_grid_first_reference(rank):
    rng = seeded_rng(17, f"contract-{rank}")
    u = random_section(GRID, rank, 2, rng)
    X = random_vector_field(GRID, rng)
    slots = "cdefghij"[: rank - 1]
    want = np.einsum(f"...k,...k{slots}z->...{slots}z", X, _first(u.values))
    got = contract_with_vector(u, X).values
    assert np.array_equal(grid_first(got, GRID.dim), want)


def _apply_mixed_reference(spec, u, gens):
    """apply_mixed_op with its directional contractions and coefficient
    products grid-first, returned grid-first."""
    grid = spec.grid
    g = grid.dim
    out = np.zeros(grid.shape + (spec.target.fiber_dim,), dtype=complex)
    for term in spec.terms:
        v = u
        for x in reversed(_term_fields(term, gens)):
            full = covariant_derivative(v, spec.source, spec.metric, check_support=False)
            vals = np.einsum("...k,...ka->...a", x, _first(full.values))
            v = TensorSection(grid, 0, grid_last(vals, g), u.fiber_dim)
        out += np.einsum("...gk,...k->...g", term.coefficient, _first(v.values))
    return out


def test_apply_mixed_op_matches_grid_first_reference():
    ctx = build_context(parse_scenario(builtin_scenario("random-embedding")))
    ctx.bundle = magnetic_example_bundle(ctx.grid)
    for trial in range(3):
        spec = _random_mixed_spec(ctx, ctx.gens, trial, 2)
        u = random_section(ctx.grid, 0, 2, seeded_rng(17, "mixed-apply", trial))
        got = grid_first(apply_mixed_op(spec, u, ctx.gens).values, ctx.grid.dim)
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
