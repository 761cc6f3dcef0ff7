import numpy as np
import pytest

from nabla_calc.bundles import BundleSpec, TensorSection, magnetic_example_bundle
from nabla_calc.calculus import (
    contract_with_vector,
    covariant_derivative,
    curvature,
    divergence,
    multiindex_derivative,
    tower,
)
from nabla_calc.errors import DegenerateEmbedding, ShapeMismatch
from nabla_calc.generators import (
    EmbeddingSpec,
    build_generators,
    divergence_via_generators,
    generator_sobolev_norm,
    graph_embedding,
    identity_embedding,
    nabla_via_generators,
    polar_isometrize,
    random_embedding,
    reconstruction_defect,
    sphere_ambient_embedding,
    structure_functions,
)
from nabla_calc.geometry import MetricField
from nabla_calc.grid import ChartGrid
from nabla_calc.norms import lp_norm, sobolev_norm
from nabla_calc.sections import (
    random_scalar_bump,
    random_section,
    random_vector_field,
    seeded_rng,
)

GRID = ChartGrid([(-1, 1), (-1, 1)], (65, 65))
FLAT = MetricField.flat(GRID)
SPHERE_EMB, SPHERE_G = sphere_ambient_embedding(GRID)
SPHERE = build_generators(SPHERE_EMB, SPHERE_G)


def _conformal_metric(grid):
    x, y = grid.coords
    return MetricField.conformal(grid, 0.1 * x * y - 0.05 * y)


def test_identity_generators_are_coordinate_frame():
    gens = build_generators(identity_embedding(GRID), FLAT)
    # stored at the shape it varies over: one point
    eye = np.eye(2)[:, :, None, None]
    assert np.array_equal(gens.z, eye)
    assert np.array_equal(gens.xi, eye)
    assert not np.any(gens.g_structure)
    assert not np.any(gens.l_structure)


def test_sphere_frame_reconstructs_identity():
    assert reconstruction_defect(SPHERE) <= 1e-12


def stereographic_points(grid):
    """Ambient unit-sphere positions of a 2d stereographic chart."""
    if grid.dim != 2:
        raise ShapeMismatch(f"stereographic chart must be 2d, got {grid.dim}d")
    x1, x2 = grid.coords
    s = 1.0 + x1**2 + x2**2
    return np.stack([2.0 * x1 / s, 2.0 * x2 / s, (x1**2 + x2**2 - 1.0) / s])


def test_sphere_generators_match_ambient_projection():
    # pushing Z_j forward must give the tangential part of the ambient e_j
    points = stereographic_points(GRID)
    pushed = np.einsum("ai...,ji...->ja...", SPHERE_EMB.phi, SPHERE.z)
    for j in range(3):
        want = -points[j] * points
        want[j] += 1.0
        assert np.max(np.abs(pushed[j] - want)) <= 1e-12


def test_reconstruction_on_random_frames():
    rng = seeded_rng(7, "frame-recon")
    emb = random_embedding(GRID, 4, rng)
    metric = _conformal_metric(GRID)
    gens = build_generators(emb, metric)
    assert reconstruction_defect(gens) <= 1e-12
    for trial in range(5):
        x = random_vector_field(GRID, seeded_rng(7, "recon-field", trial))
        back = np.einsum("jm...,ji...,i...->m...", gens.z, gens.xi, x)
        assert np.max(np.abs(back - x)) <= 1e-10 * max(1.0, np.max(np.abs(x)))
        omega = random_vector_field(GRID, seeded_rng(7, "recon-form", trial))
        back = np.einsum("jm...,ji...,i...->m...", gens.xi, gens.z, omega)
        assert np.max(np.abs(back - omega)) <= 1e-10 * max(1.0, np.max(np.abs(omega)))


def test_degenerate_embedding_raises():
    phi = np.broadcast_to(np.eye(2)[:, :, None, None], (2, 2) + GRID.shape).copy()
    phi[:, 0] *= GRID.coords[0]  # first column dies at x1 = 0
    with pytest.raises(DegenerateEmbedding):
        build_generators(EmbeddingSpec(GRID, phi), FLAT)


@pytest.mark.parametrize(
    "emb, metric",
    [(SPHERE_EMB, FLAT), (identity_embedding(GRID), _conformal_metric(GRID))],
    ids=("sphere-on-flat", "identity-on-conformal"),
)
def test_a_gram_that_is_not_the_metric_gets_the_pseudoinverse_frame(emb, metric):
    # any embedding pairs with any metric: Z_j = Psi(e_j) with Psi the
    # pointwise pseudoinverse, whatever the metric
    gens = build_generators(emb, metric)
    pinv = np.linalg.pinv(np.moveaxis(emb.phi, (0, 1), (-2, -1)))
    assert np.max(np.abs(gens.z - np.moveaxis(pinv, (-1, -2), (0, 1)))) <= 1e-12
    assert np.array_equal(gens.xi, emb.phi)
    assert reconstruction_defect(gens) <= 1e-12


def test_embedding_shape_validation():
    with pytest.raises(ShapeMismatch):
        EmbeddingSpec(GRID, np.zeros((1, 2) + GRID.shape))
    with pytest.raises(ShapeMismatch):
        EmbeddingSpec(GRID, np.zeros((3,) + GRID.shape))


def test_polar_isometrize_random_embedding():
    rng = seeded_rng(11, "polar")
    metric = _conformal_metric(GRID)
    emb = polar_isometrize(random_embedding(GRID, 5, rng), metric)
    defect = np.max(np.abs(emb.gram() - metric.values))
    assert defect <= 1e-10
    # the Gram field is the metric, so the frame is g^{-1} Phi^T
    gens = build_generators(emb, metric)
    want = np.einsum("ik...,jk...->ji...", metric.inv, emb.phi)
    assert np.array_equal(gens.z, want)


def test_polar_isometrize_fixed_points():
    # an embedding whose Gram field is the metric is its own polar part,
    # up to rounding
    emb2 = polar_isometrize(SPHERE_EMB, SPHERE_G)
    assert np.max(np.abs(emb2.phi - SPHERE_EMB.phi)) <= 1e-10
    # a constant multiple of the identity collapses back to the identity
    doubled = EmbeddingSpec(GRID, 2.0 * identity_embedding(GRID).phi)
    emb3 = polar_isometrize(doubled, FLAT)
    assert np.max(np.abs(emb3.phi - identity_embedding(GRID).phi)) <= 1e-12


def test_nabla_via_generators_sphere_scalar():
    u = random_section(GRID, 0, 1, seeded_rng(3, "sphere-scalar"))
    bundle = BundleSpec(GRID, 1)
    direct = covariant_derivative(u, bundle, SPHERE_G)
    framed = nabla_via_generators(u, SPHERE, bundle, SPHERE_G)
    scale = np.max(np.abs(direct.values))
    assert np.max(np.abs(framed.values - direct.values)) <= 1e-10 * scale


def test_nabla_via_generators_magnetic():
    bundle = magnetic_example_bundle(GRID)
    gens = build_generators(identity_embedding(GRID), FLAT)
    u = random_section(GRID, 0, 2, seeded_rng(3, "magnetic-frame"))
    direct = covariant_derivative(u, bundle, FLAT)
    framed = nabla_via_generators(u, gens, bundle, FLAT)
    scale = np.max(np.abs(direct.values))
    assert np.max(np.abs(framed.values - direct.values)) <= 1e-12 * scale


def test_divergence_identity_frame_linear_field():
    gens = build_generators(identity_embedding(GRID), FLAT)
    x, y = np.broadcast_arrays(*GRID.coords)
    field = np.stack([x, y])
    div = divergence_via_generators(field, gens, FLAT)
    inner = GRID.interior_mask(GRID.stencil_radius)
    assert np.max(np.abs(div[inner] - 2.0)) <= 1e-12


def test_divergence_of_sphere_rotation_field_vanishes():
    # the chart rotation field lifts to a rotation of the sphere, a Killing
    # field, so its divergence is zero up to stencil truncation
    grid = ChartGrid([(-1, 1), (-1, 1)], (129, 129))
    emb, metric = sphere_ambient_embedding(grid)
    gens = build_generators(emb, metric)
    x, y = np.broadcast_arrays(*grid.coords)
    rotation = np.stack([-y, x])
    div = divergence_via_generators(rotation, gens, metric)
    assert np.max(np.abs(div[grid.interior_mask(grid.stencil_radius)])) <= 5e-6


def test_divergence_two_routes_agree_on_random_frame():
    rng = seeded_rng(19, "div-two-route")
    metric = _conformal_metric(GRID)
    emb = polar_isometrize(random_embedding(GRID, 4, rng), metric)
    gens = build_generators(emb, metric)
    field = random_vector_field(GRID, rng)
    via_frame = divergence_via_generators(field, gens, metric)
    direct = divergence(field, metric)
    scale = max(1.0, np.max(np.abs(direct)))
    assert np.max(np.abs(via_frame - direct)) <= 1e-10 * scale


def test_structure_function_expansions_close():
    grid = SPHERE.grid
    n = grid.dim
    z = SPHERE.z
    dz = np.stack([grid.diff(z, axis=l) for l in range(n)])
    grid.zero_band(dz, grid.stencil_radius)
    cov = np.einsum("il...,ljm...->ijm...", z, dz) + np.einsum(
        "mlr...,il...,jr...->ijm...", SPHERE_G.christoffel, z, z
    )
    bracket = np.einsum("il...,ljm...->ijm...", z, dz) - np.einsum(
        "jl...,lim...->ijm...", z, dz
    )
    scale = max(1.0, np.max(np.abs(cov)))
    back = np.einsum("ijk...,km...->ijm...", SPHERE.g_structure, z)
    assert np.max(np.abs(back - cov)) <= 1e-12 * scale
    back = np.einsum("ijk...,km...->ijm...", SPHERE.l_structure, z)
    assert np.max(np.abs(back - bracket)) <= 1e-12 * scale


def test_structure_functions_torsion_free():
    g_struct, l_struct = structure_functions(SPHERE, SPHERE_G)
    skew = g_struct - np.swapaxes(g_struct, 0, 1)
    scale = max(1.0, np.max(np.abs(g_struct)))
    assert np.max(np.abs(skew - l_struct)) <= 1e-12 * scale


def test_generator_norm_all_tuples_matches_multiindex_route():
    bundle = magnetic_example_bundle(GRID)
    gens = build_generators(identity_embedding(GRID), FLAT)
    u = random_section(GRID, 0, 2, seeded_rng(23, "gen-norm"))
    got = generator_sobolev_norm(u, 2, 2, gens, bundle, FLAT, all_tuples=True)
    total = lp_norm(u, 2, FLAT, bundle) ** 2
    for idx in [(1,), (2,), (1, 1), (1, 2), (2, 1), (2, 2)]:
        total += lp_norm(multiindex_derivative(u, idx, bundle, FLAT), 2, FLAT, bundle) ** 2
    assert got == pytest.approx(np.sqrt(total), rel=1e-12)


def test_generator_norm_sphere_ratio():
    # an isometric frame reproduces the first-order norm exactly at p = 2
    # and within the frame cardinality at p = inf
    bundle = BundleSpec(GRID, 1)
    sec = None
    for trial in range(50):
        bump = random_scalar_bump(GRID.box, seeded_rng(29, "ratio", trial), 0.2)
        sec = TensorSection(GRID, 0, bump.sample(GRID)[None], 1)
        gen = generator_sobolev_norm(sec, 1, 2, SPHERE, bundle, SPHERE_G)
        sob = sobolev_norm(tower(sec, bundle, SPHERE_G, 1), 2, bundle, SPHERE_G)
        assert gen == pytest.approx(sob, rel=1e-8)
    gen = generator_sobolev_norm(sec, 1, np.inf, SPHERE, bundle, SPHERE_G)
    sob = sobolev_norm(tower(sec, bundle, SPHERE_G, 1), np.inf, bundle, SPHERE_G)
    assert 0.5 <= gen / sob <= 1.0 + 1e-12


def test_generator_norm_tuple_variants_and_curvature_gap():
    bundle = magnetic_example_bundle(GRID)
    gens = build_generators(identity_embedding(GRID), FLAT)
    u = random_section(GRID, 0, 2, seeded_rng(31, "gap"))
    ordered = generator_sobolev_norm(u, 2, 2, gens, bundle, FLAT)
    everything = generator_sobolev_norm(u, 2, 2, gens, bundle, FLAT, all_tuples=True)
    assert everything >= ordered
    # swapping the two labels moves the norm by at most the curvature term
    def chain(first, second):
        v = covariant_derivative(u, bundle, FLAT)
        v = contract_with_vector(v, gens.z[second - 1])
        v = contract_with_vector(covariant_derivative(v, bundle, FLAT), gens.z[first - 1])
        return v

    r = curvature(bundle).values[0, 1]
    r12 = TensorSection(GRID, 0, np.einsum("ab...,b...->a...", r, u.values), 2)
    gap = abs(
        lp_norm(chain(1, 2), 2, FLAT, bundle) - lp_norm(chain(2, 1), 2, FLAT, bundle)
    )
    assert gap <= lp_norm(r12, 2, FLAT, bundle) + 1e-8


def test_graph_embedding_round_trip():
    x, y = GRID.coords
    heights = 0.3 * np.sin(x) * np.cos(y)
    emb, metric = graph_embedding(GRID, heights)
    gens = build_generators(emb, metric)
    assert reconstruction_defect(gens) <= 1e-12
    u = random_section(GRID, 0, 1, seeded_rng(37, "graph"))
    bundle = BundleSpec(GRID, 1)
    direct = covariant_derivative(u, bundle, metric)
    framed = nabla_via_generators(u, gens, bundle, metric)
    scale = np.max(np.abs(direct.values))
    assert np.max(np.abs(framed.values - direct.values)) <= 1e-10 * scale
