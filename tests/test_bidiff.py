import tracemalloc

import numpy as np
import pytest

from nabla_calc import operators
from nabla_calc.bidiff import (
    BidiffSpec,
    _gradient_adjoint,
    assemble_divergence_form,
    bidiff_from_ops,
    dirichlet_form,
    eval_bidiff,
    l2_pairing,
    weighted_pairings,
)
from nabla_calc.bundles import (
    BundleSpec,
    TensorSection,
    induced_tensor_bundle,
    magnetic_example_bundle,
)
from nabla_calc.calculus import covariant_derivative, divergence, tower
from nabla_calc.checks import _ladder_form
from nabla_calc.errors import (
    ChartMismatch,
    NonadmissibleWeight,
    ShapeMismatch,
    SupportViolation,
)
from nabla_calc.generators import build_generators, identity_embedding
from nabla_calc.geometry import MetricField, WeightPair
from nabla_calc.grid import ChartGrid
from nabla_calc.norms import lp_norm
from nabla_calc.operators import (
    NablaOpSpec,
    _add_ladders,
    _scaled,
    apply_nabla_op,
    compose,
    gradient_op,
    identity_op,
    multiplication_op,
)
from nabla_calc.scenarios import (
    build_context,
    builtin_scenario,
    parse_scenario,
    run_scenario,
)
from nabla_calc.sections import (
    random_bump_section,
    random_scalar_bump,
    random_section,
    seeded_rng,
)

GRID = ChartGrid([(-1, 1), (-1, 1)], (97, 97))
FLAT = MetricField.flat(GRID)
SCALAR = BundleSpec(GRID, 1)
MAGNET = magnetic_example_bundle(GRID)


def _eye_coefficient(dim, grid=GRID):
    """The dim x dim identity on every point of the grid."""
    eye = np.eye(dim, dtype=complex).reshape((dim, dim) + (1,) * grid.dim)
    return np.broadcast_to(eye, (dim, dim) + grid.shape)


def _towers(spec, u, w):
    """The towers of u and w to the form's half order."""
    m = spec.half_order
    return tower(u, spec.source, spec.metric, m), tower(w, spec.cosource, spec.metric, m)


def _apply(op, u):
    """The ladder op applied to the tower of u to its order."""
    return apply_nabla_op(op, tower(u, op.source, op.metric, op.order))


def _dirichlet_spec(bundle, metric, grid=None):
    g = bundle.grid if grid is None else grid
    n = g.dim
    d = bundle.fiber_dim
    a11 = _eye_coefficient(n * d, g)
    return BidiffSpec(bundle, bundle, metric, 1, {(1, 1): a11})


def test_eval_order_zero_is_plain_pairing():
    rng = seeded_rng(11, "bd-plain")
    u = random_section(GRID, 0, 2, rng)
    w = random_section(GRID, 0, 2, rng)
    spec = BidiffSpec(MAGNET, MAGNET, FLAT, 0, {(0, 0): _eye_coefficient(2)})
    got = eval_bidiff(spec, *_towers(spec, u, w))
    want = np.einsum("a...,a...->...", u.values, np.conj(w.values))
    assert np.allclose(got, want, atol=1e-14)


def test_eval_flat_dirichlet_integrand():
    rng = seeded_rng(11, "bd-grad")
    u = random_section(GRID, 0, 1, rng)
    w = random_section(GRID, 0, 1, rng)
    spec = _dirichlet_spec(SCALAR, FLAT)
    got = eval_bidiff(spec, *_towers(spec, u, w))
    want = np.zeros(GRID.shape, dtype=complex)
    for k in range(2):
        want += GRID.diff(u.values[0], axis=k) * np.conj(
            GRID.diff(w.values[0], axis=k)
        )
    assert np.allclose(got, want, atol=1e-13)


def test_eval_checks_support():
    ones = TensorSection(GRID, 0, np.ones((1,) + GRID.shape, dtype=complex), 1)
    spec = _dirichlet_spec(SCALAR, FLAT)
    with pytest.raises(SupportViolation):
        eval_bidiff(spec, *_towers(spec, ones, ones))


def test_eval_and_spec_name_what_they_reject():
    spec = _dirichlet_spec(SCALAR, FLAT)
    u = random_section(GRID, 0, 1, seeded_rng(11, "bd-args"))
    pair = random_section(GRID, 0, 2, seeded_rng(11, "bd-args-pair"))
    other = ChartGrid([(-1, 1), (-1, 1)], (65, 65))
    off = random_section(other, 0, 1, seeded_rng(11, "bd-args-off"))
    us = tower(u, SCALAR, FLAT, 1)
    offs = tower(off, BundleSpec(other, 1), MetricField.flat(other), 1)
    pairs = tower(pair, MAGNET, FLAT, 1)
    with pytest.raises(ChartMismatch, match="^form and sections live on different grids$"):
        eval_bidiff(spec, us, offs)
    with pytest.raises(ShapeMismatch, match="^first argument must be rank 0 with fiber 1, "):
        eval_bidiff(spec, pairs, us)
    with pytest.raises(ShapeMismatch, match="^second argument must be rank 0 with fiber 1, "):
        eval_bidiff(spec, us, pairs)
    short = "^form and sections need a tower of depth 1, got 0$"
    with pytest.raises(ShapeMismatch, match=short):
        eval_bidiff(spec, us[:1], us)
    with pytest.raises(ChartMismatch, match="^form ingredients live on different grids$"):
        BidiffSpec(SCALAR, BundleSpec(other, 1), FLAT, 0, {})


def test_dirichlet_form_is_sesquilinear():
    rng = seeded_rng(11, "bd-sesq")
    u = random_section(GRID, 0, 2, rng)
    w = random_section(GRID, 0, 2, rng)
    spec = BidiffSpec(MAGNET, MAGNET, FLAT, 0, {(0, 0): _eye_coefficient(2)})
    base = dirichlet_form(spec, *_towers(spec, u, w))
    lam = 0.7 - 1.3j
    u_lam = TensorSection(GRID, 0, u.values * lam, 2)
    w_lam = TensorSection(GRID, 0, w.values * lam, 2)
    lam_u = dirichlet_form(spec, *_towers(spec, u_lam, w))
    assert lam_u == pytest.approx(lam * base, rel=1e-12)
    assert dirichlet_form(spec, *_towers(spec, u, w_lam)) == pytest.approx(
        np.conj(lam) * base, rel=1e-12
    )


def test_from_ops_identity_gives_fiber_metric():
    h = np.array([[2.0, 0.3], [0.3, 1.0]])
    bundle = BundleSpec(GRID, 2, fiber_metric=h[:, :, None, None])
    spec = bidiff_from_ops(identity_op(bundle, FLAT), identity_op(bundle, FLAT))
    assert set(spec.coefficients) == {(0, 0)}
    assert spec.coefficients[(0, 0)].shape == (2, 2, 1, 1)
    assert np.allclose(spec.coefficients[(0, 0)], h.T[:, :, None, None], atol=1e-14)


def test_from_ops_gradients_give_inverse_metric():
    x, y = GRID.coords
    metric = MetricField.conformal(GRID, 0.1 * x - 0.07 * y)
    bundle = BundleSpec(GRID, 1)
    spec = bidiff_from_ops(gradient_op(bundle, metric), gradient_op(bundle, metric))
    assert set(spec.coefficients) == {(1, 1)}
    assert np.allclose(spec.coefficients[(1, 1)], metric.inv, atol=1e-12)


def test_from_ops_accepts_matrix_and_field_fiber_metrics():
    grad = gradient_op(SCALAR, FLAT)
    assert grad.target.fiber_metric.shape == (2, 2, 1, 1)
    # a constant field given on the full grid is stored at one point
    field_metric = BundleSpec(GRID, 2, fiber_metric=_eye_coefficient(2))
    assert field_metric.fiber_metric.shape == (2, 2, 1, 1)
    spec = bidiff_from_ops(grad, identity_op(field_metric, FLAT))
    assert set(spec.coefficients) == {(1, 0)}


def test_from_ops_two_route_evaluation():
    first = gradient_op(MAGNET, FLAT)
    second = compose(gradient_op(first.target, FLAT), first)
    partner = gradient_op(first.target, FLAT)
    spec = bidiff_from_ops(second, partner)
    assert set(spec.coefficients) == {(2, 1)}
    rng = seeded_rng(11, "bd-two")
    u = random_section(GRID, 0, 2, rng)
    w = random_section(GRID, 0, 4, rng)
    got = eval_bidiff(spec, *_towers(spec, u, w))
    pu = covariant_derivative(covariant_derivative(u, MAGNET, FLAT), MAGNET, FLAT)
    qw = covariant_derivative(w, partner.source, FLAT)
    h2 = second.target.fiber_metric
    want = np.einsum(
        "ab...,a...,b...->...",
        h2,
        pu.values.reshape((-1,) + GRID.shape),
        np.conj(qw.values.reshape((-1,) + GRID.shape)),
    )
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_dirichlet_disjoint_supports_vanishes():
    rng = seeded_rng(11, "bd-disjoint")
    left = random_scalar_bump(GRID.box, rng, margin_width=0.08)
    right = random_scalar_bump(GRID.box, rng, margin_width=0.08)
    x = GRID.coords[0]
    u_vals = np.where(x < -0.05, left.sample(GRID), 0.0)
    w_vals = np.where(x > 0.05, right.sample(GRID), 0.0)
    u = TensorSection(GRID, 0, u_vals[None], 1)
    w = TensorSection(GRID, 0, w_vals[None], 1)
    spec = BidiffSpec(SCALAR, SCALAR, FLAT, 0, {(0, 0): _eye_coefficient(1)})
    assert dirichlet_form(spec, *_towers(spec, u, w)) == 0.0


def test_dirichlet_gaussian_mass():
    x, y = GRID.coords
    sigma = 0.35
    values = np.exp(-(x**2 + y**2) / sigma**2)[None].astype(complex)
    u = TensorSection(GRID, 0, values, 1)
    spec = BidiffSpec(SCALAR, SCALAR, FLAT, 0, {(0, 0): _eye_coefficient(1)})
    got = dirichlet_form(spec, *_towers(spec, u, u))
    want = np.pi * sigma**2 / 2.0
    assert got.real == pytest.approx(want, rel=1e-6)
    assert abs(got.imag) <= 1e-12 * want


def test_dirichlet_gradient_square_against_analytic_partials():
    rng = seeded_rng(11, "bd-gradsq")
    bump = random_bump_section(GRID, 0, 1, rng)
    u = bump.section(GRID)
    spec = _dirichlet_spec(SCALAR, FLAT)
    got = dirichlet_form(spec, *_towers(spec, u, u))
    density = np.zeros(GRID.shape)
    for orders in ((1, 0), (0, 1)):
        dk = bump.partial(GRID, orders)[0]
        density += np.abs(dk) ** 2
    want = GRID.integrate(density)
    # the form differentiates with the grid stencil, so the analytic value
    # is matched to the truncation error of the bump's fifth derivatives
    assert got.real == pytest.approx(want, rel=1e-3)
    du = covariant_derivative(u, SCALAR, FLAT)
    same_quadrature = lp_norm(du, 2.0, FLAT, SCALAR) ** 2
    assert got.real == pytest.approx(same_quadrature, rel=1e-12)


def test_hermitian_symmetry_for_adjoint_shaped_coefficients():
    rng = seeded_rng(11, "bd-herm")
    raw = (
        rng.standard_normal(GRID.shape + (2, 2))
        + 1j * rng.standard_normal(GRID.shape + (2, 2))
    )
    raw = np.moveaxis(raw, (-2, -1), (0, 1))  # the same draws, grid-last
    a00 = raw + np.conj(np.swapaxes(raw, 0, 1))
    a11 = _eye_coefficient(4)
    spec = BidiffSpec(MAGNET, MAGNET, FLAT, 1, {(0, 0): a00, (1, 1): a11})
    u = random_section(GRID, 0, 2, rng)
    w = random_section(GRID, 0, 2, rng)
    one = dirichlet_form(spec, *_towers(spec, u, w))
    two = np.conj(dirichlet_form(spec, *_towers(spec, w, u)))
    assert abs(one - two) <= 1e-12 * abs(one)


def test_coercivity_witness():
    rng = seeded_rng(11, "bd-coercive")
    u = random_section(GRID, 0, 1, rng)
    a11 = _eye_coefficient(2)
    spec = BidiffSpec(
        SCALAR, SCALAR, FLAT, 1, {(0, 0): _eye_coefficient(1), (1, 1): a11}
    )
    mass = lp_norm(u, 2.0, FLAT, SCALAR) ** 2
    assert dirichlet_form(spec, *_towers(spec, u, u)).real >= mass * (1.0 - 1e-12)


def test_spec_validation():
    with pytest.raises(ShapeMismatch):
        BidiffSpec(SCALAR, SCALAR, FLAT, 0, {(1, 0): np.zeros((1, 2) + GRID.shape)})
    with pytest.raises(ShapeMismatch):
        BidiffSpec(SCALAR, SCALAR, FLAT, 1, {(1, 1): np.zeros((1, 1) + GRID.shape)})


def test_assemble_identity_form():
    gens = build_generators(identity_embedding(GRID), FLAT)
    spec = BidiffSpec(SCALAR, SCALAR, FLAT, 0, {(0, 0): _eye_coefficient(1)})
    op = assemble_divergence_form(spec, gens, SCALAR, FLAT)
    assert op.order == 0
    rng = seeded_rng(11, "bd-asm0")
    u = random_section(GRID, 0, 1, rng)
    w = random_section(GRID, 0, 1, rng)
    assert np.allclose(_apply(op, u).values, u.values, atol=1e-14)
    pair = l2_pairing(u, w, SCALAR, FLAT)
    form = dirichlet_form(spec, *_towers(spec, u, w))
    assert pair == pytest.approx(form, rel=1e-12)


def test_assemble_flat_laplacian_is_exact():
    gens = build_generators(identity_embedding(GRID), FLAT)
    spec = _dirichlet_spec(SCALAR, FLAT)
    op = assemble_divergence_form(spec, gens, SCALAR, FLAT)
    assert op.order == 2
    rng = seeded_rng(11, "bd-lap")
    u = random_section(GRID, 0, 1, rng)
    got = _apply(op, u)
    want = np.zeros_like(u.values)
    for k in range(2):
        want[0] -= GRID.diff(GRID.diff(u.values[0], axis=k), axis=k)
    scale = np.max(np.abs(want))
    assert np.max(np.abs(got.values - want)) <= 1e-12 * scale
    w = random_section(GRID, 0, 1, rng)
    weak = l2_pairing(got, w, SCALAR, FLAT)
    form = dirichlet_form(spec, *_towers(spec, u, w))
    assert weak == pytest.approx(form, rel=1e-11)


def test_assemble_magnetic_weak_duality():
    gens = build_generators(identity_embedding(GRID), FLAT)
    spec = _dirichlet_spec(MAGNET, FLAT)
    op = assemble_divergence_form(spec, gens, MAGNET, FLAT)
    rng = seeded_rng(11, "bd-weak")
    for trial in range(5):
        u = random_section(GRID, 0, 2, seeded_rng(11, "bd-weak-u", trial))
        w = random_section(GRID, 0, 2, seeded_rng(11, "bd-weak-w", trial))
        weak = l2_pairing(_apply(op, u), w, MAGNET, FLAT)
        form = dirichlet_form(spec, *_towers(spec, u, w))
        assert abs(weak - form) <= 1e-11 * abs(form)


def test_assemble_transpose_probe_oracle():
    grid = ChartGrid([(-1, 1), (-1, 1)], (49, 49))
    flat = MetricField.flat(grid)
    scalar = BundleSpec(grid, 1)
    gens = build_generators(identity_embedding(grid), flat)
    spec = _dirichlet_spec(scalar, flat, grid=grid)
    op = assemble_divergence_form(spec, gens, scalar, flat)
    rng = seeded_rng(11, "bd-probe")
    u = random_section(grid, 0, 1, rng)
    pu = _apply(op, u)
    weights = grid.quad_weights()
    scale = np.max(np.abs(pu.values))
    for _ in range(10):
        ix = int(rng.integers(8, grid.shape[0] - 8))
        iy = int(rng.integers(8, grid.shape[1] - 8))
        delta = np.zeros((1,) + grid.shape, dtype=complex)
        delta[0, ix, iy] = 1.0
        probe = TensorSection(grid, 0, delta, 1)
        probe = dirichlet_form(spec, *_towers(spec, u, probe))
        assert abs(probe / weights[ix, iy] - pu.values[0, ix, iy]) <= 1e-10 * scale


def _two_picture_residual(pairings):
    """The weighted-duality check's residual between the two pictures."""
    weighted, rescaled = pairings
    return abs(weighted - rescaled) / max(abs(weighted), abs(rescaled), 1e-300)


def test_weighted_duality_trivial_weight():
    gens = build_generators(identity_embedding(GRID), FLAT)
    ones = np.ones(GRID.shape)
    weight = WeightPair(GRID, ones, ones, admissible=True)
    spec = _dirichlet_spec(SCALAR, FLAT)
    rng = seeded_rng(11, "bd-wtriv")
    u = random_section(GRID, 0, 1, rng)
    w = random_section(GRID, 0, 1, rng)
    pairings = weighted_pairings(spec, weight)(*_towers(spec, u, w))
    assert _two_picture_residual(pairings) <= 1e-12
    op = assemble_divergence_form(spec, gens, SCALAR, FLAT)
    weak = l2_pairing(_apply(op, u), w, SCALAR, FLAT)
    assert abs(weak - pairings[0]) / max(abs(pairings[0]), 1e-300) <= 1e-11


def test_weighted_duality_order_zero_is_change_of_measure():
    x1, x2 = np.broadcast_arrays(*GRID.coords)
    weight = WeightPair(GRID, 1.0 / (2.0 + x1), np.exp(0.3 * x2), admissible=True)
    spec = BidiffSpec(SCALAR, SCALAR, FLAT, 0, {(0, 0): _eye_coefficient(1)})
    rng = seeded_rng(11, "bd-w0")
    u = random_section(GRID, 0, 1, rng)
    w = random_section(GRID, 0, 1, rng)
    weighted, rescaled = weighted_pairings(spec, weight)(*_towers(spec, u, w))
    assert _two_picture_residual((weighted, rescaled)) <= 1e-12
    assert weighted / rescaled == pytest.approx(1.0, abs=1e-12)


def test_weighted_duality_first_order_two_route():
    x1, x2 = np.broadcast_arrays(*GRID.coords)
    weight = WeightPair(GRID, 1.0 / (2.0 + x1), np.exp(0.3 * x2), admissible=True)
    spec = _dirichlet_spec(SCALAR, FLAT)
    rng = seeded_rng(11, "bd-w1")
    u = random_section(GRID, 0, 1, rng)
    w = random_section(GRID, 0, 1, rng)
    weighted, rescaled = weighted_pairings(spec, weight)(*_towers(spec, u, w))
    assert weighted / rescaled == pytest.approx(1.0, abs=1e-4)


def test_weighted_duality_rejects_undeclared_weight():
    x1, _ = np.broadcast_arrays(*GRID.coords)
    weight = WeightPair(GRID, 1.0 / (2.0 + x1), np.ones(GRID.shape))
    spec = _dirichlet_spec(SCALAR, FLAT)
    with pytest.raises(NonadmissibleWeight):
        weighted_pairings(spec, weight)


def test_ladder_form_assembly_differentiates_no_zero_level(monkeypatch):
    # the flat-operators setting (magnetic bundle, identity frame) on a
    # coarser chart: which levels are zero does not depend on the spacing
    cfg = builtin_scenario("flat-operators")
    cfg["chart"]["h"] = 2 / 32
    ctx = build_context(parse_scenario(cfg))
    spec = _ladder_form(ctx, 2)
    inputs = []
    hom_derivative = operators._hom_derivative

    def recording(a, *args):
        inputs.append(bool(np.any(a)))
        return hom_derivative(a, *args)

    monkeypatch.setattr(operators, "_hom_derivative", recording)
    assemble_divergence_form(spec, ctx.gens, spec.cosource, ctx.metric)
    assert inputs and all(inputs)


def test_ladder_form_assembly_holds_only_the_operator():
    # nothing the assembly builds on the way outlives it: no bundle keeps
    # a memo of the induced bundles or of their potentials
    cfg = builtin_scenario("flat-operators")
    cfg["chart"]["h"] = 2 / 64
    ctx = build_context(parse_scenario(cfg))
    spec = _ladder_form(ctx, 2)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        op = assemble_divergence_form(spec, ctx.gens, spec.cosource, ctx.metric)
        held = tracemalloc.get_traced_memory()[0] - start
    finally:
        tracemalloc.stop()
    coefficient_bytes = sum(
        np.broadcast_to(a, a.shape[:2] + ctx.grid.shape).nbytes
        for a in op.coefficients
        if a is not None
    )
    assert held <= 1.5 * coefficient_bytes


def test_ladder_form_assembly_peak_is_bounded_by_its_operator():
    # the last product-rule step of each compose contracts its lifts with
    # the top coefficient instead of storing I_n (x) a, and the Hom
    # derivative fills one block: the assembly peaks at about five times
    # the bytes of the operator it returns (seven with dense lifts)
    cfg = builtin_scenario("flat-operators")
    cfg["chart"]["h"] = 2 / 64
    ctx = build_context(parse_scenario(cfg))
    spec = _ladder_form(ctx, 2)
    tracemalloc.start()
    try:
        op = assemble_divergence_form(spec, ctx.gens, spec.cosource, ctx.metric)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    coefficient_bytes = sum(
        np.broadcast_to(a, a.shape[:2] + ctx.grid.shape).nbytes
        for a in op.coefficients
        if a is not None
    )
    assert peak <= 5.5 * coefficient_bytes


def _gradient_adjoint_reference(bundle, metric, gens):
    """The adjoint of grad summed frame pair by frame pair.

    Each pair (k, l) with c_kl != 0 contributes -(grad_{Z_l} + div Z_l)
    c_kl i_{Z_k}, where i_{Z_k} extracts the Z_k slot of a rank-1 section.
    """
    grid = metric.grid
    d = bundle.fiber_dim
    rank_one = induced_tensor_bundle(bundle, metric, 1)
    eye = _eye_coefficient(d, grid)
    c = np.einsum("ab...,ka...,lb...->kl...", metric.inv, gens.xi, gens.xi)

    def extract(k):
        return np.einsum(
            "y...,fe...->fye...", gens.z[k].astype(complex), eye
        ).reshape((d, grid.dim * d) + grid.shape)

    total = None
    for l in range(gens.n_gens):
        div_l = divergence(gens.z[l], metric)
        direction = NablaOpSpec(bundle, bundle, metric, [None, extract(l)])
        for k in range(gens.n_gens):
            scaled = c[k, l] * extract(k)
            if not np.any(scaled):
                continue
            pick = multiplication_op(scaled, rank_one, bundle, metric)
            total = _add_ladders(total, _scaled(compose(direction, pick), -1.0))
            zero_order = multiplication_op(-div_l * scaled, rank_one, bundle, metric)
            total = _add_ladders(total, zero_order)
    return total


def _random_embedding_context():
    """Conformal metric and four non-orthogonal generators (c_kl != delta_kl)."""
    return build_context(parse_scenario(builtin_scenario("random-embedding")))


def test_gradient_adjoint_matches_pairwise_reference():
    ctx = _random_embedding_context()
    gens = ctx.gens
    c = np.einsum("ab...,ka...,lb...->kl...", ctx.metric.inv, gens.xi, gens.xi)
    eye = np.eye(4).reshape(4, 4, 1, 1)
    assert gens.n_gens == 4 and np.max(np.abs(c - eye)) > 0.1
    rank_one = induced_tensor_bundle(ctx.bundle, ctx.metric, 1)
    cases = ((ctx.bundle, ctx.metric, gens), (rank_one, ctx.metric, gens))
    flat_gens = build_generators(identity_embedding(GRID), FLAT)
    for bundle, metric, frame in cases + ((MAGNET, FLAT, flat_gens),):
        got = _gradient_adjoint(bundle, metric, frame)
        want = _gradient_adjoint_reference(bundle, metric, frame)
        assert len(got.coefficients) == len(want.coefficients) == 2
        # the sum over k moves inside the product rule, so the order of the
        # floating-point sums changes; level 0 is only the cancellation
        # residue of O(1) terms (Z_l (x) W_l sums to the inverse metric), so
        # both levels are measured against the scale of the whole ladder
        scale = max(np.max(np.abs(w)) for w in want.coefficients if w is not None)
        for g, w in zip(got.coefficients, want.coefficients):
            g = 0.0 if g is None else g  # None is the zero level
            w = 0.0 if w is None else w
            assert np.max(np.abs(g - w)) <= 1e-13 * scale
            # the identity frame on a flat chart has c_kl = delta_kl exactly
            assert frame is not flat_gens or np.array_equal(g, w)


def test_flat_identity_frame_adjoint_has_no_zero_order_level():
    # div Z_l vanishes for the identity frame on a flat chart, so the
    # zero-order term -div Z_l i_{W_l} is the zero level
    gens = build_generators(identity_embedding(GRID), FLAT)
    adjoint = _gradient_adjoint(MAGNET, FLAT, gens)
    assert adjoint.coefficients[0] is None
    assert adjoint.coefficients[1] is not None


def test_flat_ladder_forms_assemble_without_odd_levels():
    cfg = builtin_scenario("flat-operators")
    cfg["chart"]["h"] = 2 / 32
    ctx = build_context(parse_scenario(cfg))
    for m, want in ((1, [False, True, False]), (2, [False, True, False, True, False])):
        spec = _ladder_form(ctx, m)
        op = assemble_divergence_form(spec, ctx.gens, spec.cosource, ctx.metric)
        assert [a is None for a in op.coefficients] == want


def test_gradient_adjoint_differentiates_once_per_generator(monkeypatch):
    ctx = _random_embedding_context()
    calls = []
    hom_derivative = operators._hom_derivative

    def counting(*args):
        calls.append(args[0].shape)
        return hom_derivative(*args)

    monkeypatch.setattr(operators, "_hom_derivative", counting)
    _gradient_adjoint(ctx.bundle, ctx.metric, ctx.gens)
    assert len(calls) == ctx.gens.n_gens == 4


def test_divergence_duality_on_a_curved_non_orthogonal_frame():
    # every other assembly test uses the identity frame on a flat metric;
    # here W_l = sum_k c_kl Z_k mixes the four generators of a conformal chart
    cfg = builtin_scenario("random-embedding")
    cfg["checks"] = [
        {
            "check": "divergence-duality",
            "tolerance": 1e-5,
            "pairs": 3,
            "half_orders": [1, 2],
        }
    ]
    (row,) = run_scenario(parse_scenario(cfg)).checks
    assert row.passed, f"measured={row.measured}"
    assert 0.0 < row.measured <= 1e-5
