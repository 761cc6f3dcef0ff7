import math
import tracemalloc

import numpy as np
import pytest

from nabla_calc import operators
from nabla_calc.bundles import (
    BundleSpec,
    TensorSection,
    induced_tensor_bundle,
    magnetic_example_bundle,
    pointwise_kron,
)
from nabla_calc.calculus import (
    covariant_derivative,
    curvature,
    multiindex_derivative,
    tower,
)
from nabla_calc.checks import CHECKS
from nabla_calc.errors import ChartMismatch, ShapeMismatch
from nabla_calc.generators import (
    GeneratorSystem,
    build_generators,
    identity_embedding,
    sphere_ambient_embedding,
)
from nabla_calc.geometry import MetricField
from nabla_calc.grid import ChartGrid
from nabla_calc.norms import multiplication_constant, sobolev_norm
from nabla_calc.operators import (
    MixedOpSpec,
    MixedTerm,
    NablaOpSpec,
    _add_ladders,
    _hom_derivative,
    _scaled,
    apply_mixed_op,
    apply_nabla_op,
    coefficient_infty_norm,
    compose,
    directional_op,
    gradient_op,
    hom_infty_norm,
    identity_op,
    mapping_constant,
    mixed_to_nabla,
    multiplication_op,
    nabla_to_mixed,
    reorder_generators,
)
from nabla_calc.scenarios import (
    CheckContext,
    build_context,
    builtin_scenario,
    parse_scenario,
)
from nabla_calc.sections import (
    random_bump_section,
    random_section,
    random_trig_field,
    random_vector_field,
    seeded_rng,
)

from dense_reference import dense_bundle, dense_hom_sup

GRID = ChartGrid([(-1, 1), (-1, 1)], (97, 97))
FLAT = MetricField.flat(GRID)
SCALAR = BundleSpec(GRID, 1)
MAGNET = magnetic_example_bundle(GRID)
# the coordinate frame: Z_1 = e_1 and Z_2 = e_2
COORD = build_generators(identity_embedding(GRID), FLAT)


def _basis_field(grid, axis):
    e = np.zeros((grid.dim,) + grid.shape)
    e[axis] = 1.0
    return e


def _frame(fields, grid=GRID):
    """Any list of vector fields as a generator system; the mixed-operator
    functions read only its frame, so the coframe is left zero."""
    z = np.reshape(fields, (-1, grid.dim) + grid.shape)
    return GeneratorSystem(grid, z, np.zeros_like(z))


def _apply(op, u):
    """The ladder op applied to the tower of u to its order."""
    return apply_nabla_op(op, tower(u, op.source, op.metric, op.order))


def _eye(d, grid=GRID):
    """The d x d identity on every point of the grid."""
    eye = np.eye(d, dtype=complex).reshape((d, d) + (1,) * grid.dim)
    return np.broadcast_to(eye, (d, d) + grid.shape)


def _flat_laplacian_ladder(grid, fiber_dim):
    n = grid.dim
    d = fiber_dim
    entries = [
        np.zeros((d, d) + grid.shape, dtype=complex),
        np.zeros((d, n * d) + grid.shape, dtype=complex),
        np.zeros((d, n * n * d) + grid.shape, dtype=complex),
    ]
    for k in range(n):
        for e in range(d):
            entries[2][e, (k * n + k) * d + e] = 1.0
    return entries


def test_identity_op_is_identity():
    u = random_section(GRID, 0, 2, seeded_rng(7, "op-id"))
    out = _apply(identity_op(MAGNET, FLAT), u)
    assert np.array_equal(out.values, u.values)


def test_multiplication_op_matches_pointwise_product():
    rng = seeded_rng(7, "op-mult")
    a = random_trig_field(2, (2, 2), rng).sample(GRID)
    u = random_section(GRID, 0, 2, rng)
    out = _apply(multiplication_op(a, MAGNET, MAGNET, FLAT), u)
    want = np.einsum("fe...,e...->f...", a, u.values)
    assert np.allclose(out.values, want, atol=1e-14)


def test_gradient_op_matches_covariant_derivative():
    u = random_section(GRID, 0, 2, seeded_rng(7, "op-grad"))
    out = _apply(gradient_op(MAGNET, FLAT), u)
    want = covariant_derivative(u, MAGNET, FLAT).values.reshape((-1,) + GRID.shape)
    assert np.array_equal(out.values, want)


def test_flat_laplacian_against_direct_differences():
    u = random_section(GRID, 0, 1, seeded_rng(7, "op-lap"))
    spec = NablaOpSpec(SCALAR, SCALAR, FLAT, _flat_laplacian_ladder(GRID, 1))
    out = _apply(spec, u)
    want = np.zeros_like(u.values)
    for k in range(2):
        want[0] += GRID.diff(GRID.diff(u.values[0], axis=k), axis=k)
    scale = np.max(np.abs(want))
    assert np.max(np.abs(out.values - want)) <= 1e-13 * scale


def test_first_order_extraction_on_magnetic_bundle():
    u = random_section(GRID, 0, 2, seeded_rng(7, "op-first"))
    a1 = np.zeros((2, 4) + GRID.shape, dtype=complex)
    a1[0, 2] = 1.0
    a1[1, 3] = 1.0
    zero = np.zeros((2, 2) + GRID.shape, dtype=complex)
    spec = NablaOpSpec(MAGNET, MAGNET, FLAT, [zero, a1])
    out = _apply(spec, u)
    want = multiindex_derivative(u, (2,), MAGNET, FLAT)
    assert np.allclose(out.values, want.values, atol=1e-14)


def test_ladder_levels_are_checked_against_the_bundles():
    with pytest.raises(ShapeMismatch):
        NablaOpSpec(MAGNET, SCALAR, FLAT, [])
    zero0 = np.zeros((1, 2) + GRID.shape, dtype=complex)
    with pytest.raises(ShapeMismatch):
        NablaOpSpec(MAGNET, SCALAR, FLAT, [zero0, np.zeros((1, 2) + GRID.shape)])
    with pytest.raises(ShapeMismatch):
        NablaOpSpec(MAGNET, SCALAR, FLAT, [np.zeros((2, 2) + GRID.shape)])


def test_ladder_given_as_one_array_stack():
    with pytest.raises(ShapeMismatch):
        NablaOpSpec(MAGNET, SCALAR, FLAT, np.zeros((0, 1, 2) + GRID.shape))
    level = np.arange(math.prod(GRID.shape) * 2).reshape((1, 2) + GRID.shape) * (1 + 1j)
    stacked = NablaOpSpec(MAGNET, SCALAR, FLAT, level[None])
    listed = NablaOpSpec(MAGNET, SCALAR, FLAT, [level])
    assert stacked.order == listed.order == 0
    assert np.array_equal(stacked.coefficients[0], listed.coefficients[0])


def test_absent_ladder_levels_stay_none():
    a2 = np.ones((1, 8) + GRID.shape, dtype=complex)
    spec = NablaOpSpec(MAGNET, SCALAR, FLAT, [None, None, a2])
    assert spec.order == 2
    assert spec.coefficients[:2] == [None, None]
    assert np.array_equal(np.broadcast_to(spec.coefficients[2], a2.shape), a2)
    with pytest.raises(ShapeMismatch):
        NablaOpSpec(MAGNET, SCALAR, FLAT, [None, np.zeros((1, 2) + GRID.shape)])


def test_apply_rejects_wrong_shape_and_grid():
    other = ChartGrid([(-1, 1), (-1, 1)], (65, 65))
    u = random_section(other, 0, 2, seeded_rng(7, "op-bad"))
    with pytest.raises(ChartMismatch, match="^operator and section live on different grids$"):
        _apply(identity_op(MAGNET, FLAT), u)
    v = random_section(GRID, 0, 3, seeded_rng(7, "op-bad-fiber"))
    shape = "^operator eats rank-0 sections with fiber 2, got rank 0 with fiber 3$"
    with pytest.raises(ShapeMismatch, match=shape):
        _apply(identity_op(MAGNET, FLAT), v)
    short = "^operator and section need a tower of depth 1, got 0$"
    w = random_section(GRID, 0, 2, seeded_rng(7, "op-short"))
    with pytest.raises(ShapeMismatch, match=short):
        apply_nabla_op(gradient_op(MAGNET, FLAT), [w])
    mixed = MixedOpSpec(MAGNET, MAGNET, FLAT, [MixedTerm(np.ones((2, 2) + GRID.shape), [])])
    with pytest.raises(ShapeMismatch, match=shape):
        apply_mixed_op(mixed, v, COORD)
    other_gens = build_generators(identity_embedding(other), MetricField.flat(other))
    frames = "^generator system and operator live on different grids$"
    with pytest.raises(ChartMismatch, match=frames):
        apply_mixed_op(mixed, v, other_gens)
    with pytest.raises(ChartMismatch, match=frames):
        mixed_to_nabla(mixed, other_gens)
    with pytest.raises(ChartMismatch, match="^operator ingredients live on different grids$"):
        NablaOpSpec(MAGNET, magnetic_example_bundle(other), FLAT, [None])


def test_compose_of_flat_gradients_is_exact():
    grad = gradient_op(SCALAR, FLAT)
    grad2 = gradient_op(grad.target, FLAT)
    spec = compose(grad2, grad)
    assert spec.order == 2
    u = random_section(GRID, 0, 1, seeded_rng(7, "op-comp0"))
    one = _apply(spec, u)
    two = _apply(grad2, _apply(grad, u))
    assert np.array_equal(one.values, two.values)


def test_compose_matches_chained_application():
    rng = seeded_rng(7, "op-comp")
    a = random_trig_field(2, (2, 2), rng).sample(GRID)
    mult = multiplication_op(a, MAGNET, MAGNET, FLAT)
    grad = gradient_op(MAGNET, FLAT)
    spec = compose(grad, mult)
    u = random_section(GRID, 0, 2, rng)
    one = _apply(spec, u)
    two = _apply(grad, _apply(mult, u))
    scale = np.max(np.abs(two.values))
    assert np.max(np.abs(one.values - two.values)) <= 1e-5 * scale


def test_compose_is_associative():
    rng = seeded_rng(7, "op-assoc")
    a = random_trig_field(2, (2, 2), rng).sample(GRID)
    b = random_trig_field(2, (2, 4), rng).sample(GRID)
    mult = multiplication_op(a, MAGNET, MAGNET, FLAT)
    grad = gradient_op(MAGNET, FLAT)
    last = multiplication_op(b, grad.target, MAGNET, FLAT)
    left = compose(compose(last, grad), mult)
    right = compose(last, compose(grad, mult))
    u = random_section(GRID, 0, 2, rng)
    one = _apply(left, u)
    two = _apply(right, u)
    scale = np.max(np.abs(one.values))
    assert np.max(np.abs(one.values - two.values)) <= 1e-10 * scale


def _hom_derivative_reference(a, source, target, metric):
    """The Hom-field derivative with einsum products over dense potentials."""
    grid = metric.grid
    source, target = dense_bundle(source, metric), dense_bundle(target, metric)
    da = np.stack([grid.diff(a, axis=y) for y in range(grid.dim)])
    da = da + np.einsum("yfg...,gk...->yfk...", target.potentials, a)
    da = da - np.einsum("fl...,ylk...->yfk...", a, source.potentials)
    grid.zero_band(da, grid.stencil_radius)
    return da


def _compose_reference(q, p):
    """The levels of compose(q, p), built with einsum products.

    A None level is the zero level: it enters no product, and a result
    level that no product reaches is None.
    """
    grid, metric, n = p.grid, p.metric, p.grid.dim
    eye_lift = np.eye(n).reshape((n, n) + (1,) * grid.dim)
    out = [None] * (q.order + p.order + 1)
    table = {
        m: np.broadcast_to(a, a.shape[:2] + grid.shape)
        for m, a in enumerate(p.coefficients)
        if a is not None
    }
    for i, b in enumerate(q.coefficients):
        for m, mat in table.items():
            if b is not None:
                term = np.einsum("gf...,fk...->gk...", b, mat)
                out[m] = term if out[m] is None else out[m] + term
        if i == q.order:
            break
        nxt = {}
        for m, mat in table.items():
            der = _hom_derivative_reference(
                mat,
                induced_tensor_bundle(p.source, metric, m),
                induced_tensor_bundle(p.target, metric, i),
                metric,
            )
            der = der.reshape((n * mat.shape[0], mat.shape[1]) + grid.shape)
            nxt[m] = nxt.get(m, 0) + der
            nxt[m + 1] = nxt.get(m + 1, 0) + pointwise_kron(eye_lift, mat)
        table = nxt
    return out


def _close(got, want, rtol=1e-13):
    return np.max(np.abs(got - want)) <= rtol * np.max(np.abs(want))


def _random_ladder(source, target, order, rng, metric=FLAT):
    grid = metric.grid
    n, d = grid.dim, source.fiber_dim
    entries = [
        random_trig_field(n, (target.fiber_dim, n**j * d), rng).sample(grid)
        for j in range(order + 1)
    ]
    return NablaOpSpec(source, target, metric, entries)


def test_hom_derivative_matches_einsum_reference():
    rng = seeded_rng(7, "op-hom-ref")
    big = induced_tensor_bundle(MAGNET, FLAT, 2)
    for source, target in ((MAGNET, MAGNET), (big, MAGNET), (big, big)):
        shape = (target.fiber_dim, source.fiber_dim)
        a = random_trig_field(2, shape, rng).sample(GRID)
        got = _hom_derivative(a, (source, 0), (target, 0), FLAT)
        want = _hom_derivative_reference(a, source, target, FLAT)
        assert _close(got, want)


@pytest.mark.parametrize("m", [0, 1, 2])
@pytest.mark.parametrize("i", [0, 1, 2])
def test_slotwise_hom_derivative_matches_induced_bundles_on_a_curved_metric(m, i):
    # the dense route: Kronecker-sum potentials of the induced bundles, built
    # in the test with -Gamma on every slot, against the slot-by-slot action
    grid = ChartGrid([(-1, 1), (-1, 1)], (33, 33))
    x1, x2 = grid.coords
    metric = MetricField.conformal(grid, 0.2 * x1 * x2)
    rng = seeded_rng(7, f"op-hom-curved-{m}-{i}")
    source = magnetic_example_bundle(grid)
    target = BundleSpec(grid, 3, random_trig_field(2, (2, 3, 3), rng).sample(grid))
    shape = (2**i * 3, 2**m * 2)
    a = random_trig_field(2, shape, rng).sample(grid)
    got = _hom_derivative(a, (source, m), (target, i), metric)
    want = _hom_derivative_reference(
        a,
        induced_tensor_bundle(source, metric, m),
        induced_tensor_bundle(target, metric, i),
        metric,
    )
    assert _close(got, want)


def test_compose_matches_einsum_reference():
    rng = seeded_rng(7, "op-comp-ref")
    ladder = _random_ladder(MAGNET, MAGNET, 1, rng)
    grad2 = gradient_op(MAGNET, FLAT, 2)
    after_grad2 = _random_ladder(grad2.target, MAGNET, 1, rng)
    for q, p in ((ladder, _random_ladder(MAGNET, MAGNET, 1, rng)), (after_grad2, grad2)):
        got = compose(q, p).coefficients
        want = _compose_reference(q, p)
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert (g is None) == (w is None)
            assert g is None or _close(g, w)


SMALL = ChartGrid([(-1, 1), (-1, 1)], (33, 33))
FLAT_SMALL = MetricField.flat(SMALL)


def _compose_factors(case, metric, rng):
    """(Q, P) for one compose test case on the metric's grid.

    "adjoint-k" is the shape of the assembly chain: P lands in the rank-k
    bundle over the magnetic bundle, and a first-order Q maps it down to
    rank k - 1.  "order-k" is a Q of order k after a first-order P.
    """
    magnet = magnetic_example_bundle(metric.grid)
    kind, k = case.split("-")
    k = int(k)
    if kind == "adjoint":
        rank = [induced_tensor_bundle(magnet, metric, s) for s in (k - 1, k)]
        p = _random_ladder(magnet, rank[1], k, rng, metric)
        return _random_ladder(rank[1], rank[0], 1, rng, metric), p
    p = _random_ladder(magnet, magnet, 1, rng, metric)
    return _random_ladder(magnet, BundleSpec(metric.grid, 1), k, rng, metric), p


@pytest.mark.parametrize("curved", [False, True])
@pytest.mark.parametrize("case", ["adjoint-1", "adjoint-2", "order-2", "order-3"])
def test_compose_matches_einsum_reference_on_deep_and_induced_factors(case, curved):
    x1, x2 = SMALL.coords
    metric = MetricField.conformal(SMALL, 0.2 * x1 * x2) if curved else FLAT_SMALL
    q, p = _compose_factors(case, metric, seeded_rng(7, f"op-comp-{case}-{curved}"))
    got = compose(q, p).coefficients
    want = _compose_reference(q, p)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert (g is None) == (w is None)
        assert g is None or _close(g, w)


def test_first_order_compose_makes_no_dense_lift(monkeypatch):
    calls = []

    def counting(x, y):
        calls.append(y.shape)
        return pointwise_kron(x, y)

    rng = seeded_rng(7, "op-comp-lifts")
    first, p = _compose_factors("adjoint-2", FLAT_SMALL, rng)
    second, p2 = _compose_factors("order-2", FLAT_SMALL, rng)
    monkeypatch.setattr(operators, "pointwise_kron", counting)
    compose(first, p)
    assert calls == []
    # the counter sees the dense lift of an entry that is differentiated again
    compose(second, p2)
    assert len(calls) == 2


def test_compose_rejects_mismatched_factors():
    grad = gradient_op(MAGNET, FLAT)
    with pytest.raises(ShapeMismatch):
        compose(grad, grad)
    other = ChartGrid([(-1, 1), (-1, 1)], (65, 65))
    with pytest.raises(ChartMismatch):
        compose(identity_op(BundleSpec(other, 2), MetricField.flat(other)), grad)


def test_mixed_constant_fields_match_multiindex():
    u = random_section(GRID, 0, 2, seeded_rng(7, "op-mixed"))
    eye = _eye(2)
    spec = MixedOpSpec(MAGNET, MAGNET, FLAT, [MixedTerm(eye, (2, 2))])
    out = apply_mixed_op(spec, u, COORD)
    want = multiindex_derivative(u, (2, 2), MAGNET, FLAT)
    assert np.allclose(out.values, want.values, atol=1e-13)


def test_mixed_to_nabla_flat_laplacian_coefficients():
    eye = _eye(1)
    terms = [MixedTerm(eye, (k, k)) for k in (1, 2)]
    ladder = mixed_to_nabla(MixedOpSpec(SCALAR, SCALAR, FLAT, terms), COORD).coefficients
    want = _flat_laplacian_ladder(GRID, 1)
    assert len(ladder) == len(want)
    for got, ref in zip(ladder, want):
        got = 0.0 if got is None else got  # None is the zero level
        assert np.allclose(got, ref, atol=1e-14)


def test_mixed_to_nabla_magnetic_second_order():
    u = random_section(GRID, 0, 2, seeded_rng(7, "op-m2n"))
    eye = _eye(2)
    term = MixedTerm(eye, (2, 2))
    spec = mixed_to_nabla(MixedOpSpec(MAGNET, MAGNET, FLAT, [term]), COORD)
    out = _apply(spec, u)
    want = multiindex_derivative(u, (2, 2), MAGNET, FLAT)
    scale = np.max(np.abs(want.values))
    assert np.max(np.abs(out.values - want.values)) <= 1e-12 * scale


def test_mixed_to_nabla_varying_fields_round_trip():
    rng = seeded_rng(7, "op-vary")
    x = random_vector_field(GRID, rng)
    y = random_vector_field(GRID, rng)
    coeff = random_trig_field(2, (2, 2), rng).sample(GRID)
    gens = _frame([x, y])
    mixed = MixedOpSpec(MAGNET, MAGNET, FLAT, [MixedTerm(coeff, (1, 2))])
    ladder = mixed_to_nabla(mixed, gens)
    u = random_bump_section(GRID, 0, 2, rng).section(GRID)
    one = _apply(ladder, u)
    two = apply_mixed_op(mixed, u, gens)
    scale = np.max(np.abs(two.values))
    # the two routes differ by the discrete product-rule defect, which is
    # O(h^4) against the fifth derivatives of the windowed field times u
    assert np.max(np.abs(one.values - two.values)) <= 1e-3 * scale


def _mixed_to_nabla_reference(spec, gens):
    """The levels of mixed_to_nabla(spec, gens), by the hand-walked product rule.

    Works inward from the rightmost factor of each term, starting from the
    identity: every accumulated coefficient splits into its directional
    derivative plus a lifted copy one rung up.
    """
    grid, metric, source = spec.grid, spec.metric, spec.source
    d = source.fiber_dim
    eye = _eye(d, grid)
    total = [None] * (spec.order + 1)
    for term in spec.terms:
        chain = {0: eye}
        for k in reversed(term.labels):
            x = gens.z[k - 1]
            nxt = {}
            for m, c in chain.items():
                der = _hom_derivative(c, (source, m), (source, 0), metric)
                moved = np.einsum("y...,yfk...->fk...", x, der)
                nxt[m] = nxt.get(m, 0) + moved
                row = x[None].astype(complex)
                nxt[m + 1] = nxt.get(m + 1, 0) + pointwise_kron(row, c)
            chain = nxt
        for m, c in chain.items():
            mat = np.einsum("ab...,bc...->ac...", term.coefficient, c)
            total[m] = mat if total[m] is None else total[m] + mat
    return total


def _varying_mixed(depths, order=None):
    """Magnetic-bundle terms with random varying coefficients and fields,
    and the frame that holds every term's own fields."""
    rng = seeded_rng(7, f"op-m2n-ref-{depths}")
    fields, terms = [], []
    for depth in depths:
        coefficient = random_trig_field(2, (2, 2), rng).sample(GRID)
        labels = range(len(fields) + 1, len(fields) + depth + 1)
        fields += [random_vector_field(GRID, rng) for _ in range(depth)]
        terms.append(MixedTerm(coefficient, labels))
    return MixedOpSpec(MAGNET, MAGNET, FLAT, terms, order=order), _frame(fields)


def _same_levels(got, want, rtol=1e-13):
    """Level lists agree; a None level matches None or an all-zero level."""
    assert len(got) == len(want)
    for g, w in zip(got, want):
        if w is None or not np.any(w):
            assert g is None or not np.any(g)
        else:
            assert g is not None and _close(g, w, rtol)


def test_directional_op_is_contracted_gradient():
    x = random_vector_field(GRID, seeded_rng(7, "op-dir"))
    u = random_section(GRID, 0, 2, seeded_rng(7, "op-dir-u"))
    spec = directional_op(x, MAGNET, FLAT)
    assert spec.order == 1 and spec.coefficients[0] is None
    want = np.einsum(
        "k...,ka...->a...", x, covariant_derivative(u, MAGNET, FLAT).values
    )
    assert np.allclose(_apply(spec, u).values, want, atol=1e-14)


def test_mixed_to_nabla_matches_hand_walked_reference():
    cases = (((2,), None), ((3,), None), ((0, 2, 3), None), ((1,), 3))
    for depths, order in cases:
        spec, gens = _varying_mixed(depths, order)
        ladder = mixed_to_nabla(spec, gens)
        assert ladder.order == spec.order
        _same_levels(ladder.coefficients, _mixed_to_nabla_reference(spec, gens))
    # a declared order above the depth leaves the top levels None
    assert mixed_to_nabla(*_varying_mixed((1,), 3)).coefficients[2:] == [None, None]


def test_mixed_to_nabla_depth_zero_term_is_its_coefficient():
    spec, gens = _varying_mixed((0,))
    ladder = mixed_to_nabla(spec, gens)
    assert len(ladder.coefficients) == 1
    assert np.array_equal(ladder.coefficients[0], _mixed_to_nabla_reference(spec, gens)[0])


def test_mixed_to_nabla_differentiates_once_per_table_entry(monkeypatch):
    calls = []
    hom_derivative = operators._hom_derivative

    def counting(*args):
        calls.append(args[0].shape)
        return hom_derivative(*args)

    monkeypatch.setattr(operators, "_hom_derivative", counting)
    for depth, want in ((2, 1), (3, 3)):
        calls.clear()
        mixed_to_nabla(*_varying_mixed((depth,)))
        assert len(calls) == want, calls


@pytest.mark.parametrize(
    "call",
    [
        lambda spec, u: apply_mixed_op(spec, u, COORD),
        lambda spec, u: mixed_to_nabla(spec, COORD),
        lambda spec, u: reorder_generators(spec, COORD, MAGNET),
    ],
    ids=["apply_mixed_op", "mixed_to_nabla", "reorder_generators"],
)
def test_a_label_past_the_frame_is_a_shape_mismatch(call):
    # the coordinate frame has two vector fields; label 3 names none of them
    spec = MixedOpSpec(MAGNET, MAGNET, FLAT, [MixedTerm(_eye(2), (3,))])
    u = random_section(GRID, 0, 2, seeded_rng(7, "op-label"))
    with pytest.raises(ShapeMismatch, match="^label 3 exceeds the frame's 2 fields$"):
        call(spec, u)


def test_mixed_labels_index_the_generator_frame():
    eye = _eye(2)
    spec = MixedOpSpec(MAGNET, MAGNET, FLAT, [MixedTerm(eye, (2, 1))])
    u = random_section(GRID, 0, 2, seeded_rng(7, "op-lbl"))
    out = apply_mixed_op(spec, u, COORD)
    want = multiindex_derivative(u, (2, 1), MAGNET, FLAT)
    assert np.allclose(out.values, want.values, atol=1e-13)


def test_nabla_to_mixed_gradient_reads_off_coframe():
    gens = build_generators(identity_embedding(GRID), FLAT)
    mixed = nabla_to_mixed(gradient_op(SCALAR, FLAT), gens)
    labels = sorted(term.labels for term in mixed.terms)
    assert labels == [(1,), (2,)]
    for term in mixed.terms:
        want = np.zeros((2, 1) + GRID.shape, dtype=complex)
        want[term.labels[0] - 1, 0] = 1.0
        assert np.allclose(term.coefficient, want, atol=1e-14)
    u = random_section(GRID, 0, 1, seeded_rng(7, "op-n2m"))
    one = apply_mixed_op(mixed, u, gens)
    two = _apply(gradient_op(SCALAR, FLAT), u)
    assert np.allclose(one.values, two.values, atol=1e-13)


def test_nabla_to_mixed_round_trip_on_sphere():
    emb, sphere_g = sphere_ambient_embedding(GRID)
    gens = build_generators(emb, sphere_g)
    bundle = BundleSpec(GRID, 1)
    rng = seeded_rng(7, "op-sphere")
    a2 = random_trig_field(2, (1, 4), rng).sample(GRID)
    entries = [
        np.zeros((1, 1) + GRID.shape, dtype=complex),
        np.zeros((1, 2) + GRID.shape, dtype=complex),
        a2,
    ]
    spec = NablaOpSpec(bundle, bundle, sphere_g, entries)
    mixed = nabla_to_mixed(spec, gens)
    u = random_bump_section(GRID, 0, 1, rng).section(GRID)
    one = apply_mixed_op(mixed, u, gens)
    two = _apply(spec, u)
    scale = np.max(np.abs(two.values))
    assert np.max(np.abs(one.values - two.values)) <= 2e-4 * scale


def _nabla_to_mixed_reference(spec, gens):
    """The chain coefficients of nabla_to_mixed, built with dense xi lifts.

    This is the former loop: every xi_i (x) (.) is a full pointwise_kron,
    added into its chain's entry as a whole.
    """
    grid, metric, source = spec.grid, spec.metric, spec.source
    d = source.fiber_dim
    eye = _eye(d, grid)
    per_depth = [{(): eye}]
    for j in range(1, spec.order + 1):
        cur = {}
        for chain, phi in per_depth[j - 1].items():
            der = _hom_derivative(phi, (source, 0), (source, j - 1), metric)
            for i in range(gens.n_gens):
                xi_col = gens.xi[i][:, None].astype(complex)
                moved = np.einsum("y...,yfk...->fk...", gens.z[i], der)
                operators._put(cur, chain, pointwise_kron(xi_col, moved))
                operators._put(cur, (i + 1,) + chain, pointwise_kron(xi_col, phi))
        per_depth.append(cur)
    merged = {}
    for j, a in enumerate(spec.coefficients):
        for chain, phi in per_depth[j].items():
            operators._put(merged, chain, np.einsum("gf...,fk...->gk...", a, phi))
    return merged


@pytest.mark.parametrize("name, h", [("random-embedding", None), ("flat-operators", 2 / 32)])
def test_nabla_to_mixed_matches_dense_kron_reference(name, h):
    # to order 3: a conformal metric with four non-orthogonal generators on
    # a scalar bundle, and the identity frame on the magnetic bundle
    cfg = builtin_scenario(name)
    if h is not None:
        cfg["chart"]["h"] = h
    ctx = build_context(parse_scenario(cfg))
    spec = _random_ladder(ctx.bundle, ctx.bundle, 3, seeded_rng(7, "op-n2m-ref"), ctx.metric)
    mixed = nabla_to_mixed(spec, ctx.gens)
    want = _nabla_to_mixed_reference(spec, ctx.gens)
    assert sorted(want) == [term.labels for term in mixed.terms]
    for term in mixed.terms:
        assert np.array_equal(term.coefficient, want[term.labels])


def _all_depths_nabla_to_mixed(spec, gens):
    """The chain coefficients of the former nabla_to_mixed: the chain
    table of every depth is kept until the last depth is built, and only
    then are the depths merged, j ascending."""
    grid, metric, source = spec.grid, spec.metric, spec.source
    d = source.fiber_dim
    eye = np.eye(d, dtype=complex).reshape((d, d) + (1,) * grid.dim)
    per_depth = [{(): eye}]
    for j in range(1, spec.order + 1):
        cur = {}
        for chain, phi in per_depth[j - 1].items():
            der = _hom_derivative(phi, (source, 0), (source, j - 1), metric)
            for i in range(gens.n_gens):
                xi = gens.xi[i].astype(complex)
                moved = np.einsum("y...,yfk...->fk...", gens.z[i], der)
                operators._add_coframe_lift(cur, chain, xi, moved)
                operators._add_coframe_lift(cur, (i + 1,) + chain, xi, phi)
        per_depth.append({c: a.reshape((-1, d) + grid.shape) for c, a in cur.items()})
    merged = {}
    for j, a in enumerate(spec.coefficients):
        if a is None:
            continue
        for chain, phi in per_depth[j].items():
            operators._put(merged, chain, np.einsum("gf...,fk...->gk...", a, phi))
    return merged


def _traced_peak(call):
    """call() and its tracemalloc peak above what was traced before it."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        out = call()
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    return out, peak


def test_nabla_to_mixed_merges_each_depth_once_the_next_is_built():
    # four non-orthogonal generators on a conformal chart, to order 2 as in
    # operator-rewrite: the terms are bit-identical to the all-depths
    # table's, and the peak is lower (16.0 against 18.3 MiB), since no
    # depth outlives the one built from it
    ctx = build_context(parse_scenario(builtin_scenario("random-embedding")))
    rng = seeded_rng(7, "op-n2m-depths")
    spec = _random_ladder(ctx.bundle, ctx.bundle, 2, rng, ctx.metric)
    mixed, peak = _traced_peak(lambda: nabla_to_mixed(spec, ctx.gens))
    want, former = _traced_peak(lambda: _all_depths_nabla_to_mixed(spec, ctx.gens))
    assert [term.labels for term in mixed.terms] == sorted(want)
    for term in mixed.terms:
        assert np.array_equal(term.coefficient, want[term.labels])
    assert peak < former


def test_reorder_keeps_sorted_terms():
    gens = build_generators(identity_embedding(GRID), FLAT)
    eye = _eye(2)
    spec = MixedOpSpec(MAGNET, MAGNET, FLAT, [MixedTerm(eye, labels=(1, 2))])
    out = reorder_generators(spec, gens, MAGNET)
    assert [term.labels for term in out.terms] == [(1, 2)]
    assert np.allclose(out.terms[0].coefficient, eye, atol=1e-15)


def test_reorder_flat_scalar_swap_is_free():
    gens = build_generators(identity_embedding(GRID), FLAT)
    eye = _eye(1)
    spec = MixedOpSpec(SCALAR, SCALAR, FLAT, [MixedTerm(eye, labels=(2, 1))])
    out = reorder_generators(spec, gens, SCALAR)
    by_labels = {term.labels: term.coefficient for term in out.terms}
    assert np.allclose(by_labels.pop((1, 2)), eye, atol=1e-15)
    for leftover in by_labels.values():
        assert np.max(np.abs(leftover)) <= 1e-15
    u = random_section(GRID, 0, 1, seeded_rng(7, "op-swap"))
    one = apply_mixed_op(spec, u, gens)
    two = apply_mixed_op(out, u, gens)
    scale = np.max(np.abs(one.values))
    assert np.max(np.abs(one.values - two.values)) <= 1e-12 * scale


def test_reorder_magnetic_swap_inserts_minus_curvature():
    gens = build_generators(identity_embedding(GRID), FLAT)
    eye = _eye(2)
    spec = MixedOpSpec(MAGNET, MAGNET, FLAT, [MixedTerm(eye, labels=(2, 1))])
    out = reorder_generators(spec, gens, MAGNET)
    by_labels = {term.labels: term.coefficient for term in out.terms}
    assert set(by_labels) == {(1, 2), ()}
    f12 = curvature(MAGNET).contract(_basis_field(GRID, 0), _basis_field(GRID, 1))
    inner = GRID.interior_mask(2 * GRID.stencil_radius)
    diff = np.where(inner, by_labels[()] + f12, 0.0)
    assert np.max(np.abs(diff)) <= 1e-12 * np.max(np.abs(f12))
    u = random_bump_section(GRID, 0, 2, seeded_rng(7, "op-curv")).section(GRID)
    one = apply_mixed_op(spec, u, gens)
    two = apply_mixed_op(out, u, gens)
    scale = np.max(np.abs(one.values))
    assert np.max(np.abs(one.values - two.values)) <= 2e-4 * scale


def test_reorder_depth_three_on_sphere_frame():
    grid = ChartGrid([(-1, 1), (-1, 1)], (97, 97), support_margin=8)
    emb, sphere_g = sphere_ambient_embedding(grid)
    gens = build_generators(emb, sphere_g)
    bundle = BundleSpec(grid, 1)
    rng = seeded_rng(7, "op-deep")
    coeff = random_trig_field(2, (1, 1), rng).sample(grid)
    spec = MixedOpSpec(
        bundle,
        bundle,
        sphere_g,
        [MixedTerm(coeff, labels=(3, 1, 2))],
        order=3,
    )
    out = reorder_generators(spec, gens, bundle)
    for term in out.terms:
        assert tuple(sorted(term.labels)) == term.labels
    u = random_bump_section(grid, 0, 1, rng).section(grid)
    one = apply_mixed_op(spec, u, gens)
    two = apply_mixed_op(out, u, gens)
    scale = np.max(np.abs(one.values))
    assert np.max(np.abs(one.values - two.values)) <= 5e-4 * scale


def test_apply_is_linear():
    rng = seeded_rng(7, "op-lin")
    a = random_trig_field(2, (2, 2), rng).sample(GRID)
    mult = multiplication_op(a, MAGNET, MAGNET, FLAT)
    grad = gradient_op(MAGNET, FLAT)
    spec = compose(grad, mult)
    u = random_section(GRID, 0, 2, rng)
    v = random_section(GRID, 0, 2, rng)
    both = _apply(spec, TensorSection(GRID, 0, u.values + v.values, 2)).values
    split = _apply(spec, u).values + _apply(spec, v).values
    scale = np.max(np.abs(both))
    assert np.max(np.abs(both - split)) <= 1e-12 * scale


def test_mixed_spec_validation():
    eye = _eye(2)
    with pytest.raises(ShapeMismatch):
        MixedOpSpec(SCALAR, SCALAR, FLAT, [MixedTerm(eye, labels=(1,))])
    with pytest.raises(ShapeMismatch):
        MixedOpSpec(MAGNET, MAGNET, FLAT, [MixedTerm(eye, labels=(0,))])
    with pytest.raises(ShapeMismatch):
        MixedOpSpec(MAGNET, MAGNET, FLAT, [MixedTerm(eye, labels=(1, 2))], order=1)
    # the frame that the labels index validates its fields
    bad_field = np.zeros((3,) + GRID.shape)
    with pytest.raises(ShapeMismatch):
        GeneratorSystem(GRID, bad_field[None], bad_field[None])


def test_coefficient_infty_norm_constant_field():
    a = np.full((1, 1) + GRID.shape, 2.0, dtype=complex)
    got = coefficient_infty_norm(a, SCALAR, SCALAR, FLAT, depth=2)
    assert got == pytest.approx(2.0, rel=1e-12)


def test_coefficient_infty_norm_propagates_nan():
    a = np.full((1, 1) + GRID.shape, 2.0, dtype=complex)
    a[..., GRID.shape[0] // 2, GRID.shape[1] // 2] = np.nan
    assert math.isnan(coefficient_infty_norm(a, SCALAR, SCALAR, FLAT, depth=1))


def test_coefficient_infty_norm_rejects_bad_shapes_and_grids():
    a = np.ones((2, 2) + GRID.shape, dtype=complex)
    with pytest.raises(ShapeMismatch):
        coefficient_infty_norm(a, SCALAR, MAGNET, FLAT, depth=1)
    away = magnetic_example_bundle(ChartGrid([(-2, 2), (-1, 1)], GRID.shape))
    with pytest.raises(ChartMismatch):
        coefficient_infty_norm(a, away, away, FLAT, depth=1)


@pytest.mark.parametrize("depth", [0, 1, 2])
def test_hom_field_sups_match_dense_hom_bundles_on_a_curved_metric(depth):
    grid = ChartGrid([(-1, 1), (-1, 1)], (65, 65))
    x1, x2 = grid.coords
    metric = MetricField.conformal(grid, 0.2 * x1 * x2)
    rng = seeded_rng(7, f"op-sup-curved-{depth}")
    magnet = magnetic_example_bundle(grid)
    target = BundleSpec(grid, 3, random_trig_field(2, (2, 3, 3), rng).sample(grid))
    for slots in range(3):
        source = induced_tensor_bundle(magnet, metric, slots)
        a = random_trig_field(2, (3, source.fiber_dim), rng).sample(grid)
        got = coefficient_infty_norm(a, source, target, metric, depth)
        want = dense_hom_sup(a, source, target, 0, metric, depth)
        assert abs(got - want) <= 1e-13 * want
    # a one-form: its form slot is measured with the inverse metric
    field = random_trig_field(2, (2, 3, 3), rng).sample(grid)
    got = hom_infty_norm(field, depth, target, metric)
    form = field.reshape((6, 3) + grid.shape)
    want = dense_hom_sup(form, target, target, 1, metric, depth)
    assert abs(got - want) <= 1e-13 * want


def test_coefficient_norm_peak_stays_near_its_deepest_level():
    cfg = builtin_scenario("flat-operators")
    cfg["chart"]["h"] = 2 / 64
    spec = build_context(parse_scenario(cfg)).nabla_ops["drift-gradient"]
    source = induced_tensor_bundle(spec.source, spec.metric, 1)
    a = spec.coefficients[1]
    full = np.broadcast_to(a, a.shape[:2] + spec.grid.shape)
    deepest = full.nbytes * spec.grid.dim**2  # level 2 has n^2 times the rows
    tracemalloc.start()
    try:
        coefficient_infty_norm(a, source, spec.target, spec.metric, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * deepest


def _observed_over_certified(spec, trials):
    """The mapping-bound check's worst observed W^{1+mu,2} -> W^{1,2} ratio
    over the certified constant, at seed 0."""
    ctx = CheckContext(
        name="mapping", grid=GRID, metric=FLAT, bundle=spec.source, nabla_ops={"P": spec}
    )
    entry = {"tolerance": 2.0, "operator": "P", "trials": trials}
    return CHECKS["mapping-bound"][0](ctx, entry)["measured"]


def test_mapping_bound_identity_and_gradient():
    spec = identity_op(MAGNET, FLAT)
    measured = _observed_over_certified(spec, 5)
    # the certified bound holds up to a rounding slack of 1e-12
    assert measured <= 1.0 + 1e-12
    assert measured * mapping_constant(spec, 1, 2.0) == pytest.approx(1.0, rel=1e-9)
    spec = gradient_op(MAGNET, FLAT)
    measured = _observed_over_certified(spec, 5)
    assert measured <= 1.0 + 1e-12
    assert measured * mapping_constant(spec, 1, 2.0) <= 1.0 + 1e-12


def test_mapping_bound_second_order_magnetic():
    spec = mixed_to_nabla(
        MixedOpSpec(MAGNET, MAGNET, FLAT, [MixedTerm(_eye(2), (2, 1))]), COORD
    )
    # within the certified bound, without the rounding slack
    assert _observed_over_certified(spec, 8) <= 1.0
    assert mapping_constant(spec, 1, 2.0) <= 10.0 * multiplication_constant(
        1, math.inf, 2.0, 2.0
    )


def _zero_filled(spec):
    """The same ladder, built with every None level given as an explicit zero array."""
    n, d = spec.grid.dim, spec.source.fiber_dim
    levels = [
        np.zeros((spec.target.fiber_dim, n**j * d) + spec.grid.shape, complex)
        if a is None
        else a
        for j, a in enumerate(spec.coefficients)
    ]
    return NablaOpSpec(spec.source, spec.target, spec.metric, levels)


def _same_ladder(one, two):
    """The same zero (None) levels, bit-equal other levels."""
    assert [a is None for a in one.coefficients] == [b is None for b in two.coefficients]
    for a, b in zip(one.coefficients, two.coefficients):
        assert a is None or np.array_equal(a, b)


def test_explicit_zero_levels_are_stored_as_none():
    rng = seeded_rng(7, "op-sparse")
    a1 = random_trig_field(2, (2, 4), rng).sample(GRID)
    sparse = NablaOpSpec(MAGNET, MAGNET, FLAT, [None, a1])
    dense = _zero_filled(sparse)
    assert sparse.coefficients[0] is None and dense.coefficients[0] is None
    _same_ladder(sparse, dense)
    # a level that cancels to exactly zero is absent as well
    cancelled = _add_ladders(sparse, _scaled(sparse, -1.0))
    assert cancelled.coefficients == [None, None]
    # the shape check comes first: a misshaped zero level is no zero level
    with pytest.raises(ShapeMismatch):
        NablaOpSpec(MAGNET, MAGNET, FLAT, [np.zeros((2, 3) + GRID.shape), a1])
    with pytest.raises(ShapeMismatch):
        NablaOpSpec(MAGNET, MAGNET, FLAT, [None, np.zeros((2, 2) + GRID.shape)])


def test_mixed_spec_drops_zero_terms_but_keeps_their_order():
    eye = _eye(2)
    zero = np.zeros((2, 2) + GRID.shape, dtype=complex)
    kept = MixedTerm(eye, (1,))
    spec = MixedOpSpec(MAGNET, MAGNET, FLAT, [kept, MixedTerm(zero, (1, 1))])
    assert spec.terms == [kept]
    assert spec.order == mixed_to_nabla(spec, COORD).order == 2
    # a zero term is validated before it is dropped
    with pytest.raises(ShapeMismatch):
        MixedOpSpec(MAGNET, MAGNET, FLAT, [MixedTerm(zero[:, :1], (1,))])
    with pytest.raises(ShapeMismatch):
        MixedOpSpec(MAGNET, MAGNET, FLAT, [MixedTerm(zero, labels=(0,))])
    with pytest.raises(ShapeMismatch):
        MixedOpSpec(MAGNET, MAGNET, FLAT, [MixedTerm(zero, (1, 1))], order=1)
