"""Differential operators as coefficient data over a chart.

Two presentations of the same maps: ladders P = sum_j a^[j] nabla^j with
Hom-valued coefficients on flattened derivative fibers, and mixed sums of
terms a nabla_{X_1} ... nabla_{X_r}.  Composition, rewriting between the two
forms, and reordering of directional factors all happen on coefficients,
but operator equality is only ever checked by application: coefficients of
a given map are not unique.

Coefficients are grid fields like any other (see bundles): a Hom field
is stored as a[row, col, idx], its grid axes last, each at its full
length or length 1.  A ladder level is compacted once, in the NablaOpSpec
constructor, and every product (composition, sums, application,
rewriting) is an einsum that broadcasts the stored shapes as they are;
only the sup norms broadcast to the full grid.
"""

import math

import numpy as np

from .bundles import BundleSpec, TensorSection, induced_tensor_bundle, pointwise_kron
from .calculus import _gamma_slot_sum, covariant_derivative, curvature, tower
from .errors import ChartMismatch, ShapeMismatch
from .grid import check_grid_shape, compact_grid_axes
from .norms import (
    equivalence_constant,
    multiplication_constant,
    pointwise_norm_sq,
    sobolev_norm,
)


def _common_grid(metric, noun, *bundles):
    """The metric's grid, after checking that every bundle lives on it."""
    grid = metric.grid
    if any(b.grid != grid for b in bundles):
        raise ChartMismatch(f"{noun} ingredients live on different grids")
    return grid


def _check_levels(levels, depth, grid, bundle, pair, expects):
    """Reject a tower below depth, or one of u off the grid or not rank 0 on the bundle."""
    if len(levels) <= depth:
        raise ShapeMismatch(f"{pair} need a tower of depth {depth}, got {len(levels) - 1}")
    u = levels[0]
    if u.grid != grid:
        raise ChartMismatch(f"{pair} live on different grids")
    if u.rank != 0 or u.fiber_dim != bundle.fiber_dim:
        raise ShapeMismatch(
            f"{expects} with fiber {bundle.fiber_dim}, "
            f"got rank {u.rank} with fiber {u.fiber_dim}"
        )


class NablaOpSpec:
    """Ladder operator sum_j a^[j] nabla^j with explicit coefficient data.

    Level j maps the flattened fiber of a rank-j section (slot axes folded
    into the fiber, slot-major) to the target fiber, so it is a
    (target_dim, n^j * source_dim) + grid complex field, stored at the
    shape it varies over: each grid axis has its full length or length 1,
    and an axis along which every slice equals the first is kept at length
    1.  A level of the flat frame is (rows, cols, 1, .., 1), and every product
    broadcasts it over the grid as it is.  A level that is identically
    zero, whether given as None or as an all-zero array, is stored as None,
    so that every consumer skips it instead of multiplying, lifting or
    differentiating zeros.
    """

    def __init__(self, source, target, metric, coefficients):
        grid = _common_grid(metric, "operator", source, target)
        if len(coefficients) == 0:
            raise ShapeMismatch("a coefficient ladder needs at least the order-0 entry")
        checked = []
        for j, a in enumerate(coefficients):
            if a is None:
                checked.append(None)
                continue
            a = np.asarray(a)
            tail = (target.fiber_dim, (grid.dim**j) * source.fiber_dim)
            check_grid_shape(a.shape, grid, tail, f"coefficient {j}")
            a = compact_grid_axes(a, grid.dim).astype(complex, copy=False)
            checked.append(a if np.any(a) else None)
        self.source = source
        self.target = target
        self.metric = metric
        self.coefficients = checked

    @property
    def grid(self):
        return self.metric.grid

    @property
    def order(self):
        return len(self.coefficients) - 1


def _scaled(spec, factor):
    """The same ladder with every level multiplied by factor."""
    levels = [None if a is None else factor * a for a in spec.coefficients]
    return NablaOpSpec(spec.source, spec.target, spec.metric, levels)


def _add_ladders(a, b):
    """Level-wise sum of two ladders; a may be None, the empty sum."""
    if a is None:
        return b
    entries = [None] * (max(a.order, b.order) + 1)
    for op in (a, b):
        for m, c in enumerate(op.coefficients):
            if c is not None:
                entries[m] = c if entries[m] is None else entries[m] + c
    return NablaOpSpec(a.source, a.target, a.metric, entries)


def identity_op(bundle, metric):
    """The order-0 operator u -> u."""
    return gradient_op(bundle, metric, 0)


def multiplication_op(a, source, target, metric):
    """Order-0 operator u -> a u for a Hom field a."""
    return NablaOpSpec(source, target, metric, [a])


def gradient_op(bundle, metric, depth=1):
    """P = nabla^depth, landing in the flattened rank-depth bundle."""
    target = induced_tensor_bundle(bundle, metric, depth)
    top = target.fiber_dim
    eye = np.eye(top, dtype=complex).reshape((top, top) + (1,) * bundle.grid.dim)
    return NablaOpSpec(bundle, target, metric, [None] * depth + [eye])


def directional_op(x, bundle, metric):
    """nabla_X = i_X after nabla, as the ladder [None, X (x) 1].

    The level-1 entry is the contraction i_X of the derivative slot, a Hom
    field from the rank-1 bundle to the bundle, built at the shape X
    varies over.
    """
    d = bundle.fiber_dim
    g = metric.grid.dim
    eye = np.eye(d, dtype=complex).reshape((d, d) + (1,) * g)
    i_x = pointwise_kron(compact_grid_axes(x, g)[None], eye)
    return NablaOpSpec(bundle, bundle, metric, [None, i_x])


def apply_nabla_op(spec, levels):
    """Apply a ladder operator to the levels of a tower at least its order deep."""
    grid = spec.grid
    pair, expects = "operator and section", "operator eats rank-0 sections"
    _check_levels(levels, spec.order, grid, spec.source, pair, expects)
    out = np.zeros((spec.target.fiber_dim,) + grid.shape, dtype=complex)
    for a, v in zip(spec.coefficients, levels):
        if a is not None:
            flat = v.values.reshape((-1,) + grid.shape)
            out += np.einsum("gk...,k...->g...", a, flat)
    return TensorSection(grid, 0, out, spec.target.fiber_dim)


def _hom_derivative(a, source, target, metric):
    """Covariant derivative of a Hom field, one direction axis in front.

    source and target are (bundle, extra slots): a maps T*M^s (x) E to
    T*M^t (x) F, with E, F the base bundles and s, t counting their own
    slots too.  The connection acts slot by slot: the result, (n,
    d_target, d_source) + grid, holds D_y a + A^F_y a - a A^E_y, -Gamma on
    each target slot and +Gamma on each source slot (the one Christoffel
    slot sum, on the rows or the columns unfolded into slot axes), zeroed
    on the stencil-invalid band.

    a is (d_target, d_source) + grid, stored at the shape it varies
    over, and the result is formed at the broadcast shape of a, Gamma and
    the live potentials, each product at its own factors' shape.  An
    identically zero result is returned at that shape; any other result
    varies over the band, so it is broadcast to the full grid before the
    band is zeroed.
    """
    grid = metric.grid
    n = grid.dim
    (src, s), (tgt, t) = [
        (b, k) if b.base is None else (b.base, b.slots + k) for b, k in (source, target)
    ]
    rows, cols = a.shape[:2]
    lead = a.shape[2:]
    gamma = metric.christoffel
    live = [b.potentials.shape[3:] for b in (tgt, src) if b.live]
    shape = np.broadcast_shapes(lead, gamma.shape[3:], *live)
    da = np.empty((n, rows, cols) + shape, dtype=complex)
    for y in range(n):
        da[y] = grid.diff(a, y)
    if tgt.live or src.live:
        # one live direction at a time: each product is freed before the
        # next is made
        a_rows = a.reshape((n**t, tgt.fiber_dim, -1) + lead)
        a_cols = a.reshape((-1, src.fiber_dim) + lead)
        by_rows = da.reshape((n, n**t, tgt.fiber_dim, -1) + shape)  # a view
        by_cols = da.reshape((n, -1, src.fiber_dim) + shape)  # a view
        for y in tgt.live:
            pots = tgt.potentials[y]
            by_rows[y] += np.einsum("fg...,tgk...->tfk...", pots, a_rows)
        for y in src.live:
            pots = src.potentials[y]
            by_cols[y] -= np.einsum("rl...,le...->re...", a_cols, pots)
    if not metric.constant:
        # the slots of the rows, then of the columns, unfolded in front;
        # each sum has the shape a and Gamma vary over together
        sums = np.broadcast_shapes(lead, gamma.shape[3:])
        if t:
            slots = a.reshape((n,) * t + (-1,) + lead)
            da -= _gamma_slot_sum(gamma, slots, t).reshape((n, rows, cols) + sums)
        if s:
            slots = np.swapaxes(a, 0, 1).reshape((n,) * s + (-1,) + lead)
            flipped = _gamma_slot_sum(np.swapaxes(gamma, 0, 2), slots, s)
            da += np.swapaxes(flipped.reshape((n, cols, rows) + sums), 1, 2)
    if shape != grid.shape:
        if not np.any(da):
            return da
        da = np.broadcast_to(da, (n, rows, cols) + grid.shape).copy()
    grid.zero_band(da, grid.stencil_radius)
    return da


def _put(table, key, mat):
    table[key] = mat if key not in table else table[key] + mat


def compose(q, p):
    """Q after P at the coefficient level.

    Walks the product rule nabla(a w) = (nabla a) w + (1 (x) a) nabla w
    through Q's derivative depth, then contracts with Q's coefficients.
    An entry that is differentiated again is lifted densely to I_n (x) a.
    The last step builds no next table: Q's top coefficient b is
    multiplied into nabla a directly, and into the lift by reshaping, b
    of shape (r, n * s) viewed as (r * n, s), times the (s, c) entry a,
    read back as (r, n * c).  So a first-order Q makes no lift at all,
    and only a Q of order >= 2 lifts densely.  The result has order at most
    order(Q) + order(P).  A zero (None) level of P never enters the
    product-rule table, nor does an all-zero derivative; a zero level of
    Q multiplies nothing, and a result level that nothing reaches stays
    None.  Every product broadcasts the stored shapes of its factors, so
    constant levels of both factors give a constant product.
    """
    if q.grid != p.grid:
        raise ChartMismatch("operator factors live on different grids")
    if q.source.fiber_dim != p.target.fiber_dim:
        raise ShapeMismatch(
            f"cannot chain a source fiber of {q.source.fiber_dim} after a "
            f"target fiber of {p.target.fiber_dim}"
        )
    if not np.array_equal(q.metric.values, p.metric.values):
        raise ChartMismatch("operator factors use different metrics")
    n = g = p.grid.dim
    metric = p.metric

    def derivative(mat, m, i):
        der = _hom_derivative(mat, (p.source, m), (p.target, i), metric)
        return der.reshape((n * mat.shape[0], mat.shape[1]) + der.shape[3:])

    def product(x, y):
        return np.einsum("ab...,bc...->ac...", x, y)

    eye_lift = np.eye(n, dtype=complex).reshape((n, n) + (1,) * g)
    out = {}
    table = {m: a for m, a in enumerate(p.coefficients) if a is not None}
    for i, b in enumerate(q.coefficients):
        if b is not None:
            for m, mat in table.items():
                _put(out, m, product(b, mat))
        if i + 1 >= q.order:
            break
        nxt = {}
        for m, mat in table.items():
            der = derivative(mat, m, i)
            if np.any(der):
                _put(nxt, m, der)
            _put(nxt, m + 1, pointwise_kron(eye_lift, mat))
        table = nxt
    top = q.coefficients[-1]
    if q.order and top is not None:
        rows = top.shape[0]
        for m, mat in table.items():
            der = derivative(mat, m, q.order - 1)
            if np.any(der):
                _put(out, m, product(top, der))
            stacked = top.reshape((rows * n, mat.shape[0]) + top.shape[2:])
            lifted = product(stacked, mat)
            _put(out, m + 1, lifted.reshape((rows, n * mat.shape[1]) + lifted.shape[2:]))
    levels = [out.get(m) for m in range(q.order + p.order + 1)]
    return NablaOpSpec(p.source, q.target, metric, levels)


class MixedTerm:
    """One summand a nabla_{Z_k1} ... nabla_{Z_kr}; the rightmost factor acts first.

    The coefficient may be stored at the shape it varies over, each grid
    axis full or of length 1.  labels are the 1-based indices k1 .. kr of
    the vector fields in a GeneratorSystem, which every function that
    applies or rewrites the term takes; any finite list of vector fields
    can serve as one.
    """

    def __init__(self, coefficient, labels):
        self.coefficient = np.asarray(coefficient, dtype=complex)
        self.labels = tuple(int(k) for k in labels)


class MixedOpSpec:
    """Sum of mixed terms a nabla_{Z_k1} ... nabla_{Z_kr} with r <= order.

    The terms name their vector fields by generator labels only; the
    GeneratorSystem that holds the fields is passed where the operator is
    applied or rewritten.  A term whose coefficient is identically zero is
    validated and counts towards the default order, but is not kept.
    """

    def __init__(self, source, target, metric, terms, order=None):
        grid = _common_grid(metric, "operator", source, target)
        tail = (target.fiber_dim, source.fiber_dim)
        depth = 0
        for term in terms:
            check_grid_shape(term.coefficient.shape, grid, tail, "term coefficient")
            if any(k < 1 for k in term.labels):
                raise ShapeMismatch(f"generator labels must be >= 1, got {term.labels}")
            depth = max(depth, len(term.labels))
        if order is None:
            order = depth
        if order < depth:
            raise ShapeMismatch(
                f"declared order {order} is below the deepest term ({depth})"
            )
        self.source = source
        self.target = target
        self.metric = metric
        self.terms = [term for term in terms if np.any(term.coefficient)]
        self.order = int(order)

    @property
    def grid(self):
        return self.metric.grid


def _check_frame(spec, gens):
    """Reject a frame off the operator's grid or without a field a label names."""
    if gens.grid != spec.grid:
        raise ChartMismatch("generator system and operator live on different grids")
    top = max((k for term in spec.terms for k in term.labels), default=0)
    if top > gens.n_gens:
        raise ShapeMismatch(f"label {top} exceeds the frame's {gens.n_gens} fields")


def apply_mixed_op(spec, u, gens):
    """Apply each directional chain right to left, then the coefficient."""
    grid = spec.grid
    _check_frame(spec, gens)
    pair, expects = "operator and section", "operator eats rank-0 sections"
    _check_levels([u], 0, grid, spec.source, pair, expects)
    grid.check_support(u.values, spec.order * grid.stencil_radius)
    out = np.zeros((spec.target.fiber_dim,) + grid.shape, dtype=complex)
    for term in spec.terms:
        v = u
        for k in reversed(term.labels):
            full = covariant_derivative(v, spec.source, spec.metric, check_support=False)
            vals = np.einsum("k...,ka...->a...", gens.z[k - 1], full.values)
            v = TensorSection(grid, 0, vals, u.fiber_dim)
        out += np.einsum("gk...,k...->g...", term.coefficient, v.values)
    return TensorSection(grid, 0, out, spec.target.fiber_dim)


def mixed_to_nabla(spec, gens):
    """Rewrite directional chains into a single coefficient ladder.

    Each term a nabla_{Z_k1} ... nabla_{Z_kr} becomes the composition of the
    multiplication by a with the first-order ladders nabla_{Z_ki}, nested
    from the rightmost factor inward so that every product-rule step
    differentiates a single table entry.  The ladder keeps the declared order.
    """
    _check_frame(spec, gens)
    metric = spec.metric
    source = spec.source
    total = None
    for term in spec.terms:
        op = multiplication_op(term.coefficient, source, spec.target, metric)
        fields = [gens.z[k - 1] for k in term.labels]
        if fields:
            chain = directional_op(fields[-1], source, metric)
            for x in reversed(fields[:-1]):
                chain = compose(directional_op(x, source, metric), chain)
            op = compose(op, chain)
        total = _add_ladders(total, op)
    levels = [None] * (spec.order + 1)
    if total is not None:
        levels[: total.order + 1] = total.coefficients
    return NablaOpSpec(source, spec.target, metric, levels)


def _add_coframe_lift(table, key, xi, mat):
    """Add xi (x) mat into table[key], held as (n, rows, cols) + the shape
    its terms vary over together.

    The first term is stored whole; later ones are added slab by slab,
    slab y taking xi_y mat, so no n-fold lift is built to be summed.  A
    term that varies over more grid axes than the sum so far widens the
    sum first.
    """
    if key not in table:
        table[key] = xi[:, None, None] * mat[None]
        return
    lift = table[key]
    axes = np.broadcast_shapes(lift.shape[3:], xi.shape[1:], mat.shape[2:])
    if lift.shape[3:] != axes:
        lift = table[key] = np.broadcast_to(lift, lift.shape[:3] + axes).copy()
    for y in range(xi.shape[0]):
        lift[y] += xi[y] * mat


def nabla_to_mixed(spec, gens):
    """Expand the ladder through a frame, one directional chain per tuple.

    Each application of nabla becomes sum_i tau_{xi_i} nabla_{Z_i}; the
    derivative also hits the coframe factors already emitted, which keeps
    the chains in pure Z form with the slack pushed into the coefficients.
    Only two depths of chains are alive at a time: depth j is merged into
    the result, a_j times each chain, as soon as depth j + 1 is built.
    """
    if gens.grid != spec.grid:
        raise ChartMismatch("generator system and operator live on different grids")
    grid = spec.grid
    metric = spec.metric
    source = spec.source
    d = source.fiber_dim
    eye = np.eye(d, dtype=complex).reshape((d, d) + (1,) * grid.dim)
    merged = {}

    def merge(a, chains):
        if a is not None:
            for chain, phi in chains.items():
                _put(merged, chain, np.einsum("gf...,fk...->gk...", a, phi))

    prev = {(): eye}
    for j in range(1, spec.order + 1):
        cur = {}
        for chain, phi in prev.items():
            der = _hom_derivative(phi, (source, 0), (source, j - 1), metric)
            for i in range(gens.n_gens):
                xi = gens.xi[i].astype(complex)
                moved = np.einsum("y...,yfk...->fk...", gens.z[i], der)
                _add_coframe_lift(cur, chain, xi, moved)
                _add_coframe_lift(cur, (i + 1,) + chain, xi, phi)
            del der
        merge(spec.coefficients[j - 1], prev)
        prev = {c: a.reshape((-1, d) + a.shape[3:]) for c, a in cur.items()}
        del cur
    merge(spec.coefficients[spec.order], prev)
    del prev
    terms = [MixedTerm(c, chain) for chain, c in sorted(merged.items())]
    return MixedOpSpec(source, spec.target, metric, terms, order=spec.order)


def _absorb(coefficient, pre, endo, post, gens, bundle, metric):
    """Rewrite a chain(pre) endo chain(post) as plain labeled terms.

    Pushing the endomorphism left past one directional factor costs its
    directional derivative: nabla_Z (B w) = (nabla_Z B) w + B nabla_Z w.
    """
    if not pre:
        merged = np.einsum("gf...,fk...->gk...", coefficient, endo)
        return [(merged, tuple(post))]
    k = pre[-1]
    out = _absorb(coefficient, pre[:-1], endo, (k,) + tuple(post), gens, bundle, metric)
    # nabla_Z of the endomorphism field, as another endomorphism field
    der = _hom_derivative(endo, (bundle, 0), (bundle, 0), metric)
    der = np.einsum("y...,yfk...->fk...", gens.z[k - 1], der)
    out += _absorb(coefficient, pre[:-1], der, post, gens, bundle, metric)
    return out


def reorder_generators(spec, gens, bundle):
    """Bubble-sort every chain into non-decreasing labels.

    Each adjacent swap inserts the commutator corrections
    R(Z_i, Z_j) + sum_k L_ij^k nabla_{Z_k}, absorbed into lower-order
    labeled terms; the induced map is unchanged up to stencil error.
    """
    _check_frame(spec, gens)
    if bundle.grid != spec.grid or bundle.fiber_dim != spec.source.fiber_dim:
        raise ShapeMismatch("curvature bundle does not match the operator source")
    metric = spec.metric
    d = bundle.fiber_dim
    eye = np.eye(d, dtype=complex).reshape((d, d) + (1,) * metric.grid.dim)
    curv = curvature(bundle)
    pending = [(term.coefficient, term.labels) for term in spec.terms]
    finished = {}
    while pending:
        coeff, labels = pending.pop()
        spot = next(
            (s for s in range(len(labels) - 1) if labels[s] > labels[s + 1]), None
        )
        if spot is None:
            _put(finished, labels, coeff)
            continue
        i, j = labels[spot], labels[spot + 1]
        pending.append((coeff, labels[:spot] + (j, i) + labels[spot + 2 :]))
        pre, post = labels[:spot], labels[spot + 2 :]
        r_ij = curv.contract(gens.z[i - 1], gens.z[j - 1])
        pending.extend(_absorb(coeff, pre, r_ij, post, gens, bundle, metric))
        for m in range(gens.n_gens):
            lam = gens.l_structure[i - 1, j - 1, m]
            if not np.any(lam):
                continue
            scaled = lam * eye
            pending.extend(
                _absorb(coeff, pre, scaled, (m + 1,) + post, gens, bundle, metric)
            )
    terms = [MixedTerm(c, chain) for chain, c in sorted(finished.items())]
    return MixedOpSpec(spec.source, spec.target, metric, terms, order=spec.order)


def _hom_tower_sup(a, source, target, slots, metric, depth):
    """Grid sup of |nabla^j a| over j <= depth; NaN when any level has NaN.

    a is a Hom field from source to T*M^slots (x) target, stored as
    (n^slots * d_target, d_source) + grid, each grid axis full or of length
    1; it is broadcast to the full grid, which the interior masks need.
    Its form slots and derivative slots are measured with g^-1, the Hom
    fiber with the identity.  Level j excludes the band of j + 1 stencil
    radii, where the stencil is invalid, since coefficient fields need not
    vanish there.
    """
    grid = metric.grid
    if source.grid != grid or target.grid != grid:
        raise ChartMismatch("Hom field bundles and metric live on different grids")
    n = grid.dim
    fiber = target.fiber_dim * source.fiber_dim
    a = np.broadcast_to(a, a.shape[:2] + grid.shape)
    sups = []
    for j in range(depth + 1):
        if j:
            a = _hom_derivative(a, (source, 0), (target, slots + j - 1), metric)
            a = a.reshape((n * a.shape[1], a.shape[2]) + grid.shape)
        rank = slots + j
        vals = a.reshape((n,) * rank + (fiber,) + grid.shape)
        level = TensorSection(grid, rank, vals, fiber)
        mask = grid.interior_mask((j + 1) * grid.stencil_radius)
        sups.append(np.max(np.where(mask, pointwise_norm_sq(level, metric), 0.0)))
    return float(np.sqrt(np.max(sups)))


def coefficient_infty_norm(a, source, target, metric, depth):
    """Grid sup of a Hom coefficient and its covariant derivatives to depth.

    The stencil-invalid band grows with every derivative and is excluded
    from the sup, since coefficients need not vanish near the boundary.
    """
    a = np.asarray(a, dtype=complex)
    tail = (target.fiber_dim, source.fiber_dim)
    check_grid_shape(a.shape, metric.grid, tail, "coefficient")
    return _hom_tower_sup(a, source, target, 0, metric, depth)


def hom_infty_norm(field, depth, bundle, metric):
    """W^{depth,inf} norm of a Hom-valued one-form field on the grid.

    field has shape (n, d_out, d_in) + grid, each grid axis full or of
    length 1.  Derivatives are taken in the induced connection; values
    inside the stencil-invalid band are excluded from the max, since
    coefficient fields need not vanish there.
    """
    n = metric.grid.dim
    d = bundle.fiber_dim
    check_grid_shape(field.shape, metric.grid, (n, d, d), "potential field")
    a = field.astype(complex, copy=False).reshape((n * d, d) + field.shape[3:])
    return _hom_tower_sup(a, bundle, bundle, 1, metric, depth)


def perturbed_norms(u, perturbation, ell, p, bundle, metric):
    """W^{ell,p} norms of u under potentials A and A + perturbation.

    The perturbation must be a skew-Hermitian Hom-valued one-form.  Returns
    (base, other, constant): the two norms and the recursion constant that
    bounds either one by the other.
    """
    skew_defect = np.max(
        np.abs(perturbation + np.conj(np.swapaxes(perturbation, 1, 2)))
    )
    scale = max(float(np.max(np.abs(perturbation))), 1e-300)
    if skew_defect > 1e-10 * scale:
        raise ValueError(
            f"perturbation is not skew-Hermitian: defect {float(skew_defect):.3e}"
        )
    perturbed = BundleSpec(
        u.grid,
        bundle.fiber_dim,
        potentials=bundle.potentials + perturbation,
        fiber_metric=bundle.fiber_metric,
    )
    coeff_norm = hom_infty_norm(perturbation, max(ell - 1, 0), bundle, metric)
    constant = equivalence_constant(ell, p, coeff_norm)
    base = sobolev_norm(tower(u, bundle, metric, ell), p, bundle, metric)
    other = sobolev_norm(tower(u, perturbed, metric, ell), p, perturbed, metric)
    return base, other, constant


def mapping_constant(spec, k, p):
    """Certified constant of the ladder spec as a map W^{k+mu,p} -> W^{k,p}.

    The multiplication constant times the sum of the coefficient
    W^{k,inf} norms.
    """
    metric = spec.metric
    coeff_norm = 0.0
    for j, a in enumerate(spec.coefficients):
        if a is None:
            continue  # the zero level adds exactly 0.0
        src = induced_tensor_bundle(spec.source, metric, j)
        coeff_norm += coefficient_infty_norm(a, src, spec.target, metric, k)
    return multiplication_constant(k, math.inf, p, p) * coeff_norm
