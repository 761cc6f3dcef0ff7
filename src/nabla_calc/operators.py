"""Differential operators as coefficient data over a chart.

Two presentations of the same maps: ladders P = sum_j a^[j] nabla^j with
Hom-valued coefficients on flattened derivative fibers, and mixed sums of
terms a nabla_{X_1} ... nabla_{X_r}.  Composition, rewriting between the two
forms, and reordering of directional factors all happen on coefficients,
but operator equality is only ever checked by application: coefficients of
a given map are not unique.
"""

import math

import numpy as np

from .bundles import (
    FockSlice,
    TensorSection,
    induced_tensor_bundle,
    pointwise_kron,
)
from .calculus import covariant_derivative, curvature, tower
from .errors import ChartMismatch, ShapeMismatch
from .geometry import WeightPair
from .norms import (
    _tower_sup,
    multiplication_constant,
    sobolev_norm,
    strict_max,
    weighted_sobolev_norm,
)
from .sections import random_section, seeded_rng

_COEFF_TAGS = ("smooth", "totally-bounded")
_FIELD_TAGS = ("smooth", "bounded")


class NablaOpSpec:
    """Ladder operator sum_j a^[j] nabla^j with explicit coefficient data."""

    def __init__(self, source, target, metric, coefficients, coefficient_class="smooth"):
        if coefficient_class not in _COEFF_TAGS:
            raise ValueError(f"unknown coefficient class {coefficient_class!r}")
        grid = metric.grid
        if source.grid != grid or target.grid != grid or coefficients.grid != grid:
            raise ChartMismatch("operator ingredients live on different grids")
        if coefficients.source_dim != source.fiber_dim:
            raise ShapeMismatch(
                f"coefficients eat fiber {coefficients.source_dim}, the source "
                f"bundle has fiber {source.fiber_dim}"
            )
        if coefficients.target_dim != target.fiber_dim:
            raise ShapeMismatch(
                f"coefficients produce fiber {coefficients.target_dim}, the "
                f"target bundle has fiber {target.fiber_dim}"
            )
        self.source = source
        self.target = target
        self.metric = metric
        self.coefficients = coefficients
        self.coefficient_class = coefficient_class

    @property
    def grid(self):
        return self.metric.grid

    @property
    def order(self):
        return self.coefficients.order


def _joint_class(*specs):
    """Totally bounded only when every factor is."""
    if all(s.coefficient_class == "totally-bounded" for s in specs):
        return "totally-bounded"
    return "smooth"


def _scaled(spec, factor):
    """The same ladder with every level multiplied by factor."""
    entries = [factor * a for a in spec.coefficients.entries]
    ladder = FockSlice(spec.grid, spec.source.fiber_dim, spec.target.fiber_dim, entries)
    return NablaOpSpec(
        spec.source, spec.target, spec.metric, ladder, spec.coefficient_class
    )


def identity_op(bundle, metric):
    """The order-0 operator u -> u."""
    return gradient_op(bundle, metric, 0)


def multiplication_op(a, source, target, metric, coefficient_class="smooth"):
    """Order-0 operator u -> a u for a Hom field a."""
    grid = metric.grid
    a = np.asarray(a, dtype=complex)
    ladder = FockSlice(grid, source.fiber_dim, target.fiber_dim, [a])
    return NablaOpSpec(source, target, metric, ladder, coefficient_class)


def gradient_op(bundle, metric, depth=1):
    """P = nabla^depth, landing in the flattened rank-depth bundle."""
    grid = bundle.grid
    d = bundle.fiber_dim
    top = grid.dim**depth * d
    target = induced_tensor_bundle(bundle, metric, depth) if depth else bundle
    eye = np.broadcast_to(np.eye(top, dtype=complex), grid.shape + (top, top))
    ladder = FockSlice(grid, d, top, [None] * depth + [eye])
    return NablaOpSpec(bundle, target, metric, ladder, "totally-bounded")


def apply_nabla_op(spec, u):
    """Apply a ladder operator by walking the derivative tower once."""
    if u.grid != spec.grid:
        raise ChartMismatch("operator and section live on different grids")
    if u.rank != 0 or u.fiber_dim != spec.source.fiber_dim:
        raise ShapeMismatch(
            f"operator eats rank-0 sections with fiber {spec.source.fiber_dim}, "
            f"got rank {u.rank} with fiber {u.fiber_dim}"
        )
    grid = spec.grid
    grid.check_support(u.values, spec.order * grid.stencil_radius)
    out = np.zeros(grid.shape + (spec.target.fiber_dim,), dtype=complex)
    levels = tower(u, spec.source, spec.metric, spec.order)
    for a, v in zip(spec.coefficients.entries, levels):
        out += np.einsum("...gk,...k->...g", a, v.values.reshape(grid.shape + (-1,)))
    return TensorSection(grid, 0, out, spec.target.fiber_dim)


def _hom_derivative(a, source, target, metric):
    """Covariant derivative of a Hom field, one direction axis in front.

    Returns grid + (n, d_target, d_source) holding D_y a + A^tgt_y a - a
    A^src_y; the stencil-invalid band is zeroed since coefficient fields
    need not vanish there.
    """
    grid = metric.grid
    n = grid.dim
    da = np.stack([grid.diff(a, axis=y) for y in range(n)], axis=grid.dim)
    da = da.astype(complex, copy=False)
    a_y = a[..., None, :, :]
    da += np.matmul(target.potentials, a_y)
    da -= np.matmul(a_y, source.potentials)
    grid.zero_band(da, grid.stencil_radius)
    return da


def _directional_endo_derivative(b, field, bundle, metric):
    """nabla_X of an endomorphism field, as another endomorphism field."""
    der = _hom_derivative(b, bundle, bundle, metric)
    return np.einsum("...y,...yfk->...fk", field, der)


def _induced(bundle, metric, cache, rank):
    if rank not in cache:
        cache[rank] = induced_tensor_bundle(bundle, metric, rank)
    return cache[rank]


def _put(table, key, mat):
    table[key] = mat if key not in table else table[key] + mat


def compose(q, p):
    """Q after P at the coefficient level.

    Walks the product rule nabla(a w) = (nabla a) w + (1 (x) a) nabla w
    through Q's derivative depth, then contracts with Q's coefficients.
    The result has order at most order(Q) + order(P) and keeps the
    totally-bounded tag only when both factors carry it.
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
    grid = p.grid
    n = grid.dim
    metric = p.metric
    eye_lift = np.eye(n, dtype=complex).reshape((1,) * grid.dim + (n, n))
    out = [None] * (q.order + p.order + 1)
    table = dict(enumerate(p.coefficients.entries))
    src_cache, tgt_cache = {}, {}
    for i in range(q.order + 1):
        b = q.coefficients.entries[i]
        for m, mat in table.items():
            term = np.matmul(b, mat)
            out[m] = term if out[m] is None else out[m] + term
        if i == q.order:
            break
        nxt = {}
        for m, mat in table.items():
            der = _hom_derivative(
                mat,
                _induced(p.source, metric, src_cache, m),
                _induced(p.target, metric, tgt_cache, i),
                metric,
            )
            _put(nxt, m, der.reshape(grid.shape + (n * mat.shape[-2], mat.shape[-1])))
            _put(nxt, m + 1, pointwise_kron(eye_lift, mat))
        table = nxt
    ladder = FockSlice(grid, p.source.fiber_dim, q.target.fiber_dim, out)
    return NablaOpSpec(p.source, q.target, metric, ladder, _joint_class(q, p))


class MixedTerm:
    """One summand a nabla_{X_1} ... nabla_{X_r}; the rightmost factor acts first.

    fields holds the vector fields as (grid, n) arrays; labels optionally
    tags them as 1-based generator indices, which reordering requires.
    Either may be omitted, but not both.
    """

    def __init__(self, coefficient, fields=None, labels=None):
        if fields is None and labels is None:
            raise ShapeMismatch("a mixed term needs vector fields or labels")
        self.coefficient = np.asarray(coefficient, dtype=complex)
        self.fields = None if fields is None else [np.asarray(x, float) for x in fields]
        self.labels = None if labels is None else tuple(int(k) for k in labels)

    @property
    def depth(self):
        return len(self.fields) if self.fields is not None else len(self.labels)


class MixedOpSpec:
    """Sum of mixed terms a nabla_{X_1} ... nabla_{X_r} with r <= order."""

    def __init__(
        self,
        source,
        target,
        metric,
        terms,
        order=None,
        coefficient_class="smooth",
        field_class="smooth",
    ):
        if coefficient_class not in _COEFF_TAGS:
            raise ValueError(f"unknown coefficient class {coefficient_class!r}")
        if field_class not in _FIELD_TAGS:
            raise ValueError(f"unknown vector-field class {field_class!r}")
        grid = metric.grid
        if source.grid != grid or target.grid != grid:
            raise ChartMismatch("operator ingredients live on different grids")
        n = grid.dim
        want = grid.shape + (target.fiber_dim, source.fiber_dim)
        depth = 0
        for term in terms:
            if term.coefficient.shape != want:
                raise ShapeMismatch(
                    f"term coefficient has shape {term.coefficient.shape}, "
                    f"expected {want}"
                )
            if term.fields is not None:
                for x in term.fields:
                    if x.shape != grid.shape + (n,):
                        raise ShapeMismatch(
                            f"vector field shape {x.shape} does not match the grid"
                        )
            if term.labels is not None and any(k < 1 for k in term.labels):
                raise ShapeMismatch(f"generator labels must be >= 1, got {term.labels}")
            depth = max(depth, term.depth)
        if order is None:
            order = depth
        if order < depth:
            raise ShapeMismatch(
                f"declared order {order} is below the deepest term ({depth})"
            )
        self.source = source
        self.target = target
        self.metric = metric
        self.terms = list(terms)
        self.order = int(order)
        self.coefficient_class = coefficient_class
        self.field_class = field_class

    @property
    def grid(self):
        return self.metric.grid


def _term_fields(term, gens):
    if term.fields is not None:
        return term.fields
    if gens is None:
        raise ValueError(
            "term carries only generator labels; pass the generator system"
        )
    return [gens.z[..., k - 1, :] for k in term.labels]


def apply_mixed_op(spec, u, gens=None):
    """Apply each directional chain right to left, then the coefficient."""
    if u.grid != spec.grid:
        raise ChartMismatch("operator and section live on different grids")
    if u.rank != 0 or u.fiber_dim != spec.source.fiber_dim:
        raise ShapeMismatch(
            f"operator eats rank-0 sections with fiber {spec.source.fiber_dim}, "
            f"got rank {u.rank} with fiber {u.fiber_dim}"
        )
    grid = spec.grid
    grid.check_support(u.values, spec.order * grid.stencil_radius)
    out = np.zeros(grid.shape + (spec.target.fiber_dim,), dtype=complex)
    for term in spec.terms:
        v = u
        for x in reversed(_term_fields(term, gens)):
            full = covariant_derivative(v, spec.source, spec.metric, check_support=False)
            vals = np.einsum("...k,...ka->...a", x, full.values)
            v = TensorSection(grid, 0, vals, u.fiber_dim)
        out += np.einsum("...gk,...k->...g", term.coefficient, v.values)
    return TensorSection(grid, 0, out, spec.target.fiber_dim)


def mixed_to_nabla(spec, gens=None):
    """Rewrite directional chains into a single coefficient ladder.

    Works inward from the rightmost factor: nabla_X = i_X after nabla, so
    every accumulated coefficient splits by the product rule into its
    derivative plus a lifted copy one rung up.
    """
    grid = spec.grid
    metric = spec.metric
    source = spec.source
    d = source.fiber_dim
    eye = np.broadcast_to(np.eye(d, dtype=complex), grid.shape + (d, d))
    total = [None] * (spec.order + 1)
    src_cache = {}
    for term in spec.terms:
        chain = {0: eye}
        for x in reversed(_term_fields(term, gens)):
            nxt = {}
            for m, c in chain.items():
                der = _hom_derivative(
                    c, _induced(source, metric, src_cache, m), source, metric
                )
                _put(nxt, m, np.einsum("...y,...yfk->...fk", x, der))
                row = x[..., None, :].astype(complex)
                _put(nxt, m + 1, pointwise_kron(row, c))
            chain = nxt
        for m, c in chain.items():
            mat = np.matmul(term.coefficient, c)
            total[m] = mat if total[m] is None else total[m] + mat
    tag = (
        "totally-bounded"
        if spec.coefficient_class == "totally-bounded" and spec.field_class == "bounded"
        else "smooth"
    )
    return NablaOpSpec(
        source,
        spec.target,
        metric,
        FockSlice(grid, d, spec.target.fiber_dim, total),
        tag,
    )


def nabla_to_mixed(spec, gens):
    """Expand the ladder through a frame, one directional chain per tuple.

    Each application of nabla becomes sum_i tau_{xi_i} nabla_{Z_i}; the
    derivative also hits the coframe factors already emitted, which keeps
    the chains in pure Z form with the slack pushed into the coefficients.
    """
    if gens.grid != spec.grid:
        raise ChartMismatch("generator system and operator live on different grids")
    grid = spec.grid
    metric = spec.metric
    source = spec.source
    d = source.fiber_dim
    eye = np.broadcast_to(np.eye(d, dtype=complex), grid.shape + (d, d))
    per_depth = [{(): eye}]
    for j in range(1, spec.order + 1):
        prev = per_depth[j - 1]
        cur = {}
        tgt = induced_tensor_bundle(source, metric, j - 1)
        for chain, phi in prev.items():
            der = _hom_derivative(phi, source, tgt, metric)
            for i in range(gens.n_gens):
                z = gens.z[..., i, :]
                xi_col = gens.xi[..., i, :][..., :, None].astype(complex)
                moved = np.einsum("...y,...yfk->...fk", z, der)
                _put(cur, chain, pointwise_kron(xi_col, moved))
                _put(cur, (i + 1,) + chain, pointwise_kron(xi_col, phi))
        per_depth.append(cur)
    merged = {}
    for j, a in enumerate(spec.coefficients.entries):
        if not np.any(a):
            continue
        for chain, phi in per_depth[j].items():
            _put(merged, chain, np.einsum("...gf,...fk->...gk", a, phi))
    terms = [
        MixedTerm(c, fields=[gens.z[..., k - 1, :] for k in chain], labels=chain)
        for chain, c in sorted(merged.items())
        if np.any(c)
    ]
    frechet = bool(getattr(gens, "frechet", False))
    tag = (
        "totally-bounded"
        if spec.coefficient_class == "totally-bounded" and frechet
        else "smooth"
    )
    return MixedOpSpec(
        source,
        spec.target,
        metric,
        terms,
        order=spec.order,
        coefficient_class=tag,
        field_class="bounded" if frechet else "smooth",
    )


def _absorb(coefficient, pre, endo, post, gens, bundle, metric):
    """Rewrite a chain(pre) endo chain(post) as plain labeled terms.

    Pushing the endomorphism left past one directional factor costs its
    directional derivative: nabla_Z (B w) = (nabla_Z B) w + B nabla_Z w.
    """
    if not pre:
        merged = np.einsum("...gf,...fk->...gk", coefficient, endo)
        return [(merged, tuple(post))]
    k = pre[-1]
    out = _absorb(coefficient, pre[:-1], endo, (k,) + tuple(post), gens, bundle, metric)
    der = _directional_endo_derivative(endo, gens.z[..., k - 1, :], bundle, metric)
    out += _absorb(coefficient, pre[:-1], der, post, gens, bundle, metric)
    return out


def reorder_generators(spec, gens, bundle):
    """Bubble-sort every chain into non-decreasing labels.

    Each adjacent swap inserts the commutator corrections
    R(Z_i, Z_j) + sum_k L_ij^k nabla_{Z_k}, absorbed into lower-order
    labeled terms; the induced map is unchanged up to stencil error.
    """
    if gens.grid != spec.grid:
        raise ChartMismatch("generator system and operator live on different grids")
    if bundle.grid != spec.grid or bundle.fiber_dim != spec.source.fiber_dim:
        raise ShapeMismatch("curvature bundle does not match the operator source")
    metric = spec.metric
    d = bundle.fiber_dim
    eye = np.eye(d, dtype=complex)
    curv = curvature(bundle)
    pending = []
    for term in spec.terms:
        if term.labels is None:
            raise ValueError("reordering needs generator labels on every term")
        pending.append((term.coefficient, term.labels))
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
        r_endo = curv.contract(gens.z[..., i - 1, :], gens.z[..., j - 1, :])
        pending.extend(_absorb(coeff, pre, r_endo, post, gens, bundle, metric))
        for m in range(gens.n_gens):
            lam = gens.l_structure[..., i - 1, j - 1, m]
            if not np.any(lam):
                continue
            scaled = lam[..., None, None] * eye
            pending.extend(
                _absorb(coeff, pre, scaled, (m + 1,) + post, gens, bundle, metric)
            )
    terms = [
        MixedTerm(c, fields=[gens.z[..., k - 1, :] for k in chain], labels=chain)
        for chain, c in sorted(finished.items())
        if np.any(c)
    ]
    return MixedOpSpec(
        spec.source,
        spec.target,
        metric,
        terms,
        order=spec.order,
        coefficient_class=spec.coefficient_class,
        field_class=spec.field_class,
    )


def coefficient_infty_norm(a, source, target, metric, depth):
    """Grid sup of a Hom coefficient and its covariant derivatives to depth.

    The stencil-invalid band grows with every derivative and is excluded
    from the sup, since coefficients need not vanish near the boundary.
    """
    grid = metric.grid
    a = np.asarray(a, dtype=complex)
    hom_bundle = source.hom(target)
    fiber = a.shape[-2] * a.shape[-1]
    cur = TensorSection(grid, 0, a.reshape(grid.shape + (fiber,)), fiber)
    return _tower_sup(cur, hom_bundle, metric, depth)


def mapping_bound_check(spec, k, p, trials, seed=0):
    """Empirical continuity W^{k+mu,p} -> W^{k,p} against the assembled bound.

    The certified constant multiplies the coefficient W^{k,inf} norms by the
    multiplication constant; the report records the worst observed ratio.
    """
    metric = spec.metric
    grid = spec.grid
    mu = spec.order
    coeff_norm = 0.0
    for j, a in enumerate(spec.coefficients.entries):
        src = induced_tensor_bundle(spec.source, metric, j)
        coeff_norm += coefficient_infty_norm(a, src, spec.target, metric, k)
    constant = multiplication_constant(k, math.inf, p, p) * coeff_norm
    worst = 0.0
    for trial in range(trials):
        u = random_section(
            grid, 0, spec.source.fiber_dim, seeded_rng(seed, "mapping-bound", trial)
        )
        den = sobolev_norm(u, k + mu, p, spec.source, metric)
        num = sobolev_norm(apply_nabla_op(spec, u), k, p, spec.target, metric)
        if den != 0:
            worst = strict_max(worst, num / den)
    return {
        "max_ratio": worst,
        "bound": constant,
        "coefficient_norm": coeff_norm,
        "trials": trials,
        "passed": bool(worst <= constant * (1.0 + 1e-12)),
    }


def weighted_conjugate(spec, weight):
    """The rescaled operator f0^{-1} rho^mu P f0 with explicit coefficients."""
    if weight.grid != spec.grid:
        raise ChartMismatch("weight and operator live on different grids")
    mult = _scaled(identity_op(spec.source, spec.metric), weight.f0[..., None, None])
    factor = (weight.rho**spec.order / weight.f0)[..., None, None]
    return _scaled(compose(spec, mult), factor)


def weighted_mapping_check(spec, weight, ell, p, trials, seed=0):
    """Weighted continuity report: f0 W^{l,p} into f0 rho^{-mu} W^{l-mu,p}.

    Ratios use the weighted norms on both sides; the report also measures
    how far the explicit conjugate f0^{-1} rho^mu P f0 is from conjugating
    P section by section.
    """
    mu = spec.order
    if ell < mu:
        raise ValueError(f"need ell >= order, got ell={ell} for order {mu}")
    grid = spec.grid
    shifted = WeightPair(
        grid, weight.rho, weight.f0 / weight.rho**mu, admissible=weight.admissible
    )
    worst = 0.0
    conj = weighted_conjugate(spec, weight)
    residual = 0.0
    for trial in range(trials):
        u = random_section(
            grid, 0, spec.source.fiber_dim, seeded_rng(seed, "weighted-map", trial)
        )
        den = weighted_sobolev_norm(u, ell, p, weight, spec.source, spec.metric)
        pu = apply_nabla_op(spec, u)
        num = weighted_sobolev_norm(pu, ell - mu, p, shifted, spec.target, spec.metric)
        if den != 0:
            worst = strict_max(worst, num / den)
        if trial == 0:
            scaled = TensorSection(
                grid, 0, weight.f0[..., None] * u.values, u.fiber_dim
            )
            direct = apply_nabla_op(spec, scaled)
            direct_vals = (weight.rho**mu / weight.f0)[..., None] * direct.values
            via_conj = apply_nabla_op(conj, u)
            scale = max(1.0, float(np.max(np.abs(direct_vals))))
            residual = float(np.max(np.abs(via_conj.values - direct_vals))) / scale
    return {
        "max_ratio": worst,
        "conjugate_residual": residual,
        "trials": trials,
        "order": mu,
    }
