"""Bidifferential forms in canonical shape and divergence-form assembly.

A form pairs two sections through derivative towers: b(u (x) conj w) =
sum_ij (a_ij grad^i u, grad^j w), where the right side is the plain frame
pairing, conjugate-linear in w, so the stored coefficients carry every
metric factor.  Dirichlet forms are quadratures of that density, and the
weak operator u -> P u with <P u, w> = B(u, w) is assembled term by term
from the directional adjoint rule through a generator frame.
"""

import numpy as np

from .bundles import FockSlice, TensorSection, induced_tensor_bundle
from .calculus import divergence, tower
from .errors import ChartMismatch, NonadmissibleWeight, ShapeMismatch
from .geometry import conformal_rescale
from .operators import (
    _COEFF_TAGS,
    MixedOpSpec,
    MixedTerm,
    NablaOpSpec,
    _joint_class,
    _put,
    _scaled,
    apply_nabla_op,
    compose,
    gradient_op,
    identity_op,
    mixed_to_nabla,
    multiplication_op,
)


class BidiffSpec:
    """Canonical coefficients of a bidifferential form of order <= 2m.

    coefficients maps (i, j) with i, j <= half_order to arrays of shape
    grid + (n^j * dim F, n^i * dim E); u lives in the source bundle E and
    the conjugated argument w in the cosource bundle F.
    """

    def __init__(
        self, source, cosource, metric, half_order, coefficients, coefficient_class="smooth"
    ):
        if coefficient_class not in _COEFF_TAGS:
            raise ValueError(f"unknown coefficient class {coefficient_class!r}")
        grid = metric.grid
        if source.grid != grid or cosource.grid != grid:
            raise ChartMismatch("form ingredients live on different grids")
        m = int(half_order)
        n = grid.dim
        checked = {}
        for (i, j), a in coefficients.items():
            if i > m or j > m:
                raise ShapeMismatch(
                    f"coefficient ({i}, {j}) exceeds the half order {m}"
                )
            a = np.asarray(a, dtype=complex)
            want = grid.shape + (
                (n**j) * cosource.fiber_dim,
                (n**i) * source.fiber_dim,
            )
            if a.shape != want:
                raise ShapeMismatch(
                    f"coefficient ({i}, {j}) has shape {a.shape}, expected {want}"
                )
            checked[(int(i), int(j))] = a
        self.source = source
        self.cosource = cosource
        self.metric = metric
        self.half_order = m
        self.coefficients = checked
        self.coefficient_class = coefficient_class

    @property
    def grid(self):
        return self.metric.grid


def eval_bidiff(spec, u, w):
    """Pointwise density sum_ij (a_ij grad^i u, grad^j w), conjugating w."""
    grid = spec.grid
    if u.grid != grid or w.grid != grid:
        raise ChartMismatch("form and sections live on different grids")
    if u.rank != 0 or u.fiber_dim != spec.source.fiber_dim:
        raise ShapeMismatch(
            f"first argument must be rank 0 with fiber {spec.source.fiber_dim}, "
            f"got rank {u.rank} with fiber {u.fiber_dim}"
        )
    if w.rank != 0 or w.fiber_dim != spec.cosource.fiber_dim:
        raise ShapeMismatch(
            f"second argument must be rank 0 with fiber {spec.cosource.fiber_dim}, "
            f"got rank {w.rank} with fiber {w.fiber_dim}"
        )
    m = spec.half_order
    grid.check_support(u.values, m * grid.stencil_radius)
    grid.check_support(w.values, m * grid.stencil_radius)
    depth_u = max((i for i, _ in spec.coefficients), default=0)
    depth_w = max((j for _, j in spec.coefficients), default=0)
    us = [
        v.values.reshape(grid.shape + (-1,))
        for v in tower(u, spec.source, spec.metric, depth_u)
    ]
    ws = [
        v.values.reshape(grid.shape + (-1,))
        for v in tower(w, spec.cosource, spec.metric, depth_w)
    ]
    out = np.zeros(grid.shape, dtype=complex)
    for (i, j), a in spec.coefficients.items():
        moved = np.einsum("...ae,...e->...a", a, us[i])
        out += np.einsum("...a,...a->...", moved, np.conj(ws[j]))
    return out


def bidiff_from_ops(p, q):
    """Canonical form of b(u (x) conj w) = (P u, Q w)_G.

    Both ladders must land in the same bundle G; the G fiber metric is
    folded into the coefficients, a_ij = q_j^dagger H^T p_i.
    """
    if p.grid != q.grid:
        raise ChartMismatch("operator factors live on different grids")
    if not np.array_equal(p.metric.values, q.metric.values):
        raise ChartMismatch("operator factors use different metrics")
    if p.target.fiber_dim != q.target.fiber_dim:
        raise ShapeMismatch(
            f"target fibers {p.target.fiber_dim} and {q.target.fiber_dim} "
            f"cannot be paired"
        )
    h = np.asarray(p.target.fiber_metric, dtype=complex)
    href = np.asarray(q.target.fiber_metric, dtype=complex)
    # a constant fiber metric may be one matrix on one side, a field on the other
    if h.shape[-2:] != href.shape[-2:] or not np.allclose(h, href):
        raise ShapeMismatch("operator targets carry different fiber metrics")
    coefficients = {}
    for i, pi in enumerate(p.coefficients.entries):
        if not np.any(pi):
            continue
        for j, qj in enumerate(q.coefficients.entries):
            if not np.any(qj):
                continue
            coefficients[(i, j)] = np.einsum(
                "...ab,...bd,...ae->...de", h, np.conj(qj), pi
            )
    m = max(p.order, q.order)
    return BidiffSpec(p.source, q.source, p.metric, m, coefficients, _joint_class(p, q))


def dirichlet_form(spec, u, w, metric=None):
    """Quadrature of the form density against the volume element."""
    met = spec.metric if metric is None else metric
    if met.grid != spec.grid:
        raise ChartMismatch("quadrature metric lives on a different grid")
    density = eval_bidiff(spec, u, w)
    return complex(spec.grid.integrate(density * met.sqrt_det))


def l2_pairing(v, w, bundle, metric):
    """L2 inner product of sections with the fiber metric, conjugating w."""
    h = bundle.fiber_metric
    density = np.einsum("...ab,...a,...b->...", h, v.values, np.conj(w.values))
    return complex(metric.grid.integrate(density * metric.sqrt_det))


def _add_ladders(a, b):
    if a is None:
        return b
    entries = [None] * (max(a.order, b.order) + 1)
    for op in (a, b):
        for m, c in enumerate(op.coefficients.entries):
            entries[m] = c if entries[m] is None else entries[m] + c
    ladder = FockSlice(a.grid, a.source.fiber_dim, a.target.fiber_dim, entries)
    return NablaOpSpec(a.source, a.target, a.metric, ladder, _joint_class(a, b))


def _gradient_adjoint(bundle, metric, gens):
    """Adjoint of grad on a bundle, via the frame expansion.

    Decomposing v = sum_k xi_k (x) v_k and grad w = sum_l xi_l (x)
    grad_{Z_l} w reduces the slot pairing to scalars c_kl = (xi_k, xi_l)
    against the inverse metric, and each directional factor contributes
    -grad_{Z_l} - div(Z_l) acting on c_kl v_k.
    """
    grid = metric.grid
    d = bundle.fiber_dim
    rank_one = induced_tensor_bundle(bundle, metric, 1)
    eye = np.broadcast_to(np.eye(d, dtype=complex), grid.shape + (d, d))
    c = np.einsum("...ab,...ka,...lb->...kl", metric.inv, gens.xi, gens.xi)
    tag = "totally-bounded" if getattr(gens, "frechet", False) else "smooth"
    total = None
    for l in range(gens.n_gens):
        z_l = gens.z[..., l, :]
        div_l = divergence(z_l, metric)
        direction = mixed_to_nabla(
            MixedOpSpec(
                bundle, bundle, metric, [MixedTerm(eye, fields=[z_l])],
                coefficient_class=tag,
                field_class="bounded" if tag == "totally-bounded" else "smooth",
            )
        )
        for k in range(gens.n_gens):
            extract = np.einsum(
                "...y,...fe->...fye", gens.z[..., k, :].astype(complex), eye
            ).reshape(grid.shape + (d, grid.dim * d))
            scaled = c[..., k, l, None, None] * extract
            pick = multiplication_op(scaled, rank_one, bundle, metric, tag)
            total = _add_ladders(total, _scaled(compose(direction, pick), -1.0))
            zero_order = multiplication_op(
                -div_l[..., None, None] * scaled, rank_one, bundle, metric, tag
            )
            total = _add_ladders(total, zero_order)
    return total


def assemble_divergence_form(spec, gens, bundle, metric):
    """The weak operator of a form: P = sum_ij (grad^j)^* a_ij grad^i.

    The plain-pairing coefficients are first converted back to fiber-metric
    shape, then each (grad^j)^* is a chain of directional adjoints through
    the generator frame; the result has order at most 2 * half_order.
    """
    if gens.grid != spec.grid:
        raise ChartMismatch("generator system and form live on different grids")
    if bundle.fiber_dim != spec.cosource.fiber_dim or bundle.grid != spec.grid:
        raise ShapeMismatch("assembly bundle does not match the conjugated side")
    if not np.array_equal(metric.values, spec.metric.values):
        raise ChartMismatch("assembly metric differs from the form metric")
    source = spec.source
    adj_chain = {}
    total = None
    for (i, j), a in spec.coefficients.items():
        target_j = induced_tensor_bundle(bundle, metric, j) if j else bundle
        h_j = np.asarray(target_j.fiber_metric, dtype=complex)
        mid_coeff = np.linalg.solve(np.swapaxes(h_j, -1, -2), a)
        source_i = induced_tensor_bundle(source, metric, i) if i else source
        mid = multiplication_op(
            mid_coeff, source_i, target_j, metric, spec.coefficient_class
        )
        term = compose(mid, gradient_op(source, metric, i))
        for level in range(j, 0, -1):
            if level not in adj_chain:
                base = (
                    induced_tensor_bundle(bundle, metric, level - 1)
                    if level > 1
                    else bundle
                )
                adj_chain[level] = _gradient_adjoint(base, metric, gens)
            term = compose(adj_chain[level], term)
        total = _add_ladders(total, term)
    if total is None:
        raise ShapeMismatch("the form has no coefficients to assemble")
    return total


def weighted_duality_check(spec, weight, u, w, p=2.0, gens=None):
    """Two-picture pairing: original metric against the rescaled one.

    Route one evaluates the Dirichlet pairing directly.  Route two pulls
    the normalizing twists f0 rho^{-n/p} (and the dual twist on the w
    side) into the coefficients, which turns the volume into the one of
    the rescaled metric rho^{-2} g; exact arithmetic would make the two
    numbers equal, so the report carries their ratio.  When a generator
    system is supplied, the weak-form residual against the assembled
    divergence-form operator is measured as well.
    """
    if not weight.admissible:
        raise NonadmissibleWeight(
            "the two-picture check needs a weight declared admissible"
        )
    if weight.grid != spec.grid:
        raise ChartMismatch("weight and form live on different grids")
    p = float(p)
    if not 1.0 < p < np.inf:
        raise ValueError(f"the duality pairing needs 1 < p < inf, got {p}")
    grid = spec.grid
    n = grid.dim
    metric = spec.metric
    q = p / (p - 1.0)
    s_u = weight.f0 * weight.rho ** (-n / p)
    s_w = weight.rho ** (-n / q) / weight.f0
    d_e = spec.source.fiber_dim
    d_f = spec.cosource.fiber_dim
    mult_u = _scaled(identity_op(spec.source, metric), s_u[..., None, None])
    mult_w = _scaled(identity_op(spec.cosource, metric), s_w[..., None, None])
    depth_u = max((i for i, _ in spec.coefficients), default=0)
    depth_w = max((j for _, j in spec.coefficients), default=0)
    b_ladders = [
        compose(gradient_op(spec.source, metric, i), mult_u).coefficients
        for i in range(depth_u + 1)
    ]
    c_ladders = [
        compose(gradient_op(spec.cosource, metric, j), mult_w).coefficients
        for j in range(depth_w + 1)
    ]
    # dvol_g = rho^n dvol_{g0}, so the coefficients absorb rho^n and the
    # quadrature below runs against the rescaled volume
    measure = weight.rho ** float(n)
    twisted = {}
    for (i, j), a in spec.coefficients.items():
        mid = measure[..., None, None] * a
        for t in range(i + 1):
            b_t = b_ladders[i].entries[t]
            if not np.any(b_t):
                continue
            for tau in range(j + 1):
                c_tau = c_ladders[j].entries[tau]
                if not np.any(c_tau):
                    continue
                block = np.einsum(
                    "...ad,...ab,...be->...de", np.conj(c_tau), mid, b_t
                )
                _put(twisted, (t, tau), block)
    spec0 = BidiffSpec(
        spec.source,
        spec.cosource,
        metric,
        spec.half_order,
        twisted,
        spec.coefficient_class,
    )
    u0 = TensorSection(grid, 0, u.values / s_u[..., None], d_e)
    w0 = TensorSection(grid, 0, w.values / s_w[..., None], d_f)
    pair_weighted = dirichlet_form(spec, u, w)
    metric0 = conformal_rescale(metric, weight.rho)
    pair_rescaled = dirichlet_form(spec0, u0, w0, metric=metric0)
    scale = max(abs(pair_weighted), abs(pair_rescaled), 1e-300)
    report = {
        "pair_weighted": pair_weighted,
        "pair_rescaled": pair_rescaled,
        "ratio": pair_weighted / pair_rescaled if pair_rescaled != 0 else np.inf,
        "residual": abs(pair_weighted - pair_rescaled) / scale,
    }
    if gens is not None:
        op = assemble_divergence_form(spec, gens, spec.cosource, metric)
        pu = apply_nabla_op(op, u)
        weak = l2_pairing(pu, w, spec.cosource, metric)
        report["weak_pairing"] = weak
        report["weak_residual"] = abs(weak - pair_weighted) / max(
            abs(pair_weighted), 1e-300
        )
    return report
