"""Bidifferential forms in canonical shape and divergence-form assembly.

A form pairs two sections through derivative towers: b(u (x) conj w) =
sum_ij (a_ij grad^i u, grad^j w), where the right side is the plain frame
pairing, conjugate-linear in w, so the stored coefficients carry every
metric factor.  Dirichlet forms are quadratures of that density, and the
weak operator u -> P u with <P u, w> = B(u, w) is assembled term by term
from the directional adjoint rule through a generator frame.

Form coefficients are stored grid-last at the shape they vary over, as
ladder levels are: each grid axis has its full length or length 1, so a
constant form such as the identity pairing is (rows, cols, 1, .., 1), and
the assembly
composes and sums such levels without building full-grid constants.
"""

import numpy as np

from .bundles import TensorSection, induced_tensor_bundle, is_identity
from .calculus import divergence, tower
from .errors import ChartMismatch, NonadmissibleWeight, ShapeMismatch
from .generators import coframe_gram
from .grid import check_grid_shape, compact_grid_axes
from .operators import (
    NablaOpSpec,
    _add_ladders,
    _check_levels,
    _common_grid,
    _put,
    _scaled,
    compose,
    directional_op,
    gradient_op,
    identity_op,
    multiplication_op,
)


class BidiffSpec:
    """Canonical coefficients of a bidifferential form of order <= 2m.

    coefficients maps (i, j) with i, j <= half_order to (n^j * dim F,
    n^i * dim E) + grid arrays; u lives in the source bundle E and the
    conjugated argument w in the cosource bundle F.  Each coefficient is
    stored at the shape it varies over: each grid axis has its full length
    or length 1, and an axis along which every slice equals the first is
    kept at length 1.
    """

    def __init__(self, source, cosource, metric, half_order, coefficients):
        grid = _common_grid(metric, "form", source, cosource)
        m = int(half_order)
        n = grid.dim
        checked = {}
        for (i, j), a in coefficients.items():
            if i > m or j > m:
                raise ShapeMismatch(
                    f"coefficient ({i}, {j}) exceeds the half order {m}"
                )
            a = np.asarray(a)
            tail = ((n**j) * cosource.fiber_dim, (n**i) * source.fiber_dim)
            check_grid_shape(a.shape, grid, tail, f"coefficient ({i}, {j})")
            checked[(int(i), int(j))] = compact_grid_axes(a, n).astype(complex, copy=False)
        self.source = source
        self.cosource = cosource
        self.metric = metric
        self.half_order = m
        self.coefficients = checked

    @property
    def grid(self):
        return self.metric.grid


def eval_bidiff(spec, us, ws):
    """Density sum_ij (a_ij grad^i u, grad^j w), w conjugated, of the towers us, ws."""
    grid = spec.grid
    m = spec.half_order
    pair = "form and sections"
    _check_levels(us, m, grid, spec.source, pair, "first argument must be rank 0")
    _check_levels(ws, m, grid, spec.cosource, pair, "second argument must be rank 0")
    us, ws = ([v.values.reshape((-1,) + grid.shape) for v in t] for t in (us, ws))
    out = np.zeros(grid.shape, dtype=complex)
    for (i, j), a in spec.coefficients.items():
        moved = np.einsum("ae...,e...->a...", a, us[i])
        out += np.einsum("a...,a...->...", moved, np.conj(ws[j]))
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
    # fiber metrics stored at different shapes are compared broadcast
    if h.shape[:2] != href.shape[:2] or not np.allclose(h, href):
        raise ShapeMismatch("operator targets carry different fiber metrics")
    coefficients = {}
    for i, pi in enumerate(p.coefficients):
        for j, qj in enumerate(q.coefficients):
            if pi is not None and qj is not None:
                coefficients[(i, j)] = np.einsum(
                    "ab...,bd...,ae...->de...", h, np.conj(qj), pi
                )
    m = max(p.order, q.order)
    return BidiffSpec(p.source, q.source, p.metric, m, coefficients)


def dirichlet_form(spec, us, ws, metric=None):
    """Quadrature of the form density against the volume element."""
    met = spec.metric if metric is None else metric
    if met.grid != spec.grid:
        raise ChartMismatch("quadrature metric lives on a different grid")
    density = eval_bidiff(spec, us, ws)
    return complex(spec.grid.integrate(density * met.sqrt_det))


def l2_pairing(v, w, bundle, metric):
    """L2 inner product of sections with the fiber metric, conjugating w."""
    h = bundle.fiber_metric
    density = np.einsum("ab...,a...,b...->...", h, v.values, np.conj(w.values))
    return complex(metric.grid.integrate(density * metric.sqrt_det))


def _gradient_adjoint(bundle, metric, gens):
    """Adjoint of grad on a bundle, via the frame expansion.

    Decomposing v = sum_k xi_k (x) v_k and grad w = sum_l xi_l (x)
    grad_{Z_l} w reduces the slot pairing to scalars c_kl = (xi_k, xi_l)
    against the inverse metric, so with W_l = sum_k c_kl Z_k each generator
    contributes -(grad_{Z_l} + div Z_l) i_{W_l}.
    """
    # T*M (x) T*M^s (x) E, lifted from the plain bundle E
    plain, slots = (bundle, 0) if bundle.base is None else (bundle.base, bundle.slots)
    rank_one = induced_tensor_bundle(plain, metric, slots + 1)
    w = np.einsum("kl...,ky...->ly...", coframe_gram(gens, metric), gens.z)
    total = None
    for l in range(gens.n_gens):
        i_w = directional_op(w[l], bundle, metric).coefficients[1]
        pick = multiplication_op(i_w, rank_one, bundle, metric)
        direction = directional_op(gens.z[l], bundle, metric)
        total = _add_ladders(total, _scaled(compose(direction, pick), -1.0))
        div_l = divergence(gens.z[l], metric)
        if np.any(div_l):
            total = _add_ladders(total, _scaled(pick, -div_l))
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
        target_j = induced_tensor_bundle(bundle, metric, j)
        h_j = np.asarray(target_j.fiber_metric, dtype=complex)
        if is_identity(h_j):
            mid_coeff = a
        else:
            # numpy.linalg wants the matrices last
            mid_coeff = np.linalg.solve(
                np.moveaxis(h_j, (1, 0), (-2, -1)), np.moveaxis(a, (0, 1), (-2, -1))
            )
            mid_coeff = np.moveaxis(mid_coeff, (-2, -1), (0, 1))
        # a_ij grad^i as one ladder: levels below i are zero
        term = NablaOpSpec(source, target_j, metric, [None] * i + [mid_coeff])
        for level in range(j, 0, -1):
            if level not in adj_chain:
                base = induced_tensor_bundle(bundle, metric, level - 1)
                adj_chain[level] = _gradient_adjoint(base, metric, gens)
            term = compose(adj_chain[level], term)
        total = _add_ladders(total, term)
    if total is None:
        raise ShapeMismatch("the form has no coefficients to assemble")
    return total


def weighted_pairings(spec, weight, p=2.0):
    """Two-picture pairing: original metric against the rescaled one.

    Returns the function (us, ws) -> (pair_weighted, pair_rescaled) of the
    towers of u and w, each to the half order.  The first evaluates the
    Dirichlet pairing directly.  The second pulls the
    normalizing twists f0 rho^{-n/p} (and the dual twist on the w side) into
    the coefficients, which turns the volume into the one of the rescaled
    metric rho^{-2} g; exact arithmetic would make the two numbers equal.
    The twisted form and the rescaled metric are built here, once.
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
    mult_u = _scaled(identity_op(spec.source, metric), s_u)
    mult_w = _scaled(identity_op(spec.cosource, metric), s_w)
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
        mid = measure * a
        for t, b_t in enumerate(b_ladders[i]):
            for tau, c_tau in enumerate(c_ladders[j]):
                if b_t is not None and c_tau is not None:
                    block = np.einsum(
                        "ad...,ab...,be...->de...", np.conj(c_tau), mid, b_t
                    )
                    _put(twisted, (t, tau), block)
    spec0 = BidiffSpec(spec.source, spec.cosource, metric, spec.half_order, twisted)
    metric0 = weight.rescaled_metric(metric)

    def pairings(us, ws):
        pair_weighted = dirichlet_form(spec, us, ws)
        u0 = TensorSection(grid, 0, us[0].values / s_u, us[0].fiber_dim)
        w0 = TensorSection(grid, 0, ws[0].values / s_w, ws[0].fiber_dim)
        m = spec.half_order
        levels = tower(u0, spec.source, metric, m), tower(w0, spec.cosource, metric, m)
        return pair_weighted, dirichlet_form(spec0, *levels, metric=metric0)

    return pairings
