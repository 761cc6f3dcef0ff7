"""Sobolev-type norms by quadrature, with certified constant recursions.

Norms combine a pointwise fiber/slot norm (metric inverse on each cotangent
slot, Hermitian fiber metric on the bundle factor), trapezoid quadrature
against the volume density, and an lp combination over derivative orders.
p = inf is the grid max, the discrete stand-in for the essential supremum.
"""

import math

import numpy as np

from .bundles import TensorSection, is_identity
from .calculus import tower
from .errors import (
    ChartMismatch,
    EmptyCovering,
    ExponentMismatch,
    NonadmissibleWeight,
    ShapeMismatch,
)

_UL = "abcd"
_VL = "efgh"


def _fiber_metric_of(bundle, fiber_dim):
    if bundle is None:
        return np.eye(fiber_dim)
    return bundle.fiber_metric


def pointwise_norm_sq(u, metric, bundle=None):
    """|u(x)|^2 with g^{-1} on every slot and the fiber metric on the fiber.

    The section, g^{-1} and the fiber metric are all grid-last, so the
    sums run over their leading index axes with the grid innermost.
    """
    r = u.rank
    if r > len(_UL):
        raise ShapeMismatch(f"pointwise norms support rank <= {len(_UL)}, got {r}")
    h = _fiber_metric_of(bundle, u.fiber_dim)
    vals = u.values
    if metric.constant and is_identity(h):
        if r == 0 or is_identity(metric.inv):
            sq = vals.real**2
            sq += vals.imag**2
            return np.sum(sq, axis=tuple(range(r + 1)))
    ul, vl = _UL[:r], _VL[:r]
    script = f"{ul}y...,{vl}z..."
    args = [vals, np.conj(vals)]
    for k in range(r):
        script += f",{ul[k]}{vl[k]}..."
        args.append(metric.inv)
    script += ",yz...->..."
    args.append(h)
    out = np.einsum(script, *args).real
    return np.maximum(out, 0.0)


def _check_p(p):
    p = float(p)
    if not p >= 1.0:
        raise ValueError(f"exponent p must be in [1, inf], got {p}")
    return p


def _power_scale(top, power):
    """Divisor that keeps top ** power, the largest term of a sum, in range.

    The largest value itself when top ** power would pass 2^+-500, else 1.0:
    unscaled sums keep their bits, so an exact identity between two norms
    at moderate exponents stays exact.
    """
    if 0.0 < top < math.inf and abs(power * math.log2(top)) > 500.0:
        return top
    return 1.0


def _lp_of_sq(ns, p, metric):
    """The L^p norm whose pointwise squared norm is ns: trapezoid quadrature
    against dvol, the grid max for p = inf.  A masked ns, zero outside its
    region, gives the norm over the region."""
    top = float(np.max(ns))
    if math.isinf(p):
        return math.sqrt(top)
    w = metric.grid.quad_weights() * metric.sqrt_det
    scale = _power_scale(top, p / 2.0)
    return math.sqrt(scale) * float(np.sum(w * (ns / scale) ** (p / 2.0)) ** (1.0 / p))


def lp_norm(u, p, metric, bundle=None):
    """L^p norm by trapezoid quadrature against dvol; grid max for p = inf."""
    p = _check_p(p)
    if u.grid != metric.grid:
        raise ChartMismatch("section and metric live on different grids")
    return _lp_of_sq(pointwise_norm_sq(u, metric, bundle), p, metric)


def strict_max(*values):
    """Largest value; NaN when any value is NaN (Python max drops NaN)."""
    return float(np.max(values))


def _lp_combine(terms, p):
    """(sum_i t_i^p)^(1/p) of nonnegative terms; the max for p = inf."""
    top = strict_max(*terms)
    if math.isinf(p) or not 0.0 < top < math.inf:
        return top
    scale = _power_scale(top, p)
    return scale * float(sum((t / scale) ** p for t in terms) ** (1.0 / p))


def sobolev_norm(levels, p, bundle, metric):
    """lp combination of the L^p norms of a tower's levels u, .., nabla^s u."""
    if not levels:
        raise ValueError("a norm needs at least the level u of a tower")
    p = _check_p(p)
    terms = [lp_norm(d, p, metric, bundle) for d in levels]
    return _lp_combine(terms, p)


def weighted_sobolev_norm(u, s, p, weight, bundle, metric):
    """lp combination of the L^p norms of rho^j nabla^j (f0^{-1} u)."""
    if weight.grid != u.grid:
        raise ChartMismatch("weight and section live on different grids")
    # the grid-last values broadcast against f0 and rho as they are stored
    v = TensorSection(u.grid, u.rank, u.values / weight.f0, u.fiber_dim)
    levels = [
        TensorSection(u.grid, d.rank, weight.rho**j * d.values, d.fiber_dim)
        for j, d in enumerate(tower(v, bundle, metric, s))
    ]
    return sobolev_norm(levels, p, bundle, metric)


def _as_boxes(covering, dim):
    boxes = []
    for box in covering:
        box = tuple((float(lo), float(hi)) for lo, hi in box)
        if len(box) != dim:
            raise ShapeMismatch(f"covering box {box} is not {dim}-dimensional")
        for lo, hi in box:
            if not hi > lo:
                raise ShapeMismatch(f"degenerate covering box edge ({lo}, {hi})")
        boxes.append(box)
    return boxes


def covering_multiplicity(covering, dim=None):
    """N(U): the largest number of covering boxes with a common point.

    Boxes are treated as closed, so sharing a face counts as intersecting;
    that convention makes the discrete two-sided norm bounds exact.
    """
    if dim is None:
        dim = len(covering[0]) if covering else 0
    boxes = _as_boxes(covering, dim)
    k = len(boxes)
    if k == 0:
        raise EmptyCovering("covering has no boxes")
    if k > 16:
        raise ValueError(f"multiplicity search supports <= 16 boxes, got {k}")
    best = 0
    for mask in range(1, 2**k):
        size = mask.bit_count()
        if size <= best:
            continue
        members = [boxes[i] for i in range(k) if mask >> i & 1]
        nonempty = all(
            max(b[a][0] for b in members) <= min(b[a][1] for b in members) + 1e-12
            for a in range(dim)
        )
        if nonempty:
            best = size
    return best


def _box_mask(grid, box):
    mask = np.ones(grid.shape, dtype=bool)
    for x, (lo, hi) in zip(grid.coords, box):
        mask &= (x >= lo - 1e-12) & (x <= hi + 1e-12)
    return mask


def covering_norm(levels, covering, p, bundle, metric):
    """Covering norm |||u|||_{U,s,p} and the covering multiplicity N(U).

    Sums ||nabla^j u||_{L^p(U_i)}^p over the levels u, .., nabla^s u of a
    tower and the boxes U_i (sup for p = inf).  The boxes must jointly
    cover the grid's support region.
    """
    if not levels:
        raise ValueError("a norm needs at least the level u of a tower")
    p = _check_p(p)
    grid = levels[0].grid
    boxes = _as_boxes(covering, grid.dim)
    if not boxes:
        raise EmptyCovering("covering has no boxes")
    masks = [_box_mask(grid, box) for box in boxes]
    union = np.zeros(grid.shape, dtype=bool)
    for m in masks:
        union |= m
    support = grid.interior_mask(grid.support_margin)
    uncovered = int(np.sum(support & ~union))
    if uncovered:
        raise EmptyCovering(
            f"covering misses {uncovered} grid points of the support region"
        )
    mult = covering_multiplicity(boxes, grid.dim)
    if grid != metric.grid:
        raise ChartMismatch("section and metric live on different grids")
    terms = []
    for d in levels:
        # each level's pointwise norm once, then its norm over each box
        ns = pointwise_norm_sq(d, metric, bundle)
        terms += [_lp_of_sq(np.where(m, ns, 0.0), p, metric) for m in masks]
    return _lp_combine(terms, p), mult


def _inv_exp(p):
    p = _check_p(p)
    return 0.0 if math.isinf(p) else 1.0 / p


def multiplication_constant(ell, p, q, r):
    """Constant in ||au||_{W^{l,r}} <= C ||a||_{W^{l,p}} ||u||_{W^{l,q}}.

    One recursion step multiplies by (1 + 2^r)^{1/r}, starting from C_0 = 1;
    the exponents must satisfy 1/p + 1/q = 1/r.  Written as
    2^l (1 + 2^-r)^{l/r}, so a large finite r does not overflow.
    """
    if ell < 0:
        raise ValueError(f"order ell must be >= 0, got {ell}")
    ip, iq, ir = _inv_exp(p), _inv_exp(q), _inv_exp(r)
    if abs(ip + iq - ir) > 1e-12:
        raise ExponentMismatch(
            f"exponents do not satisfy 1/p + 1/q = 1/r: p={p}, q={q}, r={r}"
        )
    r = float(r)
    if math.isinf(r):
        return 2.0**ell
    return float(2.0**ell * (1.0 + 2.0**-r) ** (ell / r))


def equivalence_constant(ell, p, coefficient_norm):
    """Constant relating the Sobolev norms of two connections differing by A.

    C_0 = 1 and C_j^p = C_{j-1}^p 2^{p-1} (2 + C_{j-1,inf,p}^p |A|^p), where
    the inner constant is the multiplication constant and |A| bounds the
    perturbation in W^{l-1,inf}.
    """
    if ell < 0:
        raise ValueError(f"order ell must be >= 0, got {ell}")
    p = _check_p(p)
    if math.isinf(p):
        raise ValueError("equivalence constants are defined for p < inf")
    if coefficient_norm < 0:
        raise ValueError(f"coefficient norm must be >= 0, got {coefficient_norm}")
    c_p = 1.0
    for j in range(1, ell + 1):
        cm = multiplication_constant(j - 1, math.inf, p, p)
        c_p = c_p * 2.0 ** (p - 1.0) * (2.0 + cm**p * coefficient_norm**p)
    return float(c_p ** (1.0 / p))


def conformal_weighted_norms(u, weight, ell, p, bundle, metric):
    """Weighted norm under g and classical norm under g0 of the twisted section.

    The twist is rho^{n/p} f0^{-1} u and g0 = rho^{-2} g; the two routes give
    equivalent norms.  Returns (weighted, classical).
    """
    if not weight.admissible:
        raise NonadmissibleWeight(
            "weight pair is not flagged admissible for the rescaled metric"
        )
    p = _check_p(p)
    grid = u.grid
    n = grid.dim
    exp = 0.0 if math.isinf(p) else n / p
    twist = weight.rho**exp / weight.f0
    twisted = TensorSection(grid, u.rank, twist * u.values, u.fiber_dim)
    g0 = weight.rescaled_metric(metric)
    weighted = weighted_sobolev_norm(u, ell, p, weight, bundle, metric)
    return weighted, sobolev_norm(tower(twisted, bundle, g0, ell), p, bundle, g0)
