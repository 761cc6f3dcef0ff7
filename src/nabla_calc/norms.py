"""Sobolev-type norms by quadrature, with certified constant recursions.

Norms combine a pointwise fiber/slot norm (metric inverse on each cotangent
slot, Hermitian fiber metric on the bundle factor), trapezoid quadrature
against the volume density, and an lp combination over derivative orders.
p = inf is the grid max, the discrete stand-in for the essential supremum.
"""

import math

import numpy as np

from .bundles import BundleSpec, TensorSection
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
    """|u(x)|^2 with g^{-1} on every slot and the fiber metric on the fiber."""
    r = u.rank
    if r > len(_UL):
        raise ShapeMismatch(f"pointwise norms support rank <= {len(_UL)}, got {r}")
    h = _fiber_metric_of(bundle, u.fiber_dim)
    if metric.is_constant and _is_identity(h):
        if r == 0 or _is_identity(metric.inv[(0,) * u.grid.dim]):
            vals = u.values
            trailing = tuple(range(u.grid.dim, vals.ndim))
            return np.sum(vals.real**2 + vals.imag**2, axis=trailing)
    ul, vl = _UL[:r], _VL[:r]
    script = f"...{ul}y,...{vl}z"
    args = [u.values, np.conj(u.values)]
    if r > 0:
        ginv = metric.inv
        for k in range(r):
            script += f",...{ul[k]}{vl[k]}"
            args.append(ginv)
    script += ",...yz->..."
    args.append(h)
    out = np.einsum(script, *args).real
    return np.maximum(out, 0.0)


def _is_identity(m):
    """True for a single (n, n) identity matrix, not a grid-sized field."""
    return m.ndim == 2 and np.array_equal(m, np.eye(len(m)))


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


def lp_norm(u, p, metric, bundle=None, region=None):
    """L^p norm by trapezoid quadrature against dvol; grid max for p = inf.

    region optionally masks the quadrature (or the max) to a subset of grid
    points; used by covering norms.
    """
    p = _check_p(p)
    if u.grid != metric.grid:
        raise ChartMismatch("section and metric live on different grids")
    ns = pointwise_norm_sq(u, metric, bundle)
    if region is not None:
        ns = np.where(region, ns, 0.0)
    top = float(np.max(ns))
    if math.isinf(p):
        return math.sqrt(top)
    w = u.grid.quad_weights() * metric.sqrt_det
    scale = _power_scale(top, p / 2.0)
    return math.sqrt(scale) * float(np.sum(w * (ns / scale) ** (p / 2.0)) ** (1.0 / p))


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


def _tower_sup(u, bundle, metric, depth):
    """Grid sup of |nabla^j u| over j <= depth; NaN when any level has NaN.

    Level j excludes the band of j + 1 stencil radii, where the stencil is
    invalid, since coefficient fields need not vanish there.
    """
    grid = u.grid
    sups = [
        np.max(
            np.where(
                grid.interior_mask((j + 1) * grid.stencil_radius),
                pointwise_norm_sq(d, metric, bundle),
                0.0,
            )
        )
        for j, d in enumerate(tower(u, bundle, metric, depth))
    ]
    return float(np.sqrt(np.max(sups)))


def sobolev_norm(u, s, p, bundle, metric):
    """lp combination of the L^p norms of nabla^j u for j <= s."""
    if s < 0:
        raise ValueError(f"order s must be >= 0, got {s}")
    p = _check_p(p)
    u.grid.check_support(u.values, s * u.grid.stencil_radius)
    # the whole tower before any norm: interleaving has the same allocation
    # peak but, through allocator placement, 20 MB more peak RSS on builtins
    stack = list(tower(u, bundle, metric, s))
    terms = [lp_norm(d, p, metric, bundle) for d in stack]
    return _lp_combine(terms, p)


def weighted_sobolev_norm(u, s, p, weight, bundle, metric):
    """lp combination of the L^p norms of rho^j nabla^j (f0^{-1} u)."""
    if s < 0:
        raise ValueError(f"order s must be >= 0, got {s}")
    p = _check_p(p)
    if weight.grid != u.grid:
        raise ChartMismatch("weight and section live on different grids")
    pad = (1,) * (u.values.ndim - u.grid.dim)
    f0 = weight.f0.reshape(weight.f0.shape + pad)
    v = TensorSection(u.grid, u.rank, u.values / f0, u.fiber_dim)
    u.grid.check_support(v.values, s * u.grid.stencil_radius)
    terms = []
    for j, d in enumerate(tower(v, bundle, metric, s)):
        pad = (1,) * (d.values.ndim - u.grid.dim)
        rho_j = (weight.rho**j).reshape(weight.rho.shape + pad)
        scaled = TensorSection(u.grid, d.rank, rho_j * d.values, d.fiber_dim)
        terms.append(lp_norm(scaled, p, metric, bundle))
    return _lp_combine(terms, p)


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
    for a, (lo, hi) in enumerate(box):
        inside = (grid.axes[a] >= lo - 1e-12) & (grid.axes[a] <= hi + 1e-12)
        shape1 = tuple(grid.shape[a] if b == a else 1 for b in range(grid.dim))
        mask &= inside.reshape(shape1)
    return mask


def covering_norm(u, covering, s, p, bundle, metric):
    """Covering norm |||u|||_{U,s,p} and the covering multiplicity N(U).

    Sums ||nabla^j u||_{L^p(U_i)}^p over j <= s and boxes U_i (sup for
    p = inf).  The boxes must jointly cover the grid's support region.
    """
    p = _check_p(p)
    grid = u.grid
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
    grid.check_support(u.values, s * grid.stencil_radius)
    levels = tower(u, bundle, metric, s)
    terms = [lp_norm(d, p, metric, bundle, region=m) for d in levels for m in masks]
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


def hom_infty_norm(field, depth, bundle, metric):
    """W^{depth,inf} norm of a Hom-valued one-form field on the grid.

    field has shape grid + (n, d_out, d_in).  Derivatives are taken in the
    induced connection; values inside the stencil-invalid band are excluded
    from the max, since coefficient fields need not vanish there.
    """
    grid = metric.grid
    n = grid.dim
    d = bundle.fiber_dim
    if field.shape != grid.shape + (n, d, d):
        raise ShapeMismatch(
            f"potential field has shape {field.shape}, expected "
            f"{grid.shape + (n, d, d)}"
        )
    sec = TensorSection(grid, 1, field.reshape(grid.shape + (n, d * d)), d * d)
    return _tower_sup(sec, bundle.endo(), metric, depth)


def perturbed_norm_check(u, perturbation, ell, p, bundle, metric):
    """Compare Sobolev norms under potentials A and A + perturbation.

    The perturbation is a skew-Hermitian Hom-valued one-form; the two norms
    must stay within the recursion constant of each other.  Returns a report
    dict; never raises on a bound violation.
    """
    grid = u.grid
    skew_defect = np.max(
        np.abs(perturbation + np.conj(np.swapaxes(perturbation, -1, -2)))
    )
    scale = max(float(np.max(np.abs(perturbation))), 1e-300)
    if skew_defect > 1e-10 * scale:
        raise ValueError(
            f"perturbation is not skew-Hermitian: defect {float(skew_defect):.3e}"
        )
    perturbed = BundleSpec(
        grid,
        bundle.fiber_dim,
        potentials=bundle.potentials + perturbation,
        fiber_metric=bundle.fiber_metric,
    )
    coeff_norm = hom_infty_norm(perturbation, max(ell - 1, 0), bundle, metric)
    constant = equivalence_constant(ell, p, coeff_norm)
    base = sobolev_norm(u, ell, p, bundle, metric)
    other = sobolev_norm(u, ell, p, perturbed, metric)
    slack = 1.0 + 1e-12
    passed = other <= constant * base * slack and base <= constant * other * slack
    return {
        "norm_base": base,
        "norm_perturbed": other,
        "ratio": other / base if base else math.inf,
        "coefficient_norm": coeff_norm,
        "constant": constant,
        "passed": bool(passed),
    }


def conformal_weighted_check(u, weight, ell, p, bundle, metric, bound=1.05):
    """Weighted norm under g vs classical norm under g0 of the twisted section.

    The twist is rho^{n/p} f0^{-1} u and g0 = rho^{-2} g; the two routes give
    equivalent norms and the report records their ratio against the declared
    two-sided bound.
    """
    if not weight.admissible:
        raise NonadmissibleWeight(
            "weight pair is not flagged admissible for the rescaled metric"
        )
    p = _check_p(p)
    grid = u.grid
    n = grid.dim
    exp = 0.0 if math.isinf(p) else n / p
    pad = (1,) * (u.values.ndim - grid.dim)
    twist = (weight.rho**exp / weight.f0).reshape(grid.shape + pad)
    twisted = TensorSection(grid, u.rank, twist * u.values, u.fiber_dim)
    g0 = weight.rescaled_metric(metric)
    weighted = weighted_sobolev_norm(u, ell, p, weight, bundle, metric)
    classical = sobolev_norm(twisted, ell, p, bundle, g0)
    ratio = classical / weighted if weighted else math.inf
    passed = 1.0 / bound <= ratio <= bound
    return {
        "weighted_norm": weighted,
        "conformal_norm": classical,
        "ratio": ratio,
        "bound": bound,
        "passed": bool(passed),
    }
