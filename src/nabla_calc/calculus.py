"""Covariant differentiation of tensor sections.

The covariant derivative adds one cotangent slot, always prepended leftmost:

    (nabla u)[y, i_1..i_r, a] = d_y u[i_1.., a]
                                - sum_s Gamma^m_{y i_s} u[.. m .., a]
                                + A_y[a, b] u[i_1.., b]

Sections, like every grid field, are stored grid-last (see bundles), and
every step of the tower runs in that one layout: each direction's
difference is written straight into its contiguous block of the result
(ChartGrid.diff), and the potential and Christoffel products run with the
grid innermost on the stored arrays, so nothing is copied to meet
anything else; the potential product is added one fiber row at a time.
A multi-index derivative nabla_(i_1..i_r) is the (i_1..i_r) component of
the r-fold covariant derivative, so Christoffel terms act on the
accumulated cotangent slots while they are alive.  On a constant metric
this reduces to composing directional derivatives right-to-left, which
gives the same bits.  Entries are 1-based.
"""

import numpy as np

from .bundles import TensorSection
from .errors import ChartMismatch, ShapeMismatch
from .grid import check_grid_shape

# slot letters must avoid the reserved einsum indices a, b, k, m, y, z
_SLOTS = "cdefghij"


def _check_context(u, bundle, metric):
    if u.grid != bundle.grid:
        raise ChartMismatch("section and bundle live on different grids")
    if metric is not None and u.grid != metric.grid:
        raise ChartMismatch("section and metric live on different grids")
    if u.fiber_dim != bundle.fiber_dim:
        raise ShapeMismatch(
            f"section fiber {u.fiber_dim} does not match bundle fiber "
            f"{bundle.fiber_dim}"
        )


def _gamma_slot_sum(gamma, values, rank):
    """Sum over the leading `rank` slot axes of a grid-last array of the
    Christoffel action.

    The whole Gamma[m, y, l, idx] field is contracted, so the result
    carries the new direction axis y in front.
    """
    letters = _SLOTS[:rank]
    total = None
    for s in range(rank):
        u_sub = letters[:s] + "m" + letters[s + 1 :]
        term = np.einsum(
            f"my{letters[s]}...,{u_sub}z...->y{letters}z...", gamma, values
        )
        total = term if total is None else total + term
    return total


def _add_rows(out, axis, script, rows, other, subtract=False):
    """out[.., a, ..] += np.einsum(script, rows[a], other) for every row a,
    the row index at position `axis` of out, or -= with subtract.

    Each row's product goes through one reused buffer of one component's
    shape, so no temporary holds the whole product; the bits are those of
    the product formed at once and then added.
    """
    buf = None
    for a, row in enumerate(rows):
        buf = np.einsum(script, row, other, out=buf)
        target = out[(slice(None),) * axis + (a,)]
        if subtract:
            target -= buf
        else:
            target += buf


def covariant_derivative(u, bundle, metric, check_support=True):
    """One covariant derivative; result has rank r+1 with the new slot first.

    The result is allocated once: direction k's difference is written into
    its block parts[k], and the potential product of each live direction
    is added there in place.
    """
    _check_context(u, bundle, metric)
    grid = u.grid
    if bundle.base is not None:
        # the induced connection is the base's with -Gamma on every slot of
        # the fiber: unfold those slots and differentiate over the base
        base = bundle.base
        r = u.rank + bundle.slots
        unfolded = u.values.reshape((grid.dim,) * r + (base.fiber_dim,) + grid.shape)
        v = TensorSection(grid, r, unfolded, base.fiber_dim)
        vals = covariant_derivative(v, base, metric, check_support).values
        folded = vals.reshape((grid.dim,) * (u.rank + 1) + (u.fiber_dim,) + grid.shape)
        return TensorSection(grid, u.rank + 1, folded, u.fiber_dim)
    n = grid.dim
    r = u.rank
    vals = u.values
    if check_support:
        grid.check_support(vals, grid.stencil_radius)
    parts = np.empty((n,) + vals.shape, dtype=complex)
    for k in range(n):
        grid.diff(vals, k, out=parts[k])
    letters = _SLOTS[:r]
    if r > 0 and not metric.constant:
        parts -= _gamma_slot_sum(metric.christoffel, vals, r)
    for y in bundle.live:
        script = f"b...,{letters}b...->{letters}..."
        _add_rows(parts[y], r, script, bundle.potentials[y], vals)
    return TensorSection(grid, r + 1, parts, u.fiber_dim)


def _coordinate_directional(vals, axis, rank, bundle):
    """nabla along one coordinate direction of a constant metric, rank kept,
    on a section's grid-last values."""
    out = bundle.grid.diff(vals, axis)
    if axis in bundle.live:
        letters = _SLOTS[:rank]
        script = f"b...,{letters}b...->{letters}..."
        _add_rows(out, rank, script, bundle.potentials[axis], vals)
    return out


def tower(u, bundle, metric, depth):
    """The levels [u, nabla u, .., nabla^depth u], after the one check that
    u vanishes on depth stencil radii; norms, ladders and forms reduce them."""
    if depth < 0:
        raise ValueError(f"order must be >= 0, got {depth}")
    u.grid.check_support(u.values, depth * u.grid.stencil_radius)
    levels = [u]
    for _ in range(depth):
        u = covariant_derivative(u, bundle, metric, check_support=False)
        levels.append(u)
    return levels


def validate_multiindex(idx, dim):
    idx = tuple(int(i) for i in idx)
    for i in idx:
        if not 1 <= i <= dim:
            raise ShapeMismatch(
                f"multi-index entry {i} outside the 1..{dim} coordinate range"
            )
    return idx


def multiindex_derivative(u, idx, bundle, metric):
    """nabla_idx: the idx component of the |idx|-fold covariant derivative.

    idx is one multi-index, or a list of them for a list of sections.  The
    rightmost entry acts first.  Slots accumulated by earlier steps stay
    alive (and receive Christoffel corrections) until the final extraction,
    and one tower serves the whole list.  On a constant metric and a plain
    bundle the cheaper directional composition is identical: it runs on
    u's values, multi-indices that end in the same steps share them, and
    each step is freed once no remaining index needs it.  Every result is
    C-contiguous.
    """
    _check_context(u, bundle, metric)
    grid = u.grid
    many = any(np.ndim(i) for i in idx)
    idxs = [validate_multiindex(i, grid.dim) for i in (idx if many else [idx])]
    depth = max(map(len, idxs), default=0)
    out = [None] * len(idxs)
    if metric.constant and bundle.base is None:
        grid.check_support(u.values, depth * grid.stencil_radius)
        _directional_walk(u.values, 0, range(len(idxs)), idxs, u, bundle, out)
    else:
        levels = tower(u, bundle, metric, depth)
        for pos, i in enumerate(idxs):
            vals = levels[len(i)].values[tuple(k - 1 for k in i)].copy()
            out[pos] = TensorSection(grid, u.rank, vals, u.fiber_dim)
    return out if many else out[0]


def _directional_walk(vals, depth, members, idxs, u, bundle, out):
    """Fill out[pos] for the members, whose last `depth` steps made vals.

    The members are grouped by their next step from the right; every group
    but the last recurses, and the last continues here, so vals is dropped
    as soon as its last step is taken.
    """
    grid = u.grid
    while True:
        groups = {}
        for pos in members:
            if len(idxs[pos]) == depth:
                # an empty multi-index gets a copy of u, as from the tower
                own = vals if depth else vals.copy()
                out[pos] = TensorSection(grid, u.rank, own, u.fiber_dim)
            else:
                groups.setdefault(idxs[pos][-1 - depth], []).append(pos)
        if not groups:
            return
        *rest, (axis, members) = groups.items()
        for i, group in rest:
            _directional_walk(
                _coordinate_directional(vals, i - 1, u.rank, bundle),
                depth + 1, group, idxs, u, bundle, out,
            )
        vals = _coordinate_directional(vals, axis - 1, u.rank, bundle)
        depth += 1


def contract_with_vector(u, X):
    """Interior product i_X, eating the leftmost slot; X is (n,) + grid,
    each grid axis full or of length 1."""
    if u.rank == 0:
        raise ShapeMismatch("cannot contract a rank-0 section with a vector field")
    check_grid_shape(X.shape, u.grid, (u.grid.dim,), "vector field")
    letters = _SLOTS[: u.rank - 1]
    vals = np.einsum(f"k...,k{letters}z...->{letters}z...", X, u.values)
    return TensorSection(u.grid, u.rank - 1, vals, u.fiber_dim)


def directional_derivative(u, X, bundle, metric):
    """nabla_X u: contraction of the covariant derivative's new slot with X."""
    return contract_with_vector(covariant_derivative(u, bundle, metric), X)


class CurvatureField:
    """Curvature tensor R_kl = d_k A_l - d_l A_k + [A_k, A_l], stored as
    values[k, l, a, b, idx], each grid axis full or of length 1."""

    def __init__(self, grid, values):
        n = grid.dim
        check_grid_shape(values.shape, grid, (n, n) + values.shape[2:4], "curvature")
        self.grid = grid
        self.values = values
        self.fiber_dim = values.shape[2]

    def contract(self, X, Y):
        """R(X, Y) as an endomorphism field."""
        return np.einsum("k...,l...,klab...->ab...", X, Y, self.values)

    def skew_hermitian_defect(self):
        vals = self.values
        defect = vals + np.conj(np.swapaxes(vals, 2, 3))
        return float(np.max(np.abs(defect)))


def curvature(bundle):
    """Curvature of the bundle connection, stored at the shape the
    potentials vary over.

    Per pair k < l, R_kl = (d_k A_l - d_l A_k) + (A_k A_l - A_l A_k) and
    R_lk with every difference taken the other way round, each at the
    shape its potential varies over; the products run only when k and l
    are both live.  R is zeroed on the FD-invalid band along its
    full-length axes alone: along a length-1 axis no difference was taken,
    so nothing there is invalid.  R_kk = 0, and a flat bundle gives zeros
    of shape (n, n, d, d, 1, .., 1).
    """
    grid = bundle.grid
    n = grid.dim
    d = bundle.fiber_dim
    pots = bundle.potentials
    shape = (1,) * n if bundle.is_flat else pots.shape[3:]
    r = np.zeros((n, n, d, d) + shape, dtype=complex)
    if bundle.is_flat:
        return CurvatureField(grid, r)
    for k in range(n):
        for l in range(k + 1, n):
            d_kl = grid.diff(pots[l], k)
            d_lk = grid.diff(pots[k], l)
            np.subtract(d_kl, d_lk, out=r[k, l])
            np.subtract(d_lk, d_kl, out=r[l, k])
            del d_kl, d_lk  # freed before the products: a lower peak
            if k not in bundle.live or l not in bundle.live:
                continue
            p_kl = np.einsum("ab...,bc...->ac...", pots[k], pots[l])
            p_lk = np.einsum("ab...,bc...->ac...", pots[l], pots[k])
            comm = p_kl - p_lk
            r[k, l] += comm
            np.subtract(p_lk, p_kl, out=comm)
            r[l, k] += comm
    grid.zero_band(r, grid.stencil_radius)
    return CurvatureField(grid, r)


def divergence(X, metric):
    """Levi-Civita divergence of a vector field, (n,) + grid with each
    grid axis full or of length 1.  The result is zeroed on the
    stencil-invalid band, so it is full-grid."""
    grid = metric.grid
    n = grid.dim
    check_grid_shape(X.shape, grid, (n,), "vector field")
    out = sum(grid.diff(X[k], axis=k) for k in range(n))
    if not metric.constant:
        out = out + np.einsum("kkl...,l...->...", metric.christoffel, X)
    if np.iscomplexobj(out):
        out = out.astype(complex)
    return np.where(grid.interior_mask(grid.stencil_radius), out, 0.0)


def formal_adjoint_directional(X, bundle, metric):
    """The operator -nabla_X - div(X), the formal adjoint of nabla_X."""
    div_x = divergence(X, metric)

    def adjoint(u):
        der = directional_derivative(u, X, bundle, metric)
        return TensorSection(u.grid, u.rank, -der.values - div_x * u.values, u.fiber_dim)

    return adjoint
