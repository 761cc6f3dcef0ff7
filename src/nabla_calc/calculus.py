"""Covariant differentiation of tensor sections.

The covariant derivative adds one cotangent slot, always prepended leftmost:

    (nabla u)[y, i_1..i_r, a] = d_y u[i_1.., a]
                                - sum_s Gamma^m_{y i_s} u[.. m .., a]
                                + A_y[a, b] u[i_1.., b]

A multi-index derivative nabla_(i_1..i_r) is the (i_1..i_r) component of the
r-fold covariant derivative, so Christoffel terms act on the accumulated
cotangent slots while they are alive.  On a constant metric this reduces to
composing directional derivatives right-to-left.  Entries are 1-based.
"""

import numpy as np

from .bundles import TensorSection
from .errors import ChartMismatch, ShapeMismatch, SupportViolation

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
    """Sum over the slots of a rank >= 1 section of the Christoffel action.

    The whole Gamma[..., m, y, l] field is contracted, so the result carries
    the new direction axis y.
    """
    letters = _SLOTS[:rank]
    total = None
    for s in range(rank):
        u_sub = letters[:s] + "m" + letters[s + 1 :]
        term = np.einsum(
            f"...my{letters[s]},...{u_sub}z->...y{letters}z", gamma, values
        )
        total = term if total is None else total + term
    return total


def covariant_derivative(u, bundle, metric, check_support=True):
    """One covariant derivative; result has rank r+1 with the new slot first."""
    _check_context(u, bundle, metric)
    grid = u.grid
    n = grid.dim
    r = u.rank
    if check_support:
        grid.check_support(u.values, grid.stencil_radius)
    parts = np.stack(
        [grid.diff(u.values, axis=k) for k in range(n)], axis=grid.dim
    )
    letters = _SLOTS[:r]
    if not metric.is_constant and r > 0:
        gamma = metric.christoffel_field()
        parts -= _gamma_slot_sum(gamma, u.values, r)
    if not bundle.is_flat and r == 0:
        # a matrix times a vector is fast grid-first, and a rank-0 caller
        # should not pay for a grid-last copy of the potentials
        parts += np.einsum("...yab,...b->...ya", bundle.potentials, u.values)
    elif not bundle.is_flat:
        # grid axes last, so einsum's inner loop runs over the grid and not
        # over a fiber axis of length d once per point; same sums, same bits
        g = grid.dim
        vals = np.ascontiguousarray(np.moveaxis(u.values, range(g), range(-g, 0)))
        term = np.einsum(
            f"yab...,{letters}b...->y{letters}a...",
            bundle.potentials_grid_last(),
            vals,
        )
        parts += np.moveaxis(term, range(-g, 0), range(g))
    return TensorSection(grid, r + 1, parts, u.fiber_dim)


def _coordinate_directional(u, axis, bundle):
    """nabla along one coordinate direction of a constant metric, rank kept."""
    grid = u.grid
    r = u.rank
    out = grid.diff(u.values, axis=axis)
    if not bundle.is_flat:
        a_k = bundle.potentials[..., axis, :, :]
        letters = _SLOTS[:r]
        out = out + np.einsum(f"...ab,...{letters}b->...{letters}a", a_k, u.values)
    return TensorSection(grid, r, out, u.fiber_dim)


def tower(u, bundle, metric, depth):
    """Yield u, nabla u, .., nabla^depth u, one level alive at a time.

    No support check: callers check u once for the depth they need.
    """
    yield u
    for _ in range(depth):
        u = covariant_derivative(u, bundle, metric, check_support=False)
        yield u


def iterated_derivative(u, order, bundle, metric):
    """nabla^order, adding `order` slots leftmost."""
    if order < 0:
        raise ShapeMismatch(f"derivative order must be >= 0, got {order}")
    _check_context(u, bundle, metric)
    grid = u.grid
    if order == 0:
        return u.copy()
    grid.check_support(u.values, order * grid.stencil_radius)
    for out in tower(u, bundle, metric, order):
        pass
    return out


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

    The rightmost entry acts first.  Slots accumulated by earlier steps stay
    alive (and receive Christoffel corrections) until the final extraction;
    on a constant metric the cheaper directional composition is identical.
    """
    _check_context(u, bundle, metric)
    grid = u.grid
    idx = validate_multiindex(idx, grid.dim)
    if not idx:
        return u.copy()
    grid.check_support(u.values, len(idx) * grid.stencil_radius)
    if metric.is_constant:
        out = u
        for i in reversed(idx):
            out = _coordinate_directional(out, i - 1, bundle)
        return out
    for out in tower(u, bundle, metric, len(idx)):
        pass
    sel = (slice(None),) * grid.dim + tuple(i - 1 for i in idx)
    return TensorSection(grid, u.rank, out.values[sel], u.fiber_dim)


def contract_with_vector(u, X):
    """Interior product i_X, eating the leftmost slot."""
    if u.rank == 0:
        raise ShapeMismatch("cannot contract a rank-0 section with a vector field")
    n = u.grid.dim
    if X.shape != u.grid.shape + (n,):
        raise ShapeMismatch(
            f"vector field shape {X.shape} does not match grid {u.grid.shape}"
        )
    letters = _SLOTS[: u.rank - 1]
    vals = np.einsum(f"...k,...k{letters}z->...{letters}z", X, u.values)
    return TensorSection(u.grid, u.rank - 1, vals, u.fiber_dim)


def directional_derivative(u, X, bundle, metric):
    """nabla_X u: contraction of the covariant derivative's new slot with X."""
    return contract_with_vector(covariant_derivative(u, bundle, metric), X)


class CurvatureField:
    """Curvature tensor R_kl = d_k A_l - d_l A_k + [A_k, A_l]."""

    def __init__(self, grid, values):
        n = grid.dim
        if values.shape[: grid.dim] != grid.shape or values.shape[grid.dim : grid.dim + 2] != (n, n):
            raise ShapeMismatch(f"curvature values have shape {values.shape}")
        self.grid = grid
        self.values = values
        self.fiber_dim = values.shape[-1]

    def apply(self, k, l, u):
        """Pointwise action of R_kl on a section (1-based directions)."""
        letters = _SLOTS[: u.rank]
        vals = np.einsum(
            f"...ab,...{letters}b->...{letters}a",
            self.values[..., k - 1, l - 1, :, :],
            u.values,
        )
        return TensorSection(self.grid, u.rank, vals, u.fiber_dim)

    def contract(self, X, Y):
        """R(X, Y) as an endomorphism field."""
        return np.einsum("...k,...l,...klab->...ab", X, Y, self.values)

    def skew_hermitian_defect(self):
        vals = self.values
        defect = vals + np.conj(np.swapaxes(vals, -1, -2))
        return float(np.max(np.abs(defect)))


def curvature(bundle):
    """Curvature of the bundle connection, zeroed on the FD-invalid band."""
    grid = bundle.grid
    n = grid.dim
    a = bundle.potentials
    da = np.stack([grid.diff(a, axis=k) for k in range(n)], axis=-4)
    da = da - np.swapaxes(da, -4, -3)
    prod = np.einsum("...kab,...lbc->...klac", a, a)
    comm = prod - np.swapaxes(prod, -4, -3)
    r = da + comm
    grid.zero_band(r, grid.stencil_radius)
    return CurvatureField(grid, r)


def divergence(X, metric):
    """Levi-Civita divergence of a vector field."""
    grid = metric.grid
    n = grid.dim
    if X.shape != grid.shape + (n,):
        raise ShapeMismatch(f"vector field shape {X.shape} does not match the grid")
    out = sum(grid.diff(X[..., k], axis=k) for k in range(n))
    if not metric.is_constant:
        gamma = metric.christoffel_field()
        out = out + np.einsum("...kkl,...l->...", gamma, X)
    if np.iscomplexobj(out):
        out = out.astype(complex)
    grid.zero_band(out, grid.stencil_radius)
    return out


class FormalAdjointDirectional:
    """The operator -nabla_X - div(X), the formal adjoint of nabla_X."""

    def __init__(self, X, bundle, metric):
        self.X = X
        self.bundle = bundle
        self.metric = metric
        self._div = divergence(X, metric)

    def __call__(self, u):
        der = directional_derivative(u, self.X, self.bundle, self.metric)
        pad = (1,) * (u.values.ndim - self._div.ndim)
        div = self._div.reshape(self._div.shape + pad)
        return TensorSection(u.grid, u.rank, -der.values - div * u.values, u.fiber_dim)


def formal_adjoint_directional(X, bundle, metric):
    return FormalAdjointDirectional(X, bundle, metric)


def contract_epsilon(w, e_dim, f_dim):
    """Trace the two E factors of a section valued in E (x) E (x) F."""
    if w.fiber_dim != e_dim * e_dim * f_dim:
        raise ShapeMismatch(
            f"fiber {w.fiber_dim} does not factor as {e_dim}^2 * {f_dim}"
        )
    vals = w.values.reshape(w.values.shape[:-1] + (e_dim, e_dim, f_dim))
    traced = np.trace(vals, axis1=-3, axis2=-2)
    return TensorSection(w.grid, w.rank, traced, f_dim)
