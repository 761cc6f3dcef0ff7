"""Dense Kronecker-sum connections, kept only as test references.

The package applies every derived connection slot by slot over a plain
bundle and never builds these matrices.  The tests build them here, from
the explicit formulas, to check that route:

- T*M^s (x) E has potential sum_k I (x) M (x) I + I_{n^s} (x) A, with
  M[l, m] = -Gamma^m_{k l} on each slot;
- Hom(E, F), morphisms vec'd row-major (f, e) -> f * d_E + e, has
  potential A^F (x) I - I (x) (A^E)^T and the identity fiber metric.

It also keeps the former all-direction connection products, which ran
over every direction, a dead one (identically zero potential) included:
the package now skips the dead directions and must give equal arrays.
And it keeps the former whole-product einsum formula of the connection
term, A_y[a, b] u[.., b] formed at once for every fiber row a: the
package adds one row at a time through a one-component buffer and must
give the same bits.
"""

import numpy as np

from nabla_calc._kernels import diff_axis
from nabla_calc.bundles import BundleSpec, TensorSection, pointwise_kron
from nabla_calc.calculus import _gamma_slot_sum, covariant_derivative
from nabla_calc.norms import pointwise_norm_sq


def _eye(k, g):
    return np.eye(k, dtype=complex).reshape((k, k) + (1,) * g)


def _stack(mats):
    """One potential per direction, stacked at their common shape."""
    return np.stack(np.broadcast_arrays(*mats))


def reference_induced(bundle, metric, slots):
    """Potentials and fiber metric of T*M^slots (x) E as grid fields."""
    n = bundle.grid.dim
    d = bundle.fiber_dim
    # slot_mat[k, l, m] = -Gamma^m_{k l}
    slot_mat = -np.moveaxis(metric.christoffel, 0, 2).astype(complex)
    pots = []
    for k in range(n):
        pot = None
        for s in range(slots):
            term = pointwise_kron(_eye(n**s, n), slot_mat[k])
            term = pointwise_kron(term, _eye(n ** (slots - s - 1) * d, n))
            pot = term if pot is None else pot + term
        pots.append(pot + pointwise_kron(_eye(n**slots, n), bundle.potentials[k]))
    ginv = metric.inv.astype(complex)
    fiber_metric = ginv
    for _ in range(slots - 1):
        fiber_metric = pointwise_kron(fiber_metric, ginv)
    h = np.broadcast_to(bundle.fiber_metric, (d, d) + bundle.grid.shape)
    return _stack(pots), pointwise_kron(fiber_metric, h)


def dense_bundle(bundle, metric):
    """A plain bundle, or an induced one rebuilt with dense potentials."""
    if bundle.base is None:
        return bundle
    pots, fiber_metric = reference_induced(bundle.base, metric, bundle.slots)
    return BundleSpec(bundle.grid, bundle.fiber_dim, pots, fiber_metric)


def hom_potentials(source, target):
    """The Hom(source, target) potential of two plain bundles."""
    n = source.grid.dim
    eye_e, eye_f = _eye(source.fiber_dim, n), _eye(target.fiber_dim, n)
    return _stack(
        [
            pointwise_kron(target.potentials[k], eye_e)
            - pointwise_kron(eye_f, np.swapaxes(source.potentials[k], 0, 1))
            for k in range(n)
        ]
    )


def dense_hom_sup(a, source, target, slots, metric, depth):
    """Grid sup of |nabla^j a|, j <= depth, by towers over the dense Hom bundle.

    a maps source to T*M^slots (x) target, stored as (n^slots * d_target,
    d_source) + grid; the form slots stay slots.  Level j excludes the
    band of j + 1 stencil radii.  The coefficients need not vanish on the
    band, so the tower is walked without a support check.
    """
    grid = metric.grid
    source, target = dense_bundle(source, metric), dense_bundle(target, metric)
    fiber = source.fiber_dim * target.fiber_dim
    hom = BundleSpec(grid, fiber, hom_potentials(source, target))
    full = np.broadcast_to(a, a.shape[:2] + grid.shape)
    vals = full.reshape((grid.dim,) * slots + (fiber,) + grid.shape)
    level = TensorSection(grid, slots, vals, fiber)
    sups = []
    for j in range(depth + 1):
        if j:
            level = covariant_derivative(level, hom, metric, check_support=False)
        mask = grid.interior_mask((j + 1) * grid.stencil_radius)
        sups.append(np.max(np.where(mask, pointwise_norm_sq(level, metric, hom), 0.0)))
    return float(np.sqrt(np.max(sups)))


def all_direction_covariant(u, bundle, metric):
    """covariant_derivative on a plain bundle, potential term over every y."""
    grid = u.grid
    n = grid.dim
    r = u.rank
    parts = np.stack(
        [diff_axis(u.values, k - n, grid.h[k], grid.fd_order) for k in range(n)]
    )
    letters = "cdefghij"[:r]
    if r > 0 and not metric.constant:
        parts -= _gamma_slot_sum(metric.christoffel, u.values, r)
    parts += np.einsum(
        f"yab...,{letters}b...->y{letters}a...", bundle.potentials, u.values
    )
    return parts


def all_direction_hom_products(a, source, target, metric):
    """_hom_derivative of a, a map E -> F between plain bundles, every y."""
    grid = metric.grid
    n = grid.dim
    da = np.empty((n,) + a.shape[:2] + grid.shape, dtype=complex)
    for y in range(n):
        da[y] = grid.diff(a, axis=y)
    a_rows = a.reshape((1, target.fiber_dim, -1) + grid.shape)
    a_cols = a.reshape((-1, source.fiber_dim) + grid.shape)
    rows = da.reshape((n, 1, target.fiber_dim, -1) + grid.shape)
    cols = da.reshape((n, -1, source.fiber_dim) + grid.shape)
    for y in range(n):
        rows[y] += np.einsum("fg...,tgk...->tfk...", target.potentials[y], a_rows)
        cols[y] -= np.einsum("rl...,le...->re...", a_cols, source.potentials[y])
    grid.zero_band(da, grid.stencil_radius)
    return da


def all_direction_curvature(bundle):
    """curvature with the commutator products taken on every pair."""
    grid = bundle.grid
    n = grid.dim
    d = bundle.fiber_dim
    r = np.zeros((n, n, d, d) + grid.shape, dtype=complex)
    pots = bundle.potentials
    a = np.broadcast_to(pots, pots.shape[:3] + grid.shape)
    for k in range(n):
        for l in range(k + 1, n):
            d_kl = grid.diff(a[l], axis=k)
            d_lk = grid.diff(a[k], axis=l)
            p_kl = np.einsum("ab...,bc...->ac...", pots[k], pots[l])
            p_lk = np.einsum("ab...,bc...->ac...", pots[l], pots[k])
            r[k, l] = d_kl - d_lk + (p_kl - p_lk)
            r[l, k] = d_lk - d_kl + (p_lk - p_kl)
    grid.zero_band(r, grid.stencil_radius)
    return r


def einsum_covariant_derivative(u, bundle, metric):
    """covariant_derivative on a plain bundle, each live direction's
    potential product formed whole by one einsum and then added."""
    grid = u.grid
    r = u.rank
    parts = np.empty((grid.dim,) + u.values.shape, dtype=complex)
    for k in range(grid.dim):
        grid.diff(u.values, k, out=parts[k])
    letters = "cdefghij"[:r]
    if r > 0 and not metric.constant:
        parts -= _gamma_slot_sum(metric.christoffel, u.values, r)
    for y in bundle.live:
        parts[y] += np.einsum(
            f"ab...,{letters}b...->{letters}a...", bundle.potentials[y], u.values
        )
    return TensorSection(grid, r + 1, parts, u.fiber_dim)


def einsum_multiindex_derivative(u, idx, bundle, metric):
    """The idx component of the |idx|-fold einsum_covariant_derivative."""
    level = u
    for _ in idx:
        level = einsum_covariant_derivative(level, bundle, metric)
    return level.values[tuple(k - 1 for k in idx)]
