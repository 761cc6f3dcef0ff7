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
"""

import numpy as np

from nabla_calc._kernels import diff_axis
from nabla_calc.bundles import BundleSpec, TensorSection, grid_first, grid_last, pointwise_kron
from nabla_calc.calculus import _gamma_slot_sum, tower
from nabla_calc.norms import pointwise_norm_sq


def _eye(k, lead):
    return np.eye(k, dtype=complex).reshape((1,) * lead + (k, k))


def reference_induced(bundle, metric, slots):
    """Potentials and fiber metric of T*M^slots (x) E as grid fields."""
    n = bundle.grid.dim
    d = bundle.fiber_dim
    lead = n + 1
    gamma = metric.christoffel
    slot_mat = -np.swapaxes(np.moveaxis(gamma, -2, -3), -1, -2).astype(complex)
    pots = None
    for s in range(slots):
        term = pointwise_kron(_eye(n**s, lead), slot_mat)
        term = pointwise_kron(term, _eye(n ** (slots - s - 1) * d, lead))
        pots = term if pots is None else pots + term
    pots = pots + pointwise_kron(_eye(n**slots, lead), bundle.potentials)
    ginv = metric.inv.astype(complex)
    fiber_metric = ginv
    for _ in range(slots - 1):
        fiber_metric = pointwise_kron(fiber_metric, ginv)
    h = np.broadcast_to(bundle.fiber_metric, bundle.grid.shape + (d, d))
    return pots, pointwise_kron(fiber_metric, h)


def dense_bundle(bundle, metric):
    """A plain bundle, or an induced one rebuilt with dense potentials."""
    if bundle.base is None:
        return bundle
    pots, fiber_metric = reference_induced(bundle.base, metric, bundle.slots)
    return BundleSpec(bundle.grid, bundle.fiber_dim, pots, fiber_metric)


def hom_potentials(source, target):
    """The Hom(source, target) potential of two plain bundles."""
    lead = source.grid.dim + 1
    return pointwise_kron(target.potentials, _eye(source.fiber_dim, lead)) - pointwise_kron(
        _eye(target.fiber_dim, lead), np.swapaxes(source.potentials, -1, -2)
    )


def dense_hom_sup(a, source, target, slots, metric, depth):
    """Grid sup of |nabla^j a|, j <= depth, by towers over the dense Hom bundle.

    a maps source to T*M^slots (x) target, stored as grid +
    (n^slots * d_target, d_source); the form slots stay slots.  Level j
    excludes the band of j + 1 stencil radii.
    """
    grid = metric.grid
    source, target = dense_bundle(source, metric), dense_bundle(target, metric)
    fiber = source.fiber_dim * target.fiber_dim
    hom = BundleSpec(grid, fiber, hom_potentials(source, target))
    vals = grid_last(a, grid.dim).reshape((grid.dim,) * slots + (fiber,) + grid.shape)
    sups = [
        np.max(
            np.where(
                grid.interior_mask((j + 1) * grid.stencil_radius),
                pointwise_norm_sq(level, metric, hom),
                0.0,
            )
        )
        for j, level in enumerate(
            tower(TensorSection(grid, slots, vals, fiber), hom, metric, depth)
        )
    ]
    return float(np.sqrt(np.max(sups)))


def all_direction_covariant(u, bundle, metric):
    """covariant_derivative on a plain bundle, potential term over every y;
    grid-last, as the section is."""
    grid = u.grid
    n = grid.dim
    r = u.rank
    parts = np.stack(
        [diff_axis(u.values, k - n, grid.h[k], grid.fd_order) for k in range(n)]
    )
    letters = "cdefghij"[:r]
    if r > 0 and metric.christoffel.shape[:n] == grid.shape:
        parts -= _gamma_slot_sum(metric.christoffel, u.values, r)
    parts += np.einsum(
        f"yab...,{letters}b...->y{letters}a...", bundle.potentials_grid_last, u.values
    )
    return parts


def all_direction_hom_products(a, source, target, metric):
    """_hom_derivative of a, a map E -> F between plain bundles, every y."""
    grid = metric.grid
    n = grid.dim
    da = np.empty(grid.shape + (n,) + a.shape[-2:], dtype=complex)
    for y in range(n):
        da[..., y, :, :] = grid.diff(a, axis=y)
    last = grid_last(a, grid.dim)
    a_rows = last.reshape((1, target.fiber_dim, -1) + grid.shape)
    a_cols = last.reshape((-1, source.fiber_dim) + grid.shape)
    rows = da.reshape(grid.shape + (n, 1, target.fiber_dim, -1))
    cols = da.reshape(grid.shape + (n, -1, source.fiber_dim))
    for y in range(n):
        pots = target.potentials_grid_last[y]
        rows[..., y, :, :, :] += grid_first(
            np.einsum("fg...,tgk...->tfk...", pots, a_rows), grid.dim
        )
        pots = source.potentials_grid_last[y]
        cols[..., y, :, :] -= grid_first(
            np.einsum("rl...,le...->re...", a_cols, pots), grid.dim
        )
    grid.zero_band(da, grid.stencil_radius)
    return da


def all_direction_curvature(bundle):
    """curvature with the commutator products taken on every pair."""
    grid = bundle.grid
    n = grid.dim
    d = bundle.fiber_dim
    r = np.zeros(grid.shape + (n, n, d, d), dtype=complex)
    a = bundle.potentials
    pots = bundle.potentials_grid_last
    for k in range(n):
        for l in range(k + 1, n):
            d_kl = grid.diff(a[..., l, :, :], axis=k)
            d_lk = grid.diff(a[..., k, :, :], axis=l)
            p_kl = np.einsum("ab...,bc...->ac...", pots[k], pots[l])
            p_lk = np.einsum("ab...,bc...->ac...", pots[l], pots[k])
            r[..., k, l, :, :] = d_kl - d_lk + grid_first(p_kl - p_lk, grid.dim)
            r[..., l, k, :, :] = d_lk - d_kl + grid_first(p_lk - p_kl, grid.dim)
    grid.zero_band(r, grid.stencil_radius)
    return r
