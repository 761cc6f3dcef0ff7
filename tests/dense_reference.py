"""Dense Kronecker-sum connections, kept only as test references.

The package applies every derived connection slot by slot over a plain
bundle and never builds these matrices.  The tests build them here, from
the explicit formulas, to check that route:

- T*M^s (x) E has potential sum_k I (x) M (x) I + I_{n^s} (x) A, with
  M[l, m] = -Gamma^m_{k l} on each slot;
- Hom(E, F), morphisms vec'd row-major (f, e) -> f * d_E + e, has
  potential A^F (x) I - I (x) (A^E)^T and the identity fiber metric.
"""

import numpy as np

from nabla_calc.bundles import BundleSpec, TensorSection, pointwise_kron
from nabla_calc.calculus import tower
from nabla_calc.norms import pointwise_norm_sq


def _eye(k, lead):
    return np.eye(k, dtype=complex).reshape((1,) * lead + (k, k))


def reference_induced(bundle, metric, slots):
    """Potentials and fiber metric of T*M^slots (x) E as grid fields."""
    n = bundle.grid.dim
    d = bundle.fiber_dim
    lead = n + 1
    gamma = metric.christoffel_field()
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
    vals = a.reshape(grid.shape + (grid.dim,) * slots + (fiber,))
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
