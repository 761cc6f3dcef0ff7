"""Hermitian bundles over a chart, their potentials, and tensor sections.

Every grid field is stored the one way, by the rule grid.py owns: its
index axes first, its grid axes last, each grid axis at its full length or
at length 1, the shape the field varies over.  A section of
T*M^{tensor r} (x) E holds values[i_1..i_r, a, idx], C-contiguous, at the
full grid shape; new covariant slots are always prepended leftmost.  The
metric, the Christoffel symbols, the potentials and the fiber metric,
ladder and form coefficients, frames and vector fields follow the same
rule, so a product of any two of them is one np.einsum with the ellipsis
trailing on every term, and nothing is moved to meet anything else.

A bundle is trivialized over the chart: fiber C^d, a Hermitian fiber
metric, and connection potential matrices A_k per coordinate direction,
stored once, read-only, as potentials[k, a, b, idx] at the shape they
were given.  The flat default is (n, d, d, 1, .., 1) zeros, and the
magnetic example, which depends on x1 alone, is (2, 2, 2, N1, 1).  The
fiber metric default is the (d, d, 1, .., 1) identity.

Only a plain BundleSpec holds potentials.  The derived bundle
T*M^{tensor s} (x) E is an InducedBundle that records E and s, and every
derived connection, on it or on Hom fields between such bundles, is
applied slot by slot over E by calculus.covariant_derivative and
operators._hom_derivative; no Kronecker-sum potential is ever built.
A bundle builds nothing lazily.

A direction whose potential is identically zero is dead.  A BundleSpec
decides once, in its constructor, which directions are live, and every
connection product (covariant_derivative, the directional steps of
multiindex_derivative, _hom_derivative, curvature and the leibniz-rule
check) runs over the live directions alone: a dead direction multiplies
nothing.  A flat bundle is one with no live direction.
"""

import copy

import numpy as np

from .errors import ChartMismatch, ShapeMismatch, SingularMetric
from .grid import check_grid_shape, compact_grid_axes


def pointwise_kron(x, y):
    """Kronecker product over the leading two axes, pointwise on the grid."""
    p, q = x.shape[:2]
    r, s = y.shape[:2]
    out = x[:, None, :, None] * y[None, :, None, :]
    return out.reshape((p * r, q * s) + out.shape[4:])


def is_identity(m):
    """True for an identity matrix stored at one point, every grid axis of
    length 1; a grid field is never taken for one."""
    d = m.shape[0]
    return m.size == d * d and np.array_equal(m.reshape(d, d), np.eye(d))


class BundleSpec:
    """Trivialized Hermitian bundle with connection potentials."""

    def __init__(self, grid, fiber_dim, potentials=None, fiber_metric=None):
        n = grid.dim
        d = int(fiber_dim)
        if d < 1:
            raise ShapeMismatch(f"fiber dimension must be >= 1, got {d}")
        if potentials is None:
            potentials = np.zeros((n, d, d) + (1,) * n, dtype=complex)
        # the one stored copy, at the shape it was given, and never written
        potentials = np.array(potentials, dtype=complex, order="C")
        check_grid_shape(potentials.shape, grid, (n, d, d), "potentials")
        if fiber_metric is None:
            fiber_metric = np.eye(d).reshape((d, d) + (1,) * n)
        fiber_metric = np.asarray(fiber_metric, dtype=complex)
        check_grid_shape(fiber_metric.shape, grid, (d, d), "fiber metric")
        fiber_metric = compact_grid_axes(fiber_metric, n)
        herm_defect = np.max(
            np.abs(fiber_metric - np.conj(np.swapaxes(fiber_metric, 0, 1)))
        )
        if herm_defect > 1e-12 * max(1.0, float(np.max(np.abs(fiber_metric)))):
            raise ShapeMismatch(
                f"fiber metric is not Hermitian, defect {herm_defect:.3e}"
            )
        eigs = np.linalg.eigvalsh(np.moveaxis(fiber_metric, (0, 1), (-2, -1)))
        if float(np.min(eigs)) <= 1e-12 * float(np.max(eigs)):
            raise SingularMetric(
                f"fiber metric eigenvalue {float(np.min(eigs)):.3e} is not positive"
            )
        self.grid = grid
        self.fiber_dim = d
        potentials.flags.writeable = False
        self.potentials = potentials
        self.fiber_metric = fiber_metric
        # the directions whose potential is not identically zero
        self.live = tuple(k for k in range(n) if np.any(potentials[k]))
        self.is_flat = not self.live
        # a plain bundle; an InducedBundle names its plain bundle here
        self.base = None
        self.slots = 0

    def on(self, window):
        """This bundle read on a window of its grid: its potentials and
        fiber metric restricted to the window's points, as views, and the
        live directions of the whole grid."""
        out = copy.copy(self)
        out.grid = window
        out.potentials = window.restrict(self.potentials)
        out.fiber_metric = window.restrict(self.fiber_metric)
        return out


def compatibility_defect(bundle):
    """How far the connection is from preserving the fiber metric.

    Zero means d(u, v) = (nabla u, v) + (u, nabla v); with the identity fiber
    metric this is skew-Hermitian-ness of every A_k.  Measured as the max
    Frobenius norm of A_k^T H + H conj(A_k) - d_k H over interior points.
    """
    grid = bundle.grid
    n = grid.dim
    a = bundle.potentials
    h = bundle.fiber_metric
    defect = np.einsum("kba...,bc...->kac...", a, h)
    defect = defect + np.einsum("ab...,kbc...->kac...", h, np.conj(a))
    for k in range(n):
        defect[k] -= grid.diff(h, k)
    frob = np.sqrt(np.sum(np.abs(defect) ** 2, axis=(1, 2)))
    frob = np.broadcast_to(frob, (n,) + grid.shape)
    mask = grid.interior_mask(grid.stencil_radius)
    return float(np.max(frob[..., mask]))


class TensorSection:
    """Section of T*M^{tensor rank} (x) E as a complex grid-last array,
    values[i_1..i_rank, a, idx].

    Every section the package builds is C-contiguous, and the derivative
    tower keeps it so.
    """

    def __init__(self, grid, rank, values, fiber_dim):
        values = np.asarray(values, dtype=complex)
        n = grid.dim
        expected = (n,) * rank + (fiber_dim,) + grid.shape
        if values.shape != expected:
            raise ShapeMismatch(
                f"section values {values.shape} do not match expected {expected} "
                f"(rank {rank}, fiber {fiber_dim}, grid axes last)"
            )
        self.grid = grid
        self.rank = int(rank)
        self.fiber_dim = int(fiber_dim)
        self.values = values


def magnetic_example_bundle(grid):
    """The oscillating off-diagonal magnetic potential on C^2 over R^2.

    A_1 = 0 and A_2 = [[0, e^{i x1^3}], [-e^{-i x1^3}, 0]]; both are
    skew-Hermitian so the connection preserves the standard fiber metric.
    """
    phase = magnetic_phase(grid)
    # (2, 2, 2, N1, 1): the potentials vary over x1 alone
    pots = np.zeros((2, 2, 2) + phase.shape, dtype=complex)
    pots[1, 0, 1] = phase
    pots[1, 1, 0] = -np.conj(phase)
    return BundleSpec(grid, 2, pots)


def magnetic_phase(grid):
    """e^{i x1^3} on the x1 axis, shaped (N1, 1) to broadcast over a 2d grid."""
    if grid.dim != 2:
        raise ShapeMismatch(f"magnetic example needs a 2d chart, got {grid.dim}d")
    return np.exp(1j * grid.coords[0] ** 3)


class InducedBundle:
    """T*M^{tensor slots} (x) E as one flattened fiber, without potentials.

    Its connection is E's with -Gamma on every slot; covariant_derivative
    and the Hom-field derivative apply it slot by slot over `base`, so a
    reader of potentials must resolve `base` first.
    """

    def __init__(self, base, slots, fiber_metric):
        self.grid = base.grid
        self.fiber_dim = (base.grid.dim**slots) * base.fiber_dim
        self.fiber_metric = fiber_metric
        self.base = base
        self.slots = slots


def induced_tensor_bundle(bundle, metric, slots):
    """T*M^{tensor slots} (x) E as an InducedBundle over the plain bundle E.

    The fiber metric is the tensor of inverse-metric factors with the fiber
    metric, on the fiber flattened slot-major: a rank-r section's values
    reshaped to (n^r * d,) + grid, slot axes before the fiber axis.  The
    lift of an induced bundle is built from E with the slots added, all
    over this metric, and its fiber metric has the shape the metric and
    E's fiber metric vary over together.
    """
    if metric.grid != bundle.grid:
        raise ChartMismatch("bundle and metric live on different grids")
    if slots == 0:
        return bundle
    if bundle.base is not None:
        bundle, slots = bundle.base, bundle.slots + slots
    ginv = metric.inv.astype(complex)
    fiber_metric = ginv
    for _ in range(slots - 1):
        fiber_metric = pointwise_kron(fiber_metric, ginv)
    fiber_metric = pointwise_kron(fiber_metric, bundle.fiber_metric)
    return InducedBundle(bundle, slots, fiber_metric)
