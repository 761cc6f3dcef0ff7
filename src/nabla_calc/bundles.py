"""Hermitian bundles over a chart, their potentials, and tensor sections.

A bundle is trivialized over the chart: fiber C^d, a Hermitian fiber metric,
and connection potential matrices A_k per coordinate direction, stored once
grid-last as potentials_grid_last[k, a, b, idx] and read grid-first as
potentials[idx, k, a, b].  The potentials are stored at the shape they
vary over: each grid axis of the array given to BundleSpec has its full
length or length 1, and the stored copy keeps that shape.  The flat
default is (n, d, d, 1, .., 1) zeros, and the magnetic example, which
depends on x1 alone, is (2, 2, 2, N1, 1).  Every connection product
broadcasts the stored copy over the grid as it is; potentials is a
read-only broadcast of it to the full grid + (n, d, d).  The fiber metric
follows the same rule: the default is the (1, .., 1, d, d) identity.

Sections of T*M^{tensor r} (x) E are stored grid-last: C-contiguous arrays
values[i_1..i_r, a, idx] with the slot axes first, then the fiber axis,
then the grid axes; new covariant slots are always prepended leftmost.
Every other field (metric, Christoffel symbols, potentials, fiber metric,
ladder and form coefficients, frames, vector fields) keeps its index
axes trailing, grid-first, and a product of such a field with a section
is one grid_einsum with the ellipsis leading on the field and trailing on
the section, so the section is never copied to meet the field.

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

import numpy as np

from ._kernels import diff_axis
from .errors import ChartMismatch, ShapeMismatch, SingularMetric


def pointwise_kron(x, y):
    """Kronecker product over the trailing two axes, pointwise on the grid."""
    p, q = x.shape[-2:]
    r, s = y.shape[-2:]
    out = x[..., :, None, :, None] * y[..., None, :, None, :]
    return out.reshape(out.shape[:-4] + (p * r, q * s))


def grid_last(x, g):
    """A C-contiguous copy of x with its g leading grid axes moved last.

    With the grid innermost, einsum's inner loop runs over the grid and not
    over a fiber axis of length d once per point; same sums, same bits.
    """
    return np.moveaxis(x, range(g), range(-g, 0)).copy(order="C")


def grid_first(x, g):
    """The inverse of grid_last, as a view: the g trailing axes moved first."""
    return np.moveaxis(x, range(-g, 0), range(g))


def grid_einsum(script, *operands):
    """np.einsum run with the grid innermost, on operands of either layout.

    Every term of script carries the grid ellipsis at one end: leading, as
    in "...ab", for a grid-first field (a metric, a potential, a
    coefficient, a frame), or trailing, as in "b...", for a grid-last array
    such as a section's values.  A grid-first operand with axes beyond its
    letters is moved grid-last, C-contiguous; one with no such axes is a
    constant and is passed as it is, and so is every grid-last operand,
    never copied.  The subscripts then run with the ellipsis trailing.  The
    result is grid-last when the output term ends with the ellipsis and a
    grid-first view when it leads with it.  Every product is the grid-first
    one, but a sum over more than one index may be accumulated in another
    order and round differently.
    """
    inputs, output = script.split("->")
    terms = inputs.split(",") + [output]
    if not all(t.startswith("...") or t.endswith("...") for t in terms):
        raise ValueError(f"every term of {script!r} must lead or end with '...'")
    moved = []
    g = 0
    for term, x in zip(terms, operands):
        lead = x.ndim - (len(term) - 3)
        g = max(g, lead)
        if term.startswith("..."):
            x = np.ascontiguousarray(np.moveaxis(x, range(lead), range(-lead, 0)))
        moved.append(x)
    trailing = ",".join(t.strip(".") + "..." for t in terms[:-1])
    out = np.einsum(trailing + "->" + output.strip(".") + "...", *moved)
    return grid_first(out, g) if output.startswith("...") else out


def check_grid_shape(shape, grid, tail, what):
    """Raise ShapeMismatch unless shape is grid + tail with each grid axis
    of full length or of length 1, the shape a stored field varies over."""
    n = grid.dim
    if len(shape) != n + len(tail) or tuple(shape[n:]) != tuple(tail) or not all(
        m in (1, full) for m, full in zip(shape[:n], grid.shape)
    ):
        raise ShapeMismatch(
            f"{what} shape {shape} does not match grid {grid.shape} with "
            f"trailing axes {tuple(tail)} (each grid axis full or of length 1)"
        )


def compact_grid_axes(a, g):
    """a with every one of its g leading axes along which each slice equals
    the first kept at length 1.

    One neighbouring slice is compared before the whole axis, so a field
    that varies costs one slice comparison per axis.  A shrunk result is a
    copy, so it does not keep the full array alive.
    """
    shrunk = False
    for axis in range(g):
        if a.shape[axis] == 1:
            continue
        lead = (slice(None),) * axis
        first = a[lead + (slice(0, 1),)]
        if np.array_equal(a[lead + (slice(1, 2),)], first) and np.all(a == first):
            a, shrunk = first, True
    return a.copy() if shrunk else a


def is_identity(m):
    """True for an identity matrix stored at one point, every grid axis of
    length 1; a grid field is never taken for one."""
    d = m.shape[-1]
    return m.size == d * d and np.array_equal(m.reshape(d, d), np.eye(d))


class BundleSpec:
    """Trivialized Hermitian bundle with connection potentials."""

    def __init__(self, grid, fiber_dim, potentials=None, fiber_metric=None):
        n = grid.dim
        d = int(fiber_dim)
        if d < 1:
            raise ShapeMismatch(f"fiber dimension must be >= 1, got {d}")
        if potentials is None:
            potentials = np.zeros((1,) * n + (n, d, d), dtype=complex)
        potentials = np.asarray(potentials, dtype=complex)
        check_grid_shape(potentials.shape, grid, (n, d, d), "potentials")
        if fiber_metric is None:
            fiber_metric = np.eye(d).reshape((1,) * n + (d, d))
        fiber_metric = np.asarray(fiber_metric, dtype=complex)
        check_grid_shape(fiber_metric.shape, grid, (d, d), "fiber metric")
        fiber_metric = compact_grid_axes(fiber_metric, n)
        herm_defect = np.max(
            np.abs(fiber_metric - np.conj(np.swapaxes(fiber_metric, -1, -2)))
        )
        if herm_defect > 1e-12 * max(1.0, float(np.max(np.abs(fiber_metric)))):
            raise ShapeMismatch(
                f"fiber metric is not Hermitian, defect {herm_defect:.3e}"
            )
        eigs = np.linalg.eigvalsh(fiber_metric)
        if float(np.min(eigs)) <= 1e-12 * float(np.max(eigs)):
            raise SingularMetric(
                f"fiber metric eigenvalue {float(np.min(eigs)):.3e} is not positive"
            )
        self.grid = grid
        self.fiber_dim = d
        # the one stored copy, grid innermost, at the shape it was given,
        # and never written
        self.potentials_grid_last = grid_last(potentials, grid.dim)
        self.potentials_grid_last.flags.writeable = False
        self.fiber_metric = fiber_metric
        # the directions whose potential is not identically zero
        self.live = tuple(
            k for k in range(n) if np.any(self.potentials_grid_last[k])
        )
        self.is_flat = not self.live
        # a plain bundle; an InducedBundle names its plain bundle here
        self.base = None
        self.slots = 0

    @property
    def potentials(self):
        """The potentials as a read-only grid + (n, d, d) broadcast view of
        the grid-last copy."""
        grid = self.grid
        first = grid_first(self.potentials_grid_last, grid.dim)
        return np.broadcast_to(first, grid.shape + first.shape[grid.dim :])


def compatibility_defect(bundle):
    """How far the connection is from preserving the fiber metric.

    Zero means d(u, v) = (nabla u, v) + (u, nabla v); with the identity fiber
    metric this is skew-Hermitian-ness of every A_k.  Measured as the max
    Frobenius norm of A_k^T H + H conj(A_k) - d_k H over interior points;
    only the full-length grid axes of H are differentiated.
    """
    grid = bundle.grid
    a = bundle.potentials
    h = bundle.fiber_metric
    defect = np.swapaxes(a, -1, -2) @ h[..., None, :, :] + h[..., None, :, :] @ np.conj(a)
    for k in range(grid.dim):
        if h.shape[k] > 1:
            defect[..., k, :, :] -= diff_axis(h, k, grid.h[k], grid.fd_order)
    frob = np.sqrt(np.sum(np.abs(defect) ** 2, axis=(-1, -2)))
    mask = grid.interior_mask(grid.stencil_radius)
    return float(np.max(frob[mask]))


class TensorSection:
    """Section of T*M^{tensor rank} (x) E as a complex grid-last array,
    values[i_1..i_rank, a, idx].

    Every section the package builds is C-contiguous, and the derivative
    tower keeps it so; the one exception is the grid-last view through
    which the Hom-field sup norms measure a grid-first level, which is
    never stored or differentiated.
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
    # (N1, 1, 2, 2, 2): the potentials vary over x1 alone
    pots = np.zeros(phase.shape + (2, 2, 2), dtype=complex)
    pots[..., 1, 0, 1] = phase
    pots[..., 1, 1, 0] = -np.conj(phase)
    return BundleSpec(grid, 2, pots)


def magnetic_phase(grid):
    """e^{i x1^3} on the x1 axis, shaped (N1, 1) to broadcast over a 2d grid."""
    if grid.dim != 2:
        raise ShapeMismatch(f"magnetic example needs a 2d chart, got {grid.dim}d")
    return np.exp(1j * grid.axes[0] ** 3)[:, None]


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
