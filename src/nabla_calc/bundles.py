"""Hermitian bundles over a chart, their potentials, and tensor sections.

A bundle is trivialized over the chart: fiber C^d, a Hermitian fiber metric,
and connection potential matrices A_k per coordinate direction, stored as
potentials[idx, k, a, b].  Sections of T*M^{tensor r} (x) E are arrays
values[idx, i_1..i_r, a] with slot axes between the grid axes and the fiber
axis; new covariant slots are always prepended leftmost.
"""

import math

import numpy as np

from .errors import ChartMismatch, ShapeMismatch, SingularMetric


def pointwise_kron(x, y):
    """Kronecker product over the trailing two axes, pointwise on the grid."""
    p, q = x.shape[-2:]
    r, s = y.shape[-2:]
    out = x[..., :, None, :, None] * y[..., None, :, None, :]
    return out.reshape(out.shape[:-4] + (p * r, q * s))


def _kron_sum(factors):
    """Kronecker sum of connection potentials, sum_k I (x) A_k (x) I pointwise.

    Each factor is a (..., d_k, d_k) potential array or, for a factor with
    no connection, its dimension d_k alone.  Terms are added in factor
    order and size-1 identities are not multiplied in.
    """
    dims = [f if np.ndim(f) == 0 else f.shape[-1] for f in factors]
    total = None
    for k, a in enumerate(factors):
        if np.ndim(a) == 0:
            continue
        left, right = math.prod(dims[:k]), math.prod(dims[k + 1 :])
        if left > 1:
            a = pointwise_kron(np.eye(left, dtype=complex), a)
        if right > 1:
            a = pointwise_kron(a, np.eye(right, dtype=complex))
        total = a if total is None else total + a
    return total


class BundleSpec:
    """Trivialized Hermitian bundle with connection potentials."""

    def __init__(self, grid, fiber_dim, potentials=None, fiber_metric=None):
        n = grid.dim
        d = int(fiber_dim)
        if d < 1:
            raise ShapeMismatch(f"fiber dimension must be >= 1, got {d}")
        if potentials is None:
            potentials = np.zeros(grid.shape + (n, d, d), dtype=complex)
        potentials = np.asarray(potentials, dtype=complex)
        if potentials.shape != grid.shape + (n, d, d):
            raise ShapeMismatch(
                f"potentials shape {potentials.shape} does not match grid "
                f"{grid.shape} with {n} directions and {d}x{d} fibers"
            )
        if fiber_metric is None:
            fiber_metric = np.eye(d, dtype=complex)
        fiber_metric = np.asarray(fiber_metric, dtype=complex)
        if fiber_metric.shape not in ((d, d), grid.shape + (d, d)):
            raise ShapeMismatch(
                f"fiber metric shape {fiber_metric.shape} is neither ({d},{d}) "
                f"nor grid-varying"
            )
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
        self.potentials = potentials
        self.fiber_metric = fiber_metric
        self.is_flat = not np.any(potentials)
        # induced_tensor_bundle memo: slots -> (metric, induced bundle)
        self._induced = {}
        self._potentials_grid_last = None

    @property
    def metric_is_constant(self):
        return self.fiber_metric.ndim == 2

    def potentials_grid_last(self):
        """The potentials as a C-contiguous (n, d, d) + grid array.

        Built on first use and kept, like the induced-bundle memo; the
        potentials are never written after construction.
        """
        if self._potentials_grid_last is None:
            g = self.grid.dim
            self._potentials_grid_last = np.ascontiguousarray(
                np.moveaxis(self.potentials, range(g), range(-g, 0))
            )
        return self._potentials_grid_last

    def dual(self):
        """Dual bundle: potentials A'_k = -A_k^T, inverse-transpose metric."""
        pots = -np.swapaxes(self.potentials, -1, -2)
        metric = np.linalg.inv(np.swapaxes(self.fiber_metric, -1, -2))
        return BundleSpec(self.grid, self.fiber_dim, pots, metric)

    def tensor(self, other):
        """Tensor product bundle, fibers flattened row-major (a, b) -> a*dF+b."""
        if other.grid != self.grid:
            raise ChartMismatch("tensor factors live on different grids")
        pots = _kron_sum([self.potentials, other.potentials])
        metric = pointwise_kron(self.fiber_metric, other.fiber_metric)
        return BundleSpec(self.grid, self.fiber_dim * other.fiber_dim, pots, metric)

    def hom(self, other):
        """Hom(self, other); morphisms vec'd row-major, (f, e) -> f*dE + e."""
        if other.grid != self.grid:
            raise ChartMismatch("hom factors live on different grids")
        pots = _kron_sum([other.potentials, -np.swapaxes(self.potentials, -1, -2)])
        return BundleSpec(self.grid, self.fiber_dim * other.fiber_dim, pots)

    def endo(self):
        return self.hom(self)


def compatibility_defect(bundle):
    """How far the connection is from preserving the fiber metric.

    Zero means d(u, v) = (nabla u, v) + (u, nabla v); with the identity fiber
    metric this is skew-Hermitian-ness of every A_k.  Measured as the max
    Frobenius norm of A_k^T H + H conj(A_k) - d_k H over interior points.
    """
    grid = bundle.grid
    a = bundle.potentials
    h = bundle.fiber_metric
    defect = np.swapaxes(a, -1, -2) @ h[..., None, :, :] + h[..., None, :, :] @ np.conj(a)
    if not bundle.metric_is_constant:
        dh = np.stack([grid.diff(h, axis=k) for k in range(grid.dim)], axis=-3)
        grid.zero_band(dh, grid.stencil_radius)
        defect = defect - dh
    frob = np.sqrt(np.sum(np.abs(defect) ** 2, axis=(-1, -2)))
    mask = grid.interior_mask(grid.stencil_radius)
    return float(np.max(frob[mask]))


class TensorSection:
    """Section of T*M^{tensor rank} (x) E as a complex grid array."""

    def __init__(self, grid, rank, values, fiber_dim):
        values = np.asarray(values, dtype=complex)
        n = grid.dim
        expected = grid.shape + (n,) * rank + (fiber_dim,)
        if values.shape != expected:
            raise ShapeMismatch(
                f"section values {values.shape} do not match expected {expected} "
                f"(rank {rank}, fiber {fiber_dim})"
            )
        self.grid = grid
        self.rank = int(rank)
        self.fiber_dim = int(fiber_dim)
        self.values = values

    @classmethod
    def zeros(cls, grid, rank, fiber_dim):
        n = grid.dim
        shape = grid.shape + (n,) * rank + (fiber_dim,)
        return cls(grid, rank, np.zeros(shape, dtype=complex), fiber_dim)

    def copy(self):
        return TensorSection(self.grid, self.rank, self.values.copy(), self.fiber_dim)

    def __add__(self, other):
        self._check_same(other)
        return TensorSection(
            self.grid, self.rank, self.values + other.values, self.fiber_dim
        )

    def __sub__(self, other):
        self._check_same(other)
        return TensorSection(
            self.grid, self.rank, self.values - other.values, self.fiber_dim
        )

    def __mul__(self, scalar):
        return TensorSection(self.grid, self.rank, self.values * scalar, self.fiber_dim)

    __rmul__ = __mul__

    def _check_same(self, other):
        if self.grid != other.grid:
            raise ChartMismatch("sections live on different grids")
        if self.rank != other.rank or self.fiber_dim != other.fiber_dim:
            raise ShapeMismatch(
                f"section ranks/fibers differ: ({self.rank},{self.fiber_dim}) vs "
                f"({other.rank},{other.fiber_dim})"
            )

    def flatten_fiber(self):
        """View the slot axes as part of the fiber: rank 0 over C^(n^r * d)."""
        n = self.grid.dim
        nd = self.grid.shape
        flat_dim = (n**self.rank) * self.fiber_dim
        return TensorSection(
            self.grid, 0, self.values.reshape(nd + (flat_dim,)), flat_dim
        )


class FockSlice:
    """Coefficient ladder a^[j], j = 0..mu, over flattened derivative fibers.

    Entry j maps the flattened fiber of a rank-j section (slot axes folded
    into the fiber, slot-major) to the target fiber, so it is stored as a
    grid + (target_dim, n^j * source_dim) complex field.  An entry given as
    None is the zero level and is stored as zeros of that shape.
    """

    def __init__(self, grid, source_dim, target_dim, entries):
        n = grid.dim
        source_dim = int(source_dim)
        target_dim = int(target_dim)
        if not entries:
            raise ShapeMismatch("a coefficient ladder needs at least the order-0 entry")
        checked = []
        for j, a in enumerate(entries):
            want = grid.shape + (target_dim, (n**j) * source_dim)
            a = np.zeros(want, complex) if a is None else np.asarray(a, complex)
            if a.shape != want:
                raise ShapeMismatch(
                    f"coefficient {j} has shape {a.shape}, expected {want}"
                )
            checked.append(a)
        self.grid = grid
        self.source_dim = source_dim
        self.target_dim = target_dim
        self.entries = checked

    @property
    def order(self):
        return len(self.entries) - 1


def magnetic_example_bundle(grid):
    """The oscillating off-diagonal magnetic potential on C^2 over R^2.

    A_1 = 0 and A_2 = [[0, e^{i x1^3}], [-e^{-i x1^3}, 0]]; both are
    skew-Hermitian so the connection preserves the standard fiber metric.
    """
    if grid.dim != 2:
        raise ShapeMismatch(f"magnetic example needs a 2d chart, got {grid.dim}d")
    x1 = grid.coords[0]
    phase = np.exp(1j * x1**3)
    pots = np.zeros(grid.shape + (2, 2, 2), dtype=complex)
    pots[..., 1, 0, 1] = phase
    pots[..., 1, 1, 0] = -np.conj(phase)
    return BundleSpec(grid, 2, pots)


def induced_tensor_bundle(bundle, metric, slots):
    """T*M^{tensor slots} (x) E as a plain bundle with one flattened fiber.

    The potential picks up -Gamma on every slot plus the original A; the
    fiber metric is the tensor of inverse-metric factors with the fiber
    metric.  Flattening matches TensorSection.flatten_fiber ordering.

    The result is memoized on the bundle per slots, for this very metric
    object; a constant metric has Gamma = 0, and with a constant fiber
    metric as well the induced fiber metric is one (N, N) matrix.
    """
    if metric.grid != bundle.grid:
        raise ChartMismatch("bundle and metric live on different grids")
    if slots == 0:
        return bundle
    memo = bundle._induced.get(slots)
    if memo is not None and memo[0] is metric:
        return memo[1]
    grid = bundle.grid
    n = grid.dim
    if metric.is_constant:
        slot = n
        ginv = metric.inv[(0,) * grid.dim].astype(complex)
    else:
        gamma = metric.christoffel_field()  # [m, k, l]
        # action on one slot in direction k: M[l, m] = -Gamma^m_{k l}
        slot = -np.swapaxes(np.moveaxis(gamma, -2, -3), -1, -2).astype(complex)
        ginv = metric.inv.astype(complex)
    pots = _kron_sum([slot] * slots + [bundle.potentials])
    fiber_metric = ginv
    for _ in range(slots - 1):
        fiber_metric = pointwise_kron(fiber_metric, ginv)
    fiber_metric = pointwise_kron(fiber_metric, bundle.fiber_metric)
    out = BundleSpec(grid, (n**slots) * bundle.fiber_dim, pots, fiber_metric)
    bundle._induced[slots] = (metric, out)
    return out
