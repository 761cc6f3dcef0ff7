"""Chart grids: rectangular boxes with uniform per-axis sampling.

A ChartGrid fixes the discretization everything else lives on: box bounds,
point counts, finite-difference order, and the width of the margin band on
which sections are required to vanish (in grid layers).
"""

import numpy as np

from ._kernels import STENCIL_RADIUS, diff_axis
from .errors import ResolutionError, ShapeMismatch, SupportViolation


class ChartGrid:
    """Uniform tensor-product grid over a box in R^n.

    axes[k] holds the points of axis k, and coords[k] the k-th coordinate
    stored at the shape it varies over: axes[k] shaped (1, .., N_k, .., 1).
    The coordinates broadcast against each other and against any grid
    field; np.broadcast_arrays(*coords) reads them on the full grid, as
    views.
    """

    def __init__(self, box, shape, fd_order=4, support_margin=None):
        box = tuple((float(lo), float(hi)) for lo, hi in box)
        shape = tuple(int(m) for m in shape)
        if len(box) != len(shape):
            raise ShapeMismatch(
                f"box has {len(box)} axes but shape has {len(shape)} entries"
            )
        if fd_order not in STENCIL_RADIUS:
            raise ValueError(f"fd order must be 2 or 4, got {fd_order}")
        for lo, hi in box:
            if not lo < hi:
                raise ValueError(f"box interval ({lo}, {hi}) is empty")
        radius = STENCIL_RADIUS[fd_order]
        if support_margin is None:
            support_margin = 3 * radius
        support_margin = int(support_margin)
        if support_margin < radius:
            raise ValueError(
                f"support margin {support_margin} is below the stencil radius {radius}"
            )
        for m in shape:
            if m <= 2 * support_margin + 1:
                raise ResolutionError(
                    f"axis with {m} points cannot hold two margin bands of "
                    f"{support_margin} layers plus an interior"
                )
        self.box = box
        self.shape = shape
        self.fd_order = fd_order
        self.support_margin = support_margin
        self.h = tuple((hi - lo) / (m - 1) for (lo, hi), m in zip(box, shape))
        self.axes = [
            np.linspace(lo, hi, m) for (lo, hi), m in zip(box, shape)
        ]
        self.coords = list(np.meshgrid(*self.axes, indexing="ij", sparse=True))
        self._quad_weights = None

    @property
    def dim(self):
        return len(self.shape)

    @property
    def stencil_radius(self):
        return STENCIL_RADIUS[self.fd_order]

    @property
    def cell_volume(self):
        return float(np.prod(self.h))

    def __eq__(self, other):
        return (
            isinstance(other, ChartGrid)
            and self.box == other.box
            and self.shape == other.shape
            and self.fd_order == other.fd_order
            and self.support_margin == other.support_margin
        )

    def __hash__(self):
        return hash((self.box, self.shape, self.fd_order, self.support_margin))

    def __repr__(self):
        return (
            f"ChartGrid(box={self.box}, shape={self.shape}, "
            f"fd_order={self.fd_order}, support_margin={self.support_margin})"
        )

    def diff(self, values, axis, out=None):
        """Central difference of a grid-last field along one grid axis,
        written into out when given (a C-contiguous array of its shape)
        and returned."""
        if values.shape[values.ndim - self.dim :] != self.shape:
            raise ShapeMismatch(
                f"array shape {values.shape} does not end with grid shape {self.shape}"
            )
        return diff_axis(values, axis - self.dim, self.h[axis], self.fd_order, out=out)

    def band_mask(self, layers):
        """Boolean mask, True on the outermost `layers` grid layers."""
        mask = np.zeros(self.shape, dtype=bool)
        if layers <= 0:
            return mask
        for k in range(self.dim):
            idx_lo = tuple(
                slice(0, layers) if a == k else slice(None) for a in range(self.dim)
            )
            idx_hi = tuple(
                slice(-layers, None) if a == k else slice(None) for a in range(self.dim)
            )
            mask[idx_lo] = True
            mask[idx_hi] = True
        return mask

    def interior_mask(self, layers=None):
        """Complement of band_mask; defaults to the declared support margin."""
        if layers is None:
            layers = self.support_margin
        return ~self.band_mask(layers)

    def _edge_slabs(self, values, layers):
        """Index tuples of the two edge slabs, `layers` deep, of each
        full-length grid axis of a grid-last array; an axis of length 1
        has no band."""
        g = self.dim
        return [
            (Ellipsis, edge) + (slice(None),) * (g - 1 - k)
            for k, m in enumerate(values.shape[values.ndim - g :])
            if m == self.shape[k]
            for edge in (slice(None, layers), slice(-layers, None))
        ]

    def zero_band(self, values, layers):
        """Zero a grid-last array in place on the outermost `layers` grid
        layers along each of its full-length grid axes.  On a full-grid
        array this is the whole band."""
        if layers <= 0:
            return values
        for slab in self._edge_slabs(values, layers):
            values[slab] = 0
        return values

    def check_support(self, values, layers):
        """Raise SupportViolation unless a section's grid-last values vanish
        on the band, read as the 2 * dim slabs at the grid's edges."""
        if layers > self.support_margin:
            raise SupportViolation(
                f"section needs {layers} margin layers but the grid declares "
                f"{self.support_margin}"
            )
        if layers <= 0:
            return
        slabs = [values[slab] for slab in self._edge_slabs(values, layers)]
        if any(np.any(slab != 0) for slab in slabs):
            worst = float(np.max([np.max(np.abs(slab)) for slab in slabs]))
            raise SupportViolation(
                f"section must vanish on the outer {layers} grid layers; "
                f"max magnitude there is {worst:.3e}"
            )

    def quad_weights(self):
        """Trapezoid weights as a full-shape array (product of 1D rules),
        built once per grid and read-only."""
        if self._quad_weights is None:
            w = np.ones(self.shape, dtype=float)
            for k in range(self.dim):
                w1 = np.ones(self.shape[k])
                w1[0] = w1[-1] = 0.5
                shape1 = tuple(
                    self.shape[k] if a == k else 1 for a in range(self.dim)
                )
                w = w * w1.reshape(shape1)
            w = w * self.cell_volume
            w.flags.writeable = False
            self._quad_weights = w
        return self._quad_weights

    def integrate(self, values):
        """Trapezoid quadrature of a scalar grid array (flat measure)."""
        if values.shape != self.shape:
            raise ShapeMismatch(
                f"integrand shape {values.shape} does not match grid {self.shape}"
            )
        total = np.sum(values * self.quad_weights())
        return complex(total) if np.iscomplexobj(values) else float(total)
