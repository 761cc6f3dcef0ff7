"""Chart grids: rectangular boxes with uniform per-axis sampling.

A ChartGrid fixes the discretization everything else lives on: box bounds,
point counts, finite-difference order, and the width of the margin band on
which sections are required to vanish (in grid layers).

It also owns the rule by which every grid field is stored: index axes
first, grid axes last, each grid axis at its full length or at length 1,
the shape the field varies over (check_grid_shape, compact_grid_axes).
The coordinates follow it, and ChartGrid.diff differences any field
stored so: along a length-1 axis the difference is an exact zero of the
field's shape.  ChartGrid.diff is the one caller of the stencil kernel.
"""

import numpy as np

from ._kernels import STENCIL_RADIUS, diff_axis
from .errors import ResolutionError, ShapeMismatch, SupportViolation


def check_grid_shape(shape, grid, tail, what):
    """Raise ShapeMismatch unless shape is tail + grid with each grid axis
    of full length or of length 1, the shape a stored field varies over."""
    t = len(tail)
    if len(shape) != t + grid.dim or tuple(shape[:t]) != tuple(tail) or not all(
        m in (1, full) for m, full in zip(shape[t:], grid.shape)
    ):
        raise ShapeMismatch(
            f"{what} shape {shape} does not match leading axes {tuple(tail)} "
            f"with grid {grid.shape} (each grid axis full or of length 1)"
        )


def compact_grid_axes(a, g):
    """a with every one of its g trailing axes along which each slice equals
    the first kept at length 1.

    One neighbouring slice is compared before the whole axis, so a field
    that varies costs one slice comparison per axis.  A shrunk result is a
    copy, so it does not keep the full array alive.
    """
    shrunk = False
    for axis in range(a.ndim - g, a.ndim):
        if a.shape[axis] == 1:
            continue
        lead = (slice(None),) * axis
        first = a[lead + (slice(0, 1),)]
        if np.array_equal(a[lead + (slice(1, 2),)], first) and np.all(a == first):
            a, shrunk = first, True
    return a.copy() if shrunk else a


class ChartGrid:
    """Uniform tensor-product grid over a box in R^n.

    coords[k] holds the k-th coordinate stored at the shape it varies
    over, the points of axis k shaped (1, .., N_k, .., 1), read-only.  The
    coordinates broadcast against each other and against any grid field;
    np.broadcast_arrays(*coords) reads them on the full grid, as views.
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
        g = len(shape)
        self.coords = [
            np.linspace(lo, hi, m).reshape((1,) * k + (m,) + (1,) * (g - k - 1))
            for k, ((lo, hi), m) in enumerate(zip(box, shape))
        ]
        for x in self.coords:
            x.flags.writeable = False
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
        """Central difference of a grid-last field, stored at the shape it
        varies over, along one grid axis, written into out when given (a
        C-contiguous array of its shape) and returned.  Along an axis of
        length 1 the difference is an exact zero of the field's shape."""
        g = self.dim
        check_grid_shape(values.shape, self, values.shape[: values.ndim - g], "array")
        if values.shape[axis - g] == 1:
            if out is None:
                return np.zeros(values.shape, dtype=values.dtype)
            out[...] = 0
            return out
        return diff_axis(values, axis - g, self.h[axis], self.fd_order, out=out)

    def interior_mask(self, layers):
        """Boolean mask of the grid, False on the outermost `layers` grid
        layers."""
        return self.zero_band(np.ones(self.shape, dtype=bool), layers)

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
            for x, (lo, hi) in zip(self.coords, self.box):
                w = w * np.where((x == lo) | (x == hi), 0.5, 1.0)
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
