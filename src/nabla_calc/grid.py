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

A window (ChartGrid.windows) is a strip of rows of axis 0 read as a grid
of its own.  A pointwise identity differenced to some depth can be
checked one window at a time: the window cores tile the rows, each
window adds a halo of depth stencil radii to its core on each side, cut
off at the grid's edges, and on its core every difference then has the
whole grid's bits.  A window's spacing
is the whole grid's h and its coordinates are views of the whole grid's
rows, never a new linspace, so every point sees the same numbers; its
band is the whole grid's band read on its rows; and the fields of the
whole grid are read on it through ChartGrid.restrict, a view, never
rebuilt, since a difference taken at a window edge would come out
different.  The windows of a grid hold about _WINDOW_POINTS points each,
halo left out.  Quadrature is never split into windows: np.sum adds
pairwise in blocks set by the array's extent, so a sum taken strip by
strip would round differently.
"""

import copy
import math

import numpy as np

from ._kernels import STENCIL_RADIUS, diff_axis
from .errors import ResolutionError, ShapeMismatch, SupportViolation

# The windows of a grid hold about this many points each, halo left out:
# a 129^2 grid is one window, and 513^2 is four of about 128 rows
_WINDOW_POINTS = 1 << 16


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

    A grid is its own whole window: offset[k] is the index of its first
    point on axis k of the whole grid, whole_shape that grid's shape.
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
        self.offset = (0,) * g
        self.whole_shape = shape
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

    def _key(self):
        return (
            self.box,
            self.shape,
            self.fd_order,
            self.support_margin,
            self.offset,
            self.whole_shape,
        )

    def __eq__(self, other):
        return isinstance(other, ChartGrid) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return (
            f"ChartGrid(box={self.box}, shape={self.shape}, "
            f"fd_order={self.fd_order}, support_margin={self.support_margin}, "
            f"offset={self.offset})"
        )

    def window(self, start, stop):
        """Rows start..stop of axis 0 as a grid of their own: the same box,
        spacing and stencil, coordinates that are views of those rows, and
        the whole grid's band read on them.  A window equals only a window
        of the same rows of the same whole grid."""
        if not 0 <= start < stop <= self.shape[0]:
            raise ValueError(f"rows {start}..{stop} are not within 0..{self.shape[0]}")
        win = copy.copy(self)
        win.shape = (stop - start,) + self.shape[1:]
        win.offset = (self.offset[0] + start,) + self.offset[1:]
        win.coords = [self.coords[0][start:stop]] + self.coords[1:]
        win._quad_weights = None
        return win

    def windows(self, depth):
        """The strips of rows of axis 0 that check a pointwise identity
        differenced depth times: a list of (window, core) pairs.

        The cores tile the rows, each at least _WINDOW_POINTS // (points
        per row) rows, so a grid of fewer points is one window that equals
        the grid.  Each window adds a halo of depth stencil radii on each
        side, cut off at the grid's edges; core, an index tuple, picks a
        grid-last field's core rows, and there every difference up to
        depth has the grid's bits.  A core is never so short that a window
        is narrower than the stencil.
        """
        n = self.shape[0]
        halo = depth * self.stencil_radius
        rows = max(
            1,
            _WINDOW_POINTS // math.prod(self.shape[1:]),
            2 * self.stencil_radius + 1 - halo,
        )
        count = max(1, n // rows)
        tail = (slice(None),) * (self.dim - 1)
        out = []
        for i in range(count):
            lo, hi = n * i // count, n * (i + 1) // count
            start, stop = max(0, lo - halo), min(n, hi + halo)
            core = (Ellipsis, slice(lo - start, hi - start)) + tail
            out.append((self.window(start, stop), core))
        return out

    def restrict(self, values):
        """A grid-last field of the whole grid read on this grid's points:
        each grid axis of the whole grid's length sliced to them, each of
        length 1 left as it is.  A view, the whole field on the whole
        grid."""
        g = self.dim
        axes = values.shape[values.ndim - g :]
        if values.ndim < g or any(
            m not in (1, w) for m, w in zip(axes, self.whole_shape)
        ):
            raise ShapeMismatch(
                f"array shape {values.shape} does not end in the whole grid "
                f"{self.whole_shape} (each grid axis full or of length 1)"
            )
        return values[
            (Ellipsis,)
            + tuple(
                slice(None) if m == 1 else slice(o, o + k)
                for m, o, k in zip(axes, self.offset, self.shape)
            )
        ]

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
        """Boolean mask of the grid, False on the band `layers` deep (on a
        window, the whole grid's band read on its rows)."""
        return self.zero_band(np.ones(self.shape, dtype=bool), layers)

    def _edge_slabs(self, values, layers):
        """Index tuples of the edge slabs, `layers` deep, of each
        full-length grid axis of a grid-last array: the whole grid's band
        read on this grid's points, so a window has a slab only at an
        edge it shares with the whole grid.  An axis of length 1 has no
        band."""
        g = self.dim
        slabs = []
        for k, m in enumerate(values.shape[values.ndim - g :]):
            if m != self.shape[k]:
                continue
            lo, whole = self.offset[k], self.whole_shape[k]
            # the whole grid's edge slabs, shifted to this grid's points
            for a, b in ((0, layers), (whole - layers, whole)):
                a, b = max(a - lo, 0), min(b - lo, m)
                if a < b:
                    slabs.append((Ellipsis, slice(a, b)) + (slice(None),) * (g - 1 - k))
        return slabs

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
