"""Finite-difference stencil kernel.

The hot loop of the whole package is "central difference along one axis of a
grid array": a central stencil of order 2 (radius 1) or order 4 (radius 2),
with values outside the grid treated as zero.  Sections are required to
vanish on a margin band, so the zero padding never touches meaningful data.

Terms are paired before scaling, (u[i+1] - u[i-1]) c1 - (u[i+2] - u[i-2]) c2,
so a constant stretch of data has an exactly zero derivative.
"""

import math

import numpy as np

STENCIL_RADIUS = {2: 1, 4: 2}


# diff_axis works through u in slabs of about this many bytes, cut along the
# axes before the differenced one, so the passes over a slab stay in a
# core's L2 cache instead of streaming the whole array five times
_SLAB_BYTES = 1 << 18


def _pair(u, axis, s, d):
    """d = u[i+s] - u[i-s] along axis, with zero beyond the grid edge."""
    lead = (slice(None),) * axis
    np.subtract(
        u[lead + (slice(2 * s, None),)],
        u[lead + (slice(None, -2 * s),)],
        out=d[lead + (slice(s, -s),)],
    )
    d[lead + (slice(None, s),)] = u[lead + (slice(s, 2 * s),)]
    np.negative(u[lead + (slice(-2 * s, -s),)], out=d[lead + (slice(-s, None),)])


def _slabs(shape, axis, itemsize):
    """Index tuples that cut an array into slabs along the axes before axis."""
    if axis == 0 or itemsize * math.prod(shape) <= _SLAB_BYTES:
        return [()]
    cut = axis - 1
    row = itemsize * math.prod(shape[cut + 1 :])
    step = max(1, _SLAB_BYTES // row)
    return [
        tuple(slice(i, i + 1) for i in outer) + (slice(s, s + step),)
        for outer in np.ndindex(*shape[:cut])
        for s in range(0, shape[cut], step)
    ]


def diff_axis(u: np.ndarray, axis: int, h: float, order: int) -> np.ndarray:
    """Central difference of u along one axis, zero beyond the grid edge.

    Works for any array rank; the axis is a grid axis, trailing axes are
    slots/fiber components and ride along.  Every entry takes the same
    operations whatever the slab it falls in.
    """
    if order not in STENCIL_RADIUS:
        raise ValueError(f"fd order must be 2 or 4, got {order}")
    if h <= 0:
        raise ValueError(f"grid spacing must be positive, got {h}")
    if u.shape[axis] < 2 * STENCIL_RADIUS[order] + 1:
        raise ValueError(
            f"axis {axis} has {u.shape[axis]} points, below the stencil width "
            f"{2 * STENCIL_RADIUS[order] + 1}"
        )
    axis %= u.ndim
    inv_h = 1.0 / h
    out = np.empty_like(u)
    far = None
    for slab in _slabs(u.shape, axis, u.itemsize):
        piece, near = u[slab], out[slab]
        _pair(piece, axis, 1, near)
        if order == 2:
            near *= 0.5 * inv_h
            continue
        near *= (8.0 / 12.0) * inv_h
        if far is None or far.shape != piece.shape:
            far = np.empty_like(piece)
        _pair(piece, axis, 2, far)
        far *= (1.0 / 12.0) * inv_h
        near -= far
    return out
