"""Finite-difference stencil kernel.

The hot loop of the whole package is "central difference along one axis of a
grid array": a central stencil of order 2 (radius 1) or order 4 (radius 2),
with values outside the grid treated as zero.  Sections are required to
vanish on a margin band, so the zero padding never touches meaningful data.

Terms are paired before scaling, (u[i+1] - u[i-1]) c1 - (u[i+2] - u[i-2]) c2,
so a constant stretch of data has an exactly zero derivative.
"""

import numpy as np

STENCIL_RADIUS = {2: 1, 4: 2}


def _pair(u, axis, s):
    """u[i+s] - u[i-s] along axis, with zero beyond the grid edge."""
    lead = (slice(None),) * (axis % u.ndim)
    d = np.empty_like(u)
    np.subtract(
        u[lead + (slice(2 * s, None),)],
        u[lead + (slice(None, -2 * s),)],
        out=d[lead + (slice(s, -s),)],
    )
    d[lead + (slice(None, s),)] = u[lead + (slice(s, 2 * s),)]
    np.negative(u[lead + (slice(-2 * s, -s),)], out=d[lead + (slice(-s, None),)])
    return d


def diff_axis(u: np.ndarray, axis: int, h: float, order: int) -> np.ndarray:
    """Central difference of u along one axis, zero beyond the grid edge.

    Works for any array rank; the axis is a grid axis, trailing axes are
    slots/fiber components and ride along.
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
    inv_h = 1.0 / h
    out = _pair(u, axis, 1)
    if order == 2:
        out *= 0.5 * inv_h
        return out
    out *= (8.0 / 12.0) * inv_h
    far = _pair(u, axis, 2)
    far *= (1.0 / 12.0) * inv_h
    out -= far
    return out
