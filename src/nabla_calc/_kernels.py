"""Finite-difference stencil kernel.

The hot loop of the whole package is "central difference along one axis of a
grid array": a central stencil of order 2 (radius 1) or order 4 (radius 2),
with values outside the grid treated as zero.  Sections are required to
vanish on a margin band, so the zero padding never touches meaningful data.

Terms are paired before scaling, (u[i+1] - u[i-1]) c1 - (u[i+2] - u[i-2]) c2,
so a constant stretch of data has an exactly zero derivative.

Importing this module also tunes glibc's malloc, once, so that the memory
of a freed difference or product is reused by the next one instead of being
returned to the kernel and faulted back in (_keep_freed_heap).
"""

import ctypes
import math

import numpy as np

STENCIL_RADIUS = {2: 1, 4: 2}

# mallopt parameters, from glibc's malloc.h
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def _keep_freed_heap():
    """Have glibc's malloc keep freed heap memory in the process.

    By default glibc trims a large free block at the top of the heap, such
    as the one an 8-17 MB grid field leaves when it is freed, and the next
    field of that size faults all its pages back in, zeroed.  The mmap
    threshold is fixed at its 64-bit ceiling, 32 MiB, and the trim threshold
    far above any field's size; setting both switches off glibc's dynamic
    thresholds, and setting only one makes the churn worse.  Freed memory
    then stays at the process's high-water mark.  True when glibc accepted
    both settings; where there is no mallopt nothing is changed.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return False
    return (
        mallopt(_M_MMAP_THRESHOLD, 32 << 20) == 1
        and mallopt(_M_TRIM_THRESHOLD, 1 << 30) == 1
    )


HEAP_KEPT = _keep_freed_heap()


# diff_axis works through u in slabs of about this many bytes, so the passes
# over a slab stay in a core's L2 cache instead of streaming the whole array
# five times.  Every axis before the differenced one is first collapsed
# into one leading axis, and slabs are cut along it: a grid-last section's
# slot and fiber axes and the grid axes before the differenced one are cut
# together, not one small slab per slot and fiber component
_SLAB_BYTES = 1 << 18


def _pair(u, s, d):
    """d = u[:, i+s] - u[:, i-s] along axis 1, with zero beyond the grid edge.

    d is C-contiguous, so its flattened reshape is a view.  A C-contiguous
    u runs as one shifted subtraction over the flattened arrays, so a short
    last axis is not cut into one small loop per row; the entries within s
    points of a grid edge, where that read a neighbouring row, are then
    overwritten.  Any other u is read through slices, which copy nothing.
    """
    if u.flags.c_contiguous:
        shift = s * (u.size // (u.shape[0] * u.shape[1]))
        flat, out = u.reshape(-1), d.reshape(-1)
        np.subtract(flat[2 * shift :], flat[: -2 * shift], out=out[shift:-shift])
    else:
        np.subtract(u[:, 2 * s :], u[:, : -2 * s], out=d[:, s:-s])
    d[:, :s] = u[:, s : 2 * s]
    np.negative(u[:, -2 * s : -s], out=d[:, -s:])


def _slabs(shape, itemsize):
    """Slices of the leading axis of a (lead, points, ..) array, each slab
    about _SLAB_BYTES."""
    step = max(1, _SLAB_BYTES // (itemsize * math.prod(shape[1:])))
    return [slice(i, i + step) for i in range(0, shape[0], step)]


def diff_axis(
    u: np.ndarray, axis: int, h: float, order: int, out: np.ndarray | None = None
) -> np.ndarray:
    """Central difference of u along one axis, zero beyond the grid edge.

    Works for any array rank and either layout: the axis is a grid axis,
    the others ride along.  The result is written into out when given (a
    C-contiguous array of u's shape, such as one direction's block of a
    covariant derivative) and returned.  Every entry takes the same
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
    if out is None:
        out = np.empty(u.shape, dtype=u.dtype)
    elif out.shape != u.shape or not out.flags.c_contiguous:
        raise ValueError(
            f"out must be a C-contiguous array of shape {u.shape}, got shape "
            f"{out.shape}"
        )
    shape = (math.prod(u.shape[:axis]),) + u.shape[axis:]
    src = u.reshape(shape)
    dst = out.reshape(shape)  # a view: out is C-contiguous
    inv_h = 1.0 / h
    far = None
    for slab in _slabs(shape, u.itemsize):
        piece, near = src[slab], dst[slab]
        _pair(piece, 1, near)
        if order == 2:
            near *= 0.5 * inv_h
            continue
        near *= (8.0 / 12.0) * inv_h
        if far is None or far.shape != piece.shape:
            far = np.empty(piece.shape, dtype=piece.dtype)
        _pair(piece, 2, far)
        far *= (1.0 / 12.0) * inv_h
        near -= far
    return out
