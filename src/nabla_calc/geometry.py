"""Metrics on chart grids: Christoffel symbols, volume densities, weights.

Metric values are real symmetric positive matrices stored grid-last,
values[k, l, idx] = g_kl(x_idx), at the shape they vary over: each grid
axis has its full length or length 1, as every grid field is (see
grid).  The flat metric is (n, n, 1, .., 1).
Christoffel symbols come from central differences of the metric, at the
metric's shape.  Their outermost stencil-radius band is zeroed along each
full-length axis, since the one-sided values there are garbage and
sections are required to vanish nearby anyway; along a length-1 axis no
difference was taken, so nothing there is invalid.
"""

import copy

import numpy as np

from .errors import ChartMismatch, NonpositiveWeight, ShapeMismatch, SingularMetric
from .grid import check_grid_shape, compact_grid_axes

EIG_FLOOR_REL = 1e-12


class MetricField:
    """Riemannian metric sampled on a chart grid.

    values, inv, sqrt_det and christoffel[m, k, l, idx] are stored at the
    shape the metric varies over, each grid axis full or of length 1, and
    are computed once, here, and never written.  A constant metric has
    the Christoffel field (n, n, n, 1, .., 1) of zeros.  Every stored
    field is C-contiguous.
    """

    def __init__(self, grid, values):
        values = np.asarray(values, dtype=float)
        n = grid.dim
        check_grid_shape(values.shape, grid, (n, n), "metric values")
        if not np.all(np.isfinite(values)):
            raise SingularMetric("metric values are not finite on the grid")
        asym = np.max(np.abs(values - np.swapaxes(values, 0, 1)))
        if asym > 1e-12 * max(1.0, float(np.max(np.abs(values)))):
            raise ShapeMismatch(f"metric is not symmetric, max asymmetry {asym:.3e}")
        values = compact_grid_axes(0.5 * (values + np.swapaxes(values, 0, 1)), n)
        # numpy.linalg wants the matrices last
        mats = np.moveaxis(values, (0, 1), (-2, -1))
        eigs = np.linalg.eigvalsh(mats)
        floor = EIG_FLOOR_REL * float(np.max(eigs))
        emin = float(np.min(eigs))
        if emin <= floor:
            raise SingularMetric(
                f"metric eigenvalue {emin:.3e} is at or below the floor {floor:.3e}"
            )
        self.grid = grid
        self.values = values
        self.inv = np.ascontiguousarray(
            np.moveaxis(np.linalg.inv(mats), (-2, -1), (0, 1))
        )
        self.sqrt_det = np.sqrt(np.linalg.det(mats))
        # dg[k, r, l, idx] = d_k g_rl at the shape g varies over
        dg = np.empty((n,) + values.shape)
        for k in range(n):
            grid.diff(values, k, out=dg[k])
        t1 = np.swapaxes(dg, 0, 1)  # [r, k, l] = d_k g_rl
        t2 = np.swapaxes(t1, 1, 2)  # [r, k, l] = d_l g_rk
        gamma = 0.5 * np.einsum("mr...,rkl...->mkl...", self.inv, t1 + t2 - dg)
        self.christoffel = grid.zero_band(gamma, grid.stencil_radius)
        for field in (self.values, self.inv, self.sqrt_det, self.christoffel):
            field.flags.writeable = False

    def on(self, window):
        """This metric read on a window of its grid: values, inv, sqrt_det
        and christoffel restricted to the window's points, as views, none
        of them recomputed."""
        out = copy.copy(self)
        out.grid = window
        for name in ("values", "inv", "sqrt_det", "christoffel"):
            setattr(out, name, window.restrict(getattr(self, name)))
        return out

    @property
    def constant(self):
        """True when the metric is the same at every grid point."""
        return self.values.shape[2:] == (1,) * self.grid.dim

    @classmethod
    def flat(cls, grid):
        n = grid.dim
        return cls(grid, np.eye(n).reshape((n, n) + (1,) * n))

    @classmethod
    def conformal(cls, grid, phi):
        """g = e^{2 phi} * identity for a scalar field phi, each grid axis
        of phi full or of length 1."""
        n = grid.dim
        phi = np.asarray(phi, dtype=float)
        check_grid_shape(phi.shape, grid, (), "conformal exponent")
        # an overflow gives inf (and inf * 0 nan), which the constructor rejects
        with np.errstate(over="ignore", invalid="ignore"):
            vals = np.exp(2.0 * phi) * np.eye(n).reshape((n, n) + (1,) * n)
        return cls(grid, vals)


def conformal_rescale(metric, rho):
    """Divide out a conformal factor: returns the metric rho^{-2} g."""
    rho = np.asarray(rho, dtype=float)
    if rho.shape != metric.grid.shape:
        raise ShapeMismatch(
            f"conformal factor shape {rho.shape} does not match grid "
            f"{metric.grid.shape}"
        )
    if np.min(rho) <= 0:
        raise NonpositiveWeight(
            f"conformal factor must be positive, min is {float(np.min(rho)):.3e}"
        )
    return MetricField(metric.grid, metric.values / rho**2)


def levi_civita_difference(X, Y, phi, metric0):
    """Difference of Levi-Civita connections under g = e^{2 phi} g0.

    Evaluates X(phi) Y + Y(phi) X - g0(X, Y) grad_{g0} phi as a vector field;
    X, Y are (n,) + grid coordinate-component arrays.
    """
    grid = metric0.grid
    n = grid.dim
    for name, fld in (("X", X), ("Y", Y)):
        if fld.shape != (n,) + grid.shape:
            raise ShapeMismatch(f"{name} has shape {fld.shape}, expected vector field")
    if phi.shape != grid.shape:
        raise ShapeMismatch(f"phi has shape {phi.shape}, expected scalar field")
    dphi = np.stack([grid.diff(phi, axis=k) for k in range(n)])
    x_phi = np.einsum("k...,k...->...", X, dphi)
    y_phi = np.einsum("k...,k...->...", Y, dphi)
    grad_phi = np.einsum("km...,m...->k...", metric0.inv, dphi)
    g0_xy = np.einsum("kl...,k...,l...->...", metric0.values, X, Y)
    out = x_phi * Y + y_phi * X - g0_xy * grad_phi
    grid.zero_band(out, grid.stencil_radius)
    return out


class WeightPair:
    """A weight function rho and a normalizer f0, both positive scalars.

    The admissible flag asserts that d(rho)/rho stays bounded in the
    rescaled metric; admissibility_bound measures that on the grid.
    """

    def __init__(self, grid, rho, f0=None, admissible=False):
        rho = np.asarray(rho, dtype=float)
        if rho.shape != grid.shape:
            raise ShapeMismatch(
                f"weight shape {rho.shape} does not match grid {grid.shape}"
            )
        if np.min(rho) <= 0:
            raise NonpositiveWeight(
                f"weight must be positive, min is {float(np.min(rho)):.3e}"
            )
        if f0 is None:
            f0 = np.ones(grid.shape)
        f0 = np.asarray(f0, dtype=float)
        if f0.shape != grid.shape:
            raise ShapeMismatch(
                f"normalizer shape {f0.shape} does not match grid {grid.shape}"
            )
        if np.min(f0) <= 0:
            raise NonpositiveWeight(
                f"normalizer must be positive, min is {float(np.min(f0)):.3e}"
            )
        self.grid = grid
        self.rho = rho
        self.f0 = f0
        self.admissible = bool(admissible)

    def rescaled_metric(self, metric):
        """g0 = rho^{-2} g for the ambient metric g."""
        if metric.grid != self.grid:
            raise ChartMismatch("weight and metric live on different grids")
        return conformal_rescale(metric, self.rho)

    def admissibility_bound(self, metric):
        """max over the interior grid of |d rho / rho| in the g0 metric."""
        grid = self.grid
        n = grid.dim
        g0 = self.rescaled_metric(metric)
        drho = np.stack([grid.diff(self.rho, axis=k) for k in range(n)])
        omega = drho / self.rho
        sq = np.einsum("kl...,k...,l...->...", g0.inv, omega, omega)
        mask = grid.interior_mask(grid.stencil_radius)
        return float(np.sqrt(np.max(sq[mask])))
