"""Metrics on chart grids: Christoffel symbols, volume densities, weights.

Metric values are real symmetric positive matrices stored pointwise with
trailing index axes, values[idx, k, l] = g_kl(x_idx).  Christoffel symbols
come from central differences of the metric; the outermost stencil-radius
band is zeroed since the one-sided values there are garbage and sections are
required to vanish nearby anyway.
"""

import numpy as np

from .bundles import grid_einsum
from .errors import (
    ChartMismatch,
    NonpositiveWeight,
    ShapeMismatch,
    SingularMetric,
)

EIG_FLOOR_REL = 1e-12


class MetricField:
    """Riemannian metric sampled on a chart grid."""

    def __init__(self, grid, values):
        values = np.asarray(values, dtype=float)
        n = grid.dim
        if values.shape != grid.shape + (n, n):
            raise ShapeMismatch(
                f"metric values {values.shape} do not match grid {grid.shape} "
                f"with {n}x{n} fibers"
            )
        if not np.all(np.isfinite(values)):
            raise SingularMetric("metric values are not finite on the grid")
        asym = np.max(np.abs(values - np.swapaxes(values, -1, -2)))
        if asym > 1e-12 * max(1.0, float(np.max(np.abs(values)))):
            raise ShapeMismatch(f"metric is not symmetric, max asymmetry {asym:.3e}")
        values = 0.5 * (values + np.swapaxes(values, -1, -2))
        self.is_constant = bool(np.all(values == values[(0,) * grid.dim]))
        # a constant metric has one matrix's eigenvalues
        eigs = np.linalg.eigvalsh(
            values[(0,) * grid.dim] if self.is_constant else values
        )
        floor = EIG_FLOOR_REL * float(np.max(eigs))
        emin = float(np.min(eigs))
        if emin <= floor:
            raise SingularMetric(
                f"metric eigenvalue {emin:.3e} is at or below the floor {floor:.3e}"
            )
        self.grid = grid
        self.values = values
        self._inv = None
        self._sqrt_det = None
        self._christoffel = None

    @classmethod
    def flat(cls, grid):
        n = grid.dim
        eye = np.broadcast_to(np.eye(n), grid.shape + (n, n)).copy()
        return cls(grid, eye)

    @classmethod
    def conformal(cls, grid, phi):
        """g = e^{2 phi} * identity for a scalar field phi."""
        n = grid.dim
        phi = np.asarray(phi, dtype=float)
        if phi.shape != grid.shape:
            raise ShapeMismatch(
                f"conformal exponent shape {phi.shape} does not match grid {grid.shape}"
            )
        # an overflow gives inf (and inf * 0 nan), which the constructor rejects
        with np.errstate(over="ignore", invalid="ignore"):
            vals = np.exp(2.0 * phi)[..., None, None] * np.eye(n)
        return cls(grid, vals)

    @property
    def inv(self):
        if self._inv is None:
            self._inv = np.linalg.inv(self.values)
        return self._inv

    @property
    def sqrt_det(self):
        if self._sqrt_det is None:
            det = np.linalg.det(self.values)
            self._sqrt_det = np.sqrt(det)
        return self._sqrt_det

    def christoffel_field(self):
        """Gamma[idx, m, k, l] with the outer stencil band zeroed."""
        if self._christoffel is None:
            grid = self.grid
            n = grid.dim
            if self.is_constant:
                self._christoffel = np.zeros(grid.shape + (n, n, n))
                return self._christoffel
            # dg[idx, k, r, l] = d_k g_rl
            dg = np.stack(
                [grid.diff(self.values, axis=k) for k in range(n)], axis=-3
            )
            t1 = np.swapaxes(dg, -3, -2)  # [r, k, l] = d_k g_rl
            t2 = np.swapaxes(t1, -2, -1)  # [r, k, l] = d_l g_rk
            s = t1 + t2 - dg
            gamma = 0.5 * grid_einsum("...mr,...rkl->...mkl", self.inv, s)
            grid.zero_band(gamma, grid.stencil_radius)
            self._christoffel = gamma
        return self._christoffel


def christoffel(metric, point=None):
    """Christoffel symbols Gamma^m_kl of the Levi-Civita connection.

    Returns the full grid field, or the matrix stack at one grid index when
    point is given.
    """
    field = metric.christoffel_field()
    if point is None:
        return field
    return field[tuple(point)]


def volume_density(metric, point=None):
    """sqrt(det g), full field or at one grid index."""
    field = metric.sqrt_det
    if point is None:
        return field
    return field[tuple(point)]


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
    return MetricField(metric.grid, metric.values / (rho**2)[..., None, None])


def levi_civita_difference(X, Y, phi, metric0):
    """Difference of Levi-Civita connections under g = e^{2 phi} g0.

    Evaluates X(phi) Y + Y(phi) X - g0(X, Y) grad_{g0} phi as a vector field;
    X, Y are (grid, n) coordinate-component arrays.
    """
    grid = metric0.grid
    n = grid.dim
    for name, fld in (("X", X), ("Y", Y)):
        if fld.shape != grid.shape + (n,):
            raise ShapeMismatch(f"{name} has shape {fld.shape}, expected vector field")
    if phi.shape != grid.shape:
        raise ShapeMismatch(f"phi has shape {phi.shape}, expected scalar field")
    dphi = np.stack([grid.diff(phi, axis=k) for k in range(n)], axis=-1)
    x_phi = np.einsum("...k,...k->...", X, dphi)
    y_phi = np.einsum("...k,...k->...", Y, dphi)
    grad_phi = np.einsum("...km,...m->...k", metric0.inv, dphi)
    g0_xy = np.einsum("...kl,...k,...l->...", metric0.values, X, Y)
    out = (
        x_phi[..., None] * Y
        + y_phi[..., None] * X
        - g0_xy[..., None] * grad_phi
    )
    grid.zero_band(out, grid.stencil_radius)
    return out


class WeightPair:
    """A weight function rho and a normalizer f0, both positive scalars.

    Stores phi = log(rho) alongside, since conformal bookkeeping wants the
    exponent more often than the factor.  The admissible flag asserts that
    d(rho)/rho stays bounded in the rescaled metric; admissibility_bound
    measures that on the grid.
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
        self.phi = np.log(rho)
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
        drho = np.stack([grid.diff(self.rho, axis=k) for k in range(n)], axis=-1)
        omega = drho / self.rho[..., None]
        sq = np.einsum("...kl,...k,...l->...", g0.inv, omega, omega)
        mask = grid.interior_mask(grid.stencil_radius)
        return float(np.sqrt(np.max(sq[mask])))
