"""Random smooth test sections with analytic derivatives.

Sections are sums of separable terms, each the product over axes of

    hinge(x) * exp(-(x - c)^2 / (2 sigma^2) + i kappa x)

where hinge(x) = ((R^2 - (x - mid)^2)_+ / R^2)^p.  The hinge factor is a
C^{p-1} piecewise polynomial that is exactly zero within margin_width of the
box edge, so sections honor the vanishing-margin contract without any steep
window; its low-order derivatives stay small, which keeps fourth-order
stencils at full accuracy.  Every factor has closed-form derivatives to
second order, so closed-form comparisons against stencil output can be
evaluated exactly.
"""

import hashlib

import numpy as np

from .bundles import TensorSection
from .errors import ShapeMismatch


def seeded_rng(seed, label, trial=0):
    """Counter-based generator: key from sha256(seed:label), counter = trial."""
    digest = hashlib.sha256(f"{seed}:{label}".encode()).digest()
    key = int.from_bytes(digest[:16], "little")
    return np.random.Generator(np.random.Philox(key=key, counter=[trial, 0, 0, 0]))


class AxisFactor:
    """One-axis factor: hinge plateau times Gaussian times phase."""

    # the hinge is C^8, so its derivatives to second order are smooth
    p = 9

    def __init__(self, lo, hi, margin_width, center, sigma, kappa):
        self.mid = 0.5 * (lo + hi)
        self.radius = 0.5 * (hi - lo) - margin_width
        if self.radius <= 0:
            raise ShapeMismatch(
                f"margin {margin_width} leaves no interior in ({lo}, {hi})"
            )
        self.c = float(center)
        self.s = float(sigma)
        self.k = float(kappa)

    def _hinge(self, x):
        y = x - self.mid
        r2 = self.radius**2
        v = np.maximum(r2 - y**2, 0.0)
        q0 = (v / r2) ** self.p
        q1 = np.where(v > 0, -2 * self.p * y * v ** (self.p - 1), 0.0) / r2**self.p
        q2 = (
            np.where(
                v > 0,
                -2 * self.p * v ** (self.p - 1)
                + 4 * self.p * (self.p - 1) * y**2 * v ** (self.p - 2),
                0.0,
            )
            / r2**self.p
        )
        return q0, q1, q2

    def __call__(self, x, order=0):
        x = np.asarray(x, dtype=float)
        g = np.exp(-((x - self.c) ** 2) / (2 * self.s**2) + 1j * self.k * x)
        q0, q1, q2 = self._hinge(x)
        if order == 0:
            return q0 * g
        lin = -(x - self.c) / self.s**2 + 1j * self.k
        if order == 1:
            return (q1 + q0 * lin) * g
        if order == 2:
            return (q2 + 2 * q1 * lin + q0 * (lin**2 - 1.0 / self.s**2)) * g
        raise ShapeMismatch(f"axis factors differentiate up to order 2, got {order}")


class ScalarBump:
    """Sum of separable axis-factor terms over a fixed box."""

    def __init__(self, box, terms):
        self.box = tuple(tuple(edge) for edge in box)
        self.terms = terms  # list of (amplitude, [AxisFactor per axis])

    def sample(self, grid, orders=None, out=None):
        """Evaluate (a partial derivative of) the bump on a grid over the box,
        written into out when given (a complex array of the grid's shape,
        such as one component's block of a section) and returned."""
        n = len(self.box)
        if tuple(grid.box) != self.box:
            raise ShapeMismatch(f"grid box {grid.box} differs from bump box {self.box}")
        if orders is None:
            orders = (0,) * n
        orders = tuple(int(o) for o in orders)
        if len(orders) != n:
            raise ShapeMismatch(f"orders {orders} must have one entry per axis")
        if out is None:
            out = np.empty(grid.shape, dtype=complex)
        out[...] = 0
        for amp, factors in self.terms:
            prod = None
            for x, fac, order in zip(grid.coords, factors, orders):
                axis_vals = fac(x, order)
                prod = axis_vals if prod is None else prod * axis_vals
            out += np.multiply(amp, prod, out=prod)
        return out


def default_margin_width(grid):
    """Margin in coordinates covering the grid's declared margin layers."""
    return (grid.support_margin + 0.5) * max(grid.h)


def random_scalar_bump(
    box, rng, margin_width, sigma_range=(0.25, 0.45), kappa_max=2.0, real=False
):
    """Draw one bump of two terms over a box; lengths scale with the box
    half-widths, and each center lies within 0.3 half-widths of the mid."""
    box = tuple((float(lo), float(hi)) for lo, hi in box)
    halves = [(hi - lo) / 2.0 for lo, hi in box]
    ref = min(halves)
    terms = []
    for _ in range(2):
        amp = rng.uniform(0.4, 1.0) * (
            1.0 if real else np.exp(2j * np.pi * rng.uniform())
        )
        factors = []
        for (lo, hi), half in zip(box, halves):
            mid = 0.5 * (lo + hi)
            c = mid + half * 0.3 * rng.uniform(-1.0, 1.0)
            sigma = ref * rng.uniform(*sigma_range)
            kappa = 0.0 if real else rng.uniform(-kappa_max, kappa_max) / ref
            factors.append(AxisFactor(lo, hi, margin_width, c, sigma, kappa))
        terms.append((amp, factors))
    return ScalarBump(box, terms)


class BumpSection:
    """A tensor section whose every component is a ScalarBump."""

    def __init__(self, box, rank, fiber_dim, components):
        self.box = box
        self.rank = rank
        self.fiber_dim = fiber_dim
        # dict: component tuple -> ScalarBump, one entry for every component
        self.components = components

    def _assemble(self, grid, orders):
        """The components sampled grid-last, each straight into its
        contiguous block."""
        n = grid.dim
        shape = (n,) * self.rank + (self.fiber_dim,) + grid.shape
        vals = np.empty(shape, dtype=complex)
        for comp, bump in self.components.items():
            bump.sample(grid, orders, out=vals[comp])
        return vals

    def section(self, grid):
        return TensorSection(grid, self.rank, self._assemble(grid, None), self.fiber_dim)

    def partial(self, grid, orders):
        """Analytic partial derivative, stacked grid-last over components."""
        return self._assemble(grid, orders)


def random_bump_section(grid, rank, fiber_dim, rng, margin_width=None, **kw):
    """Random section with independent bump components; returns BumpSection."""
    if margin_width is None:
        margin_width = default_margin_width(grid)
    box = tuple((float(lo), float(hi)) for lo, hi in grid.box)
    n = len(box)
    components = {}
    for comp in np.ndindex(*((n,) * rank + (fiber_dim,))):
        components[comp] = random_scalar_bump(box, rng, margin_width, **kw)
    return BumpSection(box, rank, fiber_dim, components)


def random_section(grid, rank, fiber_dim, rng, **kw):
    """Random TensorSection on a grid (values only, no derivative accessor)."""
    return random_bump_section(grid, rank, fiber_dim, rng, **kw).section(grid)


def random_vector_field(grid, rng, **kw):
    """Real windowed vector field as a plain (n,) + grid array."""
    bumps = random_bump_section(grid, 0, grid.dim, rng, real=True, **kw)
    return bumps.section(grid).values.real.copy()


class TrigPolyField:
    """Trigonometric-polynomial field, bounded together with all derivatives.

    Values are const + sum_w coeff_w * exp(i <w, x>).  Not compactly
    supported; this is the natural model for operator coefficients, which
    only need uniform bounds, and every partial derivative is available in
    closed form.
    """

    def __init__(self, waves, coeffs, const=None):
        self.waves = np.asarray(waves, dtype=float)
        self.coeffs = np.asarray(coeffs, dtype=complex)
        if self.coeffs.shape[0] != self.waves.shape[0]:
            raise ShapeMismatch(
                f"{self.coeffs.shape[0]} coefficient blocks for "
                f"{self.waves.shape[0]} waves"
            )
        self.const = None if const is None else np.asarray(const, dtype=complex)

    @property
    def value_shape(self):
        return self.coeffs.shape[1:]

    def sample(self, grid, orders=()):
        """Evaluate the field (or a partial derivative) on a grid.

        orders lists 0-based axes to differentiate along, repeats allowed.
        A list of such tuples gives a list of fields, and each wave's phase
        is computed once for all of them.  Each field is value_shape + grid,
        summed entry by entry with the grid innermost.  Each wave's phase is
        formed from the coordinates at the shape they vary over and
        exponentiated in place in one reused buffer, and each entry's term,
        (factor * phase) * coeff, in another, so no other full-grid
        temporary is made.
        """
        n = grid.dim
        if self.waves.shape[1] != n:
            raise ShapeMismatch(
                f"field over {self.waves.shape[1]} variables sampled on a "
                f"{n}-dimensional grid"
            )
        many = any(np.ndim(o) for o in orders)
        wanted = [tuple(int(a) for a in o) for o in (orders if many else [orders])]
        stores = [np.zeros(self.value_shape + grid.shape, dtype=complex) for _ in wanted]
        phase = np.empty(grid.shape, dtype=complex)
        term = np.empty(grid.shape, dtype=complex)
        for w, c in zip(self.waves, self.coeffs):
            np.multiply(1j, sum(w[k] * grid.coords[k] for k in range(n)), out=phase)
            np.exp(phase, out=phase)
            for o, store in zip(wanted, stores):
                factor = 1.0 + 0.0j
                for a in o:
                    factor = factor * 1j * w[a]
                for entry in np.ndindex(self.value_shape):
                    np.multiply(factor, phase, out=term)
                    store[entry] += np.multiply(term, c[entry], out=term)
        for o, store in zip(wanted, stores):
            if not o and self.const is not None:
                for entry in np.ndindex(self.value_shape):
                    store[entry] += self.const[entry]
        return stores if many else stores[0]


def random_trig_field(dim, value_shape, rng):
    """Random bounded coefficient field with closed-form derivatives: three
    waves of frequencies in [-1.5, 1.5] on every axis."""
    n_waves = 3
    value_shape = tuple(int(d) for d in value_shape)
    waves = rng.uniform(-1.5, 1.5, size=(n_waves, dim))
    coeffs = (
        rng.standard_normal((n_waves,) + value_shape)
        + 1j * rng.standard_normal((n_waves,) + value_shape)
    ) * (1.0 / (2.0 * n_waves))
    const = (
        rng.standard_normal(value_shape) + 1j * rng.standard_normal(value_shape)
    ) * 0.5
    return TrigPolyField(waves, coeffs, const)


def random_skew_potentials(grid, fiber_dim, rng, scale=1.0):
    """Compactly supported skew-Hermitian potentials, one matrix per
    direction, as (n, d, d) + grid."""
    n = grid.dim
    d = fiber_dim
    pots = np.zeros((n, d, d) + grid.shape, dtype=complex)
    for k in range(n):
        raw = random_section(grid, 0, d * d, rng).values.reshape((d, d) + grid.shape)
        pots[k] = 0.5 * scale * (raw - np.conj(np.swapaxes(raw, 0, 1)))
    return pots
