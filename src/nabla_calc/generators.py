"""Generator frames for the covariant calculus, built from embeddings.

An embedding realizes the tangent bundle inside a trivial R^N bundle as a
pointwise injective matrix Phi.  Its pseudoinverse Psi yields spanning
vector fields Z_j = Psi(e_j) together with dual covector fields xi_j (the
rows of Phi).  The pair reconstructs arbitrary tensors, reassembles the
covariant derivative from directional pieces, and carries the structure
functions used to reorder iterated directional derivatives.

The embedding, the frame, the coframe and the structure functions are
grid fields stored grid-last (see bundles): phi[a, i, idx], z[j, i, idx]
and xi[j, i, idx], so the frame field Z_j is z[j].  Like every grid field
they are stored at the shape they vary over, each grid axis full or of
length 1 (grid.check_grid_shape): the identity embedding, its frame and
its coframe are (n, n, 1, .., 1).  Every contraction is one einsum with
the grid innermost, which broadcasts the stored shapes as they are.
"""

import itertools

import numpy as np

from .bundles import TensorSection
from .calculus import _SLOTS, contract_with_vector, covariant_derivative
from .errors import ChartMismatch, DegenerateEmbedding, ShapeMismatch
from .geometry import MetricField
from .grid import check_grid_shape
from .norms import _lp_combine, lp_norm

SIGMA_FLOOR = 1e-12


class EmbeddingSpec:
    """Pointwise injective linear map of the tangent spaces into R^N.

    phi has shape (N, n) + grid, each grid axis full or of length 1.  It
    pairs with any metric on the grid: build_generators compares phi^T phi
    with that metric itself.
    """

    def __init__(self, grid, phi):
        phi = np.asarray(phi, dtype=float)
        n = grid.dim
        check_grid_shape(phi.shape, grid, phi.shape[:1] + (n,), "embedding values")
        if phi.shape[0] < n:
            raise ShapeMismatch(
                f"ambient dimension {phi.shape[0]} is below the chart dimension {n}"
            )
        self.grid = grid
        self.phi = phi

    def gram(self):
        """phi^T phi as a pointwise n x n field."""
        return np.einsum("ji...,jk...->ik...", self.phi, self.phi)


class GeneratorSystem:
    """Spanning frame Z_j with dual coframe xi_j over a chart.

    z[j, i, idx] holds the components Z_j^i and xi[j, i, idx] the covector
    components (xi_j)_i, each at the shape it varies over, so the frame and
    the coframe may differ in shape; g_structure[i, j, k, idx] and
    l_structure hold the expansion coefficients of nabla_{Z_i} Z_j and
    [Z_i, Z_j] in the frame.
    """

    def __init__(self, grid, z, xi):
        z = np.ascontiguousarray(z, dtype=float)
        xi = np.ascontiguousarray(xi, dtype=float)
        tail = z.shape[:1] + (grid.dim,)
        check_grid_shape(z.shape, grid, tail, "frame")
        check_grid_shape(xi.shape, grid, tail, "coframe")
        self.grid = grid
        self.z = z
        self.xi = xi
        self.n_gens = z.shape[0]
        self.g_structure = None
        self.l_structure = None


def reconstruction_defect(gens):
    """Largest entry of sum_j Z_j (x) xi_j minus the identity, over the grid."""
    n = gens.grid.dim
    prod = np.einsum("ji...,jr...->ir...", gens.z, gens.xi)
    return float(np.max(np.abs(prod - np.eye(n).reshape((n, n) + (1,) * n))))


def coframe_gram(gens, metric):
    """Pairings (xi_k, xi_l) of the coframe under the inverse metric."""
    return np.einsum("im...,ki...,lm...->kl...", metric.inv, gens.xi, gens.xi)


def build_generators(embedding, metric):
    """Frame and coframe from an embedding: Z_j = Psi(e_j), xi_j = row j of Phi.

    Psi is the pointwise pseudoinverse (Phi^T Phi)^{-1} Phi^T.  Where the
    Gram field Phi^T Phi equals the metric to 1e-8 relative, the Gram
    factor is g itself and g^{-1} Phi^T is used directly; any other pair
    of embedding and metric takes the linear solve.
    """
    grid = embedding.grid
    if metric.grid != grid:
        raise ChartMismatch("embedding and metric live on different grids")
    phi = embedding.phi
    gram = embedding.gram()
    # numpy.linalg wants the matrices last
    lam = np.linalg.eigvalsh(np.moveaxis(gram, (0, 1), (-2, -1)))
    smin = float(np.sqrt(max(float(np.min(lam)), 0.0)))
    smax = float(np.sqrt(float(np.max(lam))))
    if smin <= SIGMA_FLOOR * max(1.0, smax):
        raise DegenerateEmbedding(
            f"embedding singular value {smin:.3e} is at or below the floor "
            f"{SIGMA_FLOOR * max(1.0, smax):.3e}"
        )
    defect = float(np.max(np.abs(gram - metric.values)))
    scale = max(1.0, float(np.max(np.abs(metric.values))))
    if defect <= 1e-8 * scale:
        # the Gram field is the metric: Psi = g^{-1} Phi^T
        z = np.swapaxes(np.einsum("ik...,jk...->ij...", metric.inv, phi), 0, 1)
    else:
        # numpy.linalg wants the matrices last: psi[..., i, j] = Psi_ij
        psi = np.linalg.solve(
            np.moveaxis(gram, (0, 1), (-2, -1)), np.moveaxis(phi, (1, 0), (-2, -1))
        )
        z = np.moveaxis(psi, (-1, -2), (0, 1))
    gens = GeneratorSystem(grid, z, phi)
    gens.g_structure, gens.l_structure = structure_functions(gens, metric)
    return gens


def _spd_power(mats, power, what):
    """Eigendecomposition power of a field of symmetric matrices."""
    # numpy.linalg wants the matrices last
    lam, vecs = np.linalg.eigh(np.moveaxis(mats, (0, 1), (-2, -1)))
    floor = SIGMA_FLOOR * max(1.0, float(np.max(lam)))
    if float(np.min(lam)) <= floor:
        raise DegenerateEmbedding(
            f"{what} eigenvalue {float(np.min(lam)):.3e} is at or below the "
            f"floor {floor:.3e}"
        )
    vecs = np.moveaxis(vecs, (-2, -1), (0, 1))
    lam = np.moveaxis(lam**power, -1, 0)
    return np.einsum("ik...,k...,jk...->ij...", vecs, lam, vecs)


def polar_isometrize(embedding, metric):
    """Replace an embedding by its metric-adjusted polar part.

    The result Phi' = Phi (Phi^T Phi)^{-1/2} g^{1/2} satisfies
    Phi'^T Phi' = g pointwise up to rounding, so build_generators takes
    its g^{-1} Phi^T branch for the pair.  An embedding whose Gram field
    is already g comes back unchanged up to rounding.
    """
    grid = embedding.grid
    if metric.grid != grid:
        raise ChartMismatch("embedding and metric live on different grids")
    inv_root = _spd_power(embedding.gram(), -0.5, "embedding Gram")
    g_root = _spd_power(metric.values, 0.5, "metric")
    phi = np.einsum("ai...,ij...,jk...->ak...", embedding.phi, inv_root, g_root)
    return EmbeddingSpec(grid, phi)


def structure_functions(gens, metric):
    """Expansion coefficients G_ij^k of nabla_{Z_i} Z_j and L_ij^k of [Z_i, Z_j].

    Both come from applying the coframe to the derivative fields; the outer
    stencil band is zeroed like every other differentiated quantity, along
    the full-length axes alone, as Gamma's is: a frame of length 1 along an
    axis has no difference there, so nothing there is invalid.
    """
    grid = gens.grid
    n = grid.dim
    z = gens.z
    dz = np.stack([grid.diff(z, axis=l) for l in range(n)])
    grid.zero_band(dz, grid.stencil_radius)
    flow = np.einsum("il...,ljm...->ijm...", z, dz)
    cov = flow
    if not metric.constant:
        cov = cov + np.einsum("mlr...,il...,jr...->ijm...", metric.christoffel, z, z)
        # Gamma's band is zeroed along its full-length axes alone
        grid.zero_band(cov, grid.stencil_radius)
    bracket = flow - np.swapaxes(flow, 0, 1)
    g_structure = np.einsum("km...,ijm...->ijk...", gens.xi, cov)
    l_structure = np.einsum("km...,ijm...->ijk...", gens.xi, bracket)
    return g_structure, l_structure


def nabla_via_generators(u, gens, bundle, metric):
    """Covariant derivative assembled as sum_j xi_j tensor nabla_{Z_j} u."""
    if gens.grid != u.grid:
        raise ChartMismatch("generator system and section live on different grids")
    full = covariant_derivative(u, bundle, metric)
    letters = _SLOTS[: u.rank]
    out = np.zeros(full.values.shape, dtype=complex)
    for j in range(gens.n_gens):
        der = contract_with_vector(full, gens.z[j])
        out += np.einsum(
            f"y...,{letters}a...->y{letters}a...", gens.xi[j], der.values
        )
    return TensorSection(u.grid, u.rank + 1, out, u.fiber_dim)


def divergence_via_generators(X, gens, metric):
    """Divergence through the frame: sum_kl (xi_k, xi_l) g(nabla_{Z_k} X, Z_l).

    X is (n,) + grid, each grid axis full or of length 1; the result is
    zeroed on the stencil-invalid band, so it is full-grid, as divergence's.
    """
    grid = gens.grid
    n = grid.dim
    check_grid_shape(X.shape, grid, (n,), "vector field")
    dx = np.stack([grid.diff(X, axis=l) for l in range(n)])
    cov = np.einsum("kl...,lm...->km...", gens.z, dx)
    if not metric.constant:
        cov = cov + np.einsum("mlr...,kl...,r...->km...", metric.christoffel, gens.z, X)
    inner = np.einsum("im...,ki...,lm...->kl...", metric.values, cov, gens.z)
    out = np.einsum("kl...,kl...->...", coframe_gram(gens, metric), inner)
    return np.where(grid.interior_mask(grid.stencil_radius), out, 0.0)


def generator_sobolev_norm(u, s, p, gens, bundle, metric, all_tuples=False):
    """l^p combination of nabla_{Z_{k_1}} ... nabla_{Z_{k_j}} u over tuples.

    Tuples are non-decreasing by default, which is enough to control the
    norm; all_tuples switches to the full product set for cross-checks.
    The rightmost label acts first, matching multi-index conventions.
    """
    grid = u.grid
    if gens.grid != grid:
        raise ChartMismatch("generator system and section live on different grids")
    s = int(s)
    if s < 0:
        raise ValueError(f"derivative depth must be >= 0, got {s}")
    grid.check_support(u.values, s * grid.stencil_radius)
    terms = [lp_norm(u, p, metric, bundle)]
    for j in range(1, s + 1):
        combos = (
            itertools.product(range(gens.n_gens), repeat=j)
            if all_tuples
            else itertools.combinations_with_replacement(range(gens.n_gens), j)
        )
        for combo in combos:
            v = u
            for k in reversed(combo):
                full = covariant_derivative(v, bundle, metric, check_support=False)
                v = contract_with_vector(full, gens.z[k])
            terms.append(lp_norm(v, p, metric, bundle))
    return _lp_combine(terms, p)


def identity_embedding(grid):
    """Phi = identity with N = n, stored (n, n, 1, .., 1); its Gram field
    is the flat metric."""
    n = grid.dim
    return EmbeddingSpec(grid, np.eye(n).reshape((n, n) + (1,) * n))


def sphere_ambient_embedding(grid):
    """Unit-sphere inclusion over a stereographic chart, with its round metric.

    Phi is the chart differential into R^3 and the induced metric is
    4 (1 + |x|^2)^{-2} times the identity; the pair is isometric by
    construction.  Returns (embedding, metric).
    """
    if grid.dim != 2:
        raise ShapeMismatch(f"sphere chart must be 2d, got {grid.dim}d")
    x1, x2 = grid.coords
    s = 1.0 + x1**2 + x2**2
    phi = np.empty((3, 2) + grid.shape)
    phi[0, 0] = (2.0 * s - 4.0 * x1**2) / s**2
    phi[0, 1] = -4.0 * x1 * x2 / s**2
    phi[1, 0] = -4.0 * x1 * x2 / s**2
    phi[1, 1] = (2.0 * s - 4.0 * x2**2) / s**2
    phi[2, 0] = 4.0 * x1 / s**2
    phi[2, 1] = 4.0 * x2 / s**2
    metric = MetricField(grid, (4.0 / s**2) * np.eye(2).reshape(2, 2, 1, 1))
    return EmbeddingSpec(grid, phi), metric


def graph_embedding(grid, heights):
    """Graph-of-f chart: Phi stacks the identity over the height gradients.

    heights is a grid array (one ambient height) or (m,) + grid for m of
    them, each grid axis full or of length 1; the gradients are
    central-differenced from the heights, and the embedding is stored at
    the shape they vary over.  Returns (embedding, metric) with the
    induced graph metric 1 + Df^T Df.
    """
    n = grid.dim
    heights = np.asarray(heights, dtype=float)
    if heights.ndim == n:
        heights = heights[None]
    check_grid_shape(heights.shape, grid, heights.shape[:1], "height field")
    gradients = np.stack([grid.diff(heights, axis=k) for k in range(n)], axis=1)
    eye = np.eye(n).reshape((n, n) + (1,) * n)
    phi = np.concatenate([np.broadcast_to(eye, (n, n) + heights.shape[1:]), gradients])
    gram = eye + np.einsum("mi...,mj...->ij...", gradients, gradients)
    return EmbeddingSpec(grid, phi), MetricField(grid, gram)


def random_embedding(grid, n_ambient, rng, amplitude=0.25):
    """Smooth random full-rank embedding: orthonormal base plus gentle sway.

    The base columns are orthonormal and each of the two sinusoidal
    perturbations is scaled so the total spectral deviation stays below
    the amplitude, which keeps the smallest singular value at least
    1 - amplitude everywhere.
    """
    n = grid.dim
    if n_ambient < n:
        raise ShapeMismatch(
            f"ambient dimension {n_ambient} is below the chart dimension {n}"
        )
    n_waves = 2
    base = np.linalg.qr(rng.standard_normal((n_ambient, n_ambient)))[0][:, :n]
    pad = (1,) * n
    phi = base.reshape(base.shape + pad)
    x = np.stack(np.broadcast_arrays(*grid.coords), axis=-1)
    for _ in range(n_waves):
        w = rng.uniform(-1.0, 1.0, size=n)
        phase = rng.uniform(0.0, 2.0 * np.pi)
        c = rng.standard_normal((n_ambient, n))
        c *= amplitude / (n_waves * np.linalg.norm(c, 2))
        wave = np.sin(x @ w + phase)
        phi = phi + wave * c.reshape(c.shape + pad)
    return EmbeddingSpec(grid, phi)
