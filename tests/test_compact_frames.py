"""Frames, embeddings, weights and vector fields stored at the shape they
vary over.

Every site that takes one of these fields checks it with the grid's one
stored-shape rule (grid.check_grid_shape): each grid axis full or of
length 1.  Given a field of x1 or of x2 alone, stored (N1, 1) or (1, N2),
each site returns the bits it returns for the field's full-grid
broadcast, and a grid axis of any other length raises ShapeMismatch.
The scenario reader keeps an expression at the shape it varies over, so
a built weight, frame and graph embedding never reach the full grid
unless they vary over it.
"""

import numpy as np
import pytest

from nabla_calc.bundles import magnetic_example_bundle
from nabla_calc.calculus import contract_with_vector, covariant_derivative, divergence
from nabla_calc.errors import ShapeMismatch
from nabla_calc.generators import (
    EmbeddingSpec,
    GeneratorSystem,
    build_generators,
    divergence_via_generators,
    graph_embedding,
    identity_embedding,
    nabla_via_generators,
    reconstruction_defect,
)
from nabla_calc.geometry import (
    MetricField,
    WeightPair,
    conformal_rescale,
    levi_civita_difference,
)
from nabla_calc.grid import ChartGrid
from nabla_calc.norms import conformal_weighted_norms
from nabla_calc.operators import NablaOpSpec, hom_infty_norm, nabla_to_mixed
from nabla_calc.scenarios import _real_field, build_context, parse_scenario
from nabla_calc.sections import random_section, seeded_rng

GRID = ChartGrid([(-1, 1), (-1, 1)], (41, 37), support_margin=6)
X1, X2 = GRID.coords
# a conformal metric of x1 alone, so every Christoffel product runs
METRIC = MetricField.conformal(GRID, 0.1 * X1**2)
BUNDLE = magnetic_example_bundle(GRID)
U = random_section(GRID, 0, 2, seeded_rng(38, "compact-frames"))
LEVEL1 = covariant_derivative(U, BUNDLE, METRIC)


def _rotation(t):
    return np.stack([np.stack([np.cos(t), -np.sin(t)]), np.stack([np.sin(t), np.cos(t)])])


# fields of x1 alone, (N1, 1), or of x2 alone, (1, N2)
X = np.stack([np.sin(2 * X1), 0.5 + X1**2])
Y = np.stack([np.cos(X2), 1 + 0 * X2])
PHI = 0.1 * X1**2
Z = _rotation(0.3 * X1)
XI = _rotation(0.2 * X2)
XI_CONSTANT = _rotation(np.full((1, 1), 0.2))
HEIGHT = 0.2 * np.sin(X1)
EMBEDDED = np.concatenate([np.eye(2).reshape(2, 2, 1, 1) + 0 * X1, 0.3 * Z[:1]])
RHO = 1.5 + X1
F0 = np.exp(X2 / 3)
POTENTIAL = 0.5 * BUNDLE.potentials
LADDER = NablaOpSpec(
    BUNDLE,
    BUNDLE,
    METRIC,
    [np.full((2, 2 * 2**j, 1, 1), 0.5**j, dtype=complex) for j in range(3)],
)


def _full(a):
    """a broadcast to the full grid, as a new array."""
    return np.broadcast_to(a, a.shape[: a.ndim - GRID.dim] + GRID.shape).copy()


def _wrong(a):
    """a with its last grid axis neither full nor of length 1."""
    return _full(a)[..., :2]


def _interior(a):
    """a on the points off the stencil band: a full-grid field differenced
    along an axis it is constant on holds one-sided differences against the
    zero padding there, where the field stored at length 1 has the exact 0."""
    r = GRID.stencil_radius
    return _full(a)[..., r:-r, r:-r]


def _frame(f):
    return GeneratorSystem(GRID, f(Z), f(XI))


def _mixed(f):
    """The terms of LADDER expanded through a frame of x1 with a constant
    coframe, one array: a chain's sum is begun at the shape of x1 and
    widened by a term the Christoffel field makes full-grid."""
    terms = nabla_to_mixed(LADDER, GeneratorSystem(GRID, f(Z), f(XI_CONSTANT))).terms
    return np.stack([_full(term.coefficient) for term in terms])


SITES = {
    "embedding": lambda f: EmbeddingSpec(GRID, f(EMBEDDED)).gram(),
    "generators": lambda f: build_generators(EmbeddingSpec(GRID, f(EMBEDDED)), METRIC).z,
    "identity embedding": lambda f: build_generators(
        EmbeddingSpec(GRID, f(identity_embedding(GRID).phi)), METRIC
    ).z,
    "frame": lambda f: nabla_via_generators(U, _frame(f), BUNDLE, METRIC).values,
    "frame reconstruction": lambda f: reconstruction_defect(_frame(f)),
    "frame expansion": _mixed,
    "divergence via generators": lambda f: divergence_via_generators(
        f(X), _frame(f), METRIC
    ),
    "graph embedding": lambda f: _interior(graph_embedding(GRID, f(HEIGHT))[0].phi),
    "conformal rescale": lambda f: conformal_rescale(METRIC, f(RHO)).christoffel,
    "levi-civita difference": lambda f: levi_civita_difference(
        f(X), f(Y), f(PHI), METRIC
    ),
    "weight pair": lambda f: conformal_weighted_norms(
        U, WeightPair(GRID, f(RHO), f0=f(F0), admissible=True), 2, 2.0, BUNDLE, METRIC
    ),
    "admissibility": lambda f: WeightPair(GRID, f(RHO)).admissibility_bound(METRIC),
    "contract with vector": lambda f: contract_with_vector(LEVEL1, f(X)).values,
    "divergence": lambda f: divergence(f(X), METRIC),
    "hom infinity norm": lambda f: hom_infty_norm(f(POTENTIAL), 2, BUNDLE, METRIC),
}


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint8)


@pytest.mark.parametrize("site", sorted(SITES))
def test_a_compact_field_gives_the_bits_of_its_full_grid_broadcast(site):
    got = SITES[site](lambda a: a)
    want = SITES[site](_full)
    if isinstance(want, np.ndarray):
        got = np.broadcast_to(got, want.shape)
        assert got.dtype == want.dtype
        assert np.array_equal(_bits(got), _bits(want))
    else:
        assert repr(got) == repr(want)
    with pytest.raises(ShapeMismatch):
        SITES[site](_wrong)


def test_fields_keep_the_shape_they_vary_over():
    gens = build_generators(identity_embedding(GRID), MetricField.flat(GRID))
    assert gens.z.shape == gens.xi.shape == gens.g_structure.shape[1:] == (2, 2, 1, 1)
    assert WeightPair(GRID, RHO).f0.shape == (1, 1)
    assert _frame(lambda a: a).xi.shape == (2, 2, 1, 37)
    assert graph_embedding(GRID, HEIGHT)[0].phi.shape == (3, 2, 41, 1)
    assert divergence(X, METRIC).shape == GRID.shape


def test_the_scenario_reader_keeps_the_shape_an_expression_varies_over():
    field = _real_field([["x1", "2"], ["exp(x2)", "x1*x2"]], GRID, "entries")
    assert field.shape == (2, 2) + GRID.shape and field.dtype == float
    column = _real_field([["x1"], ["2"]], GRID, "entries")
    assert column.shape == (2, 1, 41, 1) and np.all(column[1] == 2.0)
    assert _real_field([["2"]], GRID, "entries").shape == (1, 1, 1, 1)
    cfg = {
        "name": "compact-weight",
        "chart": {"box": [[1, 3], [-1, 1]], "h": 2 / 24},
        "metric": {"kind": "flat"},
        "bundle": {"kind": "trivial", "fiber_dim": 1},
        "weight": {"rho": "x1", "f0": "exp(x2)", "admissible": True},
        "embedding": {"name": "graph", "heights": ["0.1*x1", "0.2*x2"]},
    }
    ctx = build_context(parse_scenario(cfg))
    n1, n2 = ctx.grid.shape
    assert ctx.weight.rho.shape == (n1, 1) and ctx.weight.f0.shape == (1, n2)
    assert ctx.gens.xi.shape == (4, 2, n1, n2)
    cfg["embedding"]["heights"] = ["0.1*x1"]
    assert build_context(parse_scenario(cfg)).gens.xi.shape == (3, 2, n1, 1)
