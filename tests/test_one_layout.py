"""Every grid field is stored grid-last, in the one layout sections use.

For each builtin's build_context, every stored field has its index axes
first and its grid axes last, each grid axis full or of length 1: the
metric, its inverse, volume density and Christoffel field; the potentials
and fiber metrics; the curvature; ladder levels, form coefficients and
mixed terms with their vector fields; the frame, the coframe and their
structure functions.  The frame, the coframe and their structure
functions are C-contiguous, and so is every TensorSection made from the
context.  A static check pins the layout moves the package keeps:
np.moveaxis appears only around the numpy.linalg calls, which want the
matrices last, and no function moves a whole field between layouts.
Another pins the one owner of the stored-shape rule: grid.py alone
imports the stencil kernel, and no module decides anything from the
Christoffel field's shape.
"""

import ast
from pathlib import Path

import numpy as np
import pytest

from nabla_calc.bundles import induced_tensor_bundle
from nabla_calc.calculus import (
    contract_with_vector,
    curvature,
    directional_derivative,
    multiindex_derivative,
    tower,
)
from nabla_calc.generators import nabla_via_generators
from nabla_calc.operators import apply_nabla_op
from nabla_calc.scenarios import build_context, builtin_scenario, list_builtins, parse_scenario
from nabla_calc.sections import random_section, random_vector_field, seeded_rng

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "nabla_calc"

# the functions whose numpy.linalg calls (eigvalsh, inv, det, eigh, solve)
# want the matrices last
LINALG_SITES = {
    ("geometry.py", "MetricField.__init__"),
    ("bundles.py", "BundleSpec.__init__"),
    ("generators.py", "build_generators"),
    ("generators.py", "_spd_power"),
    ("bidiff.py", "assemble_divergence_form"),
}
BRIDGE = {"grid_first", "grid_last", "grid_einsum"}
# stored fields that must also be C-contiguous
CONTIGUOUS = {"frame", "coframe", "g structure", "l structure"}


def _stored_fields(ctx):
    """(name, array, leading index axes) of every grid field the context
    stores, and of the derived fields it is read through."""
    n = ctx.grid.dim
    metric, bundle = ctx.metric, ctx.bundle
    d = bundle.fiber_dim
    induced = induced_tensor_bundle(bundle, metric, 1)
    fields = [
        ("metric values", metric.values, (n, n)),
        ("metric inverse", metric.inv, (n, n)),
        ("volume density", metric.sqrt_det, ()),
        ("christoffel", metric.christoffel, (n, n, n)),
        ("potentials", bundle.potentials, (n, d, d)),
        ("fiber metric", bundle.fiber_metric, (d, d)),
        ("induced fiber metric", induced.fiber_metric, (n * d, n * d)),
        ("curvature", curvature(bundle).values, (n, n, d, d)),
    ]
    if ctx.gens is not None:
        g = ctx.gens.n_gens
        fields += [
            ("frame", ctx.gens.z, (g, n)),
            ("coframe", ctx.gens.xi, (g, n)),
            ("g structure", ctx.gens.g_structure, (g, g, g)),
            ("l structure", ctx.gens.l_structure, (g, g, g)),
        ]
    for name, op in ctx.nabla_ops.items():
        fields += [
            (f"{name} level {j}", a, (d, n**j * d))
            for j, a in enumerate(op.coefficients)
            if a is not None
        ]
    for name, form in ctx.bidiff_forms.items():
        fields += [
            (f"{name} {key}", a, (n ** key[1] * d, n ** key[0] * d))
            for key, a in form.coefficients.items()
        ]
    return fields


def _sections(ctx):
    """The sections a context's calculus makes from one random section."""
    grid, metric, bundle = ctx.grid, ctx.metric, ctx.bundle
    u = random_section(grid, 0, bundle.fiber_dim, seeded_rng(25, ctx.name))
    levels = list(tower(u, bundle, metric, 2))
    idxs = [(1,), (grid.dim, 1), (1, grid.dim)]
    made = levels + multiindex_derivative(u, idxs, bundle, metric)
    x = random_vector_field(grid, seeded_rng(25, f"{ctx.name}-field"))
    made += [
        contract_with_vector(levels[2], x),
        directional_derivative(u, x, bundle, metric),
    ]
    made += [apply_nabla_op(op, levels) for op in ctx.nabla_ops.values()]
    if ctx.gens is not None:
        made.append(nabla_via_generators(u, ctx.gens, bundle, metric))
        made.append(contract_with_vector(levels[1], ctx.gens.z[0]))
    return made


@pytest.mark.parametrize("name", list_builtins())
def test_every_stored_field_is_grid_last(name):
    ctx = build_context(parse_scenario(builtin_scenario(name)))
    grid = ctx.grid
    for what, field, index in _stored_fields(ctx):
        k = len(index)
        assert field.ndim == k + grid.dim, (what, field.shape)
        assert field.shape[:k] == index, (what, field.shape)
        assert all(
            m in (1, full) for m, full in zip(field.shape[k:], grid.shape)
        ), (what, field.shape)
        assert what not in CONTIGUOUS or field.flags.c_contiguous, what
    for section in _sections(ctx):
        assert section.values.flags.c_contiguous
        assert section.values.shape[section.values.ndim - grid.dim :] == grid.shape


def _calls_by_function(tree, attr):
    """(qualified function name) of every call of np.<attr> in the tree."""
    found = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, child.name + ".")
            elif isinstance(child, ast.FunctionDef):
                qual = owner + child.name
                for sub in ast.walk(child):
                    if (
                        isinstance(sub, ast.Call)
                        and isinstance(sub.func, ast.Attribute)
                        and sub.func.attr == attr
                    ):
                        found.append(qual)
            else:
                visit(child, owner)

    visit(tree, "")
    return found


def test_moveaxis_only_around_linalg_and_no_layout_bridge():
    sites = set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        sites |= {(path.name, qual) for qual in _calls_by_function(tree, "moveaxis")}
    assert sites <= LINALG_SITES, sorted(sites - LINALG_SITES)
    defined = set()
    for path in sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "tests").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.FunctionDef) and node.name in BRIDGE:
                defined.add((path.name, node.name))
            if isinstance(node, ast.Name) and node.id in BRIDGE:
                defined.add((path.name, node.id))
            if isinstance(node, ast.alias) and node.name in BRIDGE:
                defined.add((path.name, node.name))
    assert not defined, sorted(defined)


def test_the_guard_sees_a_move_outside_the_linalg_sites():
    tree = ast.parse(
        "import numpy as np\n\n"
        "class MetricField:\n"
        "    def __init__(self, v):\n        self.m = np.moveaxis(v, 0, -1)\n\n"
        "def grid_last(x, g):\n    return np.moveaxis(x, range(g), range(-g, 0))\n"
    )
    assert _calls_by_function(tree, "moveaxis") == ["MetricField.__init__", "grid_last"]


def _rule_readers(tree):
    """(imports of diff_axis, reads of christoffel.shape) in a module."""
    kernel = [
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
        if alias.name == "diff_axis"
    ]
    shape = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and node.attr == "shape"
        and isinstance(node.value, ast.Attribute)
        and node.value.attr == "christoffel"
    ]
    return kernel, shape


def test_grid_alone_differences_and_no_module_reads_the_christoffel_shape():
    importers, readers = set(), set()
    for path in sorted(PACKAGE.glob("*.py")):
        kernel, shape = _rule_readers(ast.parse(path.read_text()))
        importers |= {path.name} if kernel else set()
        readers |= {(path.name, line) for line in shape}
    assert importers == {"grid.py"}
    assert not readers, sorted(readers)


def test_the_rule_guard_sees_a_kernel_import_and_a_shape_read():
    tree = ast.parse(
        "from ._kernels import STENCIL_RADIUS, diff_axis\n\n"
        "def f(metric, grid):\n"
        "    return metric.christoffel.shape[3:] == grid.shape\n"
    )
    assert _rule_readers(tree) == (["diff_axis"], [4])
