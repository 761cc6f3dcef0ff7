"""Check verdicts on non-finite input: a NaN must fail, never pass as 0.0;
the verdict rules, and the pass/fail edges of the bound-ratio checks fed
known ratios; check parameters, which are validated on every call; the
README's table of checks and rules against the registry; and the grid-last
leibniz-rule residual against its former grid-first formula.  A NaN that a
patched derivative puts in one multi-index result fails multiindex-formulas."""

import inspect
import math
import pathlib

import numpy as np
import pytest

from nabla_calc import calculus, checks, norms
from nabla_calc.bundles import BundleSpec, TensorSection, magnetic_example_bundle
from nabla_calc.calculus import covariant_derivative
from nabla_calc.checks import (
    _PARAM_RULES,
    _TINY,
    CHECKS,
    RULES,
    _rng,
    check_leibniz_rule,
    check_norm_table,
)
from nabla_calc.errors import ConfigError
from nabla_calc.geometry import MetricField
from nabla_calc.grid import ChartGrid
from nabla_calc.norms import strict_max
from nabla_calc.operators import gradient_op
from nabla_calc.scenarios import (
    CheckContext,
    build_context,
    builtin_scenario,
    parse_scenario,
)
from nabla_calc.sections import random_section, random_trig_field


def _nan_potential_context():
    grid = ChartGrid([(-1, 1), (-1, 1)], (25, 25))
    pots = np.zeros((2, 1, 1) + grid.shape, dtype=complex)
    pots[0, 0, 0] = np.nan
    return CheckContext(
        name="nan-potential",
        grid=grid,
        metric=MetricField.flat(grid),
        bundle=BundleSpec(grid, 1, pots),
        seed=5,
    )


# every check the NaN-potential context can run, with its short parameters
NAN_RUNS = {
    "adjoint-pairing": {"pairs": 2},
    "covering-bounds": {"coverings": 2},
    "curvature-commutator": {"trials": 2},
    "leibniz-rule": {"trials": 2},
    "multiplication-property": {"trials": 2},
    "norm-equivalence": {"trials": 2},
    "norm-table": {},
}


@pytest.mark.parametrize("name", sorted(NAN_RUNS))
def test_checks_fail_on_nan_potential(name):
    out = CHECKS[name][0](_nan_potential_context(), {"tolerance": 1e-5, **NAN_RUNS[name]})
    assert math.isnan(out["measured"])
    assert not out["passed"]


def _plain_context():
    grid = ChartGrid([(-1, 1), (-1, 1)], (17, 17))
    metric = MetricField.flat(grid)
    bundle = BundleSpec(grid, 1)
    return CheckContext(
        name="plain",
        grid=grid,
        metric=metric,
        bundle=bundle,
        nabla_ops={"gradient": gradient_op(bundle, metric)},
        seed=6,
    )


@pytest.mark.parametrize("rule", sorted(RULES))
@pytest.mark.parametrize("measured", [math.nan, math.inf])
def test_every_rule_fails_a_non_finite_measured_value(rule, measured):
    _, passes = RULES[rule]
    assert passes(0.5, 1.0) is True
    assert passes(measured, 1.0) is False


def _ratio_patches(monkeypatch, ratio):
    """Stubs under which each bound-ratio check measures exactly ratio, and
    the parameters it runs with."""
    # norm-equivalence: the two norms sit ratio apart, constant 1
    monkeypatch.setattr(checks, "perturbed_norms", lambda *args: (1.0, ratio, 1.0))
    # mapping-bound: the image's W^{1,2} norm (two levels) reads ratio, the
    # section's W^{2,2} norm 1 and the certified constant 1;
    # multiplication-property, at s = 0 with constant 1: the factor and
    # section norms (p = q = 4) read 1 and the product norm (r = 2) reads ratio
    monkeypatch.setattr(checks, "mapping_constant", lambda spec, k, p: 1.0)
    monkeypatch.setattr(
        checks,
        "sobolev_norm",
        lambda levels, p, bundle, metric: ratio if len(levels) == 2 or p == 2 else 1.0,
    )
    return {
        "norm-equivalence": {"trials": 2},
        "mapping-bound": {"operator": "gradient", "trials": 2, "p": 4},
        "multiplication-property": {"trials": 2, "s": 0, "p": 4, "q": 4, "r": 2},
    }


BOUND_RATIO_CHECKS = ("norm-equivalence", "mapping-bound", "multiplication-property")


def test_the_bound_ratio_checks_are_the_registered_ones():
    registered = {name for name, (_, _, rule) in CHECKS.items() if rule == "bound-ratio"}
    assert registered == set(BOUND_RATIO_CHECKS)


@pytest.mark.parametrize("excess, passed", [(0.5, True), (2.0, False)])
@pytest.mark.parametrize("tol", [1e-12, 1e-3, 2.0])
@pytest.mark.parametrize("name", BOUND_RATIO_CHECKS)
def test_bound_ratio_checks_pass_within_one_plus_tolerance(
    monkeypatch, name, tol, excess, passed
):
    ratio = 1.0 + excess * tol
    params = _ratio_patches(monkeypatch, ratio)[name]
    out = CHECKS[name][0](_plain_context(), {"tolerance": tol, **params})
    assert out["measured"] == ratio and out["bound"] == 1.0
    assert out["passed"] is passed


@pytest.mark.parametrize("excess, passed", [(0.5, True), (2.0, False)])
def test_multiplication_property_passes_within_one_plus_tolerance(
    monkeypatch, excess, passed
):
    # at s = 0 the constant is 1; the factor and section norms (p = q = 4)
    # read 1 and the product norm (r = 2) reads the ratio
    tol = 1e-3
    ratio = 1.0 + excess * tol
    monkeypatch.setattr(
        checks, "sobolev_norm", lambda levels, p, bundle, metric: ratio if p == 2 else 1.0
    )
    params = {"tolerance": tol, "trials": 2, "s": 0, "p": 4, "q": 4, "r": 2}
    out = CHECKS["multiplication-property"][0](_plain_context(), params)
    assert out["measured"] == ratio and out["bound"] == 1.0
    assert out["passed"] is passed


def _random_embedding_context():
    return build_context(parse_scenario(builtin_scenario("random-embedding")), h=2 / 32)


def test_operator_rewrite_fails_an_unsorted_rewrite(monkeypatch):
    # the fourth spec has a second-order term, whose round trip holds
    # unsorted labels such as (2, 1) before they are reordered
    entry = {"tolerance": 1.0, "specs": 4, "max_order": 2}
    ctx = _random_embedding_context()
    sorted_out = CHECKS["operator-rewrite"][0](ctx, entry)
    assert sorted_out["passed"] and math.isfinite(sorted_out["measured"])
    monkeypatch.setattr(checks, "reorder_generators", lambda spec, gens, bundle: spec)
    out = CHECKS["operator-rewrite"][0](ctx, entry)
    assert out["measured"] == math.inf and not out["passed"]


# (builtin, check, covariant_derivative calls at the default seed): each
# trial builds each section's tower once, to the deepest level any norm,
# form or ladder reads
TOWER_CALLS = [
    ("covering-suite", "covering-bounds", 1),
    ("covering-suite", "norm-table", 1),
    ("sphere-ffc", "norm-table", 2),
    ("flat-operators", "divergence-duality", 90),
    ("flat-operators", "mapping-bound", 30),
]


@pytest.mark.parametrize("scenario, check, want", TOWER_CALLS)
def test_a_check_builds_each_tower_once(monkeypatch, scenario, check, want):
    cfg = builtin_scenario(scenario)
    (entry,) = [c for c in cfg["checks"] if c["check"] == check]
    ctx = build_context(parse_scenario(cfg))
    calls = []
    derivative = calculus.covariant_derivative

    def counting(*args, **kwargs):
        calls.append(1)
        return derivative(*args, **kwargs)

    monkeypatch.setattr(calculus, "covariant_derivative", counting)
    out = CHECKS[check][0](ctx, entry)
    assert out["passed"]
    assert len(calls) == want


def test_covering_bounds_takes_each_level_norm_once(monkeypatch):
    cfg = builtin_scenario("covering-suite")
    (entry,) = [c for c in cfg["checks"] if c["check"] == "covering-bounds"]
    ctx = build_context(parse_scenario(cfg))
    calls = []
    pointwise = norms.pointwise_norm_sq

    def counting(*args, **kwargs):
        calls.append(1)
        return pointwise(*args, **kwargs)

    monkeypatch.setattr(norms, "pointwise_norm_sq", counting)
    out = CHECKS["covering-bounds"][0](ctx, entry)
    assert out["passed"]
    # one pointwise norm per level of each base norm and of each covering's
    # norm, however many boxes the covering has
    exponents, s = len(entry["exponents"]), entry["s"]
    assert len(calls) == (s + 1) * exponents * (1 + entry["coverings"]) == 66


def _first(values, g):
    """A grid-last array read grid-first, as a view."""
    return np.moveaxis(values, range(-g, 0), range(g))


def _grid_first_leibniz(ctx, trials):
    """The former leibniz-rule residual: all directions stacked, grid first."""
    grid, bundle = ctx.grid, ctx.bundle
    n, d = grid.dim, bundle.fiber_dim
    pots = _first(bundle.potentials, n)
    pots = np.broadcast_to(pots, grid.shape + pots.shape[n:])
    worst = 0.0
    for trial in range(trials):
        a_field = random_trig_field(n, (d, d), _rng(ctx, "leibniz-rule", trial))
        a = np.ascontiguousarray(_first(a_field.sample(grid), n))
        partials = [_first(a_field.sample(grid, (k,)), n) for k in range(n)]
        da = np.stack(partials, axis=-3)
        u = random_section(grid, 0, d, _rng(ctx, "leibniz-section", trial))
        u_first = np.ascontiguousarray(_first(u.values, n))
        au = np.einsum("...ab,...b->...a", a, u_first)
        au = np.ascontiguousarray(np.moveaxis(au, range(n), range(-n, 0)))
        au = TensorSection(grid, 0, au, d)
        lhs = _first(covariant_derivative(au, bundle, ctx.metric).values, n)
        nabla_a = (
            da
            + np.einsum("...kab,...bc->...kac", pots, a)
            - np.einsum("...ab,...kbc->...kac", a, pots)
        )
        grad_u = _first(covariant_derivative(u, bundle, ctx.metric).values, n)
        rhs = np.einsum("...kab,...b->...ka", nabla_a, u_first) + np.einsum(
            "...ab,...kb->...ka", a, grad_u
        )
        scale = max(float(np.max(np.abs(lhs))), _TINY)
        worst = strict_max(worst, float(np.max(np.abs(lhs - rhs))) / scale)
    return worst


def test_leibniz_rule_matches_grid_first_formula():
    grid = ChartGrid([(-1, 1), (-1, 1)], (65, 65))
    ctx = CheckContext(
        name="magnetic-65",
        grid=grid,
        metric=MetricField.flat(grid),
        bundle=magnetic_example_bundle(grid),
        seed=20,
    )
    out = check_leibniz_rule(ctx, {"tolerance": 1e-5, "trials": 3})
    assert repr(out["measured"]) == repr(_grid_first_leibniz(ctx, 3))


def test_norm_table_fails_rows_with_non_finite_norms():
    params = {"tolerance": 1.0, "orders": [0, 1], "exponents": [2, "inf"]}
    out = check_norm_table(_nan_potential_context(), params)
    assert not out["passed"]
    assert math.isnan(out["measured"])
    by_order = {(row.s, row.p): row for row in out["norms"]}
    for p in (2.0, math.inf):
        assert math.isfinite(by_order[(0, p)].value) and by_order[(0, p)].passed
        assert math.isnan(by_order[(1, p)].value) and not by_order[(1, p)].passed


def test_norm_table_on_finite_input_is_informational():
    ctx = _nan_potential_context()
    ctx.bundle = BundleSpec(ctx.grid, 1)
    out = check_norm_table(ctx, {"tolerance": 1.0, "orders": [0, 1]})
    assert out["passed"] and out["measured"] == 0.0


@pytest.mark.parametrize(
    "check, params",
    [
        (check_leibniz_rule, {"tolerance": 1e-5, "trials": 0}),
        (check_norm_table, {"tolerance": 1.0, "orders": []}),
        (check_norm_table, {"orders": [0]}),
        (check_norm_table, {"tolerance": 1.0, "trials": 2}),
    ],
)
def test_registry_calls_validate_their_parameters(check, params):
    with pytest.raises(ConfigError):
        check(_nan_potential_context(), params)


@pytest.mark.parametrize("name", sorted(CHECKS))
def test_every_check_needs_a_tolerance(name):
    with pytest.raises(ConfigError, match="tolerance"):
        CHECKS[name][0](_nan_potential_context(), {"check": name})


def test_every_signature_default_passes_its_rule():
    for name, (_, defaults, rule) in CHECKS.items():
        assert rule in RULES, name
        for key, default in defaults.items():
            if default in (inspect.Parameter.empty, None):
                continue
            test, want = _PARAM_RULES[key]
            assert test(default), f"{name} {key}={default!r} is not {want}"


def test_closed_form_check_needs_the_flat_metric_and_the_oscillating_bundle():
    grid = ChartGrid([(-1, 1), (-1, 1)], (33, 33))
    magnetic = magnetic_example_bundle(grid)
    x, _ = grid.coords

    def run(metric, bundle):
        ctx = CheckContext(name="closed-form", grid=grid, metric=metric, bundle=bundle, seed=3)
        return CHECKS["multiindex-formulas"][0](ctx, {"tolerance": 1.0, "trials": 1})

    assert run(MetricField.flat(grid), magnetic)["passed"]
    with pytest.raises(ConfigError, match="flat metric"):
        run(MetricField.conformal(grid, 0.1 * x), magnetic)
    off = magnetic.potentials.copy()
    off[1, 0, 1] *= 1.001
    for bundle in (BundleSpec(grid, 2, off), BundleSpec(grid, 2), BundleSpec(grid, 1)):
        with pytest.raises(ConfigError, match="oscillating-potential bundle"):
            run(MetricField.flat(grid), bundle)


@pytest.mark.parametrize("poisoned", [(1, 2), (2, 2), (2, 1)], ids=str)
def test_multiindex_formulas_fails_a_nan_in_one_derivative(monkeypatch, poisoned):
    # one NaN in one multi-index result, whichever walk makes it, must reach
    # measured: a comparison that drops it would pass the check
    grid = ChartGrid([(-1, 1), (-1, 1)], (33, 33))
    ctx = CheckContext(
        name="closed-form",
        grid=grid,
        metric=MetricField.flat(grid),
        bundle=magnetic_example_bundle(grid),
        seed=3,
    )
    derivative = checks.multiindex_derivative

    def nan_in_one(u, idx, bundle, metric):
        out = derivative(u, idx, bundle, metric)
        many = isinstance(out, list)
        for sec, i in zip(out if many else [out], idx if many else [idx]):
            if tuple(i) == poisoned:
                sec.values[0, 16, 16] = np.nan
        return out

    monkeypatch.setattr(checks, "multiindex_derivative", nan_in_one)
    out = CHECKS["multiindex-formulas"][0](ctx, {"tolerance": 1.0, "trials": 2})
    assert not math.isfinite(out["measured"])
    assert not out["passed"]


README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_readme_lists_every_check_with_its_rule():
    lines = README.read_text(encoding="utf-8").splitlines()
    header = lines.index("| check | rule | parameters and defaults | passes when |")
    rows = {}
    for line in lines[header + 2 :]:
        if not line.startswith("| "):
            break
        name, rule = (cell.strip() for cell in line.split("|")[1:3])
        rows[name] = rule
    assert rows == {name: rule for name, (_, _, rule) in CHECKS.items()}


def test_curvature_commutator_on_a_1d_chart_has_no_pair_to_measure():
    grid = ChartGrid([(-1, 1)], (65,))
    ctx = CheckContext(
        name="line", grid=grid, metric=MetricField.flat(grid), bundle=BundleSpec(grid, 2)
    )
    out = CHECKS["curvature-commutator"][0](ctx, {"tolerance": 1e-5, "trials": 2})
    assert out["measured"] == 0.0 and out["passed"]
