"""Check verdicts on non-finite input: a NaN must fail, never pass as 0.0;
and check parameters, which are validated on every call."""

import inspect
import math

import numpy as np
import pytest

from nabla_calc.bundles import BundleSpec
from nabla_calc.checks import CHECKS, _PARAM_RULES, check_leibniz_rule, check_norm_table
from nabla_calc.errors import ConfigError
from nabla_calc.geometry import MetricField
from nabla_calc.grid import ChartGrid
from nabla_calc.scenarios import CheckContext


def _nan_potential_context():
    grid = ChartGrid([(-1, 1), (-1, 1)], (25, 25))
    pots = np.zeros(grid.shape + (2, 1, 1), dtype=complex)
    pots[..., 0, 0, 0] = np.nan
    return CheckContext(
        name="nan-potential",
        grid=grid,
        metric=MetricField.flat(grid),
        bundle=BundleSpec(grid, 1, pots),
        seed=5,
    )


def test_leibniz_rule_fails_on_nan_potential():
    out = check_leibniz_rule(_nan_potential_context(), {"tolerance": 1e-5, "trials": 2})
    assert math.isnan(out["measured"])
    assert not out["passed"]


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


def test_every_signature_default_passes_its_rule():
    for name, (_, defaults) in CHECKS.items():
        assert "tolerance" in defaults, name
        for key, default in defaults.items():
            if default in (inspect.Parameter.empty, None):
                continue
            test, want = _PARAM_RULES[key]
            assert test(default), f"{name} {key}={default!r} is not {want}"
