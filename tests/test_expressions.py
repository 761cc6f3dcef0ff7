"""Grammar coverage for the closed-form expression evaluator."""

import warnings

import numpy as np
import pytest

from nabla_calc import ChartGrid
from nabla_calc.errors import ConfigError
from nabla_calc.expressions import evaluate
from nabla_calc.scenarios import _real_field

GRID = ChartGrid([(-1.0, 1.0), (0.0, 2.0)], (17, 17))


def test_coordinates_and_arithmetic():
    x1, x2 = GRID.coords
    out = evaluate("x1*x2 + x1/2 - 3", GRID.coords)
    assert np.allclose(out, x1 * x2 + x1 / 2 - 3)


def test_functions_and_powers():
    x1, x2 = GRID.coords
    out = evaluate("exp(x1)*sin(x2) + cos(x1)^2", GRID.coords)
    assert np.allclose(out, np.exp(x1) * np.sin(x2) + np.cos(x1) ** 2)


def test_imaginary_unit_builds_phases():
    x1 = GRID.coords[0]
    out = evaluate("exp(i*x1^3)", GRID.coords)
    assert np.allclose(out, np.exp(1j * x1**3))
    assert np.allclose(np.abs(out), 1.0)


def test_unary_minus_and_parens():
    x1, x2 = GRID.coords
    out = evaluate("-(x1 - x2)*(-2)", GRID.coords)
    assert np.allclose(out, 2 * (x1 - x2))


def test_scalar_literal_broadcasts_to_grid():
    # an expression is a scalar until a field built from it broadcasts it
    assert evaluate("3/4", GRID.coords) == 0.75
    out = _real_field("3/4", GRID, "literal")
    assert out.shape == GRID.shape
    assert np.allclose(out, 0.75)


def test_result_keeps_the_shape_of_the_coordinates_it_reads():
    x1, x2 = GRID.coords
    assert evaluate("sin(x1)", (x1, x2)).shape == (17, 1)
    assert evaluate("x1*x2", (x1, x2)).shape == GRID.shape



@pytest.mark.parametrize(
    "expr",
    [
        "x3",
        "tan(x1)",
        "__import__('os')",
        "x1.real",
        "lambda: 0",
        "[1, 2]",
        "x1 @ x2",
        "y",
        "x1 if x2 else 0",
        "True",
        "x1*False",
    ],
)
def test_rejects_anything_off_grammar(expr):
    with pytest.raises(ConfigError):
        evaluate(expr, GRID.coords)


def test_rejects_malformed_source():
    with pytest.raises(ConfigError):
        evaluate("x1 +", GRID.coords)


def test_literals_are_float64_so_overflow_gives_inf():
    assert isinstance(evaluate("2"), np.float64)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert evaluate("10^400") == np.inf
        assert np.isnan(evaluate("0/0"))
        assert np.all(np.isnan(evaluate("0/(x1-x1)", GRID.coords)))
