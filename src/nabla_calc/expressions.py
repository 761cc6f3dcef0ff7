"""Tiny arithmetic expression evaluator for scenario files.

Accepts +, -, *, /, ^ (power), exp, sin, cos, the coordinates x1..xn, the
imaginary unit i, numeric literals (evaluated as float64, so overflow gives
inf rather than unbounded integers), unary minus, and parentheses.  Parsing
goes through the Python ast with a strict node whitelist, so nothing else
evaluates.  Coordinates come in as arrays shaped to broadcast, and so
does the result.
"""

import ast

import numpy as np

from .errors import ConfigError

_FUNCTIONS = {"exp": np.exp, "sin": np.sin, "cos": np.cos}


def _eval_node(node, names):
    if isinstance(node, ast.Expression):
        return _eval_node(node.body, names)
    if isinstance(node, ast.Constant):
        if isinstance(node.value, (int, float)) and not isinstance(node.value, bool):
            try:
                return np.float64(node.value)
            except OverflowError:
                return np.float64(np.inf)
        raise ConfigError(f"literal {node.value!r} is not numeric")
    if isinstance(node, ast.Name):
        if node.id in names:
            return names[node.id]
        raise ConfigError(f"unknown symbol {node.id!r} in expression")
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        val = _eval_node(node.operand, names)
        return -val if isinstance(node.op, ast.USub) else val
    if isinstance(node, ast.BinOp):
        left = _eval_node(node.left, names)
        right = _eval_node(node.right, names)
        if isinstance(node.op, ast.Add):
            return left + right
        if isinstance(node.op, ast.Sub):
            return left - right
        if isinstance(node.op, ast.Mult):
            return left * right
        if isinstance(node.op, ast.Div):
            return left / right
        if isinstance(node.op, ast.Pow):
            return left ** right
        raise ConfigError(f"operator {type(node.op).__name__} not allowed")
    if isinstance(node, ast.Call):
        if not isinstance(node.func, ast.Name) or node.func.id not in _FUNCTIONS:
            raise ConfigError("only exp, sin, cos calls are allowed")
        if len(node.args) != 1 or node.keywords:
            raise ConfigError(f"{node.func.id} takes exactly one argument")
        return _FUNCTIONS[node.func.id](_eval_node(node.args[0], names))
    raise ConfigError(f"expression element {type(node).__name__} not allowed")


def evaluate(expr, coords=()):
    """Evaluate an expression string over coordinate arrays.

    coords[k] binds to x{k+1}, and i to the imaginary unit.  The result
    has the broadcast shape of the coordinates the expression reads: a
    scalar when it reads none.
    """
    if not isinstance(expr, str):
        raise ConfigError(f"expression must be a string, got {type(expr).__name__}")
    names = {f"x{k + 1}": xk for k, xk in enumerate(coords)}
    names["i"] = np.complex128(1j)
    # ^ means power here, but the Python parser would give it bitwise-xor
    # precedence (below +), so rewrite it to ** before parsing; the parser
    # reports nesting past its depth limit as RecursionError or MemoryError
    try:
        tree = ast.parse(expr.replace("^", "**"), mode="eval")
    except SyntaxError as exc:
        raise ConfigError(f"cannot parse expression {expr!r}: {exc}") from exc
    except (RecursionError, MemoryError) as exc:
        raise ConfigError(f"expression {expr[:40]!r}... nests too deeply") from exc
    # overflow and 0/0 become inf and nan; callers reject non-finite fields
    try:
        with np.errstate(all="ignore"):
            return _eval_node(tree, names)
    except RecursionError as exc:
        raise ConfigError(f"expression {expr[:40]!r}... nests too deeply") from exc
