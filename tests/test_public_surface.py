"""The package keeps no public function that the package itself never reaches.

A static guard over src/nabla_calc/*.py: every public module-level
function and every public method must be named, as an ast.Name or an
ast.Attribute, somewhere in the package outside __init__.py and outside
its own body.  An attribute of an imported module, such as np.zeros,
names nothing in the package.  A public method named like an attribute of
np.ndarray (copy, flat, sum) is named by every array in the package, so
it counts as reached only through its class name, cls or self, as in
MetricField.flat(grid).  Re-exports in __init__.py and uses in tests do
not count.
The registered checks are reached through the CHECKS registry, and KEPT
lists the few functions kept on purpose, each with its reason.

A second guard keeps no input that the package never sets: every
defaulted parameter of a public function, method or constructor is set,
by position, by keyword or through a *args or **kw forward, by some call
in the package outside its own body.  KEPT_DEFAULTS lists the few kept on
purpose, each with its reason.

A third guard keeps every verdict in checks.py: no library module draws
trial data from sections or builds a "passed" key.  A fourth keeps it in the
rule table there: no check body reads its tolerance, except the two that
judge their norm rows one by one.
"""

import ast
from pathlib import Path

import numpy as np

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "nabla_calc"

KEPT = {
    "levi_civita_difference": "closed form of the conformal Levi-Civita change, "
    "a second route for Gamma",
    "compatibility_defect": "metric compatibility of the connection, a second "
    "route for the bundle potentials",
    "skew_hermitian_defect": "curvature of a metric connection is skew-Hermitian, "
    "a second route for curvature",
    "generator_sobolev_norm": "the paper's equivalent W^{k,p} norm under (FFC), "
    "a second route for sobolev_norm",
    "bidiff_from_ops": "a bidifferential form built from two ladders, a second "
    "route for eval_bidiff",
    "partial": "the analytic derivatives of a bump, the reference for the "
    "stencil tests",
    "admissibility_bound": "the measured counterpart of WeightPair's admissible flag",
}

# (function, parameter) -> why no call in the package sets it
KEPT_DEFAULTS = {
    ("main", "argv"): "the command line reads sys.argv when it is not given; "
    "a caller in Python passes its own argument list",
    ("run_scenario", "threads"): "the benchmark's determinism run sets it to 2, "
    "to compare threaded and serial report bytes",
    ("generator_sobolev_norm", "all_tuples"): "the full product set of tuples, "
    "the generator_sobolev_norm route kept for the (FFC) Parseval identity",
}


def _modules():
    return {path.name: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}


def _is_registered(fn):
    return any(
        isinstance(dec, ast.Call) and isinstance(dec.func, ast.Name) and dec.func.id == "register"
        for dec in fn.decorator_list
    )


# names that any array in the package carries as attributes
ARRAY_ATTRIBUTES = frozenset(dir(np.ndarray))


def _public_definitions(tree):
    """(name, node, class name) of each public method, and (name, node,
    None) of each public module-level function."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            owner, members = node.name, node.body
        else:
            owner, members = None, [node]
        for fn in members:
            if isinstance(fn, ast.FunctionDef) and not fn.name.startswith("_"):
                if not _is_registered(fn):
                    yield fn.name, fn, owner


def _imported_modules(tree):
    """Names bound by plain imports, such as np: np.zeros is not a method of
    the package, so it does not reach TensorSection.zeros."""
    return {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        for alias in node.names
    }


def _names_used(node, imported):
    """Every identifier node names, as an ast.Name or as an ast.Attribute
    not taken from an imported module."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute) and not (
            isinstance(sub.value, ast.Name) and sub.value.id in imported
        ):
            yield sub.attr


def _owner_uses(node, name, owner):
    """How often node names the method owner.name, cls.name or self.name."""
    return sum(
        1
        for sub in ast.walk(node)
        if isinstance(sub, ast.Attribute)
        and sub.attr == name
        and isinstance(sub.value, ast.Name)
        and sub.value.id in (owner, "cls", "self")
    )


def unreached_names(modules):
    """Public names defined in the package that nothing else in it names."""
    used = {}
    for filename, tree in modules.items():
        if filename == "__init__.py":
            continue
        for name in _names_used(tree, _imported_modules(tree)):
            used[name] = used.get(name, 0) + 1
    package = [tree for filename, tree in modules.items() if filename != "__init__.py"]
    unreached = set()
    for tree in modules.values():
        imported = _imported_modules(tree)
        for name, fn, owner in _public_definitions(tree):
            if owner is not None and name in ARRAY_ATTRIBUTES:
                uses = sum(_owner_uses(module, name, owner) for module in package)
                own = _owner_uses(fn, name, owner)
            else:
                uses = used.get(name, 0)
                own = sum(1 for n in _names_used(fn, imported) if n == name)
            if uses <= own:
                unreached.add(name)
    return unreached


def test_every_public_function_is_reached_inside_the_package():
    unreached = unreached_names(_modules()) - set(KEPT)
    assert not unreached, (
        "public functions that no check, CLI path or scenario reaches: "
        f"{sorted(unreached)}"
    )


def test_every_kept_name_is_defined_and_otherwise_unreached():
    # a kept name that a check adopts, or that is deleted, leaves the list
    assert set(KEPT) <= unreached_names(_modules())
    assert all(reason.strip() for reason in KEPT.values())


def test_the_guard_sees_a_function_only_tests_would_call():
    tree = ast.parse(
        "import numpy as np\n\n"
        "def used(x):\n    return np.zeros(x)\n\n"
        "def zeros(x):\n    return x\n\n"
        "def orphan(x):\n    return orphan(x)\n\n"
        "class C:\n    def method(self):\n        return used(1)\n"
        "    def _private(self):\n        return 0\n\n"
        "@register('a-check')\ndef check_a(ctx, tolerance):\n    return C().method()\n"
    )
    assert unreached_names({"mod.py": tree}) == {"orphan", "zeros"}


def test_the_guard_sees_a_method_named_like_an_array_attribute():
    # values.copy() and f.sum() name the array methods, not Field's; only
    # Field.flat and self.flat reach a method named like one
    tree = ast.parse(
        "import numpy as np\n\n"
        "class Field:\n"
        "    def __init__(self, values):\n        self.values = values.copy()\n"
        "    def copy(self):\n        return Field(self.values)\n"
        "    def flat(cls, n):\n        return Field(np.zeros(n))\n"
        "    def sum(self):\n        return self.values.sum()\n"
        "    def twice(self):\n        return self.flat(2)\n\n"
        "@register('a-check')\ndef check_a(ctx, f):\n"
        "    return Field.flat(1).twice(), f.sum()\n"
    )
    assert unreached_names({"mod.py": tree}) == {"copy", "sum"}


def _callables(tree):
    """(name it is called by, node, leading arguments the call does not
    pass) of each public function, public method and constructor."""
    for name, fn, owner in _public_definitions(tree):
        static = any(
            isinstance(dec, ast.Name) and dec.id == "staticmethod" for dec in fn.decorator_list
        )
        yield name, fn, 0 if owner is None or static else 1
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            for fn in node.body:
                if isinstance(fn, ast.FunctionDef) and fn.name == "__init__":
                    yield node.name, fn, 1


def _defaulted(fn, skip):
    """(parameter, position in a call or None) of each defaulted parameter."""
    args = fn.args
    positional = args.posonlyargs + args.args
    first = len(positional) - len(args.defaults)
    for index in range(first, len(positional)):
        yield positional[index].arg, index - skip
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            yield arg.arg, None


def _calls(node):
    """(called name, call) of every call in node by a name or attribute."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Call):
            if isinstance(sub.func, ast.Name):
                yield sub.func.id, sub
            elif isinstance(sub.func, ast.Attribute):
                yield sub.func.attr, sub


def _sets(call, param, position):
    """Whether call passes param by keyword, by position or by a forward."""
    if any(kw.arg in (None, param) for kw in call.keywords):
        return True
    if any(isinstance(arg, ast.Starred) for arg in call.args):
        return True
    return position is not None and position < len(call.args)


def unset_defaults(modules):
    """(name, parameter) of each defaulted parameter that no call sets."""
    calls_by_name = {}
    for filename, tree in modules.items():
        if filename != "__init__.py":
            for called, call in _calls(tree):
                calls_by_name.setdefault(called, []).append(call)
    unset = set()
    for tree in modules.values():
        for name, fn, skip in _callables(tree):
            own = {id(call) for _, call in _calls(fn)}
            calls = [call for call in calls_by_name.get(name, ()) if id(call) not in own]
            for param, position in _defaulted(fn, skip):
                if not any(_sets(call, param, position) for call in calls):
                    unset.add((name, param))
    return unset


def test_every_defaulted_parameter_is_set_by_a_package_call():
    unset = unset_defaults(_modules()) - set(KEPT_DEFAULTS)
    assert not unset, f"defaulted parameters that no package call sets: {sorted(unset)}"


def test_every_kept_default_is_otherwise_unset():
    # a kept parameter that the package starts to set, or that is deleted,
    # leaves the list
    assert set(KEPT_DEFAULTS) <= unset_defaults(_modules())
    assert all(reason.strip() for reason in KEPT_DEFAULTS.values())


def test_the_default_guard_sees_a_parameter_no_call_sets():
    tree = ast.parse(
        "def f(a, b=1, c=2, *, d=3, e=4):\n    return f(a, e=0)\n\n"
        "def g(x, y=0, z=0):\n    return x\n\n"
        "class C:\n"
        "    def __init__(self, v, w=None):\n        self.v = v\n"
        "    def m(self, k=0, j=0):\n        return k\n\n"
        "def run(kw, args):\n"
        "    return f(0, 1, d=5), g(1, **kw), C(1).m(2), C(0, *args)\n"
    )
    # e is set only in f's own body, c and j by no call; the **kw forward
    # sets every parameter of g, the *args forward every one of C
    assert unset_defaults({"mod.py": tree}) == {("f", "c"), ("f", "e"), ("m", "j")}


# modules that only compute: checks.py draws the trial data and decides
LIBRARY = ("calculus", "operators", "norms", "bidiff", "generators", "geometry", "bundles", "grid")


def draws_or_decides(tree):
    """Lines where a module imports from .sections or builds a "passed" key,
    as a dict entry, a subscript store or a keyword argument."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module == "sections" or (
                node.module is None and any(a.name == "sections" for a in node.names)
            ):
                found.append((node.lineno, "imports from .sections"))
        elif isinstance(node, ast.Dict):
            if any(isinstance(k, ast.Constant) and k.value == "passed" for k in node.keys):
                found.append((node.lineno, 'builds a "passed" key'))
        elif isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Store):
            if isinstance(node.slice, ast.Constant) and node.slice.value == "passed":
                found.append((node.lineno, 'stores a "passed" key'))
        elif isinstance(node, ast.keyword) and node.arg == "passed":
            found.append((node.value.lineno, "passes a passed= argument"))
    return found


def test_library_modules_neither_draw_trial_data_nor_decide_verdicts():
    modules = _modules()
    found = {name: draws_or_decides(modules[f"{name}.py"]) for name in LIBRARY}
    assert not any(found.values()), found


def test_the_decision_guard_sees_a_draw_and_a_verdict():
    tree = ast.parse(
        "from .sections import seeded_rng\n"
        "from . import sections\n"
        "from .norms import sobolev_norm\n\n"
        "def check(u):\n"
        "    report = {'ratio': 1.0, 'passed': True}\n"
        "    report['passed'] = False\n"
        "    return Row(passed=report['passed'])\n"
    )
    assert [line for line, _ in draws_or_decides(tree)] == [1, 2, 6, 7, 8]


# checks that judge each of their norm rows against the tolerance
ROW_VERDICTS = {"check_covering_bounds", "check_weighted_ratio"}


def tolerance_readers(tree):
    """Module-level functions that name tolerance as an argument or a
    variable; the "tolerance" key of a config entry is a string."""
    return {
        node.name
        for node in tree.body
        if isinstance(node, ast.FunctionDef)
        and any(
            (isinstance(sub, ast.Name) and sub.id == "tolerance")
            or (isinstance(sub, ast.arg) and sub.arg == "tolerance")
            for sub in ast.walk(node)
        )
    }


def test_only_row_verdicts_read_the_tolerance_in_a_check():
    assert tolerance_readers(_modules()["checks.py"]) == ROW_VERDICTS


def test_the_tolerance_guard_sees_a_verdict_in_a_body():
    tree = ast.parse(
        "RULES = {'residual': lambda measured, tolerance: measured <= tolerance}\n\n"
        "def run(ctx, entry):\n    return entry['tolerance']\n\n"
        "def check_a(ctx, tolerance):\n    return 0.0\n\n"
        "def check_b(ctx, trials):\n    def trial(t):\n"
        "        return t <= tolerance\n    return trial(trials)\n"
    )
    assert tolerance_readers(tree) == {"check_a", "check_b"}
