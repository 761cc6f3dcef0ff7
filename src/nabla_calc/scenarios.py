"""Scenario configs: validation, object construction, and check execution.

A scenario is a JSON-shaped dict naming a chart, a metric, a bundle, and
optionally a weight, an embedding, operators, and bidifferential forms,
all through small closed-form expression strings.  Its check list invokes
registered checks by name with tolerances.  The same seed always produces
the same report.  The checks run in order; the windows of a pointwise
check may run on the run's one thread pool, and reduce in window order.
"""

import copy
import dataclasses
import hashlib
import json
import math
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .bidiff import BidiffSpec
from .bundles import BundleSpec, magnetic_example_bundle
from .checks import (
    _COUNT,
    CHECKS,
    _check_keys,
    _check_rules,
    _is_int,
    _is_number,
    _is_positive,
    _listed,
    _need,
    check_params,
)
from .errors import ConfigError, NablaCalcError, ResolutionError
from .expressions import evaluate
from .generators import (
    build_generators,
    graph_embedding,
    identity_embedding,
    polar_isometrize,
    random_embedding,
    sphere_ambient_embedding,
)
from .geometry import MetricField, WeightPair
from .grid import ChartGrid
from .operators import NablaOpSpec
from .reports import CheckRow, Report
from .sections import seeded_rng

# kind -> the keys it takes besides "kind"; a metric needs all of them
_METRIC_KINDS = {"flat": (), "conformal": ("phi",), "matrix": ("entries",), "embedded": ()}
_BUNDLE_KINDS = {
    "trivial": ("fiber_dim", "potentials", "fiber_metric"),
    "magnetic-example": (),
}
_EMBEDDING_NAMES = ("identity", "sphere-ambient", "graph", "random")
_FLAG = (lambda v: isinstance(v, bool), "true or false")
_EMBEDDING_RULES = {
    "ambient": _COUNT,
    "amplitude": (lambda v: _is_number(v) and 0 <= v < 1, "a number in [0, 1)"),
    "heights": _listed(lambda v: isinstance(v, str), "expression strings"),
    "isometrize": _FLAG,
}
# the values that run_scenario and build_context may override, with the
# rules that the file's values obey; an override obeys the same rule
_SETTINGS = {
    "h": (_is_positive, "a finite positive number"),
    "fd_order": (lambda v: _is_int(v) and v in (2, 4), "the integer 2 or 4"),
    "seed": (_is_int, "an integer >= 0"),
}


@dataclass
class Scenario:
    """A validated scenario config, still in declarative form."""

    name: str
    chart: dict
    metric: dict
    bundle: dict
    weight: dict | None
    embedding: dict | None
    operators: dict
    forms: dict
    checks: list
    seed: int
    out: str | None


@dataclass
class CheckContext:
    """Everything a scenario built, handed to each check, and the pool, of
    `threads` workers, that the windows of a pointwise check run on; with
    no pool they run inline."""

    name: str
    grid: object
    metric: object
    bundle: object
    weight: object = None
    gens: object = None
    nabla_ops: dict = field(default_factory=dict)
    bidiff_forms: dict = field(default_factory=dict)
    seed: int = 0
    threads: int = 1
    pool: object = None


def _object(value, what, keys=None):
    """A config section as a dict; with keys given, it may hold only those."""
    if not isinstance(value, dict):
        raise ConfigError(f"{what} must be an object, got {type(value).__name__}")
    if keys is not None:
        _check_keys(value, keys, what)
    return dict(value)


def _kind(cfg, kinds, what):
    """The kind entry of a metric or bundle; other keys must suit the kind."""
    kind = _need(cfg, "kind", what)
    if not isinstance(kind, str) or kind not in kinds:
        raise ResolutionError(f"unknown {what} kind {kind!r}")
    _check_keys(cfg, ("kind",) + kinds[kind], f"{kind} {what}")
    return kind


def _indexed_rows(rows, width, what):
    """Rows of width - 1 integers >= 0 followed by a matrix."""
    test, want = _listed(
        lambda row: isinstance(row, list)
        and len(row) == width
        and all(map(_is_int, row[:-1])),
        f"rows of {width - 1} integer(s) >= 0 and a matrix",
    )
    if not test(rows):
        raise ConfigError(f"{what} must be {want}")


def parse_scenario(cfg):
    """Validate a config dict into a Scenario; resolve all referenced names."""
    if not isinstance(cfg, dict):
        raise ConfigError(f"scenario config must be an object, got {type(cfg).__name__}")
    _check_keys(cfg, [f.name for f in dataclasses.fields(Scenario)], "scenario")
    name = _need(cfg, "name", "scenario")
    if not isinstance(name, str) or not name or not all(
        c.isalnum() or c in "._-" for c in name
    ):
        raise ConfigError(f"scenario name {name!r} must be a [A-Za-z0-9._-] string")

    chart = _need(cfg, "chart", "scenario")
    chart = _object(chart, "chart", ("box", "h", "margin", "fd_order"))
    box = _need(chart, "box", "chart")
    if not isinstance(box, (list, tuple)) or not box or not all(
        isinstance(pair, (list, tuple))
        and len(pair) == 2
        and all(map(_is_number, pair))
        for pair in box
    ):
        raise ConfigError(f"chart box must list [lo, hi] number pairs, got {box!r}")
    box = tuple((float(lo), float(hi)) for lo, hi in box)
    if not all(lo < hi and math.isfinite(hi - lo) for lo, hi in box):
        raise ConfigError(f"chart box {box} needs finite lo < hi on every axis")
    h = _need(chart, "h", "chart")
    _check_rules(chart, {**_SETTINGS, "margin": (_is_int, "an integer >= 0")}, "chart")
    fd_order = chart.get("fd_order", 4)
    margin = chart.get("margin")
    chart = {"box": box, "h": float(h), "fd_order": fd_order, "margin": margin}

    metric = _object(_need(cfg, "metric", "scenario"), "metric")
    kind = _kind(metric, _METRIC_KINDS, "metric")
    for key in _METRIC_KINDS[kind]:
        _need(metric, key, f"{kind} metric")

    bundle = _object(_need(cfg, "bundle", "scenario"), "bundle")
    if _kind(bundle, _BUNDLE_KINDS, "bundle") == "trivial":
        d = _need(bundle, "fiber_dim", "trivial bundle")
        if not _is_int(d, 1):
            raise ConfigError(f"fiber_dim must be an integer >= 1, got {d!r}")

    weight = cfg.get("weight")
    if weight is not None:
        weight = _object(weight, "weight", ("rho", "f0", "admissible"))
        _need(weight, "rho", "weight")
        _check_rules(weight, {"admissible": _FLAG}, "weight")

    embedding = cfg.get("embedding")
    if embedding is not None:
        keys = ("name", "heights", "ambient", "isometrize", "amplitude")
        embedding = _object(embedding, "embedding", keys)
        ename = _need(embedding, "name", "embedding")
        if ename not in _EMBEDDING_NAMES:
            raise ResolutionError(f"unknown embedding {ename!r}")
        if ename == "graph":
            _need(embedding, "heights", "graph embedding")
        if ename == "random":
            _need(embedding, "ambient", "random embedding")
        _check_rules(embedding, _EMBEDDING_RULES, "embedding")
    if kind == "embedded" and embedding is None:
        raise ConfigError("an embedded metric needs an embedding")

    operators = _object(cfg.get("operators", {}), "operators")
    for oname, ocfg in operators.items():
        what = f"operator {oname!r}"
        ocfg = _object(ocfg, what, ("coefficients",))
        _indexed_rows(_need(ocfg, "coefficients", what), 2, f"{what} coefficients")

    forms = _object(cfg.get("forms", {}), "forms")
    for fname, fcfg in forms.items():
        what = f"form {fname!r}"
        fcfg = _object(fcfg, what, ("half_order", "table"))
        m = _need(fcfg, "half_order", what)
        if not _is_int(m):
            raise ConfigError(f"{what} half_order must be an integer >= 0, got {m!r}")
        _indexed_rows(_need(fcfg, "table", what), 3, f"{what} table")

    checks = cfg.get("checks", [])
    if not isinstance(checks, list):
        raise ConfigError("scenario checks must be a list")
    for entry in checks:
        if not isinstance(entry, dict) or not isinstance(entry.get("check"), str):
            raise ConfigError(f"check entries need a 'check' name, got {entry!r}")
        check = entry["check"]
        check_params(check, entry)
        for key, known in (("form", forms), ("operator", operators)):
            if key in entry and entry[key] not in known:
                raise ResolutionError(
                    f"check {check!r} references unknown {key} {entry[key]!r}"
                )

    _check_rules(cfg, _SETTINGS, "scenario")
    out = cfg.get("out")
    if out is not None and not (isinstance(out, str) and out):
        raise ConfigError(f"out must be a non-empty string, got {out!r}")
    return Scenario(
        name=name,
        chart=chart,
        metric=metric,
        bundle=bundle,
        weight=weight,
        embedding=embedding,
        operators=operators,
        forms=forms,
        checks=checks,
        seed=cfg.get("seed", 0),
        out=out,
    )


def _expression(expr, grid, what):
    """An expression evaluated on the grid coordinates, x1 stored as
    (N1, 1, ..) and so on, so each grid axis of the result has its full
    length or length 1: an expression that does not read x_k leaves axis k
    at 1.  It must be finite at every grid point."""
    values = np.asarray(evaluate(expr, grid.coords))
    if not np.all(np.isfinite(values)):
        raise ConfigError(f"{what} expression {expr!r} is not finite on the grid")
    return values


def _matrix_field(entries, grid, what):
    """A matrix of expressions, (rows, cols) + the broadcast grid shape of
    its entries, each evaluated by _expression."""
    if not isinstance(entries, list) or not entries or not all(
        isinstance(row, (list, tuple)) for row in entries
    ):
        raise ConfigError(f"{what} must be a matrix of expression strings")
    cols = len(entries[0])
    if cols == 0 or any(len(row) != cols for row in entries):
        raise ConfigError(f"{what} rows must all have the same length")
    values = [[_expression(expr, grid, what) for expr in row] for row in entries]
    shapes = (v.shape for row in values for v in row)
    shape = np.broadcast_shapes((1,) * grid.dim, *shapes)
    out = np.zeros((len(entries), cols) + shape, dtype=complex)
    for a, row in enumerate(values):
        for b, v in enumerate(row):
            out[a, b] = v
    return out


def _real_field(entries, grid, what):
    """A matrix of real expressions as a real field, (rows, cols) + the
    broadcast grid shape of its entries (see _matrix_field): the one
    reader of the expressions a metric, a weight and graph heights take."""
    values = _matrix_field(entries, grid, what)
    if np.max(np.abs(values.imag)) > 0:
        raise ConfigError(f"{what} expressions must be real")
    return np.ascontiguousarray(values.real)


def _resolve_settings(scenario, h, fd_order, seed):
    """The scenario's h, fd_order and seed, each replaced by its override
    when one is given (not None); an override obeys the file's rule."""
    given = {"h": h, "fd_order": fd_order, "seed": seed}
    given = {key: value for key, value in given.items() if value is not None}
    _check_rules(given, _SETTINGS, "override")
    chart = scenario.chart
    base = {"h": chart["h"], "fd_order": chart["fd_order"], "seed": scenario.seed}
    return {**base, **given}


def _build_grid(scenario, h, fd_order):
    chart = scenario.chart
    shape = tuple(int(round((hi - lo) / h)) + 1 for lo, hi in chart["box"])
    if any(m < 9 for m in shape):
        raise ConfigError(f"spacing {h} leaves fewer than 9 points per axis: {shape}")
    try:
        return ChartGrid(
            chart["box"], shape, fd_order=fd_order, support_margin=chart["margin"]
        )
    except ValueError as exc:  # the grid's own argument checks
        raise ConfigError(f"chart: {exc}") from exc


def _build_embedding(scenario, grid, seed):
    cfg = scenario.embedding
    if cfg is None:
        return None, None
    name = cfg["name"]
    if name == "identity":
        return identity_embedding(grid), None
    if name == "sphere-ambient":
        return sphere_ambient_embedding(grid)
    if name == "graph":
        heights = _real_field([cfg["heights"]], grid, "graph heights")[0]
        return graph_embedding(grid, heights)
    rng = seeded_rng(seed, f"{scenario.name}:embedding")
    kw = {"amplitude": float(cfg["amplitude"])} if "amplitude" in cfg else {}
    return random_embedding(grid, cfg["ambient"], rng, **kw), None


def _build_metric(scenario, grid, emb, induced):
    kind = scenario.metric["kind"]
    if kind == "flat":
        return MetricField.flat(grid)
    if kind == "conformal":
        phi = _real_field([[scenario.metric["phi"]]], grid, "conformal factor")
        return MetricField.conformal(grid, phi[0, 0])
    if kind == "matrix":
        values = _real_field(scenario.metric["entries"], grid, "metric entries")
        return MetricField(grid, values)
    if induced is not None:
        return induced
    return MetricField(grid, emb.gram())


def _build_bundle(scenario, grid):
    cfg = scenario.bundle
    if cfg["kind"] == "magnetic-example":
        return magnetic_example_bundle(grid)
    pots = None
    if cfg.get("potentials") is not None:
        mats = cfg["potentials"]
        if not isinstance(mats, list) or len(mats) != grid.dim:
            raise ConfigError(
                f"potentials need a list of one matrix per axis on a {grid.dim}d chart"
            )
        d = cfg["fiber_dim"]
        fields = []
        for k, mat in enumerate(mats):
            field = _matrix_field(mat, grid, f"potential matrix {k + 1}")
            if field.shape[:2] != (d, d):
                raise ConfigError(
                    f"potential matrix {k + 1} must be {d} x {d}, "
                    f"got {field.shape[0]} x {field.shape[1]}"
                )
            fields.append(field)
        # each grid axis at the length the potentials vary over together
        pots = np.stack(np.broadcast_arrays(*fields))
    fiber_metric = None
    if cfg.get("fiber_metric") is not None:
        fiber_metric = _matrix_field(cfg["fiber_metric"], grid, "fiber metric")
    return BundleSpec(grid, cfg["fiber_dim"], pots, fiber_metric)


def _build_operators(scenario, grid, bundle, metric):
    n = grid.dim
    d = bundle.fiber_dim
    ops = {}
    for name, cfg in scenario.operators.items():
        by_j = {}
        for j, entries in cfg["coefficients"]:
            mat = _matrix_field(entries, grid, f"operator {name!r} level {j}")
            want = (d, n**j * d)
            if mat.shape[:2] != want:
                raise ConfigError(
                    f"operator {name!r} level {j} coefficient must be "
                    f"{want[0]} x {want[1]}, got {mat.shape[0]} x {mat.shape[1]}"
                )
            by_j[j] = mat
        entries = [by_j.get(j) for j in range(max(by_j) + 1)]
        ops[name] = NablaOpSpec(bundle, bundle, metric, entries)
    return ops


def _build_forms(scenario, grid, bundle, metric):
    n = grid.dim
    d = bundle.fiber_dim
    forms = {}
    for name, cfg in scenario.forms.items():
        table = {}
        for i, j, entries in cfg["table"]:
            mat = _matrix_field(entries, grid, f"form {name!r} entry ({i}, {j})")
            want = (n**j * d, n**i * d)
            if mat.shape[:2] != want:
                raise ConfigError(
                    f"form {name!r} entry ({i}, {j}) must be "
                    f"{want[0]} x {want[1]}, got {mat.shape[0]} x {mat.shape[1]}"
                )
            table[(i, j)] = mat
        forms[name] = BidiffSpec(bundle, bundle, metric, cfg["half_order"], table)
    return forms


def build_context(scenario, h=None, fd_order=None, seed=None):
    """Construct every object a scenario declares, ready for its checks.

    h, fd_order and seed override the scenario's own values when given."""
    settings = _resolve_settings(scenario, h, fd_order, seed)
    try:
        grid = _build_grid(scenario, settings["h"], settings["fd_order"])
        emb, induced = _build_embedding(scenario, grid, settings["seed"])
        metric = _build_metric(scenario, grid, emb, induced)
        gens = None
        if emb is not None:
            if scenario.embedding.get("isometrize"):
                emb = polar_isometrize(emb, metric)
            gens = build_generators(emb, metric)
        bundle = _build_bundle(scenario, grid)
        weight = None
        if scenario.weight is not None:
            cfg = scenario.weight
            rho = _real_field([[cfg["rho"]]], grid, "weight rho")[0, 0]
            f0 = cfg.get("f0")
            if f0 is not None:
                f0 = _real_field([[f0]], grid, "weight f0")[0, 0]
            weight = WeightPair(grid, rho, f0=f0, admissible=cfg.get("admissible", False))
        nabla_ops = _build_operators(scenario, grid, bundle, metric)
        forms = _build_forms(scenario, grid, bundle, metric)
    except ConfigError:
        raise
    except NablaCalcError as exc:
        raise ConfigError(f"scenario {scenario.name!r} failed to build: {exc}") from exc
    return CheckContext(
        name=scenario.name,
        grid=grid,
        metric=metric,
        bundle=bundle,
        weight=weight,
        gens=gens,
        nabla_ops=nabla_ops,
        bidiff_forms=forms,
        seed=settings["seed"],
    )


def _thread_count(threads):
    """Window-pool size: the threads argument, else NABLA_CALC_THREADS,
    else the number of cores this process may run on."""
    source = "threads"
    if threads is None:
        source = "NABLA_CALC_THREADS"
        text = os.environ.get(source, "").strip()
        if not text:
            return len(os.sched_getaffinity(0))
        try:
            threads = int(text)
        except ValueError as exc:
            raise ConfigError(f"{source} must be an integer, got {text!r}") from exc
    elif isinstance(threads, bool) or not isinstance(threads, int):
        raise ConfigError(f"threads must be an integer, got {threads!r}")
    if threads < 1:
        raise ConfigError(f"{source} must be >= 1, got {threads}")
    return threads


def run_scenario(scenario, h=None, fd_order=None, seed=None, threads=None):
    """Execute every configured check, in order; returns the assembled
    Report.

    h, fd_order and seed override the scenario's own values when given.
    threads sizes the one pool that the windows of the pointwise checks
    run on; a thread is started only for a grid of more than one window,
    and every thread is joined before the report is returned."""
    workers = _thread_count(threads)
    ctx = build_context(scenario, h=h, fd_order=fd_order, seed=seed)

    def run_one(entry):
        name = entry["check"]
        fn = CHECKS[name][0]
        digest = hashlib.sha256(
            json.dumps(
                {"scenario": scenario.name, "seed": ctx.seed, "check": entry},
                sort_keys=True,
            ).encode()
        ).hexdigest()[:16]
        start = time.perf_counter()
        try:
            out = fn(ctx, entry)
        except NablaCalcError as exc:
            raise type(exc)(f"check {name!r}: {exc}") from exc
        runtime = (time.perf_counter() - start) * 1000.0
        row = CheckRow(
            check=name,
            digest=digest,
            measured=out["measured"],
            bound=out["bound"],
            tolerance=float(entry["tolerance"]),
            passed=out["passed"],
            runtime_ms=runtime,
        )
        return row, out["norms"]

    with ThreadPoolExecutor(max_workers=workers) as pool:
        ctx = dataclasses.replace(ctx, threads=workers, pool=pool)
        outcomes = [run_one(entry) for entry in scenario.checks]
    report = Report(scenario=scenario.name, seed=ctx.seed)
    for row, norms in outcomes:
        report.checks.append(row)
        report.norms.extend(norms)
    return report


def _box(*pairs):
    return [list(p) for p in pairs]


BUILTINS = {
    "magnetic-example": {
        "name": "magnetic-example",
        "chart": {"box": _box((-1, 1), (-1, 1)), "h": 2 / 128, "fd_order": 4},
        "metric": {"kind": "flat"},
        "bundle": {"kind": "magnetic-example"},
        "seed": 20,
        "checks": [
            {"check": "multiindex-formulas", "tolerance": 1e-5, "trials": 20},
            {"check": "leibniz-rule", "tolerance": 1e-5, "trials": 5},
            {"check": "curvature-commutator", "tolerance": 1e-5, "trials": 5},
        ],
    },
    "sphere-ffc": {
        "name": "sphere-ffc",
        "chart": {"box": _box((-1, 1), (-1, 1)), "h": 2 / 64, "fd_order": 4},
        "metric": {"kind": "embedded"},
        "bundle": {"kind": "trivial", "fiber_dim": 1},
        "embedding": {"name": "sphere-ambient"},
        "seed": 21,
        "checks": [
            {"check": "generator-identities", "tolerance": 1e-5, "trials": 5},
            {
                "check": "norm-table",
                "tolerance": 1.0,
                "orders": [0, 1, 2],
                "exponents": [2, "inf"],
            },
        ],
    },
    "half-line-weighted": {
        "name": "half-line-weighted",
        "chart": {"box": _box((1, 3)), "h": 2 / 128, "fd_order": 4},
        "metric": {"kind": "flat"},
        "bundle": {"kind": "trivial", "fiber_dim": 1},
        "weight": {"rho": "x1", "admissible": True},
        "embedding": {"name": "identity"},
        "forms": {
            "mass-gradient": {
                "half_order": 1,
                "table": [[0, 0, [["1"]]], [1, 1, [["1"]]]],
            }
        },
        "seed": 22,
        "checks": [
            {"check": "weighted-ratio", "tolerance": 0.01, "orders": [0, 1], "p": 2},
            {
                "check": "weighted-duality",
                "tolerance": 1e-6,
                "form": "mass-gradient",
                "pairs": 3,
            },
        ],
    },
    "random-embedding": {
        "name": "random-embedding",
        "chart": {
            "box": _box((-1, 1), (-1, 1)),
            "h": 2 / 96,
            "fd_order": 4,
            "margin": 8,
        },
        "metric": {"kind": "conformal", "phi": "0.1*x1*x2 - 0.05*x2"},
        "bundle": {"kind": "trivial", "fiber_dim": 1},
        "embedding": {"name": "random", "ambient": 4, "isometrize": True},
        "seed": 23,
        "checks": [
            {"check": "generator-identities", "tolerance": 1e-5, "trials": 5},
            {
                "check": "operator-rewrite",
                "tolerance": 1e-3,
                "specs": 5,
                "max_order": 2,
            },
        ],
    },
    "covering-suite": {
        "name": "covering-suite",
        "chart": {"box": _box((-1, 1), (-1, 1)), "h": 2 / 96, "fd_order": 4},
        "metric": {"kind": "flat"},
        "bundle": {"kind": "trivial", "fiber_dim": 2},
        "seed": 24,
        "checks": [
            {
                "check": "covering-bounds",
                "tolerance": 1e-10,
                "coverings": 10,
                "s": 1,
                "exponents": [1, 2, "inf"],
            },
            {
                "check": "norm-table",
                "tolerance": 1.0,
                "orders": [0, 1],
                "exponents": [1, 2, "inf"],
            },
        ],
    },
    "flat-operators": {
        "name": "flat-operators",
        "chart": {
            "box": _box((-1, 1), (-1, 1)),
            "h": 2 / 128,
            "fd_order": 4,
            "margin": 8,
        },
        "metric": {"kind": "flat"},
        "bundle": {"kind": "magnetic-example"},
        "embedding": {"name": "identity"},
        "operators": {
            "drift-gradient": {
                "coefficients": [
                    [0, [["cos(x2)/4", "0"], ["0", "cos(x2)/4"]]],
                    [
                        1,
                        [
                            ["sin(x1)/3", "0", "1/2", "0"],
                            ["0", "sin(x1)/3", "0", "1/2"],
                        ],
                    ],
                ],
            }
        },
        "seed": 25,
        "checks": [
            {"check": "adjoint-pairing", "tolerance": 1e-5, "pairs": 10},
            {
                "check": "mapping-bound",
                "tolerance": 1e-12,
                "operator": "drift-gradient",
                "s": 1,
                "p": 2,
                "trials": 10,
            },
            {
                "check": "divergence-duality",
                "tolerance": 1e-5,
                "pairs": 10,
                "half_orders": [1, 2],
            },
            {"check": "norm-equivalence", "tolerance": 1e-12, "trials": 25, "s": 2},
            {
                "check": "multiplication-property",
                "tolerance": 1e-9,
                "trials": 25,
                "s": 2,
                "p": "inf",
                "q": 2,
                "r": 2,
            },
        ],
    },
}


def list_builtins():
    return sorted(BUILTINS)


def builtin_scenario(name):
    """A deep copy of a built-in scenario config."""
    if name not in BUILTINS:
        raise ResolutionError(
            f"no built-in scenario named {name!r}; available: {list_builtins()}"
        )
    return copy.deepcopy(BUILTINS[name])
