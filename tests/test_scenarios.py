"""Scenario parsing, object construction, and deterministic execution."""

import dataclasses
import math
import re
import sys
from pathlib import Path

import numpy as np
import pytest

from nabla_calc import BundleSpec, MetricField, magnetic_example_bundle, tower
from nabla_calc.checks import CHECKS
from nabla_calc.errors import ConfigError, ResolutionError
from nabla_calc.norms import sobolev_norm
from nabla_calc.reports import report_payload
from nabla_calc.scenarios import (
    BUILTINS,
    Scenario,
    build_context,
    builtin_scenario,
    list_builtins,
    parse_scenario,
    run_scenario,
)
from nabla_calc.sections import random_section, seeded_rng


# every check entry that test_config_errors rejects, as with_check makes them
REJECTED_CHECK_ENTRIES = []


def with_check(entry):
    """A mangle that makes entry, at tolerance 1 unless it sets its own, the
    config's one check."""
    entry = {"tolerance": 1.0, **entry}
    REJECTED_CHECK_ENTRIES.append(entry)
    return lambda c: c.update(checks=[entry])


def tiny_config():
    return {
        "name": "tiny",
        "chart": {"box": [[-1, 1], [-1, 1]], "h": 2 / 24},
        "metric": {"kind": "flat"},
        "bundle": {"kind": "trivial", "fiber_dim": 2},
        "seed": 3,
        "checks": [
            {
                "check": "norm-table",
                "tolerance": 1.0,
                "orders": [0, 1],
                "exponents": [2],
            }
        ],
    }


def test_parse_round_trips_the_tiny_config():
    s = parse_scenario(tiny_config())
    assert s.name == "tiny"
    assert s.chart["box"] == ((-1.0, 1.0), (-1.0, 1.0))
    assert s.chart["fd_order"] == 4
    assert s.seed == 3 and len(s.checks) == 1


@pytest.mark.parametrize(
    "mangle",
    [
        lambda c: c.update(extra_key=1),
        lambda c: c.pop("name"),
        lambda c: c.update(name="bad name with spaces"),
        lambda c: c["chart"].update(h=-0.1),
        lambda c: c["chart"].update(box=[[1, -1]]),
        lambda c: c["chart"].update(fd_order=3),
        lambda c: c["bundle"].update(fiber_dim=0),
        with_check({"check": "norm-table", "tolerance": 0}),
        with_check({"check": "norm-table", "bogus_param": 1}),
        lambda c: c.update(seed=-4),
        # the write-only fields section is gone
        lambda c: c.update(fields={"v": ["x1"]}),
        # check parameters that passed without evaluating anything
        with_check({"check": "multiindex-formulas", "trials": 0}),
        with_check({"check": "covering-bounds", "coverings": 0}),
        with_check({"check": "operator-rewrite", "specs": 0}),
        with_check({"check": "weighted-duality", "pairs": 0}),
        with_check({"check": "norm-table", "orders": []}),
        with_check({"check": "norm-table", "exponents": []}),
        with_check({"check": "divergence-duality", "half_orders": []}),
        # check parameters that crashed
        with_check({"check": "norm-equivalence", "trials": "x"}),
        with_check({"check": "norm-table", "orders": ["x"]}),
        with_check({"check": "norm-table", "orders": [-1]}),
        with_check({"check": "norm-table", "exponents": [0.5]}),
        with_check({"check": "operator-rewrite", "max_order": 0}),
        with_check({"check": "weighted-duality", "p": 1}),
        with_check({"check": "norm-equivalence", "p": "inf"}),
        # values that were accepted
        with_check({"check": "norm-table", "tolerance": True}),
        with_check({"check": "norm-table", "tolerance": float("inf")}),
        lambda c: c.update(seed=True),
        lambda c: c["chart"].update(margin=None),
        # sections that crashed
        lambda c: c.update(chart=5),
        lambda c: c["chart"].update(h="abc"),
        lambda c: c["chart"].update(h=float("nan")),
        lambda c: c["chart"].update(fd_order="x"),
        lambda c: c["chart"].update(margin="x"),
        lambda c: c["bundle"].update(fiber_dim="two"),
        lambda c: c.update(
            fields={"v": ["1", "0"]},
            operators={"m": {"form": "mixed", "terms": [{"fields": ["v"]}]}},
        ),
        lambda c: c.update(
            operators={"m": {"coefficients": [["a", [["1", "0"], ["0", "1"]]]]}}
        ),
        lambda c: c.update(forms={"f": {"half_order": 0, "table": [[0, 0]]}}),
        # the dropped coefficient-class and Frechet tags are unknown keys
        lambda c: c.update(
            operators={
                "m": {
                    "class": "smooth",
                    "coefficients": [[0, [["1", "0"], ["0", "1"]]]],
                }
            }
        ),
        lambda c: c.update(
            forms={
                "f": {
                    "half_order": 0,
                    "class": "totally-bounded",
                    "table": [[0, 0, [["1", "0"], ["0", "1"]]]],
                }
            }
        ),
        lambda c: c.update(embedding={"name": "identity", "frechet": True}),
        # keys that were ignored
        lambda c: c["bundle"].update(fibre_metric=[["1", "0"], ["0", "1"]]),
        lambda c: c["metric"].update(phi="x1"),
        lambda c: c.update(bundle={"kind": "magnetic-example", "fiber_dim": 2}),
        # embedding keys that crashed or were read as true
        lambda c: c.update(embedding={"name": "random", "ambient": "x"}),
        lambda c: c.update(embedding={"name": "random", "ambient": 0}),
        lambda c: c.update(embedding={"name": "random", "ambient": 4, "amplitude": "x"}),
        lambda c: c.update(embedding={"name": "random", "ambient": 4, "amplitude": 1}),
        lambda c: c.update(embedding={"name": "graph", "heights": 5}),
        lambda c: c.update(embedding={"name": "graph", "heights": []}),
        lambda c: c.update(embedding={"name": "graph", "heights": [5]}),
        lambda c: c.update(embedding={"name": "identity", "isometrize": "no"}),
        # values that crashed the command line or were read loosely
        lambda c: c.update(out=5),
        lambda c: c["chart"].update(box=[["-1", "1"], ["-1", "1"]]),
        lambda c: c["chart"].update(box=[[False, True], [-1, 1]]),
        lambda c: c.update(weight={"rho": "x1 + 2", "admissible": "false"}),
        # an operator is its coefficients: the one-valued form key and the
        # mixed terms are gone
        lambda c: c.update(
            operators={"m": {"form": "nabla", "coefficients": [[0, [["1", "0"], ["0", "1"]]]]}}
        ),
        lambda c: c.update(
            operators={"m": {"terms": [{"coefficient": [["1"]], "fields": []}]}}
        ),
        # the narrowed exponent rules of single checks
        with_check({"check": "norm-equivalence", "p": "infinity"}),
        with_check({"check": "weighted-duality", "p": "inf"}),
        with_check({"check": "weighted-duality", "p": 1.0}),
    ],
)
def test_config_errors(mangle):
    cfg = tiny_config()
    mangle(cfg)
    with pytest.raises(ConfigError):
        parse_scenario(cfg)


@pytest.mark.parametrize(
    "mangle",
    [
        lambda c: c["metric"].update(kind="hyperbolic"),
        lambda c: c["bundle"].update(kind="mystery"),
        lambda c: c["checks"].append({"check": "no-such-check", "tolerance": 1.0}),
        lambda c: c.update(embedding={"name": "torus"}),
        lambda c: c["checks"].append(
            {"check": "weighted-duality", "tolerance": 1.0, "form": "ghost"}
        ),
        lambda c: c["checks"].append(
            {"check": "mapping-bound", "tolerance": 1.0, "operator": "ghost"}
        ),
    ],
)
def test_resolution_errors(mangle):
    cfg = tiny_config()
    mangle(cfg)
    with pytest.raises(ResolutionError):
        parse_scenario(cfg)


@pytest.mark.parametrize("entry", REJECTED_CHECK_ENTRIES, ids=repr)
def test_direct_check_calls_reject_what_parsing_rejects(entry):
    ctx = build_context(parse_scenario(tiny_config()))
    with pytest.raises(ConfigError):
        CHECKS[entry["check"]][0](ctx, entry)


@pytest.mark.parametrize(
    "override",
    [
        {"seed": 2.5},
        {"seed": True},
        {"seed": -3},
        {"fd_order": 2.9},
        {"fd_order": 3},
        {"fd_order": True},
        {"h": "0.03125"},
        {"h": math.nan},
        {"h": math.inf},
        {"h": 0},
    ],
    ids=repr,
)
def test_overrides_obey_the_file_rules(override):
    s = parse_scenario(tiny_config())
    for run in (build_context, run_scenario):
        with pytest.raises(ConfigError, match="override"):
            run(s, **override)
    # the same value in the file fails its rule too
    cfg = tiny_config()
    key, value = next(iter(override.items()))
    (cfg if key == "seed" else cfg["chart"])[key] = value
    with pytest.raises(ConfigError):
        parse_scenario(cfg)


def test_readme_lists_the_scenario_sections():
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    line = next(line for line in text.splitlines() if line.startswith("Scenario sections: "))
    listed = re.findall(r"`([a-z_]+)`", line)
    assert listed == [f.name for f in dataclasses.fields(Scenario)]


def test_empty_check_list_gives_empty_passing_report():
    cfg = tiny_config()
    cfg["checks"] = []
    report = run_scenario(parse_scenario(cfg))
    assert report.passed
    assert report.checks == [] and report.norms == []


def test_same_seed_same_payload():
    s = parse_scenario(tiny_config())
    a = report_payload(run_scenario(s))
    b = report_payload(run_scenario(s))
    assert a == b


def test_threaded_run_matches_serial():
    cfg = tiny_config()
    cfg["checks"] = cfg["checks"] + [
        {"check": "norm-table", "tolerance": 1.0, "orders": [0], "exponents": [1]}
    ]
    s = parse_scenario(cfg)
    serial = report_payload(run_scenario(s, threads=1))
    pooled = report_payload(run_scenario(s, threads=2))
    assert serial == pooled


# the per-check counts that bound a check's trials
_TRIAL_KEYS = ("trials", "pairs", "coverings", "specs")


@pytest.mark.parametrize("name", list_builtins())
def test_threaded_builtin_checks_keep_their_bits(name):
    # the checks read the one context at once, and every measured value
    # keeps its bits under any interleaving of the threads; flat-operators
    # runs two trials per check, since this tests determinism, not verdicts
    cfg = builtin_scenario(name)
    if name == "flat-operators":
        for entry in cfg["checks"]:
            keys = CHECKS[entry["check"]][1]
            entry.update({key: 2 for key in _TRIAL_KEYS if key in keys})
    s = parse_scenario(cfg)
    assert len(s.checks) > 1
    serial = run_scenario(s, seed=20, threads=1)
    want = [(row.check, repr(row.measured)) for row in serial.checks]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for threads in (2, 3):
            pooled = run_scenario(s, seed=20, threads=threads)
            assert [(row.check, repr(row.measured)) for row in pooled.checks] == want
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("name", ["flat-operators", "magnetic-example"])
def test_checks_leave_the_bundle_as_built(name):
    cfg = builtin_scenario(name)
    cfg["chart"]["h"] = 2 / 32
    s = parse_scenario(cfg)
    ctx = build_context(s)
    before = dict(vars(ctx.bundle))
    for entry in s.checks:
        CHECKS[entry["check"]][0](ctx, entry)
    after = vars(ctx.bundle)
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())


@pytest.mark.parametrize("name", ["sphere-ffc", "random-embedding"])
def test_checks_leave_the_metric_as_built(name):
    cfg = builtin_scenario(name)
    cfg["chart"]["h"] = 2 / 32
    s = parse_scenario(cfg)
    ctx = build_context(s)
    before = dict(vars(ctx.metric))
    for entry in s.checks:
        CHECKS[entry["check"]][0](ctx, entry)
    after = vars(ctx.metric)
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())


def test_thread_count_below_one_is_rejected(monkeypatch):
    s = parse_scenario(tiny_config())
    with pytest.raises(ConfigError, match="threads must be >= 1"):
        run_scenario(s, threads=0)
    for bad in (2.5, 1.9, True):
        with pytest.raises(ConfigError, match="threads must be an integer"):
            run_scenario(s, threads=bad)
    monkeypatch.setenv("NABLA_CALC_THREADS", "0")
    with pytest.raises(ConfigError, match="NABLA_CALC_THREADS must be >= 1"):
        run_scenario(s)


def test_seed_override_changes_digests():
    s = parse_scenario(tiny_config())
    base = run_scenario(s)
    other = run_scenario(s, seed=99)
    assert other.seed == 99
    assert base.checks[0].digest != other.checks[0].digest


def test_grid_overrides():
    s = parse_scenario(tiny_config())
    ctx = build_context(s, h=2 / 12, fd_order=2)
    assert ctx.grid.shape == (13, 13)
    assert ctx.grid.fd_order == 2


def test_context_matches_hand_built_objects():
    cfg = tiny_config()
    cfg["bundle"] = {"kind": "magnetic-example"}
    cfg["weight"] = {"rho": "2 + x1", "f0": "exp(x2)", "admissible": True}
    s = parse_scenario(cfg)
    ctx = build_context(s)
    grid = ctx.grid
    assert np.array_equal(ctx.metric.values, MetricField.flat(grid).values)
    want = magnetic_example_bundle(grid)
    assert np.allclose(ctx.bundle.potentials, want.potentials)
    assert np.allclose(ctx.weight.rho, 2 + grid.coords[0])
    assert np.allclose(ctx.weight.f0, np.exp(grid.coords[1]))
    assert ctx.weight.f0.shape == grid.shape


def test_conformal_metric_from_expression():
    cfg = tiny_config()
    cfg["metric"] = {"kind": "conformal", "phi": "x1*x2/4"}
    ctx = build_context(parse_scenario(cfg))
    grid = ctx.grid
    phi = grid.coords[0] * grid.coords[1] / 4
    want = MetricField.conformal(grid, phi)
    assert np.allclose(ctx.metric.values, want.values)


def test_complex_weight_expression_is_rejected():
    cfg = tiny_config()
    cfg["weight"] = {"rho": "exp(i*x1)"}
    with pytest.raises(ConfigError):
        build_context(parse_scenario(cfg))


def test_operator_and_form_construction():
    cfg = tiny_config()
    cfg["embedding"] = {"name": "identity"}
    cfg["operators"] = {
        "drift": {
            "coefficients": [
                [1, [["1", "0", "0", "0"], ["0", "1", "0", "0"]]]
            ],
        }
    }
    cfg["forms"] = {
        "mass": {"half_order": 0, "table": [[0, 0, [["1", "0"], ["0", "1"]]]]}
    }
    ctx = build_context(parse_scenario(cfg))
    op = ctx.nabla_ops["drift"]
    assert op.order == 1
    assert op.coefficients[0] is None  # an absent level is the zero level
    form = ctx.bidiff_forms["mass"]
    assert form.half_order == 0
    assert ctx.gens is not None


def test_misshaped_operator_matrix_is_rejected():
    cfg = tiny_config()
    cfg["operators"] = {
        "bad": {"coefficients": [[1, [["1", "0"], ["0", "1"]]]]}
    }
    with pytest.raises(ConfigError):
        build_context(parse_scenario(cfg))


def test_builtins_parse_and_deep_copy():
    assert list_builtins() == sorted(BUILTINS)
    for name in list_builtins():
        cfg = builtin_scenario(name)
        parse_scenario(cfg)
        cfg["seed"] = 12345
        assert BUILTINS[name].get("seed") != 12345
    with pytest.raises(ResolutionError):
        builtin_scenario("missing")


def test_embedded_metric_needs_embedding():
    cfg = tiny_config()
    cfg["metric"] = {"kind": "embedded"}
    with pytest.raises(ConfigError):
        parse_scenario(cfg)


def test_graph_embedding_builds_its_induced_metric():
    cfg = tiny_config()
    cfg["metric"] = {"kind": "embedded"}
    cfg["embedding"] = {"name": "graph", "heights": ["0.1 * x1 * x2"]}
    ctx = build_context(parse_scenario(cfg))
    x2 = np.broadcast_to(ctx.grid.coords[1], ctx.grid.shape)
    # g = 1 + Df^T Df away from the stencil band, where Df = 0.1 (x2, x1)
    g11 = ctx.metric.values[0, 0]
    inner = ctx.grid.interior_mask(ctx.grid.stencil_radius)
    assert np.allclose(g11[inner], (1 + 0.01 * x2**2)[inner], atol=1e-12)
    assert ctx.gens is not None


def test_matrix_metric_matches_conformal_kind():
    phi = "x1*x2/4"
    cfg = tiny_config()
    cfg["metric"] = {
        "kind": "matrix",
        "entries": [[f"exp(2*({phi}))", "0"], ["0", f"exp(2*({phi}))"]],
    }
    got = build_context(parse_scenario(cfg)).metric.values
    cfg["metric"] = {"kind": "conformal", "phi": phi}
    want = build_context(parse_scenario(cfg)).metric.values
    assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))


def test_complex_matrix_metric_is_rejected():
    cfg = tiny_config()
    cfg["metric"] = {"kind": "matrix", "entries": [["1", "0.1*i"], ["0.1*i", "1"]]}
    with pytest.raises(ConfigError):
        build_context(parse_scenario(cfg))


def test_random_embedding_metric_is_its_gram_matrix():
    cfg = tiny_config()
    cfg["metric"] = {"kind": "embedded"}
    cfg["embedding"] = {"name": "random", "ambient": 3}
    ctx = build_context(parse_scenario(cfg))
    xi = ctx.gens.xi
    gram = np.einsum("ji...,jk...->ik...", xi, xi)
    assert np.allclose(ctx.metric.values, gram, rtol=1e-14, atol=0)


def test_constant_fiber_metric_is_one_matrix():
    cfg = tiny_config()
    cfg["bundle"]["fiber_metric"] = [["2", "0"], ["0", "1"]]
    ctx = build_context(parse_scenario(cfg))
    bundle, grid = ctx.bundle, ctx.grid
    h = np.array([[2, 0], [0, 1]], dtype=complex)
    assert np.array_equal(bundle.fiber_metric, h.reshape(2, 2, 1, 1))
    # the same matrix given on the full grid is stored at one point too
    full = np.broadcast_to(h[:, :, None, None], (2, 2) + grid.shape)
    field = BundleSpec(grid, 2, fiber_metric=full)
    assert field.fiber_metric.shape == (2, 2, 1, 1)
    u = random_section(grid, 0, 2, seeded_rng(7, "fiber-metric"))
    for s, p in ((0, 2.0), (1, 2.0), (2, math.inf)):
        want = sobolev_norm(tower(u, field, ctx.metric, s), p, field, ctx.metric)
        got = sobolev_norm(tower(u, bundle, ctx.metric, s), p, bundle, ctx.metric)
        assert abs(got - want) <= 1e-13 * want


def test_varying_fiber_metric_stays_a_grid_field():
    cfg = tiny_config()
    cfg["bundle"]["fiber_metric"] = [["2 + x1^2", "0"], ["0", "1"]]
    ctx = build_context(parse_scenario(cfg))
    assert ctx.bundle.fiber_metric.shape == (2, 2, ctx.grid.shape[0], 1)
    x1 = ctx.grid.coords[0]
    assert np.array_equal(ctx.bundle.fiber_metric[0, 0], 2 + x1**2)


def test_margin_below_stencil_radius_is_a_config_error():
    cfg = tiny_config()
    cfg["chart"]["margin"] = 1
    with pytest.raises(ConfigError, match="stencil radius"):
        build_context(parse_scenario(cfg))


def test_mapping_bound_needs_a_nabla_operator():
    # a file's check names a defined operator; a direct call is told
    ctx = build_context(parse_scenario(tiny_config()))
    entry = {"check": "mapping-bound", "tolerance": 1.0, "operator": "m"}
    with pytest.raises(ResolutionError, match="no operator named 'm'"):
        CHECKS["mapping-bound"][0](ctx, entry)
