"""Self-tests of the benchmark: tracer bindings, payload identity, coverage.

    python3 -m pytest perfbench/tests -q

The traced fixture runs every workload once in this process at the
scenarios' default seeds; with the full flat-operators builtin traced on
its own, the tests take about a minute and a half on two cores and peak
near 1.2 GB.
"""

import json
import os
import sys
import time
import types

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import nabla_calc  # noqa: E402
from run import REFERENCE, SPEC, grade, layer_metrics, select  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import KNOWN_MISSES, WORKLOADS, run_scenarios, run_workload  # noqa: E402


def _load(path):
    with open(path) as fh:
        return json.load(fh)


def _bindings():
    """Every function binding of every nabla_calc module and class."""
    out = {}
    for name, module in sys.modules.items():
        if not (name == "nabla_calc" or name.startswith("nabla_calc.")):
            continue
        for attr, value in vars(module).items():
            if isinstance(value, types.FunctionType):
                out[(name, attr)] = value
            elif isinstance(value, type) and value.__module__ == name:
                for mattr, mvalue in vars(value).items():
                    if isinstance(mvalue, types.FunctionType):
                        out[(name, value.__name__, mattr)] = mvalue
    for check, entry in nabla_calc.checks.CHECKS.items():
        out[("CHECKS", check)] = entry
    return out


def test_wrappers_reach_every_binding_and_restore_them():
    before = _bindings()
    diff_axis = nabla_calc._kernels.diff_axis
    with Tracer():
        # grid.py binds its own copy through `from ._kernels import diff_axis`
        assert nabla_calc.grid.diff_axis is nabla_calc._kernels.diff_axis
        assert nabla_calc.grid.diff_axis is not diff_axis
        assert nabla_calc.covariant_derivative is nabla_calc.calculus.covariant_derivative
        assert nabla_calc.checks.CHECKS["adjoint-pairing"][0].__wrapped__ is (
            before[("CHECKS", "adjoint-pairing")][0]
        )
    after = _bindings()
    assert after.keys() == before.keys()
    changed = [key for key in before if after[key] is not before[key]]
    assert changed == []


def _traced(workload, out_dir):
    with Tracer() as tracer:
        start = time.perf_counter()
        records = run_workload(nabla_calc, workload, None, str(out_dir))
        total = time.perf_counter() - start
    return records, tracer.summary(total)


@pytest.fixture(scope="module")
def traced_runs(tmp_path_factory):
    runs = {}
    for workload in sorted(WORKLOADS):
        out_dir = tmp_path_factory.mktemp(workload)
        runs[workload] = _traced(workload, out_dir)
    return runs


def test_traced_and_untraced_payloads_are_identical(tmp_path, traced_runs):
    records = run_workload(nabla_calc, "light-suite", None, str(tmp_path))
    traced = {r["scenario"]: r["report"] for r in traced_runs["light-suite"][0]}
    for rec in records:
        with open(rec["report"], "rb") as a, open(traced[rec["scenario"]], "rb") as b:
            assert a.read() == b.read(), rec["scenario"]


def test_reference_seeds_pass_the_gate(traced_runs):
    reference = _load(REFERENCE)["workloads"]
    for workload, (records, _) in traced_runs.items():
        attempted, failed, problems, _ = grade(records, reference[workload])
        assert attempted > 0
        assert (failed, problems) == (0, []), workload


def test_flat_operators_call_counts(tmp_path):
    # the whole builtin, adjoint-pairing included, at its default seed
    with Tracer() as tracer:
        run_scenarios(nabla_calc, [("flat-operators", None, ())], None, str(tmp_path))
    functions = tracer.summary(1.0)["functions"]
    assert functions["kernels.diff_axis"]["calls"] == 1126
    assert functions["norms.pointwise_norm_sq"]["calls"] == 599
    assert functions["calculus.covariant_derivative"]["calls"] == 517
    assert functions["bundles.induced_tensor_bundle"]["calls"] == 60


def test_only_known_misses_are_left_out():
    left_out = {
        (name, check)
        for entries in WORKLOADS.values()
        for name, _, checks in entries
        for check in checks
    }
    assert left_out == set(KNOWN_MISSES)


@pytest.mark.parametrize("name,check", sorted(KNOWN_MISSES))
def test_known_misses_are_counted(tmp_path, name, check):
    """Each left-out check still fails at its seed, and the gate counts it.

    When this fails because the program now passes, the miss is fixed:
    put the check back into its workload and drop it from KNOWN_MISSES.
    """
    cfg = nabla_calc.builtin_scenario(name)
    left_out = tuple(c["check"] for c in cfg["checks"] if c["check"] != check)
    records = run_scenarios(
        nabla_calc, [(name, None, left_out)], KNOWN_MISSES[(name, check)], str(tmp_path)
    )
    attempted, failed, problems, _ = grade(records, {})
    assert (attempted, failed) == (1, 1), "known miss no longer fails"
    assert problems[0].startswith(f"{name}/{check}: ") and "verdict fail" in problems[0]


def test_every_tracked_function_and_check_is_reached(traced_runs):
    spec = _load(SPEC)
    metrics = {
        workload: select(layer_metrics(summary, 1.0, 1.0), spec["per_layer"])
        for workload, (_, summary) in traced_runs.items()
    }
    reached = {
        name
        for values in metrics.values()
        for name, m in values.items()
        if m["value"] > 0
    }
    counted = [
        m["name"]
        for m in spec["per_layer"]
        if m["name"].endswith((".calls", ".wall_s")) and not m["name"].startswith("layer.")
    ]
    assert counted
    assert [name for name in counted if name not in reached] == []


def test_layer_shares_sum_to_one(traced_runs):
    for workload, (_, summary) in traced_runs.items():
        shares = [row["share"] for row in summary["layers"].values()]
        assert sum(shares) == pytest.approx(1.0, abs=1e-9), workload
