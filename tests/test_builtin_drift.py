"""The light builtins reproduce the benchmark's stored reference values.

perfbench/reference.json holds, for each builtin of the "builtins"
workload, the seed and the measured value of every check it runs.  The
five builtins other than flat-operators run here in about two seconds,
so a change that moves a builtin residual fails tier-1 and not only the
benchmark gate.  The drift limit is the benchmark's own.
"""

import json
import math
import pathlib

import pytest

from nabla_calc.scenarios import builtin_scenario, parse_scenario, run_scenario

REFERENCE = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "reference.json"
DRIFT_LIMIT = 1e-12


def _reference_builtins():
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)["workloads"]["builtins"]


LIGHT = sorted(name for name in _reference_builtins() if name != "flat-operators")


@pytest.mark.parametrize("name", LIGHT)
def test_light_builtin_matches_reference(name):
    ref = _reference_builtins()[name]
    wanted = [check for check, _ in ref["measured"]]
    cfg = builtin_scenario(name)
    cfg["checks"] = [c for c in cfg["checks"] if c["check"] in wanted]
    report = run_scenario(parse_scenario(cfg), seed=ref["seed"])
    assert [row.check for row in report.checks] == wanted
    for row, (_, value) in zip(report.checks, ref["measured"]):
        assert row.passed, f"{row.check} failed with measured={row.measured}"
        assert math.isfinite(row.measured)
        assert abs(row.measured - value) <= DRIFT_LIMIT, (
            f"{row.check} drifted {row.measured - value:.3e} from {value!r}"
        )
