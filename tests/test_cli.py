"""Command line behavior: exit codes, report files, and overrides."""

import contextlib
import io
import json
import math
import os
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.configuration import set_hypothesis_home_dir

from nabla_calc.cli import main

# hypothesis caches source constants under its home directory even without
# a database; keep that out of the working tree (removed at exit)
_HYPOTHESIS_HOME = tempfile.TemporaryDirectory(prefix="hypothesis-")
set_hypothesis_home_dir(_HYPOTHESIS_HOME.name)
from nabla_calc.scenarios import list_builtins


def write_config(tmp_path, cfg, name="scn.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def passing_config():
    return {
        "name": "cli-pass",
        "chart": {"box": [[-1, 1], [-1, 1]], "h": 2 / 24},
        "metric": {"kind": "flat"},
        "bundle": {"kind": "trivial", "fiber_dim": 1},
        "seed": 5,
        "checks": [
            {
                "check": "norm-table",
                "tolerance": 1.0,
                "orders": [0, 1],
                "exponents": [2],
            }
        ],
    }


def failing_config():
    return {
        "name": "cli-fail",
        "chart": {"box": [[-1, 1], [-1, 1]], "h": 2 / 32},
        "metric": {"kind": "flat"},
        "bundle": {"kind": "magnetic-example"},
        "seed": 5,
        "checks": [
            {"check": "multiindex-formulas", "tolerance": 1e-30, "trials": 1}
        ],
    }


def test_list_builtins_prints_names(capsys):
    assert main(["run", "--list-builtins"]) == 0
    out = capsys.readouterr().out.split()
    assert out == list_builtins()


def test_missing_scenario_argument(capsys):
    assert main(["run"]) == 2
    assert "scenario" in capsys.readouterr().err


def test_no_subcommand_is_an_error(capsys):
    assert main([]) == 2


def test_unknown_reference(capsys):
    assert main(["run", "--scenario", "no-such-thing"]) == 2
    assert "built-in" in capsys.readouterr().err


def test_passing_run_writes_reports(tmp_path, capsys):
    path = write_config(tmp_path, passing_config())
    out_dir = tmp_path / "out"
    assert main(["run", "--scenario", path, "--out", str(out_dir)]) == 0
    printed = capsys.readouterr().out
    assert "pass" in printed
    assert (out_dir / "cli-pass.checks.csv").exists()
    assert (out_dir / "cli-pass.norms.csv").exists()


def test_json_format(tmp_path):
    path = write_config(tmp_path, passing_config())
    out_dir = tmp_path / "out"
    assert main([
        "run", "--scenario", path, "--out", str(out_dir), "--format", "json",
    ]) == 0
    with open(out_dir / "cli-pass.json") as fh:
        payload = json.load(fh)
    assert payload["passed"] is True
    assert payload["seed"] == 5


def test_failing_check_exits_one(tmp_path, capsys):
    path = write_config(tmp_path, failing_config())
    out_dir = tmp_path / "out"
    assert main(["run", "--scenario", path, "--out", str(out_dir)]) == 1
    assert "FAIL" in capsys.readouterr().out
    assert (out_dir / "cli-fail.checks.csv").exists()


def test_bad_config_exits_two(tmp_path, capsys):
    cfg = passing_config()
    cfg["chart"]["h"] = -1
    path = write_config(tmp_path, cfg)
    assert main(["run", "--scenario", path]) == 2
    assert "error" in capsys.readouterr().err


def test_unreadable_json_exits_two(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["run", "--scenario", str(path)]) == 2
    assert "error" in capsys.readouterr().err


def test_spacing_override_changes_grid(tmp_path):
    cfg = passing_config()
    path = write_config(tmp_path, cfg)
    out_dir = tmp_path / "out"
    assert main([
        "run", "--scenario", path, "--out", str(out_dir),
        "--h", str(2 / 16), "--format", "json",
    ]) == 0
    with open(out_dir / "cli-pass.json") as fh:
        payload = json.load(fh)
    assert payload["norms"][0]["h"] == 2 / 16


def test_seed_override_lands_in_report(tmp_path):
    path = write_config(tmp_path, passing_config())
    out_dir = tmp_path / "out"
    assert main([
        "run", "--scenario", path, "--out", str(out_dir),
        "--seed", "77", "--format", "json",
    ]) == 0
    with open(out_dir / "cli-pass.json") as fh:
        assert json.load(fh)["seed"] == 77


def test_thread_env_is_validated(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("NABLA_CALC_THREADS", "many")
    path = write_config(tmp_path, passing_config())
    assert main(["run", "--scenario", path, "--out", str(tmp_path / "o")]) == 2
    assert "NABLA_CALC_THREADS" in capsys.readouterr().err


def test_thread_env_below_one_exits_2(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("NABLA_CALC_THREADS", "0")
    path = write_config(tmp_path, passing_config())
    assert main(["run", "--scenario", path, "--out", str(tmp_path / "o")]) == 2
    assert "NABLA_CALC_THREADS must be >= 1" in capsys.readouterr().err


def test_thread_env_runs_checks_in_pool(tmp_path, monkeypatch):
    monkeypatch.setenv("NABLA_CALC_THREADS", "2")
    path = write_config(tmp_path, passing_config())
    out_dir = tmp_path / "out"
    assert main([
        "run", "--scenario", path, "--out", str(out_dir), "--format", "json",
    ]) == 0
    monkeypatch.delenv("NABLA_CALC_THREADS")
    out_dir2 = tmp_path / "out2"
    assert main([
        "run", "--scenario", path, "--out", str(out_dir2), "--format", "json",
    ]) == 0
    with open(out_dir / "cli-pass.json") as fa:
        with open(out_dir2 / "cli-pass.json") as fb:
            assert json.load(fa) == json.load(fb)


def _assert_one_line_error(capsys):
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err


def test_overflowing_literal_exits_two(tmp_path, capsys):
    cfg = passing_config()
    cfg["metric"] = {"kind": "conformal", "phi": "10^400"}
    path = write_config(tmp_path, cfg)
    assert main(["run", "--scenario", path, "--out", str(tmp_path / "o")]) == 2
    _assert_one_line_error(capsys)


def test_nan_potential_exits_two(tmp_path, capsys):
    cfg = passing_config()
    cfg["bundle"]["potentials"] = [[["0/(x1-x1)"]], [["0"]]]
    path = write_config(tmp_path, cfg)
    assert main(["run", "--scenario", path, "--out", str(tmp_path / "o")]) == 2
    _assert_one_line_error(capsys)


def test_overflowing_metric_exits_two(tmp_path, capsys):
    cfg = passing_config()
    cfg["metric"] = {"kind": "conformal", "phi": "400 + x1"}
    path = write_config(tmp_path, cfg)
    assert main(["run", "--scenario", path, "--out", str(tmp_path / "o")]) == 2
    _assert_one_line_error(capsys)


def test_literal_beyond_float_range_exits_two(tmp_path, capsys):
    cfg = passing_config()
    cfg["metric"] = {"kind": "conformal", "phi": "1" + "0" * 400}
    path = write_config(tmp_path, cfg)
    assert main(["run", "--scenario", path, "--out", str(tmp_path / "o")]) == 2
    _assert_one_line_error(capsys)


def test_overflowing_complex_power_exits_two(tmp_path, capsys):
    cfg = passing_config()
    cfg["bundle"]["potentials"] = [[["(i+1)^5000"]], [["0"]]]
    path = write_config(tmp_path, cfg)
    assert main(["run", "--scenario", path, "--out", str(tmp_path / "o")]) == 2
    _assert_one_line_error(capsys)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_large_finite_exponents_stay_finite(tmp_path, capsys):
    cfg = {
        "name": "large-p",
        "chart": {"box": [[-1, 1], [-1, 1]], "h": 2 / 16},
        "metric": {"kind": "flat"},
        "bundle": {"kind": "trivial", "fiber_dim": 1},
        "seed": 3,
        "checks": [
            {
                "check": "multiplication-property",
                "tolerance": 1e-9,
                "trials": 3,
                "s": 1,
                "p": "inf",
                "q": 2000,
                "r": 2000,
            },
            {
                "check": "norm-table",
                "tolerance": 1.0,
                "orders": [0, 1],
                "exponents": [2000],
            },
            {
                "check": "covering-bounds",
                "tolerance": 1e-10,
                "coverings": 3,
                "s": 1,
                "exponents": [2000],
            },
        ],
    }
    path = write_config(tmp_path, cfg)
    out_dir = tmp_path / "out"
    args = ["run", "--scenario", path, "--out", str(out_dir), "--format", "json"]
    assert main(args) == 0, capsys.readouterr().out
    with open(out_dir / "large-p.json") as fh:
        payload = json.load(fh)
    for row in payload["checks"] + payload["norms"]:
        value = row.get("measured", row.get("value"))
        assert isinstance(value, float) and math.isfinite(value), row


def fuzz_base_config():
    """A 33-point 1-D scenario with two cheap checks."""
    return {
        "name": "fuzz",
        "chart": {"box": [[-1, 1]], "h": 2 / 32, "fd_order": 4, "margin": 6},
        "metric": {"kind": "flat"},
        "bundle": {"kind": "trivial", "fiber_dim": 1},
        "seed": 1,
        "checks": [
            {
                "check": "norm-table",
                "tolerance": 1.0,
                "orders": [0, 1],
                "exponents": [2, "inf"],
            },
            {
                "check": "multiplication-property",
                "tolerance": 1e-9,
                "trials": 1,
                "s": 1,
                "p": "inf",
                "q": 2,
                "r": 2,
            },
        ],
    }


def _fuzz_leaves():
    cfg = fuzz_base_config()
    leaves = [("chart", key) for key in cfg["chart"]]
    leaves += [("bundle", "fiber_dim"), ("seed",)]
    for k, entry in enumerate(cfg["checks"]):
        leaves += [("checks", k, key) for key in entry if key != "check"]
    return leaves


# small values only: no grid above 33 points, no count above 4
_ATOMS = st.one_of(
    st.integers(-3, 4),
    st.sampled_from([-1.0, 0.0, 0.5, 1.5, math.nan, math.inf]),
    st.sampled_from(["", "x", "inf", "2"]),
    st.booleans(),
    st.none(),
)


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(
    leaf=st.sampled_from(_fuzz_leaves()),
    value=st.one_of(_ATOMS, st.lists(_ATOMS, max_size=3)),
)
def test_fuzzed_leaf_exits_cleanly(leaf, value):
    cfg = fuzz_base_config()
    node = cfg
    for key in leaf[:-1]:
        node = node[key]
    node[leaf[-1]] = value
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "scn.json")
        with open(path, "w") as fh:
            json.dump(cfg, fh)
        argv = ["run", "--scenario", path, "--out", os.path.join(tmp, "out")]
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main(argv)
    assert code in (0, 1, 2)
    if code == 2:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:"), lines
