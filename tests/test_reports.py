"""Report assembly and byte-stable emission."""

import json
import os

import pytest

from nabla_calc.errors import IoError
from nabla_calc.reports import (
    CheckRow,
    NormRow,
    Report,
    emit_report,
    report_payload,
)


def sample_report():
    report = Report(scenario="demo", seed=11)
    report.checks.append(
        CheckRow(
            check="alpha",
            digest="0123456789abcdef",
            measured=1.25e-7,
            bound=1.0,
            tolerance=1e-5,
            passed=True,
            runtime_ms=12.5,
        )
    )
    report.checks.append(
        CheckRow(
            check="beta",
            digest="fedcba9876543210",
            measured=0.02,
            bound=None,
            tolerance=1e-3,
            passed=False,
            runtime_ms=0.7,
        )
    )
    report.norms.append(
        NormRow(
            scenario="demo", s=1, p=2.0, value=3.5, bound=4.0,
            passed=True, h=0.03125, fd_order=4,
        )
    )
    return report


def test_passed_requires_every_row():
    report = sample_report()
    assert not report.passed
    report.checks[1].passed = True
    assert report.passed
    report.norms[0].passed = False
    assert not report.passed


def test_summary_has_one_line_per_check():
    lines = sample_report().summary_lines()
    assert len(lines) == 2
    assert lines[0].startswith("pass")
    assert lines[1].startswith("FAIL")
    assert "beta" in lines[1]


def test_emission_is_byte_stable(tmp_path):
    report = sample_report()
    first = emit_report(report, tmp_path / "a", fmt="csv")
    second = emit_report(report, tmp_path / "b", fmt="csv")
    assert len(first) == len(second) == 2
    for pa, pb in zip(first, second):
        with open(pa, "rb") as fa, open(pb, "rb") as fb:
            assert fa.read() == fb.read()


def test_runtime_stays_out_of_emitted_bytes(tmp_path):
    report = sample_report()
    first = emit_report(report, tmp_path / "a")
    report.checks[0].runtime_ms = 999.0
    second = emit_report(report, tmp_path / "b")
    for pa, pb in zip(first, second):
        with open(pa, "rb") as fa, open(pb, "rb") as fb:
            assert fa.read() == fb.read()


def test_json_round_trip(tmp_path):
    report = sample_report()
    (path,) = emit_report(report, tmp_path, fmt="json")
    with open(path) as fh:
        loaded = json.load(fh)
    assert loaded == report_payload(report)


def test_csv_row_counts(tmp_path):
    paths = emit_report(sample_report(), tmp_path, fmt="csv")
    with open(paths[0]) as fh:
        checks = fh.read().strip().splitlines()
    with open(paths[1]) as fh:
        norms = fh.read().strip().splitlines()
    assert len(checks) == 3 and len(norms) == 2
    assert checks[0].split(",")[0] == "check"
    assert norms[0].split(",")[0] == "scenario"


def test_norms_file_only_when_rows_exist(tmp_path):
    report = Report(scenario="plain", seed=0)
    report.checks.append(
        CheckRow("alpha", "00", 0.0, None, 1.0, True)
    )
    paths = emit_report(report, tmp_path, fmt="csv")
    assert len(paths) == 1
    assert not os.path.exists(tmp_path / "plain.norms.csv")


def test_unwritable_directory_raises(tmp_path):
    blocker = tmp_path / "taken"
    blocker.write_text("a file, not a directory")
    with pytest.raises(IoError):
        emit_report(sample_report(), blocker)


def test_infinities_survive_json(tmp_path):
    report = Report(scenario="inf", seed=0)
    report.checks.append(
        CheckRow("alpha", "00", float("inf"), None, 1.0, False)
    )
    (path,) = emit_report(report, tmp_path, fmt="json")
    with open(path) as fh:
        raw = json.load(fh)
    assert raw["checks"][0]["measured"] == "inf"
    assert raw == report_payload(report)
    assert float(raw["checks"][0]["measured"]) == float("inf")
