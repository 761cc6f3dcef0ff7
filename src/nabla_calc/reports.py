"""Report records for scenario runs and their csv/json serialization.

A report carries one row per configured check plus optional norm-table
rows.  Emitted files are byte-stable for a fixed (config, seed, build):
floats go out through a fixed format and the volatile runtime column is
kept out of the files (it still lives on the in-memory rows and in the
console summary).

CSV columns, fixed:
  checks table: check, digest, measured, bound, tolerance, status
  norms table:  scenario, s, p, value, bound, status, h, fd_order
JSON files hold one object with "scenario", "seed", "passed", "checks"
and "norms" keys, read back with json.load; non-finite numbers are the
strings "inf", "-inf" and "nan".
"""

import csv
import json
import math
import os
from dataclasses import dataclass, field

from .errors import IoError

_CHECK_COLUMNS = ("check", "digest", "measured", "bound", "tolerance", "status")
_NORM_COLUMNS = ("scenario", "s", "p", "value", "bound", "status", "h", "fd_order")


@dataclass
class CheckRow:
    """Outcome of one named check invocation."""

    check: str
    digest: str
    measured: float
    bound: float | None
    tolerance: float
    passed: bool
    runtime_ms: float = 0.0


@dataclass
class NormRow:
    """One norm-table record: a computed norm and its certified bound."""

    scenario: str
    s: int
    p: float
    value: float
    bound: float | None
    passed: bool
    h: float
    fd_order: int


@dataclass
class Report:
    """All rows produced by one scenario run."""

    scenario: str
    seed: int
    checks: list = field(default_factory=list)
    norms: list = field(default_factory=list)

    @property
    def passed(self):
        return all(row.passed for row in self.checks) and all(
            row.passed for row in self.norms
        )

    def summary_lines(self):
        lines = []
        for row in self.checks:
            status = "pass" if row.passed else "FAIL"
            bound = "" if row.bound is None else f" bound={_fmt_float(row.bound)}"
            lines.append(
                f"{status}  {row.check}  measured={_fmt_float(row.measured)}"
                f"{bound} tolerance={_fmt_float(row.tolerance)}"
                f" ({row.runtime_ms:.0f} ms)"
            )
        return lines


def _json_number(x):
    if x is None:
        return None
    x = float(x)
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    if math.isnan(x):
        return "nan"
    return x


def _fmt_float(x):
    x = _json_number(x)
    if x is None:
        return ""
    return x if isinstance(x, str) else f"{x:.12e}"


def report_payload(report):
    """The deterministic dict serialized as json (no runtime fields)."""
    return {
        "scenario": report.scenario,
        "seed": int(report.seed),
        "passed": bool(report.passed),
        "checks": [
            {
                "check": row.check,
                "digest": row.digest,
                "measured": _json_number(row.measured),
                "bound": _json_number(row.bound),
                "tolerance": _json_number(row.tolerance),
                "passed": bool(row.passed),
            }
            for row in report.checks
        ],
        "norms": [
            {
                "scenario": row.scenario,
                "s": int(row.s),
                "p": _json_number(row.p),
                "value": _json_number(row.value),
                "bound": _json_number(row.bound),
                "passed": bool(row.passed),
                "h": _json_number(row.h),
                "fd_order": int(row.fd_order),
            }
            for row in report.norms
        ],
    }


def emit_report(report, out_dir, fmt="csv"):
    """Write the report under out_dir; returns the list of paths written.

    fmt "json" writes <scenario>.json; fmt "csv" writes
    <scenario>.checks.csv and, when norm rows exist, <scenario>.norms.csv.
    """
    if fmt not in ("csv", "json"):
        raise IoError(f"unknown report format {fmt!r}, expected csv or json")
    try:
        os.makedirs(out_dir, exist_ok=True)
        if fmt == "json":
            path = os.path.join(out_dir, f"{report.scenario}.json")
            payload = report_payload(report)
            with open(path, "w", newline="\n") as fh:
                json.dump(payload, fh, indent=2, sort_keys=True, allow_nan=False)
                fh.write("\n")
            return [path]
        checks = [
            [
                row.check,
                row.digest,
                _fmt_float(row.measured),
                _fmt_float(row.bound),
                _fmt_float(row.tolerance),
                "pass" if row.passed else "fail",
            ]
            for row in report.checks
        ]
        tables = [("checks", _CHECK_COLUMNS, checks)]
        if report.norms:
            norms = [
                [
                    row.scenario,
                    row.s,
                    _fmt_float(row.p),
                    _fmt_float(row.value),
                    _fmt_float(row.bound),
                    "pass" if row.passed else "fail",
                    _fmt_float(row.h),
                    row.fd_order,
                ]
                for row in report.norms
            ]
            tables.append(("norms", _NORM_COLUMNS, norms))
        paths = []
        for table, columns, rows in tables:
            path = os.path.join(out_dir, f"{report.scenario}.{table}.csv")
            with open(path, "w", newline="") as fh:
                writer = csv.writer(fh, lineterminator="\n")
                writer.writerow(columns)
                writer.writerows(rows)
            paths.append(path)
        return paths
    except OSError as exc:
        raise IoError(f"cannot write report under {out_dir!r}: {exc}") from exc
