"""Command line entry point for running scenario files.

``nabla-calc run --scenario <file.json or builtin name>`` builds the
scenario, executes its checks, writes a report, and exits 0 when every
check passed, 1 when some check failed, and 2 on any configuration or
resolution problem.  ``--h``, ``--fd-order``, and ``--seed`` override
the corresponding scenario entries for quick resolution studies; each
obeys the rule of the entry it overrides.
"""

import argparse
import json
import os
import sys

from .errors import ConfigError, NablaCalcError, ResolutionError
from .reports import emit_report
from .scenarios import (
    builtin_scenario,
    list_builtins,
    parse_scenario,
    run_scenario,
)


def _load_config(ref):
    if os.path.exists(ref):
        try:
            with open(ref, "r", encoding="utf-8") as fh:
                return json.load(fh)
        # a file that is not UTF-8 JSON raises ValueError, one nested past
        # the decoder's depth RecursionError
        except (OSError, ValueError, RecursionError) as exc:
            raise ConfigError(f"could not load scenario file {ref!r}: {exc}") from exc
    if ref in list_builtins():
        return builtin_scenario(ref)
    raise ResolutionError(
        f"{ref!r} is neither a scenario file nor a built-in; "
        f"built-ins: {', '.join(list_builtins())}"
    )


def _number(text):
    """An override as the JSON number it spells, else the text itself; the
    scenario's rules judge it, so a bad value is a configuration error."""
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


def build_parser():
    parser = argparse.ArgumentParser(
        prog="nabla-calc",
        description="run connection-calculus scenario checks on chart grids",
    )
    sub = parser.add_subparsers(dest="command")
    run = sub.add_parser("run", help="execute a scenario and write its report")
    run.add_argument(
        "--scenario",
        help="path to a scenario JSON file, or the name of a built-in",
    )
    run.add_argument("--out", default="reports", help="report output directory")
    run.add_argument("--format", choices=("csv", "json"), default="csv")
    run.add_argument("--h", type=_number, default=None, help="override grid spacing")
    run.add_argument(
        "--fd-order", type=_number, default=None, help="override stencil order (2 or 4)"
    )
    run.add_argument(
        "--seed", type=_number, default=None, help="override the scenario seed"
    )
    run.add_argument(
        "--list-builtins", action="store_true", help="print built-in scenario names"
    )
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command != "run":
        parser.print_help()
        return 2
    if args.list_builtins:
        for name in list_builtins():
            print(name)
        return 0
    if args.scenario is None:
        print("error: --scenario is required (or use --list-builtins)", file=sys.stderr)
        return 2
    try:
        scenario = parse_scenario(_load_config(args.scenario))
        report = run_scenario(
            scenario,
            h=args.h,
            fd_order=args.fd_order,
            seed=args.seed,
        )
        out_dir = scenario.out if scenario.out and args.out == "reports" else args.out
        paths = emit_report(report, out_dir, fmt=args.format)
    except NablaCalcError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for line in report.summary_lines():
        print(line)
    for path in paths:
        print(f"wrote {path}")
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
