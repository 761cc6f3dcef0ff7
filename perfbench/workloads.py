"""The benchmark's workloads and the public-API pass that runs one of them.

A workload is a list of (builtin scenario name, grid spacing override,
checks left out).  The override is None for a builtin's own settings.
Each scenario goes through parse_scenario -> run_scenario(seed=...) ->
emit_report (json).

A check is left out of a workload only when it is in KNOWN_MISSES: the
program fails it at some seeds on the builtin's own grid, with a residual
just above its fixed 1e-5 tolerance.  The benchmark passes any seed
straight to run_scenario, so such a check would fail some runs of any
workload that holds it.  The self-tests run each known miss at its seed
and require the gate to count it as failed.
"""

import time
import traceback

# (builtin, check) -> a seed at which the program fails that check
KNOWN_MISSES = {
    ("flat-operators", "adjoint-pairing"): 1,
    ("magnetic-example", "leibniz-rule"): 3,
    ("magnetic-example", "curvature-commutator"): 27,
}

# every builtin but flat-operators, in sorted order, at their own settings
LIGHT_SUITE = [
    ("covering-suite", None, ()),
    ("half-line-weighted", None, ()),
    ("magnetic-example", None, ("leibniz-rule", "curvature-commutator")),
    ("random-embedding", None, ()),
    ("sphere-ffc", None, ()),
]

WORKLOADS = {
    # all six builtins in sorted order, at their own settings; flat-operators
    # (129^2, fd 4) runs four of its five checks
    "builtins": sorted(LIGHT_SUITE + [("flat-operators", None, ("adjoint-pairing",))]),
    # magnetic-example at h = 2/512: 513^2 points, all three checks
    "fine-grid": [("magnetic-example", 2 / 512, ())],
    # not a benchmark workload: the threads=2 determinism run of "builtins"
    "light-suite": LIGHT_SUITE,
}


def scenario_config(nc, name, left_out=()):
    """A builtin's config without the checks named in left_out."""
    cfg = nc.builtin_scenario(name)
    cfg["checks"] = [c for c in cfg["checks"] if c["check"] not in left_out]
    return cfg


def run_scenarios(nc, entries, seed, out_dir, threads=None, timers=None):
    """Run (builtin, h, left_out) entries; returns one record per scenario.

    nc is the imported nabla_calc package.  seed None runs each scenario
    at its own default seed.  timers, when given, is a dict whose
    "parse_s" entry accumulates the time spent in parse_scenario.  A
    scenario that raises is recorded with its error and its configured
    check count, and the run goes on.
    """
    records = []
    for name, h, left_out in entries:
        cfg = scenario_config(nc, name, left_out)
        record = {
            "scenario": name,
            "checks": len(cfg["checks"]),
            "error": None,
            "report": None,
        }
        try:
            start = time.perf_counter()
            scenario = nc.parse_scenario(cfg)
            if timers is not None:
                timers["parse_s"] = timers.get("parse_s", 0.0) + (
                    time.perf_counter() - start
                )
            report = nc.run_scenario(scenario, h=h, seed=seed, threads=threads)
            (path,) = nc.emit_report(report, out_dir, fmt="json")
            record["report"] = path
        except Exception as exc:  # a raising check is a benchmark finding
            record["error"] = "".join(
                traceback.format_exception_only(type(exc), exc)
            ).strip()
        records.append(record)
    return records


def run_workload(nc, workload, seed, out_dir, threads=None, timers=None):
    """Run every scenario of a workload; see run_scenarios."""
    return run_scenarios(nc, WORKLOADS[workload], seed, out_dir, threads, timers)


def build_contexts(nc, workload, seed):
    """parse_scenario + build_context for every scenario of a workload."""
    for name, h, left_out in WORKLOADS[workload]:
        scenario = nc.parse_scenario(scenario_config(nc, name, left_out))
        nc.scenarios.build_context(scenario, h=h, seed=seed)
