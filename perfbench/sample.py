"""One benchmark sample: a fresh process that runs one workload once.

    python3 perfbench/sample.py --workload NAME --out DIR [--seed N]
                                [--mode timed|setup|traced] [--threads N]

Prints one JSON line.  The clock starts at this file's first statement,
so import time is part of both wall_s and setup_s.

- timed:  wall_s (first statement to last report written), setup_s
  (import nabla_calc + every parse_scenario/build_context), peak_rss_mb
  (ru_maxrss), and one record per scenario.
- setup:  setup_s alone: import, parse_scenario and build_context.
- traced: as timed, under the span tracer and tracemalloc; the trace
  summary goes to DIR/trace.json.

nabla_calc is imported from the src/ directory next to perfbench/.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def _import_package():
    sys.path.insert(0, SRC)
    start = time.perf_counter()
    import nabla_calc

    import_s = time.perf_counter() - start
    where = os.path.dirname(os.path.abspath(nabla_calc.__file__))
    if where != os.path.join(SRC, "nabla_calc"):
        raise SystemExit(f"nabla_calc imported from {where}, not from {SRC}")
    return nabla_calc, import_s


def _timed_build_context(nc, timers):
    """Wrap scenarios.build_context (run_scenario calls it from there)."""
    original = nc.scenarios.build_context

    def build_context(*args, **kwargs):
        start = time.perf_counter()
        try:
            return original(*args, **kwargs)
        finally:
            timers["build_s"] = timers.get("build_s", 0.0) + (
                time.perf_counter() - start
            )

    nc.scenarios.build_context = build_context
    return original


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--mode", choices=("timed", "setup", "traced"), default="timed")
    parser.add_argument("--threads", type=int, default=None)
    args = parser.parse_args(argv)

    from workloads import build_contexts, run_workload

    nc, import_s = _import_package()
    if args.mode == "setup":
        start = time.perf_counter()
        build_contexts(nc, args.workload, args.seed)
        print(json.dumps({"setup_s": import_s + time.perf_counter() - start}))
        return 0

    timers = {}
    trace = None
    if args.mode == "timed":
        original = _timed_build_context(nc, timers)
        try:
            records = run_workload(
                nc, args.workload, args.seed, args.out, args.threads, timers
            )
        finally:
            nc.scenarios.build_context = original
    else:
        import tracemalloc

        from tracer import Tracer

        tracemalloc.start()
        start = time.perf_counter()
        with Tracer() as tracer:
            records = run_workload(nc, args.workload, args.seed, args.out, args.threads)
        region_s = time.perf_counter() - start
        tracemalloc.stop()
        trace = os.path.join(args.out, "trace.json")
        with open(trace, "w") as fh:
            json.dump(tracer.summary(region_s), fh, sort_keys=True)
    wall_s = time.perf_counter() - T0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    out = {
        "wall_s": wall_s,
        "peak_rss_mb": peak_rss_mb,
        "records": records,
        "trace": trace,
    }
    if args.mode == "timed":
        out["setup_s"] = import_s + timers.get("parse_s", 0.0) + timers.get("build_s", 0.0)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
