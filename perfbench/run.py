"""nabla-calc benchmark: end-to-end and per-layer metrics of its workloads.

    python3 perfbench/run.py --workload NAME|all [--seed N] [--seconds S]
                             [--trace 0|1]

Every sample is a fresh process (perfbench/sample.py) that drives the
public API: parse_scenario -> run_scenario(seed) -> emit_report (json)
into a temporary directory under .perfbench_tmp/.  Without --seed each
scenario runs at its own default seed, where the stored reference values
in perfbench/reference.json apply.

One run of a workload:
  1. one warm-up set-up process (fills the bytecode cache), then
     SETUP_PROBES set-up processes: import + parse_scenario + build_context;
  2. timed samples, one after another, for about --seconds: the next
     sample starts only if half a mean sample still fits (at least one);
  3. builtins only: one light-suite sample with threads=2, outside the
     timing, whose reports must match the serial ones byte for byte;
  4. --trace 1 only: one traced sample (span tracer + tracemalloc).

The correctness gate runs on every sample.  A check fails when its
verdict fails, its measured value is not finite, it raises, or (at the
reference seed) it drifts more than 1e-12 from the stored reference.
Report payloads must also be byte-identical across all samples of a run,
serial, threaded and traced.

Output: a table of every metric with its unit, an environment line, and
as the last line one JSON object with the keys correct, attempted,
failed and metrics (the end_to_end metrics of BENCHMARK.json with
--trace 0, its per_layer metrics with --trace 1).
"""

import argparse
import importlib.util
import itertools
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SAMPLE = os.path.join(HERE, "sample.py")
REFERENCE = os.path.join(HERE, "reference.json")
SPEC = os.path.join(ROOT, "BENCHMARK.json")

sys.path.insert(0, HERE)
from workloads import WORKLOADS  # noqa: E402

SETUP_PROBES = 6
DRIFT_LIMIT = 1e-12
RUN_DEADLINE_S = 170.0


class BenchError(Exception):
    """A sample failed to run; the benchmark prints no result."""


def _number(x):
    """A payload number; json spells non-finite values as strings."""
    return math.nan if x is None else float(x)


def run_sample(workload, seed, out_dir, mode="timed", threads=None, deadline=None):
    os.makedirs(out_dir, exist_ok=True)
    cmd = [sys.executable, SAMPLE, "--workload", workload, "--out", out_dir, "--mode", mode]
    if seed is not None:
        cmd += ["--seed", str(seed)]
    if threads is not None:
        cmd += ["--threads", str(threads)]
    timeout = None if deadline is None else max(5.0, deadline - time.monotonic())
    try:
        proc = subprocess.run(
            cmd, capture_output=True, text=True, timeout=timeout, cwd=ROOT
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} sample of {workload} exceeded {timeout:.0f} s") from exc
    if proc.returncode != 0:
        tail = "\n".join(proc.stderr.strip().splitlines()[-5:])
        raise BenchError(f"{mode} sample of {workload} exited {proc.returncode}:\n{tail}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def grade(records, reference):
    """Apply the correctness gate to one sample's records.

    Returns (attempted, failed, problems, payload bytes per scenario).
    """
    attempted = failed = 0
    problems = []
    payloads = {}
    for rec in records:
        name = rec["scenario"]
        if rec["error"] is not None:
            attempted += rec["checks"]
            failed += rec["checks"]
            problems.append(f"{name}: raised {rec['error']}")
            continue
        with open(rec["report"], "rb") as fh:
            raw = fh.read()
        payloads[name] = raw
        payload = json.loads(raw)
        ref = reference.get(name)
        if ref is not None and ref["seed"] != payload["seed"]:
            ref = None
        if len(payload["checks"]) != rec["checks"]:
            problems.append(f"{name}: {len(payload['checks'])} rows for {rec['checks']} checks")
        for i, row in enumerate(payload["checks"]):
            attempted += 1
            measured = _number(row["measured"])
            why = []
            if not row["passed"]:
                why.append("verdict fail")
            if not math.isfinite(measured):
                why.append("non-finite measured")
            if ref is not None:
                ref_name, ref_value = ref["measured"][i]
                if ref_name != row["check"]:
                    why.append(f"reference lists {ref_name}")
                elif not abs(measured - ref_value) <= DRIFT_LIMIT:
                    why.append(f"drift {measured - ref_value:.3e} from reference")
            if why:
                failed += 1
                problems.append(
                    f"{name}/{row['check']}: measured={row['measured']} "
                    f"tolerance={row['tolerance']}: {', '.join(why)}"
                )
        for row in payload["norms"]:
            value = _number(row["value"])
            if not math.isfinite(value) or not row["passed"]:
                problems.append(f"{name}: norm row s={row['s']} p={row['p']} value={row['value']}")
    return attempted, failed, problems, payloads


def layer_metrics(trace, untraced_wall, traced_wall):
    """Flatten a trace summary into named per-layer metrics."""
    out = {}
    for fn, row in trace["functions"].items():
        out.update({f"{fn}.{key}": value for key, value in row.items()})
    out.update(trace["counters"])
    for layer, row in trace["layers"].items():
        out[f"layer.{layer}.self_s"] = row["self_s"]
        out[f"layer.{layer}.share"] = row["share"]
    for check, row in trace["checks"].items():
        out[f"checks.{check}.wall_s"] = row["wall_s"]
        out[f"checks.{check}.peak_alloc_mb"] = row["peak_alloc_mb"]
    out["trace.overhead_frac"] = traced_wall / untraced_wall - 1.0
    out["trace.largest_array_bytes"] = trace["largest_array_bytes"]
    return out


def bench_workload(workload, seed, seconds, trace, tmp, deadline):
    stored = _load_json(REFERENCE)
    reference = stored["workloads"][workload]
    counter = itertools.count()

    def sample(which=workload, **kw):
        out_dir = os.path.join(tmp, f"s{next(counter)}")
        return run_sample(which, seed, out_dir, deadline=deadline, **kw)

    sample(mode="setup")  # warm-up: bytecode cache and file cache
    setups = [sample(mode="setup")["setup_s"] for _ in range(SETUP_PROBES)]

    timed = []
    start = time.monotonic()
    while not timed or (
        time.monotonic() - start + 0.5 * statistics.mean(s["wall_s"] for s in timed)
        < seconds
    ):
        timed.append(sample())
    extra = []
    if workload == "builtins":
        extra.append(("threads=2", sample("light-suite", threads=2)))
    traced = sample(mode="traced") if trace else None
    if traced is not None:
        extra.append(("traced", traced))

    attempted = failed = 0
    problems = []
    first = None
    for label, s in [(f"sample {i}", s) for i, s in enumerate(timed)] + extra:
        a, f, p, payloads = grade(s["records"], reference)
        attempted, failed = attempted + a, failed + f
        problems += [f"{label}: {msg}" for msg in p]
        if first is None:
            first = payloads
        for name in sorted(payloads):
            if first.get(name) != payloads[name]:
                problems.append(f"{label}: {name} payload differs from sample 0")

    walls = [s["wall_s"] for s in timed]
    e2e = {
        "wall_s": statistics.median(walls),
        "wall_max_s": max(walls),
        "setup_s": statistics.median(setups + [s["setup_s"] for s in timed]),
        "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in timed),
    }
    layers = {}
    largest = stored["largest_array_bytes"][workload]
    if traced is not None:
        trace_summary = _load_json(traced["trace"])
        layers = layer_metrics(trace_summary, e2e["wall_s"], traced["wall_s"])
        largest = trace_summary["largest_array_bytes"]
    return {
        "workload": workload,
        "samples": len(timed),
        "setup_samples": len(setups) + len(timed),
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "end_to_end": e2e,
        "per_layer": layers,
        "largest_array_bytes": largest,
    }


def _load_json(path):
    with open(path) as fh:
        return json.load(fh)


def _cache_sizes():
    sizes = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    try:
        for entry in sorted(os.listdir(base)):
            with open(os.path.join(base, entry, "level")) as fh:
                level = fh.read().strip()
            with open(os.path.join(base, entry, "type")) as fh:
                kind = fh.read().strip()
            with open(os.path.join(base, entry, "size")) as fh:
                size = fh.read().strip()
            if kind != "Instruction":
                sizes[f"L{level}"] = size
    except OSError:
        pass
    return sizes


def environment():
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba": importlib.util.find_spec("numba") is not None,
        "nproc": len(os.sched_getaffinity(0)),
        "cache": _cache_sizes(),
    }


def select(values, wanted):
    out = {}
    for m in wanted:
        if m["name"] not in values:
            raise BenchError(f"metric {m['name']} was not measured")
        out[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    return out


def print_table(result, spec, seed):
    print(
        f"== {result['workload']}  seed={'default' if seed is None else seed}  "
        f"samples={result['samples']}  setup samples={result['setup_samples']}"
    )
    frac = result["failed"] / result["attempted"]
    rows = [
        ("checks_failed_frac", frac, "1"),
        ("checks_attempted", result["attempted"], "count"),
        ("largest_array_bytes", result["largest_array_bytes"], "B"),
    ]
    rows += [(m["name"], result["end_to_end"][m["name"]], m["unit"]) for m in spec["end_to_end"]]
    layers = result["per_layer"]
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    rows += [(name, layers[name], unit) for name, unit in units.items() if name in layers]
    rows += [
        (name, value, "count" if name.endswith(".calls") else "s")
        for name, value in sorted(layers.items())
        if name not in units and value
    ]
    for name, value, unit in rows:
        shown = f"{value:>16d}" if isinstance(value, int) else f"{value:>16.6g}"
        print(f"  {name:<52} {shown} {unit}")
    for msg in result["problems"][:20]:
        print(f"  GATE  {msg}")
    if len(result["problems"]) > 20:
        print(f"  GATE  ... and {len(result['problems']) - 20} more")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "nabla_calc", "__init__.py")):
        print(f"error: no src/nabla_calc package under {ROOT}", file=sys.stderr)
        return 2
    spec = _load_json(SPEC)
    if args.workload == "all":
        workloads = [w["name"] for w in spec["workloads"]]
    else:
        workloads = [args.workload]
    tmp = os.path.join(ROOT, ".perfbench_tmp", str(os.getpid()))
    results = []
    try:
        for w in workloads:
            deadline = time.monotonic() + RUN_DEADLINE_S
            results.append(
                bench_workload(
                    w, args.seed, args.seconds, args.trace, os.path.join(tmp, w), deadline
                )
            )
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(tmp))
        except OSError:
            pass

    env = environment()
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    try:
        for r in results:
            print_table(r, spec, args.seed)
            picked = select(r["per_layer"] if args.trace else r["end_to_end"], wanted)
            prefix = "" if len(results) == 1 else r["workload"] + "."
            metrics.update({prefix + k: v for k, v in picked.items()})
            env[f"largest_array_bytes.{r['workload']}"] = r["largest_array_bytes"]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print("env " + json.dumps(env, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": all(r["failed"] == 0 and not r["problems"] for r in results),
                "attempted": sum(r["attempted"] for r in results),
                "failed": sum(r["failed"] for r in results),
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
