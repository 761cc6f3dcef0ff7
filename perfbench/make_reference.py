"""Write perfbench/reference.json: the stored reference values of the gate.

    python3 perfbench/make_reference.py

Runs one traced sample of every workload with each scenario at its own
default seed, and stores each check's `measured` value and each
workload's largest array.  It refuses to store a run in which a check
fails the gate.  Rerun it only when a change is meant to move a residual;
the ROADMAP allows no silent drift beyond 1e-12.
"""

import json
import os
import shutil
import sys

from run import REFERENCE, ROOT, grade, run_sample
from workloads import WORKLOADS


def main():
    tmp = os.path.join(ROOT, ".perfbench_tmp", f"reference-{os.getpid()}")
    stored = {"workloads": {}, "largest_array_bytes": {}}
    try:
        for workload in sorted(WORKLOADS):
            out_dir = os.path.join(tmp, workload)
            sample = run_sample(workload, None, out_dir, mode="traced")
            _, failed, problems, payloads = grade(sample["records"], {})
            if failed or problems:
                print("\n".join(problems), file=sys.stderr)
                return 1
            scenarios = {}
            for name, raw in payloads.items():
                payload = json.loads(raw)
                scenarios[name] = {
                    "seed": payload["seed"],
                    "measured": [[r["check"], r["measured"]] for r in payload["checks"]],
                }
            stored["workloads"][workload] = scenarios
            with open(sample["trace"]) as fh:
                largest = json.load(fh)["largest_array_bytes"]
            stored["largest_array_bytes"][workload] = largest
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    with open(REFERENCE, "w") as fh:
        json.dump(stored, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
