"""Run-to-run spread of the end-to-end metrics over several seeds.

Usage, from the repository root::

    python3 perfbench/spread.py --seeds 10

Runs ``perfbench/run.py --trace 0`` once for each seed from 1 to
``--seeds`` and each workload in ``BENCHMARK.json``, alternating
the workload order from one seed to the next so a slow spell of the host
does not always land on the same workload.  For each workload and
end-to-end metric it prints the median, the distance between the first
and third quartiles (``statistics.quantiles(values, n=4)``) as a share of
the median, and that share against the metric's bound in
``BENCHMARK.json``.  The host calibration of every run is printed beside
its results; nothing is divided by it.  Exits non-zero if any run fails.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        bench = json.load(handle)
    workloads = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", type=int, default=10)
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    values = {w: {name: [] for name in bounds} for w in workloads}
    failures = 0
    for index in range(args.seeds):
        seed = index + 1
        order = workloads if index % 2 == 0 else workloads[::-1]
        for workload in order:
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"),
                 "--workload", workload, "--seed", str(seed),
                 "--seconds", str(bench["run_seconds"]), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, check=False)
            lines = proc.stdout.strip().splitlines()
            calibration = next((line for line in lines
                                if "host calibration" in line), "")
            if proc.returncode != 0 or not lines:
                failures += 1
                print(f"FAILED {workload} seed {seed}: {proc.stderr.strip()}")
                continue
            result = json.loads(lines[-1])
            for name, metric in result["metrics"].items():
                values[workload][name].append(metric["value"])
            rate = result["metrics"]["sim_requests_per_s"]["value"]
            setup = result["metrics"]["setup_s"]["value"]
            print(f"{workload:13s} seed {seed:3d}: {rate:10.2f} req/s, "
                  f"setup {setup:.4f} s; {calibration.split(':', 1)[-1].strip()}",
                  flush=True)

    print()
    print(f"{'workload':13s} {'metric':26s} {'median':>12s} {'spread':>8s} "
          f"{'bound':>6s}")
    for workload in workloads:
        for name, bound in bounds.items():
            series = values[workload][name]
            if len(series) < 2:
                continue
            median = statistics.median(series)
            q1, _, q3 = statistics.quantiles(series, n=4)
            spread = (q3 - q1) / median
            flag = "" if spread < bound / 3 else "  over a third of bound"
            print(f"{workload:13s} {name:26s} {median:12.6g} {spread:8.4f} "
                  f"{bound:6.3f}{flag}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
