"""Cold-run benchmark of the CENT simulator: one workload, one seed.

Usage, from the repository root::

    python3 perfbench/run.py --workload closed_loop --seed 1 --seconds 15 --trace 0

The workload's trace is generated from the seed once; each repeat is then
a cold run in a child forked for it (``perfbench/cold_run.py``): system
construction, set-up and simulation until the result is out, timed on the
host clock.  After each full repeat, the single-replica workloads fork a
few more children that only build the system and set it up, so
``setup_s`` is a median of many samples.  Repeats fill ``--seconds`` (at
least one; none is started that should end after them), and every repeat
must reproduce the first one's simulated outcome bit for bit.

``--trace 0`` prints the end-to-end metrics (medians over the repeats).
``--trace 1`` runs untraced repeats for half the time, then one traced
repeat with spans around every layer's entry points, and prints the
per-layer metrics.  Either way the last line of standard output is one
JSON object: ``correct``, ``attempted`` and ``failed`` (simulated
requests; a repeat that crashes or fails a check counts all of its
requests as failed) and ``metrics``.  The exit code is 0 only when every
check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import sys
import time
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
    sys.exit(f"perfbench: no simulator source under {ROOT}/src/repro")
sys.path.insert(0, os.path.join(ROOT, "src"))
# This process forks a child per repeat, so it must hold no thread: numpy's
# OpenBLAS would start one per extra core when imported.  The simulator's
# only BLAS calls are dot products of PIM-register-sized vectors, which
# OpenBLAS runs on the calling thread anyway.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

from cold_run import RepeatFailed, cold_repeat, in_child, setup_repeat  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: Every run must end within this many seconds of starting.
RUN_DEADLINE_S = 170.0

SIM_METRICS = {
    "sim_goodput_tokens_per_s": "tok/s",
    "sim_ttft_p50_s": "s",
    "sim_ttft_p99_s": "s",
    "sim_tbt_p99_s": "s",
    "sim_makespan_s": "s",
}


def check_record(workload: str, record: dict, reference: Optional[dict]) -> List[str]:
    """Correctness problems of one repeat, against an earlier one if given."""
    problems = []
    expected = WORKLOADS[workload].requests
    if record["requests"] != expected:
        problems.append(f"{record['requests']} requests submitted, "
                        f"expected {expected}")
    if record["finished"] != record["requests"]:
        problems.append(f"{record['requests'] - record['finished']} requests "
                        "not FINISHED")
    if reference is not None:
        if record["digest"] != reference["digest"]:
            problems.append("simulated outcome differs between repeats "
                            f"({record['digest'][:12]} vs "
                            f"{reference['digest'][:12]})")
        if record["sim"] != reference["sim"] or \
                record["counts"] != reference["counts"]:
            problems.append("simulated metrics differ between repeats")
    return problems


def run_repeats(workload: str, seed: int, seconds: float, trace: bool,
                deadline: float):
    """Untraced cold repeats for ``seconds`` (at least one; no repeat is
    started that should end after them), each followed by the workload's
    set-up-only repeats, then, for ``trace``, one traced repeat after half
    that time.

    Every repeat is checked against the first; returns the untraced
    records, the set-up times, the traced record (or None), requests
    attempted and failed, and the problems found.
    """
    spec = WORKLOADS[workload]
    inputs = spec.make_inputs(seed)
    records: List[dict] = []
    setups: List[float] = []
    problems: List[str] = []
    counts = {"attempted": 0, "failed": 0}

    def repeat(label: str, traced: bool) -> Optional[dict]:
        counts["attempted"] += spec.requests
        try:
            record = in_child(
                lambda: cold_repeat(workload, inputs, traced),
                deadline - time.monotonic())
        except RepeatFailed as exc:
            problems.append(f"{label}: {exc}")
            counts["failed"] += spec.requests
            return None
        issues = check_record(workload, record, records[0] if records else None)
        if issues:
            problems.extend(f"{label}: {issue}" for issue in issues)
            counts["failed"] += spec.requests
        return record

    budget = seconds / 2 if trace else seconds
    start = time.monotonic()
    while not problems:
        record = repeat(f"repeat {len(records) + 1}", False)
        if record is None:
            break
        records.append(record)
        setups.append(record["setup_s"])
        for _ in range(spec.setup_repeats):
            try:
                setups.append(in_child(
                    lambda: setup_repeat(workload, inputs),
                    deadline - time.monotonic())["setup_s"])
            except RepeatFailed as exc:
                problems.append(f"set-up repeat {len(setups) + 1}: {exc}")
                break
        # Start another repeat only if it should end within the budget.
        elapsed = time.monotonic() - start
        if elapsed * (len(records) + 1) / len(records) > budget:
            break
    traced = repeat("traced repeat", True) if trace and not problems else None
    return (records, setups, traced, counts["attempted"], counts["failed"],
            problems)


def end_to_end_metrics(records: List[dict],
                       setups: List[float]) -> Dict[str, dict]:
    rates = [r["requests"] / r["wall_s"] for r in records]
    metrics = {
        "sim_requests_per_s": {"value": statistics.median(rates),
                               "unit": "req/s"},
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "peak_rss_mb": {"value": statistics.median(r["peak_rss_mb"]
                                                   for r in records),
                        "unit": "MB"},
    }
    for name, unit in SIM_METRICS.items():
        metrics[name] = {"value": records[0]["sim"][name], "unit": unit}
    return metrics


def per_layer_metrics(records: List[dict], traced: dict) -> Dict[str, dict]:
    layers = traced["layers"]

    def calls(name):
        return layers.get(name, {}).get("calls", 0)

    def total(name):
        return layers.get(name, {}).get("total_s", 0.0)

    def self_s(name):
        return layers.get(name, {}).get("self_s", 0.0)

    counts = traced["counts"]
    blocks = calls("compiler.compile_transformer_block")
    block_calls = calls("core.block_cost")
    untraced_wall = statistics.median(r["wall_s"] for r in records)
    values = {
        "dram.commands": (traced["counters"].get("dram.commands", 0), "count"),
        "pim.programs": (calls("pim.execute_program"), "count"),
        "pim.execute_s": (total("pim.execute_program"), "s"),
        "compiler.blocks": (blocks, "count"),
        "compiler.compile_s": (total("compiler.compile_transformer_block"), "s"),
        "core.block_cost_calls": (block_calls, "count"),
        "core.block_cost_hit_rate": (
            1.0 - blocks / block_calls if block_calls else 0.0, "ratio"),
        "core.block_cost_s": (total("core.block_cost"), "s"),
        "core.pricing_calls": (calls("core.pricing"), "count"),
        "core.pricing_self_s": (self_s("core.pricing"), "s"),
        "serving.begin_s": (total("serving.begin"), "s"),
        "serving.advance_calls": (calls("serving.advance"), "count"),
        "serving.advance_self_s": (self_s("serving.advance"), "s"),
        "serving.capacity_probes": (calls("serving.capacity_probe"), "count"),
        "serving.capacity_probe_s": (total("serving.capacity_probe"), "s"),
        "serving.migrations": (calls("serving.migrate_out"), "count"),
        "kvstore.calls": (calls("kvstore"), "count"),
        "kvstore.self_s": (self_s("kvstore"), "s"),
        "kvstore.preemptions": (counts["kvstore.preemptions"], "count"),
        "kvstore.prefix_hit_rate": (counts["kvstore.prefix_hit_rate"], "ratio"),
        "kvstore.cow_blocks": (counts["kvstore.cow_blocks"], "count"),
        "cluster.place_calls": (calls("cluster.place"), "count"),
        "cluster.place_s": (total("cluster.place"), "s"),
        "cluster.decide_calls": (calls("cluster.decide"), "count"),
        "cluster.decide_s": (total("cluster.decide"), "s"),
        "cluster.control_self_s": (self_s("cluster.control"), "s"),
        "cluster.replica_wait_s": (total("cluster.replica_wait"), "s"),
        "cluster.epochs": (counts.get("cluster.epochs", 0), "count"),
        "cluster.rebalances": (counts.get("cluster.rebalances", 0), "count"),
        "cluster.migrated_requests": (
            counts.get("cluster.migrated_requests", 0), "count"),
        "telemetry.events": (counts["telemetry.events"], "count"),
        "telemetry.record_s": (total("telemetry.record"), "s"),
        "telemetry.attribution_s": (self_s("telemetry.attribution"), "s"),
        "telemetry.export_s": (total("telemetry.export"), "s"),
        "trace.wall_s": (traced["wall_s"], "s"),
        "trace.overhead_frac": (traced["wall_s"] / untraced_wall - 1.0, "ratio"),
        "host.calib_s": (statistics.median(
            r["calib_s"] for r in records + [traced]), "s"),
    }
    return {name: {"value": value, "unit": unit}
            for name, (value, unit) in values.items()}


def print_table(title: str, metrics: Dict[str, dict]) -> None:
    print(title)
    for name, metric in metrics.items():
        value = metric["value"]
        text = f"{value:,}" if isinstance(value, int) else f"{value:.6g}"
        print(f"  {name:28s} {text:>16s} {metric['unit']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A terminated run unwinds like an interrupted one, so the repeat's
    # child is killed and waited for on the way out.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    deadline = time.monotonic() + RUN_DEADLINE_S
    records, setups, traced, attempted, failed, problems = run_repeats(
        args.workload, args.seed, args.seconds, bool(args.trace), deadline)

    repeats = records + ([traced] if traced is not None else [])
    walls = ", ".join(f"{r['wall_s']:.3f}" for r in repeats)
    calibrations = ", ".join(f"{r['calib_s']:.4f}" for r in repeats)
    print(f"{args.workload} seed {args.seed}: {len(repeats)} cold repeats "
          f"and {len(setups) - len(records)} set-up-only repeats; "
          f"wall {walls} s; host calibration {calibrations} s")
    metrics: Dict[str, dict] = {}
    if args.trace and traced is not None:
        metrics = per_layer_metrics(records, traced)
        print_table("per-layer metrics (traced repeat)", metrics)
    elif not args.trace and records:
        metrics = end_to_end_metrics(records, setups)
        print_table("end-to-end metrics (median of untraced repeats)", metrics)
    print(f"  {'failed_frac':28s} {failed / attempted:>16.6g} ratio")
    for problem in problems:
        print(f"perfbench: {problem}", file=sys.stderr)
    correct = not problems
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
