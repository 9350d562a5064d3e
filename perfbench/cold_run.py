"""Cold repeats of one workload, each in a child forked for it.

``run.py`` imports the simulator and builds the workload's inputs once,
then forks a child per repeat.  The parent never simulates, so every child
starts as a fresh interpreter would after importing: the simulator's
block-cost and set-up caches on its objects and its module-level memos are
empty, and nothing a child fills survives it.  Forking spares each repeat
the interpreter start, the imports and the trace generation (about a
second on ``decode_heavy``), so more repeats fit in a run.

A child sends one JSON record back through a pipe and leaves with
``os._exit``; a child that raises sends its traceback instead.
"""

from __future__ import annotations

import json
import os
import select
import signal
import statistics
import sys
import time
import traceback
from typing import Callable

import workloads
from tracer import SELF_TIME_EPSILON_S, SpanTracer, install

#: Iterations of the host-speed calibration loop (about 20 ms per round).
CALIBRATION_ITERATIONS = 200_000
CALIBRATION_ROUNDS = 5


class RepeatFailed(Exception):
    """A repeat crashed, timed out or sent no record."""


def calibrate_s() -> float:
    """Median time of a fixed pure-Python loop: a record of host speed.

    Reported beside each run so a slow host shows; no metric is ever
    divided by it.
    """
    times = []
    for _ in range(CALIBRATION_ROUNDS):
        start = time.perf_counter()
        total = 0
        for value in range(CALIBRATION_ITERATIONS):
            total += value * value % 7
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def cold_repeat(workload: str, inputs, traced: bool) -> dict:
    """One full repeat, optionally with per-layer spans; runs in the child."""
    calib_s = calibrate_s()
    tracer = None
    if traced:
        tracer = SpanTracer()
        install(tracer, workloads)
    clock = workloads.Clock()
    outcome = workloads.WORKLOADS[workload].run(inputs, clock)
    record = {
        "calib_s": calib_s,
        "wall_s": clock.wall_s,
        "setup_s": clock.setup_s,
        "peak_rss_mb": clock.peak_rss_mb,
        "requests": outcome.requests,
        "finished": outcome.finished,
        "digest": outcome.digest,
        "sim": outcome.sim,
        "counts": outcome.counts,
    }
    if tracer is not None:
        if tracer.min_self_s < -SELF_TIME_EPSILON_S:
            raise AssertionError(
                f"negative span self time {tracer.min_self_s!r} s")
        record["layers"] = tracer.layers()
        record["counters"] = tracer.counters
    return record


def setup_repeat(workload: str, inputs) -> dict:
    """Construction and set-up only; runs in the child."""
    clock = workloads.Clock()
    workloads.WORKLOADS[workload].run(inputs, clock, setup_only=True)
    return {"setup_s": clock.setup_s}


def in_child(task: Callable[[], dict], timeout_s: float) -> dict:
    """Run ``task`` in a forked child and return the record it builds.

    The child is killed if it has not finished within ``timeout_s``, and
    is always waited for.
    """
    read_fd, write_fd = os.pipe()
    sys.stdout.flush()
    sys.stderr.flush()
    pid = os.fork()
    if pid == 0:
        # The child must never unwind into the parent's code.
        code = 1
        try:
            os.close(read_fd)
            try:
                payload = json.dumps({"record": task()})
                code = 0
            except BaseException:
                payload = json.dumps({"error": traceback.format_exc()[-2000:]})
            with os.fdopen(write_fd, "w", encoding="utf-8") as pipe:
                pipe.write(payload)
        finally:
            os._exit(code)

    os.close(write_fd)
    deadline = time.monotonic() + max(timeout_s, 1.0)
    chunks = []
    reaped = False
    try:
        with os.fdopen(read_fd, "rb") as pipe:
            while True:
                remaining = deadline - time.monotonic()
                if remaining <= 0 or not select.select([pipe], [], [],
                                                       remaining)[0]:
                    raise RepeatFailed(f"timed out after {timeout_s:.0f} s")
                chunk = os.read(pipe.fileno(), 1 << 16)
                if not chunk:
                    break
                chunks.append(chunk)
        _, status = os.waitpid(pid, 0)
        reaped = True
    finally:
        if not reaped:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    try:
        payload = json.loads(b"".join(chunks))
    except json.JSONDecodeError as exc:
        raise RepeatFailed(f"no record; exit status {status}") from exc
    if "error" in payload:
        raise RepeatFailed(payload["error"])
    return payload["record"]
