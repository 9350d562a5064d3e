"""Span tracer that wraps the simulator's layer entry points from outside.

Nothing under ``src/`` is edited: :func:`install` rebinds public methods
and module-level names on the already-imported classes and modules of the
repeat's process, so the spans describe exactly the calls a user of each
layer makes.  Every thread keeps its own span stack, because the cluster
control loop advances replicas on a thread pool; a shared stack would
charge one thread's children to another thread's parent and drive self
times negative.

Spans are not kept one by one: each thread folds its spans into
``(calls, total_s, self_s)`` per span name as they close, which is all the
per-layer table needs and keeps memory flat on long runs.  ``self_s`` of
a name is its duration minus the time its child spans cover; for a name
that nests in itself (pricing helpers calling each other) the sum of self
times is the inclusive time of the outermost calls.

``DRAMChannel.issue`` is deliberately not wrapped: it runs hundreds of
thousands of times per cold run and a Python wrapper there would distort
every number around it.  DRAM work is counted from each channel's
``CommandStats`` instead.  For the same reason the ``KvAllocator``
spans cover its public methods that change allocation state, not the
read-only ``holds_*``/``shared_*`` accessors, which the engine calls once
per ``grow`` and which cost less than a span.
"""

from __future__ import annotations

import inspect
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, List

#: Rounding slack when checking that no self time is negative.
SELF_TIME_EPSILON_S = 1e-9


class SpanTracer:
    """Per-thread span stacks folded into per-name totals."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        #: ``{name: [calls, total_s, self_s]}`` of every thread seen.  A
        #: list, not keyed by thread id: the control loop starts a new pool
        #: each epoch, and a finished thread's id is reused.
        self._threads: List[dict] = []
        self.counters: Dict[str, int] = {}
        self.min_self_s = 0.0

    def _state(self):
        local = self._local
        stack = getattr(local, "stack", None)
        if stack is None:
            stack = local.stack = []
            local.totals = {}
            with self._lock:
                self._threads.append(local.totals)
        return stack, local.totals

    def begin(self) -> list:
        """Open a span on the calling thread; returns its frame."""
        stack, _ = self._state()
        frame = [time.perf_counter(), 0.0]
        stack.append(frame)
        return frame

    def end(self, name: str, frame: list) -> None:
        """Close the span ``frame`` opened by :meth:`begin` on this thread."""
        stack, totals = self._state()
        self._close(name, frame, stack, totals)

    def _close(self, name: str, frame: list, stack: list, totals: dict) -> None:
        duration = time.perf_counter() - frame[0]
        stack.pop()
        if stack:
            stack[-1][1] += duration
        self_s = duration - frame[1]
        if self_s < self.min_self_s:
            self.min_self_s = self_s
        entry = totals.get(name)
        if entry is None:
            totals[name] = [1, duration, self_s]
        else:
            entry[0] += 1
            entry[1] += duration
            entry[2] += self_s

    def count(self, name: str, amount: int) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + amount

    def wrap(self, owner, attr: str, name: str) -> None:
        """Rebind ``owner.attr`` to a copy that records a ``name`` span."""
        original = getattr(owner, attr)
        state, close, clock = self._state, self._close, time.perf_counter

        def traced(*args, **kwargs):
            stack, totals = state()
            frame = [clock(), 0.0]
            stack.append(frame)
            try:
                return original(*args, **kwargs)
            finally:
                close(name, frame, stack, totals)

        traced.__wrapped__ = original
        setattr(owner, attr, traced)

    def wrap_public_methods(self, cls, name: str) -> None:
        """Wrap every public plain method defined on ``cls`` itself."""
        for attr, value in list(vars(cls).items()):
            if not attr.startswith("_") and inspect.isfunction(value):
                self.wrap(cls, attr, name)

    def layers(self) -> Dict[str, dict]:
        """Per span name: calls, inclusive and self seconds, summed over
        threads."""
        merged: Dict[str, dict] = {}
        with self._lock:
            threads = list(self._threads)
        for totals in threads:
            for name, (calls, total_s, self_s) in totals.items():
                row = merged.setdefault(name, {"calls": 0, "total_s": 0.0,
                                               "self_s": 0.0})
                row["calls"] += calls
                row["total_s"] += total_s
                row["self_s"] += self_s
        return merged


def install(tracer: SpanTracer, workloads_module) -> None:
    """Wrap the public entry points of every layer the benchmark reports."""
    import repro.cluster.control as control
    import repro.core.performance as performance
    from repro.cluster.control import ClusterControlLoop, RebalancePolicy
    from repro.cluster.placement import ClusterPlacer
    from repro.core.iteration import IterationCostModel
    from repro.core.performance import PerformanceModel
    from repro.kvstore.allocator import KvAllocator
    from repro.kvstore.preemption import PreemptionPolicy
    from repro.pim.channel import PIMChannel
    from repro.serving.engine import ServingEngine
    from repro.telemetry.recorder import ScopedRecorder

    tracer.wrap(PIMChannel, "execute_program", "pim.execute_program")
    close_row = PIMChannel.close_row

    def counted_close_row(channel):
        result = close_row(channel)
        tracer.count("dram.commands", channel.dram.stats.total)
        return result

    PIMChannel.close_row = counted_close_row

    # The performance model calls the compiler through its own module
    # global, so that binding is the one to wrap.
    tracer.wrap(performance, "compile_transformer_block",
                "compiler.compile_transformer_block")
    tracer.wrap(PerformanceModel, "block_cost", "core.block_cost")
    tracer.wrap_public_methods(IterationCostModel, "core.pricing")

    tracer.wrap(ServingEngine, "begin", "serving.begin")
    tracer.wrap(ServingEngine, "advance", "serving.advance")
    tracer.wrap(ServingEngine, "estimated_capacity_qps",
                "serving.capacity_probe")
    tracer.wrap(ServingEngine, "migrate_out", "serving.migrate_out")

    for method in ("allocate", "grow", "grow_many", "release",
                   "register_prefix", "evictable_prefixes", "evict_prefix",
                   "evict_blocks", "readmit"):
        tracer.wrap(KvAllocator, method, "kvstore")
    tracer.wrap(PreemptionPolicy, "select_eviction", "kvstore")

    tracer.wrap(ClusterPlacer, "place", "cluster.place")
    tracer.wrap(RebalancePolicy, "decide", "cluster.decide")
    tracer.wrap(ClusterControlLoop, "run", "cluster.control")

    class WaitSpanExecutor(ThreadPoolExecutor):
        """The control loop's replica pool; its ``with`` block is the time
        the calling thread spends blocked on replica workers."""

        def __enter__(self):
            self._wait_frame = tracer.begin()
            return super().__enter__()

        def __exit__(self, *exc_info):
            try:
                return super().__exit__(*exc_info)
            finally:
                tracer.end("cluster.replica_wait", self._wait_frame)

    control.ThreadPoolExecutor = WaitSpanExecutor

    for emit in ("event", "span", "window_step"):
        tracer.wrap(ScopedRecorder, emit, "telemetry.record")
    # The traced workload calls attribution and export through the names
    # its own module bound; the benchmark's correctness checks call them
    # through the library modules and so stay out of these spans.
    tracer.wrap(workloads_module, "attribute_run", "telemetry.attribution")
    tracer.wrap(workloads_module, "verify_conservation",
                "telemetry.attribution")
    tracer.wrap(workloads_module, "write_jsonl", "telemetry.export")
    tracer.wrap(workloads_module, "write_perfetto", "telemetry.export")
