"""The benchmark's workloads: inputs from a seed, one cold run, its outcome.

Each workload is a pair of functions.  ``make_inputs(seed)`` builds the
request trace; ``run.py`` calls it once per benchmark run, before it forks
the cold repeats.  ``run(inputs, clock)`` builds the system from nothing,
serves the trace and returns the :class:`Outcome`; with
``setup_only=True`` it returns ``None`` as soon as set-up is done.

Every rate, capacity and trace size is a constant here; nothing is
calibrated from the program at run time, so a change to the simulator can
never move the inputs it is measured on.  Each workload serves a fixed
request population (lengths and shared prefixes drawn once from
``POPULATION_SEED``); the run's seed shuffles the order the requests
arrive in and draws their arrival times.  Drawing the population from the
run's seed as well made the simulated load itself a lottery: the churn
workload's eight tenant prefixes moved its real capacity across its arrival rate, so
host time differed by up to 1.8x between seeds and TTFT by more.

A run is timed from system construction (after the trace is generated)
until the result is out.  ``setup_s`` ends where simulation can start:
after ``ServingEngine.begin`` on the single-replica workloads, after the
run's initial ``ClusterPlacer.place`` (with its capacity probes) on
``closed_loop``.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import struct
import tempfile
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, NamedTuple, Optional

import numpy as np

from repro import LLAMA2_7B, CentConfig, CentSystem
from repro.cluster.engine import ClusterEngine
from repro.cluster.tenant import TenantSpec
from repro.serving.engine import ServingEngine
from repro.serving.metrics import aggregate_serving_result
from repro.serving.request import RequestState
from repro.telemetry import TraceRecorder, attribution
from repro.telemetry.attribution import attribute_run, verify_conservation
from repro.telemetry.export import write_jsonl, write_perfetto
from repro.workloads.queries import (
    bursty_arrivals,
    poisson_arrivals,
    prefix_reuse_queries,
    sharegpt_like_queries,
    with_arrivals,
)

#: Llama2-7B weights plus three full 4,096-token KV caches:
#: ``ModelMemoryProfile(LLAMA2_7B).parameter_bytes
#: + 3 * kv_cache_bytes_per_query(4096)`` on the seed tree, frozen here so
#: a memory-model change cannot resize the workload.
CHURN_CAPACITY_BYTES = 19_919_273_984
#: About 1.5x the 13.6 req/s the churn engine sustains on its
#: population on the seed tree, so the queue grows steadily.  At 14 req/s,
#: the edge of capacity, TTFT swung 2x from one seed to the next.
CHURN_RATE_QPS = 20.0
#: The seed every workload draws its request population from.
POPULATION_SEED = 1
#: Squared coefficient of variation of closed_loop's arrival gaps.  At the
#: library default of 4, a handful of huge bursts decided each run and the
#: worst tenant's simulated TTFT p50 moved by ~15% between seeds; at 2 the
#: bursts still drive the re-placements (3 rebalances on seed 1).
CLOSED_LOOP_BURSTINESS = 2.0


class CorrectnessError(RuntimeError):
    """A run finished but its simulated outcome fails a benchmark check."""


@dataclass
class Outcome:
    """What one cold run produced, host timings apart."""

    requests: int
    finished: int
    digest: str
    sim: Dict[str, float]
    counts: Dict[str, float]


class Clock:
    """Host-time marks of one run: start, set-up done, result out.

    The process's peak resident memory is read when the result is out, so
    the benchmark's own checks afterwards do not count towards it.
    """

    def __init__(self) -> None:
        self.marks: Dict[str, float] = {}
        self.peak_rss_mb = 0.0

    def mark(self, name: str) -> None:
        self.marks[name] = time.perf_counter()
        if name == "done":
            self.peak_rss_mb = resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0

    @property
    def setup_s(self) -> float:
        return self.marks["setup"] - self.marks["start"]

    @property
    def wall_s(self) -> float:
        return self.marks["done"] - self.marks["start"]


# ---------------------------------------------------------------- digests

def _hash_requests(digest, requests) -> None:
    """Per-request timestamps, states, preemption counts and TBT samples."""
    # ``None`` marks (never reached) become NaN.
    marks = np.array(
        [(r.request_id, r.arrival_time_s, r.admitted_time_s,
          r.first_token_time_s, r.last_token_time_s, r.finish_time_s,
          r.preempted_count) for r in requests],
        dtype=np.float64)
    digest.update(marks.tobytes())
    digest.update(" ".join(r.state.value for r in requests).encode())
    # struct.pack gives the bytes of the float64 array, twice as fast.
    for request in requests:
        samples = request.tbt_samples_s
        digest.update(struct.pack(f"q{len(samples)}d", len(samples), *samples))


def _hash_timeline(digest, timeline) -> None:
    digest.update(np.asarray(timeline, dtype=np.float64).tobytes())


# ---------------------------------------------------------- single replica

def _serve(engine: ServingEngine, trace, sla_s: float, clock: Clock, *,
           traced: bool, setup_only: bool, export_dir=None):
    """begin + advance + aggregate: ``ServingEngine.run`` with a set-up mark.

    Returns ``None`` right after set-up when ``setup_only``.
    """
    telemetry = TraceRecorder() if traced else None
    state = engine.begin(trace, sla_latency_s=sla_s, telemetry=telemetry)
    clock.mark("setup")
    if setup_only:
        return None
    run = engine.advance(state)
    result = aggregate_serving_result(
        run.requests,
        model_name=engine.model.name,
        plan_name=run.plan.name,
        makespan_s=run.makespan_s,
        prefill_time_s=run.prefill_time_s,
        decode_time_s=run.decode_time_s,
        decode_step_tokens=run.decode_step_tokens,
        peak_memory_bytes=run.peak_memory_bytes,
        memory_capacity_bytes=run.memory_capacity_bytes,
        sla_latency_s=sla_s,
        queue_depth_timeline=run.queue_depth_timeline,
    )
    if traced:
        # Part of the traced workload: what a user of the trace pays for.
        # These names are the ones the tracer wraps as telemetry spans.
        verify_conservation(attribute_run(run))
        telemetry.finalize()
        write_jsonl(telemetry, os.path.join(export_dir, "run.jsonl"))
        perfetto = os.path.join(export_dir, "run.perfetto.json")
        write_perfetto(telemetry, perfetto)
    clock.mark("done")
    events = 0
    if traced:
        events = sum(1 for _ in telemetry.iter_events())
        with open(perfetto, encoding="utf-8") as handle:
            if not json.load(handle).get("traceEvents"):
                raise CorrectnessError("Perfetto export holds no events")
    return run, result, events


def _single_replica_outcome(run, result, events: int) -> Outcome:
    # A benchmark check, after the clock stopped and outside the telemetry
    # spans (called through the module, not the names the tracer wraps).
    attribution.verify_conservation(attribution.attribute_run(run))
    digest = hashlib.sha256()
    _hash_requests(digest, run.requests)
    _hash_timeline(digest, run.queue_depth_timeline)
    finished = sum(r.state is RequestState.FINISHED for r in run.requests)
    return Outcome(
        requests=len(run.requests),
        finished=finished,
        digest=digest.hexdigest(),
        sim={
            "sim_goodput_tokens_per_s": result.goodput_tokens_per_s,
            "sim_ttft_p50_s": result.ttft.p50_s,
            "sim_ttft_p99_s": result.ttft.p99_s,
            "sim_tbt_p99_s": result.tbt.p99_s,
            "sim_makespan_s": result.makespan_s,
        },
        counts={
            "kvstore.preemptions": result.num_preemptions,
            "kvstore.prefix_hit_rate": result.prefix_hit_rate,
            "kvstore.cow_blocks": result.num_cow_blocks,
            "telemetry.events": events,
        },
    )


def _arrivals_in_seed_order(queries, seed: int, arrival_times,
                            rate_qps: float, start_s: float = 0.0):
    """The fixed population in an order drawn from ``seed``, timed.

    The drawn arrival times are stretched so the last one lands at exactly
    ``start_s + len(queries) / rate_qps``: the stated rate is the realised
    rate, and the seed only shapes the process.  Left free, the realised
    rate of ``closed_loop``'s 500 arrivals per tenant (burstiness 2) has a
    6% standard deviation between seeds, and its overload moves with it.
    """
    times = np.asarray(arrival_times, dtype=np.float64) - start_s
    times *= len(queries) / rate_qps / times[-1]
    order = np.random.default_rng(seed).permutation(len(queries))
    return with_arrivals([queries[i] for i in order],
                         (start_s + times).tolist())


def decode_heavy_inputs(seed: int):
    count = 10_000
    queries = sharegpt_like_queries(
        count, seed=POPULATION_SEED, mean_prompt_tokens=96.0,
        mean_decode_tokens=1536.0, sigma=0.4, max_context=2048)
    return _arrivals_in_seed_order(
        queries, seed, poisson_arrivals(count, 100.0, seed=seed + 1), 100.0)


def decode_heavy(trace, clock: Clock, setup_only: bool = False
                 ) -> Optional[Outcome]:
    clock.mark("start")
    system = CentSystem(CentConfig(num_devices=16), LLAMA2_7B)
    engine = ServingEngine(system, admission="paged")
    served = _serve(engine, trace, 600.0, clock, traced=False,
                    setup_only=setup_only)
    return None if served is None else _single_replica_outcome(*served)


def traced_churn_inputs(seed: int):
    count = 3_000
    queries = prefix_reuse_queries(
        count, num_tenants=8, reuse_fraction=0.7, mean_prefix_tokens=512.0,
        seed=POPULATION_SEED, max_context=4096)
    return _arrivals_in_seed_order(
        queries, seed, poisson_arrivals(count, CHURN_RATE_QPS, seed=seed + 1),
        CHURN_RATE_QPS)


def traced_churn(trace, clock: Clock, setup_only: bool = False
                 ) -> Optional[Outcome]:
    with tempfile.TemporaryDirectory(dir=os.getcwd(),
                                     prefix=".perfbench-") as export_dir:
        clock.mark("start")
        system = CentSystem(CentConfig(num_devices=8), LLAMA2_7B)
        engine = ServingEngine(system, admission="paged",
                               memory_capacity_bytes=CHURN_CAPACITY_BYTES)
        served = _serve(engine, trace, 60.0, clock, traced=True,
                        setup_only=setup_only, export_dir=export_dir)
    return None if served is None else _single_replica_outcome(*served)


# ----------------------------------------------------------------- cluster

def closed_loop_inputs(seed: int):
    per_tenant = 500
    tenants = []
    for index, name in enumerate(("alpha", "beta")):
        queries = sharegpt_like_queries(
            per_tenant, seed=POPULATION_SEED + index, mean_prompt_tokens=96.0,
            mean_decode_tokens=512.0, sigma=0.5, max_context=2048)
        start_s = 6.0 * index
        arrivals = bursty_arrivals(
            per_tenant, 25.0, burstiness=CLOSED_LOOP_BURSTINESS,
            seed=seed + 2 * index + 1, start_s=start_s)
        trace = _arrivals_in_seed_order(queries, seed + 2 * index, arrivals,
                                        25.0, start_s)
        tenants.append(TenantSpec(name, model=LLAMA2_7B, sla_latency_s=30.0,
                                  trace=trace))
    return tenants


def closed_loop(tenants, clock: Clock) -> Outcome:
    clock.mark("start")
    cluster = ClusterEngine(CentConfig(num_devices=16), tenants,
                            placement_policy="sla_aware", admission="paged")
    # Set-up ends when the run's own initial placement returns.
    placer = cluster.placer
    place = placer.place

    def place_then_mark(*args, **kwargs):
        placement = place(*args, **kwargs)
        if "setup" not in clock.marks:
            clock.mark("setup")
        return placement

    placer.place = place_then_mark
    result = cluster.run(rebalance="epoch", epoch_s=2.0)
    clock.mark("done")

    digest = hashlib.sha256()
    for name in sorted(result.tenant_results):
        digest.update(repr(result.tenant_results[name]).encode())
    digest.update(repr((result.epoch_timeline, result.rebalance_log,
                        result.num_migrated_requests)).encode())
    per_tenant = result.tenant_results.values()
    return Outcome(
        requests=sum(len(t.trace) for t in tenants),
        finished=sum(r.num_completed for r in per_tenant),
        digest=digest.hexdigest(),
        # Latencies of the worst tenant.
        sim={
            "sim_goodput_tokens_per_s": result.aggregate_goodput_tokens_per_s,
            "sim_ttft_p50_s": max(r.ttft.p50_s for r in per_tenant),
            "sim_ttft_p99_s": max(r.ttft.p99_s for r in per_tenant),
            "sim_tbt_p99_s": max(r.tbt.p99_s for r in per_tenant),
            "sim_makespan_s": result.makespan_s,
        },
        counts={
            "kvstore.preemptions": result.total_preemptions,
            "kvstore.prefix_hit_rate": 0.0,
            "kvstore.cow_blocks": sum(r.num_cow_blocks for r in per_tenant),
            "telemetry.events": 0,
            "cluster.epochs": len(result.epoch_timeline),
            "cluster.rebalances": result.num_rebalances,
            "cluster.migrated_requests": result.num_migrated_requests,
        },
    )


class Workload(NamedTuple):
    make_inputs: Callable[[int], Any]
    run: Callable[..., Optional[Outcome]]
    #: Simulated requests the workload submits (its stated trace size).
    requests: int
    #: Set-up-only repeats after each full repeat.  Set-up takes tens of
    #: milliseconds on the single-replica workloads, so one sample per
    #: full repeat is too few for a steady median; on closed_loop it is
    #: half of the run, and ``run`` has no ``setup_only``.
    setup_repeats: int


WORKLOADS: Dict[str, Workload] = {
    "decode_heavy": Workload(decode_heavy_inputs, decode_heavy, 10_000, 8),
    "closed_loop": Workload(closed_loop_inputs, closed_loop, 1_000, 0),
    "traced_churn": Workload(traced_churn_inputs, traced_churn, 3_000, 8),
}
