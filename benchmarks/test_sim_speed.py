"""Simulator throughput: simulated requests per second of wall clock.

Unlike every other benchmark (which regenerates a paper figure), this one
measures the *simulator itself* — ``ServingEngine.advance`` and its
event-horizon fast-forward — because raw simulator speed is what caps the
scale of every cluster study the repo can run.  Two traces:

* a 10^4-request single-replica trace in the engine's dominant large-trace
  regime (short prompts, long decodes), where the event-horizon
  fast-forward advances whole decode windows in closed form;
* a 10^3-request two-tenant closed-loop trace through the full cluster
  control loop (routing, epochs, re-placement, replicas advanced one
  after another).

The headline ``sim_requests_per_s`` numbers are attached as ``extra_info``;
the ``requests_per_s`` marker in ``benchmarks/compare_bench.py`` makes them
higher-is-better gated metrics, so a change that quietly slows the
simulator fails CI exactly like one that erodes serving goodput.
``sim_speedup_vs_scalar`` (the default engine vs ``vectorize=False``, the
same engine with the fast-forward off, on a prefix of the same trace) is
attached unmarked, for the record only: it measures what the fast-forward
saves over stepping every decode iteration, and is not a gated number.
"""

import time

from repro import CentConfig, CentSystem, LLAMA2_7B
from repro.cluster.engine import ClusterEngine
from repro.cluster.tenant import TenantSpec
from repro.serving.engine import ServingEngine
from repro.workloads.queries import (
    poisson_arrivals,
    sharegpt_like_queries,
    with_arrivals,
)

#: Single-replica trace: 10^4 requests, decode-heavy (the regime the
#: fast-forward targets — think long-generation / reasoning workloads).
SINGLE_REPLICA_REQUESTS = 10_000
#: Closed-loop trace: 10^3 requests split across two tenants.
CLOSED_LOOP_REQUESTS = 1_000


def _decode_heavy_trace(count: int, *, rate_qps: float, seed: int = 7):
    queries = sharegpt_like_queries(
        count, seed=seed, mean_prompt_tokens=96.0,
        mean_decode_tokens=1536.0, sigma=0.4, max_context=2048)
    return with_arrivals(
        queries, poisson_arrivals(count, rate_qps=rate_qps, seed=seed + 4))


def _timed_simulate(engine: ServingEngine, trace, sla_latency_s: float):
    start = time.perf_counter()
    engine.simulate(trace, sla_latency_s=sla_latency_s)
    return time.perf_counter() - start


def test_single_replica_sim_speed(benchmark, once, capsys):
    system = CentSystem(CentConfig(num_devices=16), LLAMA2_7B)
    trace = _decode_heavy_trace(SINGLE_REPLICA_REQUESTS, rate_qps=100.0)

    engine = ServingEngine(system, admission="paged")
    # Warm the grid/table caches so the measurement is simulator speed,
    # not first-touch block-simulation cost (shared across all runs).
    engine.simulate(trace[:200], sla_latency_s=600.0)
    elapsed = once(benchmark, _timed_simulate, engine, trace,
                   sla_latency_s=600.0)
    requests_per_s = SINGLE_REPLICA_REQUESTS / elapsed

    # Fast-forward off on a prefix (the full stepped trace takes minutes):
    # the same engine stepping every iteration one at a time.
    prefix = trace[:500]
    scalar = ServingEngine(system, admission="paged", vectorize=False)
    scalar.simulate(prefix, sla_latency_s=600.0)
    scalar_s = _timed_simulate(scalar, prefix, sla_latency_s=600.0)
    vector_s = _timed_simulate(engine, prefix, sla_latency_s=600.0)
    speedup = scalar_s / vector_s if vector_s > 0 else float("inf")

    benchmark.extra_info["sim_requests_per_s[single_replica]"] = requests_per_s
    benchmark.extra_info["sim_trace_requests"] = SINGLE_REPLICA_REQUESTS
    benchmark.extra_info["sim_speedup_vs_scalar"] = speedup
    with capsys.disabled():
        print()
        print(f"single-replica sim speed: {requests_per_s:,.0f} "
              f"simulated requests/s ({elapsed:.2f}s wall for "
              f"{SINGLE_REPLICA_REQUESTS:,} requests); "
              f"{speedup:.1f}x vs fast-forward off on a 500-request prefix")

    # Floors are set far below measured values (machine-dependent), high
    # enough to catch the fast-forward silently never engaging, which
    # steps every decode iteration (~300 req/s on this trace).
    assert requests_per_s > 1_000
    assert speedup > 2.0


def test_closed_loop_sim_speed(benchmark, once, capsys):
    per_tenant = CLOSED_LOOP_REQUESTS // 2
    tenants = []
    for index, name in enumerate(("alpha", "beta")):
        queries = sharegpt_like_queries(
            per_tenant, seed=5 + index, mean_prompt_tokens=96.0,
            mean_decode_tokens=512.0, sigma=0.5, max_context=2048)
        trace = with_arrivals(
            queries,
            poisson_arrivals(per_tenant, rate_qps=25.0, seed=15 + index))
        tenants.append(TenantSpec(name, model=LLAMA2_7B, trace=trace))

    def closed_loop():
        cluster = ClusterEngine(CentConfig(num_devices=32), tenants,
                                admission="paged")
        start = time.perf_counter()
        cluster.run(rebalance="epoch", epoch_s=10.0)
        return time.perf_counter() - start

    elapsed = once(benchmark, closed_loop)
    requests_per_s = CLOSED_LOOP_REQUESTS / elapsed
    benchmark.extra_info["sim_requests_per_s[closed_loop]"] = requests_per_s
    benchmark.extra_info["sim_trace_requests"] = CLOSED_LOOP_REQUESTS
    with capsys.disabled():
        print()
        print(f"closed-loop sim speed: {requests_per_s:,.0f} simulated "
              f"requests/s ({elapsed:.2f}s wall for "
              f"{CLOSED_LOOP_REQUESTS:,} requests, 2 tenants, epoch control)")
    assert requests_per_s > 5
