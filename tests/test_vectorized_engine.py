"""Bit-exactness of the event-horizon fast-forward against stepped runs.

``vectorize=True`` (the default) advances uneventful all-decode windows
in closed form; ``vectorize=False`` is the same engine with that
fast-forward off, stepping every iteration through the same batch builder
and pricing calls.  The fast-forward is allowed exactly zero numerical
drift: every float it produces must replay the stepped loop's arithmetic
operation for operation.  These tests pin that contract with full-run
fingerprints — every per-request timestamp, every time-between-tokens
sample, the whole queue-depth timeline — across the
admission/preemption/migration scenario matrix, plus direct equivalence
of the batch cost-model entry points with their scalar folds and the
O(batch) ``extend`` regression.
"""

import numpy as np
import pytest

from repro.core.config import CentConfig
from repro.core.iteration import IterationCostModel
from repro.core.system import CentSystem
from repro.mapping.parallelism import ParallelismPlan
from repro.models.config import ModelConfig
from repro.serving import ServingEngine
from repro.workloads import (
    poisson_arrivals,
    sharegpt_like_queries,
    with_arrivals,
)


@pytest.fixture(scope="module")
def small_model():
    return ModelConfig(name="small-llama", num_layers=8, d_model=1024,
                       num_heads=16, num_kv_heads=4, d_ff=2816,
                       vocab_size=32000, max_context=2048)


@pytest.fixture(scope="module")
def system(small_model):
    return CentSystem(CentConfig(num_devices=2, context_samples=2),
                      small_model)


def timed_trace(count, rate, seed=1, **kwargs):
    return with_arrivals(sharegpt_like_queries(count, seed=seed, **kwargs),
                         poisson_arrivals(count, rate, seed=seed))


def run_fingerprint(engine, trace, *, until_points=()):
    """Every observable float/int of a run, for exact comparison.

    ``until_points`` drives the run through segmented ``advance`` calls
    first (the cluster layer's access pattern), then drains.
    """
    state = engine.begin(trace)
    for until_s in until_points:
        engine.advance(state, until_s=until_s)
    run = engine.advance(state)
    return (
        run.makespan_s, run.prefill_time_s, run.decode_time_s,
        run.decode_step_tokens, run.peak_memory_bytes,
        tuple(run.queue_depth_timeline), tuple(run.preemption_log),
        tuple((r.state.name, r.finish_time_s, r.first_token_time_s,
               r.last_token_time_s, r.admitted_time_s, r.stall_s,
               r.preempted_count, r.num_swap_outs, r.num_swap_ins,
               r.swap_time_s, r.recompute_tokens, r.partial_evictions,
               tuple(r.tbt_samples_s)) for r in run.requests),
    )


SCENARIOS = {
    "reserve": dict(admission="reserve"),
    "reserve_interleave": dict(admission="reserve", interleave_prefill=True),
    "paged_swap": dict(admission="paged", preemption_restore="swap"),
    "paged_recompute": dict(admission="paged",
                            preemption_restore="recompute"),
    "paged_partial_eviction": dict(admission="paged",
                                   preemption_restore="swap",
                                   preemption_partial_blocks=2),
    "paged_interleave": dict(admission="paged", preemption_restore="swap",
                             interleave_prefill=True),
}


class TestVectorizedBitExactness:
    """Vectorized and scalar runs must be indistinguishable, field by field."""

    def make_engines(self, system, kwargs, *, pressure=False):
        extra = {}
        if pressure:
            # A quarter of the memory forces admission queuing, preemption
            # and (paged) block-pool churn, exercising every eviction path.
            extra["memory_capacity_bytes"] = system.memory_capacity_bytes // 4
        return (ServingEngine(system, context_step=512, vectorize=True,
                              **kwargs, **extra),
                ServingEngine(system, context_step=512, vectorize=False,
                              **kwargs, **extra))

    @pytest.mark.parametrize("scenario", sorted(SCENARIOS))
    def test_full_run_identical(self, system, scenario):
        vec, scalar = self.make_engines(system, SCENARIOS[scenario],
                                        pressure=True)
        trace = timed_trace(120, 300.0, seed=3)
        assert (run_fingerprint(vec, trace)
                == run_fingerprint(scalar, trace))

    @pytest.mark.parametrize("scenario", ["reserve", "paged_swap"])
    def test_segmented_run_identical(self, system, scenario):
        """Segment bounds cut fast-forward windows mid-flight; the resumed
        fold must continue from the identical float clock."""
        vec, scalar = self.make_engines(system, SCENARIOS[scenario])
        trace = timed_trace(60, 400.0, seed=9)
        points = (0.02, 0.05, 0.011, 0.3)  # includes a no-op (past) bound
        assert (run_fingerprint(vec, trace, until_points=points)
                == run_fingerprint(scalar, trace, until_points=points))

    def test_fast_forward_engages_and_matches(self, system):
        """A saturated decode-only regime (where whole windows advance in
        closed form) still reproduces the scalar iteration exactly."""
        vec, scalar = self.make_engines(system, SCENARIOS["paged_swap"])
        # Everyone arrives at once: after the prefill phase the whole batch
        # decodes in lockstep — maximal fast-forward windows.
        trace = timed_trace(40, 1e6, seed=5, mean_decode_tokens=600.0)
        fp_vec = run_fingerprint(vec, trace)
        fp_scalar = run_fingerprint(scalar, trace)
        assert fp_vec == fp_scalar
        # Long uninterrupted decode streaks really occurred (the windows
        # the fast-forward collapses): >= 100 consecutive tokens at some
        # point for some request.
        tbts = fp_vec[-1][0][-1]
        assert len(tbts) >= 100

    @pytest.mark.parametrize("admission", ["reserve", "paged"])
    def test_live_migration_identical(self, system, admission):
        """migrate_out/migrate_in mid-run land on identical states under
        both paths (the cluster re-placement access pattern)."""

        def migrated_fingerprint(vectorize):
            source = ServingEngine(
                system, context_step=512, admission=admission,
                vectorize=vectorize,
                memory_capacity_bytes=system.memory_capacity_bytes // 4)
            target = ServingEngine(
                system, context_step=512, admission=admission,
                vectorize=vectorize,
                memory_capacity_bytes=system.memory_capacity_bytes // 4)
            trace = timed_trace(25, 300.0, seed=1)
            state_a = source.begin(trace)
            source.advance(state_a, until_s=0.05)
            movable = [r for r in state_a.unfinished
                       if r.context_length > 0 and r.restore_remaining == 0]
            assert movable
            state_b = target.begin([], planning_trace=trace)
            state_b.clock = 0.05
            for request in movable:
                moved = source.migrate_out(state_a, request, now_s=0.05)
                target.migrate_in(state_b, moved, now_s=0.05)
            for request in state_a.unfinished:
                target.extend(state_b, [request.query])
            run = target.advance(state_b)
            return (
                run.makespan_s, run.decode_time_s, run.decode_step_tokens,
                tuple(run.queue_depth_timeline),
                tuple((r.state.name, r.finish_time_s, r.first_token_time_s,
                       r.last_token_time_s, r.stall_s, r.migrated_count,
                       tuple(r.tbt_samples_s)) for r in run.requests),
            )

        assert migrated_fingerprint(True) == migrated_fingerprint(False)


class TestBatchCostModel:
    """The batch entry points replay the scalar folds bit for bit."""

    @pytest.fixture(scope="class")
    def cost(self, system, small_model):
        plan = ParallelismPlan(name="PP=8", num_devices=2, pp_stages=8)
        return IterationCostModel(system.performance, small_model, plan,
                                  context_step=512)

    def test_block_latency_batch_matches_scalar(self, cost, small_model):
        contexts = np.array([1, 7, 511, 512, 513, 1024, 1999,
                             small_model.max_context + 50])
        batch = cost.block_latency_batch_ns(contexts)
        for context, latency in zip(contexts.tolist(), batch.tolist(), strict=True):
            assert latency == cost.block_latency_ns(context)

    def test_decode_iteration_batch_matches_scalar(self, cost):
        rng = np.random.default_rng(4)
        for size in (1, 2, 7, 33, 260):
            contexts = rng.integers(1, 2000, size=size)
            assert (cost.decode_iteration_batch_s(contexts)
                    == cost.decode_iteration_s(contexts.tolist()))

    def test_decode_span_matches_iterated_scalar(self, cost):
        """Row k of the span equals pricing the batch at contexts + k."""
        contexts = np.array([5, 300, 511, 777, 1500])
        span = cost.decode_span_s(contexts, 64)
        for step in range(64):
            stepped = [c + step for c in contexts.tolist()]
            assert span[step] == cost.decode_iteration_s(stepped)


class TestExtendBookkeeping:
    """Admission bookkeeping is O(batch): sorted feeds never re-sort."""

    def test_sorted_extends_do_not_resort(self, system):
        engine = ServingEngine(system, context_step=512)
        trace = timed_trace(60, 500.0, seed=2)
        state = engine.begin(trace[:20], planning_trace=trace)
        assert state.pending_resorts == 0
        # Epoch-style feeding: each window arrives after the previous one.
        engine.extend(state, trace[20:40])
        engine.extend(state, trace[40:])
        assert state.pending_resorts == 0
        engine.advance(state)
        assert state.drained

    def test_out_of_order_extend_resorts_once(self, system):
        engine = ServingEngine(system, context_step=512)
        trace = timed_trace(30, 500.0, seed=2)
        state = engine.begin(trace[10:], planning_trace=trace)
        engine.extend(state, trace[:10])  # earlier arrivals: must re-sort
        assert state.pending_resorts == 1
        engine.advance(state)
        assert state.drained
        # The re-sorted queue served in correct arrival order regardless:
        # walking requests by arrival, admission times never go backwards.
        by_arrival = sorted(state.requests, key=lambda r: r.arrival_time_s)
        admitted = [r.admitted_time_s for r in by_arrival
                    if r.admitted_time_s is not None]
        assert admitted == sorted(admitted)
