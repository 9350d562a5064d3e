"""Event-driven serving engine with vLLM-style continuous batching.

``ServingEngine`` replays a trace of timed :class:`~repro.workloads.queries.Query`
requests against a :class:`~repro.core.system.CentSystem`:

* requests arrive according to their ``arrival_time_s`` (an open-loop
  arrival process, e.g. :func:`~repro.workloads.queries.poisson_arrivals`);
* admission is **KV-capacity aware**, with two modes.  The default
  ``admission="reserve"`` admits a request only when its *full-context* KV
  cache fits the memory left over from the model weights (via
  :class:`~repro.models.memory.ModelMemoryProfile`) and a batch slot (a
  pipeline-stage position) is free, so the in-flight context never exceeds
  the system's ``memory_capacity_bytes``.  ``admission="paged"`` instead
  carves the KV budget into fixed-size token blocks
  (:class:`~repro.kvstore.BlockPool`) and admits on the request's *current*
  context: blocks are allocated for the prompt at admission and grown one
  token per decode step, and when the pool runs dry a
  :class:`~repro.kvstore.PreemptionPolicy` evicts a victim whose KV is
  either swapped out over the CXL fabric and back
  (``preemption_restore="swap"``) or dropped and re-prefilled
  (``"recompute"``); with ``preemption_partial_blocks=N`` the eviction is
  **block-granular** — only the victim's N coldest prefix blocks are
  staged to host memory, the rest stay resident, and the restore stall
  shrinks to the staged blocks' transfer;
* requests can be **live-migrated** between engines mid-flight
  (:meth:`ServingEngine.migrate_out` / :meth:`ServingEngine.migrate_in`):
  the KV streams through host memory priced like a swap, and the request
  resumes on the destination at its original progress — the mechanism the
  closed-loop cluster controller (``repro.cluster.control``) uses when a
  re-placement dismantles a replica with work in flight;
* batching is **continuous**: newly admitted requests prefill in bounded
  chunks, every decode step advances all running requests at once, and
  finished requests free their slot immediately — no waiting for the
  slowest request of a static batch.  By default prefill has strict
  priority over decoding (vLLM's default scheduler: decode stalls until the
  prefill backlog drains, which the measured time-between-tokens captures);
  with ``interleave_prefill=True`` each iteration piggybacks one prefill
  chunk onto the decode step instead (vLLM's chunked-prefill mode), so a
  decode stall is bounded by ``prefill_chunk_tokens`` at the price of
  stretching every co-scheduled decode iteration;
* iteration costs come from :class:`~repro.core.iteration.IterationCostModel`,
  which prices a mixed-context batch step from the same compiled-program
  block simulations as the static batch path (shared performance-model
  cache), without re-simulating whole inferences.

The paper-shaped static batch — identical queries, all arriving at ``t=0``,
one per pipeline slot — is the degenerate case: every request prefills, then
the batch decodes in lockstep, and the measured decode throughput matches
``CentSystem.run_inference``.

Quickstart::

    from repro import CentConfig, CentSystem, LLAMA2_70B
    from repro.serving import ServingEngine
    from repro.workloads import poisson_arrivals, sharegpt_like_queries, with_arrivals

    system = CentSystem(CentConfig(num_devices=32), LLAMA2_70B)
    trace = with_arrivals(sharegpt_like_queries(200), poisson_arrivals(200, rate_qps=0.5))
    result = ServingEngine(system).run(trace, sla_latency_s=120.0)
    print(result.ttft.p99_s, result.tbt.p50_s, result.goodput_tokens_per_s)

Overload the same deployment and let paged admission absorb it::

    paged = ServingEngine(system, admission="paged", preemption_policy="lru",
                          preemption_restore="swap")
    overloaded = paged.run(trace, sla_latency_s=120.0)
    print(overloaded.num_preemptions, overloaded.goodput_tokens_per_s)
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from itertools import repeat
from typing import Deque, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.iteration import IterationCostModel
from repro.core.results import ServingResult
from repro.core.system import CentSystem
from repro.kvstore.allocator import KvAllocator
from repro.kvstore.block_pool import BlockPool
from repro.kvstore.preemption import PreemptionPolicy, kv_swap_time_s
from repro.mapping.parallelism import ParallelismPlan
from repro.mapping.placement import validate_capacity
from repro.models.memory import ModelMemoryProfile
from repro.serving.metrics import aggregate_serving_result
from repro.serving.request import RequestColumns, RequestState, ServingRequest
from repro.telemetry.recorder import ScopedRecorder, TraceRecorder
from repro.workloads.queries import Query

__all__ = ["ADMISSION_MODES", "EngineMeasurements", "EngineRun", "EngineState",
           "KvMigration", "ServingEngine", "evict_to_bound"]

#: Supported admission modes: full-context reservation vs paged blocks.
ADMISSION_MODES = ("reserve", "paged")


def evict_to_bound(cache: Dict, bound: int) -> None:
    """Drop oldest-inserted entries until ``cache`` has room under ``bound``.

    The FIFO counterpart of the performance model's LRU: setup-style caches
    (here and in ``repro.cluster``) are built once per configuration and
    re-hit with the same key, so insertion order is recency enough.
    """
    while len(cache) >= bound:
        cache.pop(next(iter(cache)))


@dataclass
class EngineMeasurements:
    """Measurement channels shared by :class:`EngineRun` / :class:`EngineState`.

    One definition of the queue-depth timeline and the preemption log for
    both the live state and the snapshot it exports (they previously
    duplicated the field pair).  The storage switches with tracing:

    * **Tracing off** (``recorder is None``): plain lists, bit-exact with
      every pre-telemetry release — ``queue_samples`` holds the
      ``(time_s, queued, running)`` samples, ``evictions`` the
      ``(time_s, request_id)`` eviction log.
    * **Tracing on**: the same facts live once in the attached
      :class:`~repro.telemetry.recorder.ScopedRecorder` — the queue signal
      is recorded straight into ``recorder.queue_signal`` and the
      preemption log is a derived view over its ``serving.preempt``
      events.  The ``queue_depth_timeline`` / ``preemption_log``
      properties read identically either way.
    """

    #: Event sink when tracing is on; ``None`` (the default) disables
    #: telemetry with zero per-iteration overhead.
    recorder: Optional["ScopedRecorder"] = field(
        default=None, kw_only=True, repr=False, compare=False)
    #: Per-iteration ``(time_s, queued, running)`` samples; ``queued``
    #: counts arrived-but-not-running requests (waiting plus preempted).
    queue_samples: List[Tuple[float, int, int]] = field(
        default_factory=list, kw_only=True)
    #: ``(time_s, request_id)`` per eviction, in victim order (paged mode).
    evictions: List[Tuple[float, int]] = field(
        default_factory=list, kw_only=True)

    @property
    def queue_depth_timeline(self) -> List[Tuple[float, int, int]]:
        recorder = self.recorder
        return self.queue_samples if recorder is None else recorder.queue_signal

    @property
    def preemption_log(self) -> List[Tuple[float, int]]:
        recorder = self.recorder
        return self.evictions if recorder is None else recorder.preemption_view()


@dataclass
class EngineRun(EngineMeasurements):
    """Raw outcome of one event-driven run, before aggregation.

    :meth:`ServingEngine.simulate` returns this instead of a folded
    :class:`~repro.core.results.ServingResult` so callers that need
    per-request outcomes — the multi-tenant cluster layer attributes each
    request back to its tenant — can aggregate subsets themselves with
    :func:`~repro.serving.metrics.aggregate_serving_result`.  ``requests``
    preserves trace order (``requests[i]`` is the i-th query of the trace).
    """

    plan: ParallelismPlan
    requests: List[ServingRequest]
    makespan_s: float
    prefill_time_s: float
    decode_time_s: float
    decode_step_tokens: int
    peak_memory_bytes: int
    memory_capacity_bytes: int


@dataclass
class EngineState(EngineMeasurements):
    """Resumable event-loop state of one serving run.

    Produced by :meth:`ServingEngine.begin`, advanced (possibly in several
    time-bounded segments) by :meth:`ServingEngine.advance`, and fed new
    arrivals between segments by :meth:`ServingEngine.extend`.  The closed-
    loop cluster controller (``repro.cluster.control``) uses this to pause
    every replica at epoch boundaries, read the measured backlog, and resume
    — or migrate the unfinished work — in the next epoch.

    The plain :meth:`ServingEngine.simulate` path is ``begin`` followed by a
    single unbounded ``advance`` and is bit-exact with the pre-segmentation
    engine: segmentation only changes *when* the loop returns control, never
    what an iteration computes.
    """

    plan: ParallelismPlan
    cost: IterationCostModel
    slots: int
    kv_budget: int
    weight_bytes: int
    paged: bool
    #: Largest context the plan was searched/validated for; ``extend`` may
    #: only add queries at or below it (begin's ``planning_trace`` bounds it).
    planned_context: int
    sla_latency_s: Optional[float]
    allocator: Optional[KvAllocator]
    policy: Optional[PreemptionPolicy]
    bytes_per_token: int
    kv_scale: float
    #: Every request ever fed to this state, in feed order
    #: (``requests[i].request_id == i``).
    requests: List[ServingRequest] = field(default_factory=list)
    #: Struct-of-arrays store behind the requests' hot fields; ``advance``
    #: gathers and scatters whole batches here.
    columns: RequestColumns = field(default_factory=RequestColumns)
    #: Times ``extend`` had to fall back to a full re-sort of ``pending``
    #: (out-of-order feed); stays zero for arrival-ordered segment feeds.
    pending_resorts: int = 0
    pending: Deque[ServingRequest] = field(default_factory=deque)
    waiting: Deque[ServingRequest] = field(default_factory=deque)
    preempted: Deque[ServingRequest] = field(default_factory=deque)
    running: List[ServingRequest] = field(default_factory=list)
    clock: float = 0.0
    reserved_bytes: int = 0
    peak_memory: int = 0
    prefill_time_s: float = 0.0
    decode_time_s: float = 0.0
    decode_step_tokens: int = 0

    @property
    def drained(self) -> bool:
        """True when no fed request still needs engine time."""
        return not (self.pending or self.waiting or self.preempted or self.running)

    @property
    def unfinished(self) -> List[ServingRequest]:
        """Requests still owed work, in feed order (migration candidates).

        Excludes requests already handed to another engine by a live
        migration: the receiving engine owns them now.
        """
        done = (RequestState.FINISHED, RequestState.REJECTED,
                RequestState.MIGRATED)
        return [r for r in self.requests if r.state not in done]


@dataclass(frozen=True)
class KvMigration:
    """One in-flight request's state, staged in host memory mid-migration.

    Produced by :meth:`ServingEngine.migrate_out` on the dismantled engine
    and consumed by :meth:`ServingEngine.migrate_in` on the destination.
    Carries the request's progress (so it resumes decoding where it left
    off), its measured history (arrival-anchored TTFT/latency and TBT
    samples survive the move), and its cost counters (the destination's
    result keeps the whole journey's preemption/swap/stall accounting).
    """

    query: Query
    tokens_generated: int
    prefill_remaining: int
    #: Materialised KV tokens travelling through host memory.
    kv_tokens: int
    #: Bytes of KV the destination swaps in (``kv_tokens`` worth).
    swap_bytes: int
    #: CXL time the source spent streaming not-yet-staged KV out; zero when
    #: the request was already swap-staged in host memory at migration.
    swap_out_s: float
    #: Absolute time the whole host copy is in place — the migration
    #: instant plus ``swap_out_s``, or later when an eviction's swap-out
    #: was still draining; the destination's swap-in serialises behind it.
    host_ready_s: float
    #: True when the chain's single destination swap-in was already priced
    #: by an earlier hop (the request re-migrated before it ever resumed).
    swap_in_priced: bool
    # ---- measured history carried across the move ----
    admitted_time_s: Optional[float]
    first_token_time_s: Optional[float]
    last_token_time_s: Optional[float]
    tbt_samples_s: Tuple[float, ...]
    # ---- cost counters carried across the move ----
    preempted_count: int
    num_swap_outs: int
    num_swap_ins: int
    swap_time_s: float
    recompute_tokens: int
    stall_s: float
    prefill_stall_s: float
    partial_evictions: int
    migrated_count: int
    migrated_kv_bytes: int
    #: Prefix-cache history travels too (the destination's result keeps
    #: the whole journey's hit accounting); the chain itself stays on the
    #: source pool — the destination receives the full context's KV and
    #: holds it privately.
    prefix_lookups: int = 0
    prefix_hits: int = 0
    prefix_hit_tokens: int = 0
    cow_blocks: int = 0


class ServingEngine:
    """Discrete-event continuous-batching scheduler over a CENT system.

    Parameters
    ----------
    system:
        The deployment to serve on; its :class:`PerformanceModel` (and its
        bounded block-cost cache) is shared with the engine.
    plan:
        Parallelisation plan.  Defaults to the system's throughput plan for
        the trace's longest context, matching ``run_inference``.
    max_batch_size:
        Optional cap on concurrently running requests; defaults to the
        plan's ``queries_in_flight`` (one request per pipeline slot).
    prefill_chunk_tokens:
        Prompt tokens processed per engine iteration across all prefilling
        requests (FCFS within the chunk).  Under the default
        prefill-priority scheduling it sets the granularity at which
        concurrent prefills interleave; with ``interleave_prefill=True`` it
        also bounds how long one iteration's prefill work can stall the
        co-scheduled decode step.
    interleave_prefill:
        ``False`` (default): prefill-priority scheduling — decode waits for
        the prefill backlog, and the static special case exactly reproduces
        the batch path.  ``True``: chunked-prefill scheduling — each
        iteration runs one prefill chunk *and* one decode step.
    context_step:
        Grid granularity (tokens) of the iteration cost model's block-cost
        interpolation.
    memory_capacity_bytes:
        Override of the system's memory capacity, for what-if studies and
        for tests that force admission pressure.
    admission:
        ``"reserve"`` (default) — the bit-exact legacy path: admit on the
        full-context KV reservation.  ``"paged"`` — admit on the current
        context with block-granular growth and preemption on pool
        exhaustion (see ``repro.kvstore``).
    kv_block_tokens:
        Tokens per KV block in paged mode (vLLM's ``block_size``).
    preemption_policy:
        Victim selection in paged mode: ``"lru"``, ``"priority"`` or
        ``"sla_deadline"``.
    preemption_restore:
        How a victim's KV comes back: ``"swap"`` (CXL-priced staging to
        host memory and back) or ``"recompute"`` (drop and re-prefill).
    preemption_partial_blocks:
        Block-granular swap: evict only this many of a victim's coldest
        prefix blocks per preemption (the victim stays partially resident
        and re-admits just the staged blocks), instead of its whole
        allocation.  ``None`` (default) keeps the legacy full eviction;
        requires ``preemption_restore="swap"``.
    prefix_sharing:
        Shared-prefix KV reuse in paged mode (``True`` by default).  A
        query tagged with ``prefix_id``/``prefix_tokens`` whose prefix
        chain is resident admits with only its suffix's blocks (plus one
        copy-on-write duplicate of a partial chain tail) and skips the
        shared prefix's prefill; a miss prefills normally and promotes its
        prefix blocks into a chain for later arrivals.  Preempted
        requests keep their chain pinned across the park, eviction ranks
        idle chains jointly with requests (coldest blocks pool-wide go
        first), and unreferenced chains are reclaimed under admission
        pressure.  A trace without prefix tags — and any
        ``prefix_sharing=False`` run — is served bit-exactly as before;
        reserve mode ignores prefix tags entirely.
    vectorize:
        ``True`` (default): fast-forward uneventful all-decode stretches
        in closed form (the event-horizon fast-forward).  ``False`` steps
        every iteration one at a time instead; everything else (batch
        building, pricing, admission) is the same code either way.  The
        two are bit-exact with each other (the window's folds replay the
        stepped float arithmetic operation for operation), so the engine
        with fast-forward off is the fast-forward's oracle; the knob also
        serves A/B speed measurement.
    """

    def __init__(
        self,
        system: CentSystem,
        plan: Optional[ParallelismPlan] = None,
        *,
        max_batch_size: Optional[int] = None,
        prefill_chunk_tokens: int = 512,
        interleave_prefill: bool = False,
        context_step: int = 256,
        memory_capacity_bytes: Optional[int] = None,
        admission: str = "reserve",
        kv_block_tokens: int = 16,
        preemption_policy: str = "lru",
        preemption_restore: str = "swap",
        preemption_partial_blocks: Optional[int] = None,
        prefix_sharing: bool = True,
        vectorize: bool = True,
    ) -> None:
        if max_batch_size is not None and max_batch_size <= 0:
            raise ValueError("max_batch_size must be positive")
        if prefill_chunk_tokens <= 0:
            raise ValueError("prefill_chunk_tokens must be positive")
        if context_step <= 0:
            raise ValueError("context_step must be positive")
        if admission not in ADMISSION_MODES:
            raise ValueError(
                f"unknown admission mode {admission!r}; choose from {ADMISSION_MODES}"
            )
        if kv_block_tokens <= 0:
            raise ValueError("kv_block_tokens must be positive")
        # Fail fast on bad policy/restore/partial knobs with the policy's
        # own validation (one definition of the valid sets and messages).
        PreemptionPolicy(preemption_policy, restore=preemption_restore,
                         partial_blocks=preemption_partial_blocks)
        self.system = system
        self.model = system.model
        self.plan = plan
        self.max_batch_size = max_batch_size
        self.prefill_chunk_tokens = prefill_chunk_tokens
        self.interleave_prefill = interleave_prefill
        self.context_step = context_step
        self.memory_capacity_bytes = (
            memory_capacity_bytes if memory_capacity_bytes is not None
            else system.memory_capacity_bytes
        )
        if self.memory_capacity_bytes <= 0:
            raise ValueError("memory capacity must be positive")
        self.admission = admission
        self.kv_block_tokens = kv_block_tokens
        self.preemption_policy = preemption_policy
        self.preemption_restore = preemption_restore
        self.preemption_partial_blocks = preemption_partial_blocks
        self.prefix_sharing = prefix_sharing
        self.vectorize = vectorize
        self._profile = ModelMemoryProfile(self.model)
        # _setup results keyed by the servable context length (the only
        # trace-dependent input) plus the engine knobs that feed _setup:
        # repeated runs and capacity estimates over same-shaped traces reuse
        # plan validation and the warmed-up iteration cost model instead of
        # redoing both, while mutating e.g. ``max_batch_size`` between runs
        # still takes effect.  FIFO-bounded like the block-cost cache below
        # it, so sweeps over many trace shapes cannot grow it forever.
        self._setup_cache: Dict[tuple, Tuple[ParallelismPlan, IterationCostModel, int, int]] = {}
        self._setup_cache_entries = 8

    # ------------------------------------------------------------------ planning

    def _servable_context(self, trace: Sequence[Query], dp_replicas: int = 1) -> int:
        """Largest context among the queries the engine could ever admit.

        Requests beyond the model's context limit — or whose KV cache alone
        exceeds the post-weight memory budget — are rejected at admission,
        so they must not drive planning or plan validation either.
        ``dp_replicas`` matches admission's weight accounting when the plan
        is already known; with a yet-unknown plan the single-replica budget
        is the upper bound of what any plan could admit.
        """
        kv_budget = (self.memory_capacity_bytes
                     - self._profile.parameter_bytes * dp_replicas)
        totals = np.fromiter((q.total_context for q in trace),
                             dtype=np.int64, count=len(trace))
        servable = totals[self._servable_mask(totals, kv_budget)]
        return int(servable.max()) if servable.size else self.model.max_context

    def _servable_mask(self, total_contexts: np.ndarray, kv_budget: int) -> np.ndarray:
        """Whether admission could ever accept each of ``total_contexts``
        under ``kv_budget``.

        One block pool (paged) or one reservation formula (reserve) prices
        the whole array, instead of a per-query pool construction.
        """
        mask = total_contexts <= self.model.max_context
        if kv_budget <= 0:
            # Weights alone overflow; run() raises the precise error.
            return mask
        if self.admission == "paged":
            pool = self._make_pool(kv_budget)
            blocks = -(-total_contexts // pool.block_tokens)
            return mask & (blocks <= pool.num_blocks)
        # Same operation order as _kv_reservation_bytes: the exact integer
        # byte count first, then one float scale and truncation.
        per_query = total_contexts * self._profile.kv_cache_bytes_per_token()
        reservations = np.trunc(per_query * self.system.config.kv_occupancy)
        return mask & (reservations <= kv_budget)

    def _setup(self, trace: Sequence[Query]):
        """Shared run/estimate setup: (plan, iteration cost model, slots,
        the servable context the plan was chosen and validated for).

        Cached per (servable context length, engine knobs), so ``run``
        after ``estimated_capacity_qps`` (or repeated runs in a sweep)
        skips the plan search, capacity validation and cost-model warm-up,
        while reconfiguring the engine between runs still takes effect.
        """
        if not trace:
            raise ValueError("the trace must contain at least one query")
        if self.plan is None:
            context = self._servable_context(trace)
        else:
            context = self._servable_context(trace, dp_replicas=self.plan.dp_replicas)
        key = (context, self.plan, self.max_batch_size, self.context_step,
               self.memory_capacity_bytes)
        if key in self._setup_cache:
            return self._setup_cache[key]
        if self.plan is None:
            plan = self.system.throughput_plan(context_length=context)
        else:
            plan = self.plan
        slots = plan.queries_in_flight
        if self.max_batch_size is not None:
            slots = min(slots, self.max_batch_size)
        if self.plan is not None:
            # Mirror the static path: an explicit plan must place the model
            # (weights plus the in-flight KV caches) on the devices.  A
            # max_batch_size below the plan's slot count proportionally
            # shrinks the KV footprint the devices must hold.
            occupancy = (self.system.config.kv_occupancy
                         * slots / plan.queries_in_flight)
            validate_capacity(self.model, plan, context,
                              geometry=self.system.config.geometry,
                              kv_occupancy=occupancy)
        cost = IterationCostModel(
            self.system.performance, self.model, plan, context_step=self.context_step
        )
        entry = (plan, cost, slots, context)
        evict_to_bound(self._setup_cache, self._setup_cache_entries)
        self._setup_cache[key] = entry
        return entry

    def _kv_reservation_bytes(self, context_length: int) -> int:
        """KV bytes one admitted request reserves for its full context.

        Scaled by ``kv_occupancy`` exactly like the static path's capacity
        validation, so serving and closed-form feasibility agree on the same
        config; planning (:meth:`_servable_context`) and admission share this
        single definition.
        """
        return int(self._profile.kv_cache_bytes_per_query(context_length)
                   * self.system.config.kv_occupancy)

    def _kv_budget_bytes(self, plan: ParallelismPlan) -> int:
        weight_bytes = self._profile.parameter_bytes * plan.dp_replicas
        budget = self.memory_capacity_bytes - weight_bytes
        if budget <= 0:
            raise MemoryError(
                f"{self.model.name} weights ({weight_bytes / 2**30:.1f} GiB x "
                f"{plan.dp_replicas} replicas) exceed the "
                f"{self.memory_capacity_bytes / 2**30:.1f} GiB capacity"
            )
        return budget

    def _make_pool(self, kv_budget: int) -> BlockPool:
        """The paged-mode block pool over the post-weight KV budget."""
        return BlockPool(
            kv_budget,
            self._profile.kv_cache_bytes_per_token(),
            block_tokens=self.kv_block_tokens,
            occupancy=self.system.config.kv_occupancy,
        )

    # ------------------------------------------------------------------ serving

    def run(
        self,
        trace: Sequence[Query],
        *,
        sla_latency_s: Optional[float] = None,
        telemetry: Optional[TraceRecorder] = None,
    ) -> ServingResult:
        """Serve ``trace`` to completion and return measured statistics."""
        if sla_latency_s is not None and sla_latency_s <= 0:
            raise ValueError("the SLA latency bound must be positive")
        run = self.simulate(trace, sla_latency_s=sla_latency_s,
                            telemetry=telemetry)
        return aggregate_serving_result(
            run.requests,
            model_name=self.model.name,
            plan_name=run.plan.name,
            makespan_s=run.makespan_s,
            prefill_time_s=run.prefill_time_s,
            decode_time_s=run.decode_time_s,
            decode_step_tokens=run.decode_step_tokens,
            peak_memory_bytes=run.peak_memory_bytes,
            memory_capacity_bytes=run.memory_capacity_bytes,
            sla_latency_s=sla_latency_s,
            queue_depth_timeline=run.queue_depth_timeline,
        )

    def simulate(
        self,
        trace: Sequence[Query],
        *,
        sla_latency_s: Optional[float] = None,
        telemetry: Optional[TraceRecorder] = None,
    ) -> EngineRun:
        """Run the event loop over ``trace`` and return per-request outcomes.

        The building block of :meth:`run` (which folds the outcome into a
        :class:`ServingResult`) and of ``repro.cluster`` (which serves one
        trace per replica and re-attributes requests to tenants).
        ``sla_latency_s`` only informs the ``sla_deadline`` preemption
        policy's notion of slack; it never gates admission.
        ``telemetry`` attaches a :class:`~repro.telemetry.TraceRecorder`
        (or one of its scopes) that the run emits lifecycle events into.

        Equivalent to :meth:`begin` plus one unbounded :meth:`advance`;
        callers that need epoch segmentation use those directly.
        """
        return self.advance(self.begin(trace, sla_latency_s=sla_latency_s,
                                       telemetry=telemetry))

    # ---------------------------------------------------------- segmented runs

    def begin(
        self,
        trace: Sequence[Query],
        *,
        sla_latency_s: Optional[float] = None,
        planning_trace: Optional[Sequence[Query]] = None,
        telemetry: Optional["TraceRecorder | ScopedRecorder"] = None,
    ) -> EngineState:
        """Set up a resumable run and enqueue ``trace`` (which may be empty).

        ``planning_trace`` decouples plan search/validation from the initial
        arrivals: the closed-loop cluster controller plans each replica
        against every query its tenants *might* route to it, then feeds the
        actually-routed arrivals epoch by epoch through :meth:`extend`.
        When omitted, the plan comes from ``trace`` itself (the
        :meth:`simulate` path).

        ``telemetry`` enables tracing for this state: pass a whole
        :class:`~repro.telemetry.TraceRecorder` (the run records into a
        fresh ``engine`` scope) or a specific
        :class:`~repro.telemetry.ScopedRecorder` (the cluster controller
        names one scope per replica).  The recorder belongs to the *state*,
        never the engine, so cluster-shared engines stay reentrant.
        """
        queries = list(trace)
        planning = list(planning_trace) if planning_trace is not None else queries
        plan, cost, slots, planned_context = self._setup(planning)
        kv_budget = self._kv_budget_bytes(plan)
        weight_bytes = self.memory_capacity_bytes - kv_budget
        paged = self.admission == "paged"

        recorder: Optional[ScopedRecorder] = None
        if telemetry is not None:
            recorder = (telemetry if isinstance(telemetry, ScopedRecorder)
                        else telemetry.scope("engine"))

        allocator: Optional[KvAllocator] = None
        policy: Optional[PreemptionPolicy] = None
        if paged:
            allocator = KvAllocator(self._make_pool(kv_budget),
                                    recorder=recorder)
            if recorder is not None:
                # Static pool geometry, once per run: post-hoc consumers
                # (the attribution layer's occupancy timeline) turn the
                # kv.* events' free_blocks into fractions with it.
                recorder.event("kv.pool", recorder.now_s,
                               total_blocks=allocator.pool.num_blocks,
                               block_bytes=allocator.pool.block_bytes)
            policy = PreemptionPolicy(
                self.preemption_policy,
                restore=self.preemption_restore,
                sla_latency_s=sla_latency_s,
                partial_blocks=self.preemption_partial_blocks,
            )

        state = EngineState(
            plan=plan,
            cost=cost,
            slots=slots,
            kv_budget=kv_budget,
            weight_bytes=weight_bytes,
            paged=paged,
            planned_context=planned_context,
            sla_latency_s=sla_latency_s,
            allocator=allocator,
            policy=policy,
            bytes_per_token=self._profile.kv_cache_bytes_per_token(),
            # The paged pool is sized to the effective capacity the reserve
            # path's occupancy-discounted reservations assume (budget /
            # kv_occupancy in block bytes); reported memory applies the same
            # discount, so peak_memory_bytes stays within the physical
            # capacity in both admission modes.
            kv_scale=self.system.config.kv_occupancy if paged else 1.0,
            # Weights are resident for the whole run (feasibility checked
            # above), even if every request ends up rejected.
            peak_memory=weight_bytes,
            recorder=recorder,
        )
        self.extend(state, queries)
        return state

    def extend(
        self, state: EngineState, queries: Sequence[Query]
    ) -> List[ServingRequest]:
        """Feed new arrivals into a (possibly mid-run) state.

        Returns the created requests in feed order.  Queries the engine can
        never serve are marked ``REJECTED`` exactly as at :meth:`begin`; a
        servable query longer than the state's planned context is a caller
        error (its cost would extrapolate past the validated plan), raised
        rather than silently mispriced — before the state changes at all.
        """
        if not queries:
            return []
        servable = self._servable_mask(
            np.fromiter((q.total_context for q in queries),
                        dtype=np.int64, count=len(queries)),
            state.kv_budget,
        ).tolist()
        for query, ok in zip(queries, servable, strict=True):
            if ok:
                self._check_planned(state, query)
        new = [ServingRequest(len(state.requests) + i, q, columns=state.columns)
               for i, q in enumerate(queries)]
        state.requests.extend(new)
        batch = sorted(zip(new, servable, strict=True),
                       key=lambda pair: pair[0].arrival_time_s)
        accepted: List[ServingRequest] = []
        rec = state.recorder
        for request, ok in batch:
            # A request whose KV cache alone can never fit (or whose context
            # exceeds the model) is refused outright rather than queued.
            if not ok:
                request.state = RequestState.REJECTED
                if rec is not None:
                    rec.event("request.rejected", request.arrival_time_s,
                              request.request_id)
                continue
            if rec is not None:
                rec.event("request.queued", request.arrival_time_s,
                          request.request_id, **request.trace_args())
            if not state.paged:
                request.kv_reserved_bytes = \
                    self._kv_reservation_bytes(request.query.total_context)
            accepted.append(request)
        # ``pending`` is kept arrival-sorted as an invariant (it is consumed
        # from the left and extended with sorted batches), so only the batch
        # boundary needs checking: later segments usually append strictly
        # later arrivals, and the O(n log n) re-sort runs — and is counted —
        # only for a genuinely out-of-order feed.
        pending = state.pending
        if accepted:
            in_order = (not pending
                        or accepted[0].arrival_time_s >= pending[-1].arrival_time_s)
            pending.extend(accepted)
            if not in_order:
                state.pending = deque(
                    sorted(pending, key=lambda r: r.arrival_time_s))
                state.pending_resorts += 1
        return new

    @staticmethod
    def _check_planned(state: EngineState, query: Query) -> None:
        """Refuse a servable query longer than the state's planned context."""
        if query.total_context > state.planned_context:
            raise ValueError(
                f"query context {query.total_context} exceeds the "
                f"planned context {state.planned_context}; pass a "
                "planning_trace covering every query this state may serve"
            )

    def snapshot(self, state: EngineState) -> EngineRun:
        """The cumulative :class:`EngineRun` view of ``state`` so far."""
        return EngineRun(
            plan=state.plan,
            requests=state.requests,
            makespan_s=state.clock,
            prefill_time_s=state.prefill_time_s,
            decode_time_s=state.decode_time_s,
            decode_step_tokens=state.decode_step_tokens,
            peak_memory_bytes=state.peak_memory,
            memory_capacity_bytes=self.memory_capacity_bytes,
            recorder=state.recorder,
            queue_samples=state.queue_samples,
            evictions=state.evictions,
        )

    def advance(self, state: EngineState, until_s: Optional[float] = None) -> EngineRun:
        """Run the event loop until drained (or until the clock passes
        ``until_s``) and return the cumulative outcome so far.

        With ``until_s`` the loop stops *before* starting an iteration at or
        beyond the bound (an iteration underway may overshoot it: engine
        iterations are atomic), leaving a state that :meth:`extend` and a
        later ``advance`` continue seamlessly.  ``until_s=None`` drains the
        state completely and reproduces the unsegmented engine bit-exactly.

        Each loop trip runs the phases in order, each a method over
        ``state``: arrivals, resume/admit, build, fast-forward, then price
        and apply one stepped iteration.
        """
        while not state.drained:
            if until_s is not None and state.clock >= until_s:
                break
            self._take_arrivals(state)
            self._resume_and_admit(state)
            self._sample_queue(state)
            running = state.running
            if not running:
                # Idle: jump to the next arrival (or stop at the segment
                # bound; a later extend may add earlier work).
                pending = state.pending
                wake = [pending[0].arrival_time_s] if pending else []
                if self._idle_until(state, wake, until_s,
                                    "queued requests but no admissible work"):
                    continue
                break
            rows = np.fromiter((r._row for r in running), dtype=np.intp,
                               count=len(running))
            prefill_work, decode_batch = self._build_iteration(state, rows)
            # A decode batch of the whole running set means every request is
            # decode-ready: the fast-forward's precondition.
            if (self.vectorize and len(decode_batch) == len(running)
                    and self._fast_forward(state, rows, until_s)):
                continue
            if state.paged and decode_batch:
                decode_batch = self._grow_or_preempt(state, decode_batch)
                # A growth-triggered eviction may have hit a co-scheduled
                # prefilling request (chunked-prefill mode): its chunk no
                # longer runs this iteration.
                prefill_work = [(r, t) for r, t in prefill_work
                                if r.state is not RequestState.PREEMPTED]
            if not prefill_work and not decode_batch:
                # Everyone runnable is waiting on a swap-in; jump to the
                # first restore completion (or the next arrival, whichever
                # is sooner) instead of spinning.
                wake = [r.restore_ready_s for r in running
                        if r.restore_ready_s > state.clock]
                if state.pending:
                    wake.append(state.pending[0].arrival_time_s)
                if self._idle_until(state, wake, until_s,
                                    "running requests but no schedulable work"):
                    continue
                break
            self._step(state, prefill_work, decode_batch)
        return self.snapshot(state)

    # ------------------------------------------------------- loop phases

    @staticmethod
    def _take_arrivals(state: EngineState) -> None:
        """Move every request that has arrived by the clock to ``waiting``."""
        pending, clock = state.pending, state.clock
        while pending and pending[0].arrival_time_s <= clock:
            state.waiting.append(pending.popleft())
        if state.recorder is not None:
            # Passive emitters (the KV allocator) stamp their events with
            # the engine clock; refresh it once per loop top.
            state.recorder.now_s = clock

    def _resume_and_admit(self, state: EngineState) -> None:
        """Resume preempted requests, then admit waiting ones FCFS.

        Preempted requests resume first (eviction order first) so fresh
        admissions cannot starve a victim's restore, and admission waits
        while any remain.  An unresumable head is skipped, not waited on: a
        parked victim's residency (or a large migrated-in allocation) must
        never wedge the queue while a smaller one fits.  The admission
        modes differ only in what they book; see :meth:`_book_resume` and
        :meth:`_book_admission`.
        """
        preempted, waiting, running = state.preempted, state.waiting, state.running
        slots, clock, rec = state.slots, state.clock, state.recorder
        index = 0
        while index < len(preempted) and len(running) < slots:
            request = preempted[index]
            if not self._book_resume(state, request):
                index += 1
                continue
            del preempted[index]
            self._resume(state, request)
            running.append(request)
        while (not preempted and waiting and len(running) < slots
               and self._book_admission(state, waiting[0])):
            request = waiting.popleft()
            request.state = RequestState.PREFILL
            request.admitted_time_s = clock
            if rec is not None:
                booked = ({"kv_tokens": request.kv_tokens} if state.paged else
                          {"kv_reserved_bytes": request.kv_reserved_bytes})
                rec.event("request.admitted", clock, request.request_id,
                          **booked)
            running.append(request)
        self._track_peak(state)

    @staticmethod
    def _reserve(state: EngineState, request: ServingRequest) -> bool:
        """Book ``request``'s full-context reservation if the budget allows."""
        if state.reserved_bytes + request.kv_reserved_bytes > state.kv_budget:
            return False
        state.reserved_bytes += request.kv_reserved_bytes
        return True

    def _book_resume(self, state: EngineState, request: ServingRequest) -> bool:
        """Re-book a preempted request's KV, all or nothing.

        Reserve mode (reached only by live migration) re-books the
        full-context reservation.  Paged mode re-admits just the staged
        blocks of a partially-resident victim and re-allocates everyone
        else from scratch; a failed grant leaves no blocks behind.
        """
        if not state.paged:
            return self._reserve(state, request)
        allocator = state.allocator
        if request.swapped_kv_blocks:
            booked = allocator.readmit(request.request_id)
        else:
            booked = allocator.allocate(request.request_id,
                                        request.resume_kv_tokens,
                                        now_s=state.clock)
        if booked:
            request.swapped_kv_blocks = 0
        return booked

    def _book_admission(self, state: EngineState, head: ServingRequest) -> bool:
        """Book the waiting head's KV: its full-context reservation, or
        (paged) blocks for its *current* need, the prompt.

        A resident prefix chain for the head's prefix hash admits it with
        only the suffix's blocks and pre-completes the shared prefix's
        prefill (at least one prompt token always remains, so the
        first-token path is untouched); a miss allocates the full prompt
        and marks the request to promote its prefix blocks into a chain
        once its prefill completes.
        """
        if not state.paged:
            return self._reserve(state, head)
        allocator = state.allocator
        query = head.query
        key = query.prefix_key if self.prefix_sharing else None
        if not allocator.allocate(head.request_id, query.prompt_tokens,
                                  prefix=key, now_s=state.clock):
            return False
        head.kv_tokens = query.prompt_tokens
        if key is None:
            return True
        head.prefix_lookups += 1
        if allocator.shared_key(head.request_id) is not None:
            head.prefix_hits += 1
            skip = min(query.prefix_tokens, query.prompt_tokens - 1)
            head.prefix_hit_tokens += skip
            head.prefill_remaining -= skip
            if query.prefix_tokens % allocator.pool.block_tokens:
                head.cow_blocks += 1
        else:
            head.prefix_pending = True
        return True

    @staticmethod
    def _track_peak(state: EngineState) -> None:
        """Fold the resident weights-plus-KV footprint into ``peak_memory``."""
        if state.paged:
            in_use = int(state.allocator.allocated_bytes * state.kv_scale)
        else:
            in_use = state.reserved_bytes
        state.peak_memory = max(state.peak_memory, state.weight_bytes + in_use)

    @staticmethod
    def _sample_queue(state: EngineState) -> None:
        """Record the loop top's ``(time, queued, running)`` sample."""
        timeline = state.queue_depth_timeline
        sample = (state.clock, len(state.waiting) + len(state.preempted),
                  len(state.running))
        # An unsegmented run never repeats a sample (the clock strictly
        # advances between loop tops); resuming a segment would, so the
        # guard keeps segmented timelines identical to unsegmented ones.
        if not timeline or timeline[-1] != sample:
            timeline.append(sample)

    @staticmethod
    def _idle_until(state: EngineState, wake_s: List[float],
                    until_s: Optional[float], stalled: str) -> bool:
        """Jump an idle clock to the earliest of ``wake_s``.

        Returns False when the loop must stop instead: the wake-up lies at
        or past the segment bound, or there is none mid-segment (the next
        :meth:`extend` may bring the arrival that unblocks the state).  With
        the input drained and nothing to wake for, the engine is wedged.
        """
        if not wake_s:
            if until_s is not None:
                return False
            raise RuntimeError(
                f"serving engine stalled with {stalled}; this is a bug")
        wake = min(wake_s)
        if until_s is not None and wake >= until_s:
            return False
        state.clock = max(state.clock, wake)
        return True

    def _build_iteration(self, state: EngineState, rows: np.ndarray
                         ) -> Tuple[List[tuple], List[ServingRequest]]:
        """The iteration's ``(request, tokens)`` prefill chunks and decode
        batch, gathered from the running requests' column ``rows``.

        Default (prefill-priority, vLLM's stock scheduler): an iteration
        runs either a bounded chunk of prefill work or one decode step for
        the whole running batch; decode stalls until the prefill backlog
        drains, and the stall surfaces in the measured time-between-tokens.
        The static special case (everything prefilled, then lockstep
        decoding) thereby reproduces the closed-form batch decode
        throughput.  With ``interleave_prefill`` (chunked-prefill mode) the
        iteration runs the prefill chunk *and* the decode step together, so
        the stall is bounded by the chunk at the price of stretching the
        co-scheduled decode iteration.  Recompute restores share the
        prefill chunk budget: rebuilding a victim's KV is prompt work, and
        a rebuild streams before any still-pending prompt tail.  A request
        whose swap-in is still in flight does neither.
        """
        running, cols = state.running, state.columns
        pre = cols.prefill_remaining[rows]
        res = cols.restore_remaining[rows]
        ready = cols.restore_ready_s[rows] <= state.clock
        decode_ready = ready & (pre == 0) & (res == 0)
        if decode_ready.all():
            return [], list(running)
        prefill_work: List[tuple] = []
        needy = np.flatnonzero(ready & ((pre > 0) | (res > 0))).tolist()
        if needy:
            budget = self.prefill_chunk_tokens
            pre_list, res_list = pre.tolist(), res.tolist()
            for index in needy:
                if budget <= 0:
                    break
                remaining = (res_list[index] if res_list[index] > 0
                             else pre_list[index])
                tokens = min(remaining, budget)
                prefill_work.append((running[index], tokens))
                budget -= tokens
        if prefill_work and not self.interleave_prefill:
            return prefill_work, []
        return prefill_work, [running[i]
                              for i in np.flatnonzero(decode_ready).tolist()]

    def _fast_forward(self, state: EngineState, rows: np.ndarray,
                      until_s: Optional[float]) -> bool:
        """Event-horizon fast-forward of an all-decode batch.

        When every running request is decode-ready the engine is in its
        dominant large-trace regime: iterations that do nothing but grow
        each context by one token.  Advance as many of them as provably
        hold no event — a completion, a block exhaustion, an
        admission-changing arrival, or the segment bound — in one
        closed-form step whose float arithmetic replays the stepped loop
        operation for operation (see ``decode_span_s``).  Returns False,
        changing nothing, when not even the next iteration qualifies (its
        growth needs an eviction); the stepped iteration then runs it.
        """
        cols, cost, running, clock = state.columns, state.cost, state.running, state.clock
        gen = cols.tokens_generated[rows]
        ctx0 = cols.prompt_tokens[rows] + gen
        remaining_tokens = cols.decode_tokens[rows] - gen
        # No request may complete mid-window (its slot would free), so the
        # first completion bounds it; the span-matrix cap only splits a
        # longer window, which prices identically.
        horizon = int(remaining_tokens.min())
        k = min(horizon, 4096)
        if state.paged:
            k = self._pool_covered_steps(state, rows, ctx0, k)
            if k == 0:
                return False
        # An iteration runs only while its loop-top clock stays under the
        # segment bound — and under the next arrival when admission could
        # accept it.  With a full batch, a non-empty waiting/preempted
        # queue, or (FCFS) a blocked head, admission stays blocked for the
        # whole window (reservations are constant and free blocks only
        # shrink), so arrivals merely cross into the backlog.
        bound = until_s
        pending = state.pending
        if (len(running) < state.slots and not state.waiting
                and not state.preempted and pending):
            arrival = pending[0].arrival_time_s
            bound = arrival if bound is None else min(bound, arrival)
        if bound is not None and k > 1:
            # Estimate how many iterations fit under the bound from the
            # first iteration's span and shrink the span matrix before
            # pricing it; an off estimate merely splits the window across
            # loop trips, which prices identically (the fold resumes from
            # the same float clock).
            span0 = float(cost.decode_span_s(ctx0, 1)[0])
            if span0 > 0.0:
                k_cap = int((bound - clock) / span0) + 2
                if k_cap < k:
                    k = max(k_cap, 1)
        span = cost.decode_span_s(ctx0, k)
        # clocks[j] is the clock after j window iterations; the fold seeds
        # the running clock so each entry equals the stepped loop's
        # sequence of += operations exactly.
        clocks = np.empty(k + 1)
        clocks[0] = clock
        clocks[1:] = span
        clocks = clocks.cumsum()
        if bound is not None:
            k = min(k, int(np.searchsorted(clocks[:k], bound, side="left")))
            if k == 0:
                return False
        clock_end = float(clocks[k])
        if state.paged:
            allocator = state.allocator
            block_tokens = allocator.pool.block_tokens
            kv0 = cols.kv_tokens[rows]
            held = -(-kv0 // block_tokens)
            targets = np.maximum(ctx0 + (k - 1), kv0)
            needs = -(-targets // block_tokens) - held
            if not allocator.grow_many([r.request_id for r in running],
                                       targets.tolist(), needs.tolist()):
                raise RuntimeError(
                    "fast-forward window overdrew the block pool; this is a bug")
            cols.kv_tokens[rows] = targets
            self._track_peak(state)
        if k > 1:
            self._sample_window(state, clocks[1:k], span[:k - 1])
        # Every request's first in-window gap runs from its own last token;
        # the later gaps are the shared clock deltas.
        first_gap = (clocks[1] - cols.last_token_time_s[rows]).tolist()
        shared_tail = (clocks[2:k + 1] - clocks[1:k]).tolist()
        for request, gap in zip(running, first_gap, strict=True):
            samples = request.tbt_samples_s
            samples.append(gap)
            samples.extend(shared_tail)
        cols.tokens_generated[rows] = gen + k
        cols.last_token_time_s[rows] = clock_end
        decode_fold = np.empty(k + 1)
        decode_fold[0] = state.decode_time_s
        decode_fold[1:] = span[:k]
        state.decode_time_s = float(decode_fold.cumsum()[-1])
        state.decode_step_tokens += len(running) * k
        if state.recorder is not None:
            # One span for the whole window, never per-token events: the
            # stepped loop merges the identical iterations one step at a
            # time into the same span.
            state.recorder.window_step(
                "decode", (tuple(r.request_id for r in running), ()),
                clock, clock_end, k, 0)
            state.recorder.now_s = clock_end
        state.clock = clock_end
        if k == horizon:
            done = (remaining_tokens == k).tolist()
            self._finish(state, [r for r, last in zip(running, done, strict=True)
                                 if last])
        return True

    @staticmethod
    def _pool_covered_steps(state: EngineState, rows: np.ndarray,
                            ctx0: np.ndarray, k: int) -> int:
        """Largest window of at most ``k`` decode steps whose KV growth the
        free block pool covers.

        Growth targets are monotone, so only a window's final target
        matters, and bisection finds the count (probing ``k`` first: the
        pool usually covers the whole window).  Zero sends the iteration to
        the stepped path, whose growth loop evicts a victim.
        """
        pool = state.allocator.pool
        block_tokens, free_blocks = pool.block_tokens, pool.free_blocks
        kv0 = state.columns.kv_tokens[rows]
        held = -(-kv0 // block_tokens)
        # Invariant: ``low`` steps fit the pool, ``high`` steps do not.
        low, high, steps = 0, k + 1, k
        while high - low > 1:
            target = np.maximum(ctx0 + (steps - 1), kv0)
            need = -(-target // block_tokens) - held
            if int(np.maximum(need, 0).sum()) <= free_blocks:
                low = steps
            else:
                high = steps
            steps = (low + high) // 2
        return low

    @staticmethod
    def _sample_window(state: EngineState, tops: np.ndarray,
                       spans: np.ndarray) -> None:
        """Queue-depth samples of a fast-forward window's inner loop tops.

        ``tops`` are the clocks at the window's second through last loop
        tops and ``spans`` the iteration spans leading to them.  Arrivals
        the window crosses count as queued exactly as the stepped tops
        would have counted them (they join ``waiting`` at the next real
        loop top).
        """
        timeline = state.queue_depth_timeline
        last_top = tops[-1]
        crossed: List[float] = []
        for request in state.pending:
            if request.arrival_time_s > last_top:
                break
            crossed.append(request.arrival_time_s)
        queued_base = len(state.waiting) + len(state.preempted)
        n_running = len(state.running)
        if crossed:
            queued = (queued_base + np.searchsorted(
                np.asarray(crossed), tops, side="right")).tolist()
        else:
            queued = [queued_base] * len(tops)
        if float(spans.min()) > 0.0:
            # Strictly increasing tops: no two consecutive samples can
            # repeat, and the first differs from the pre-window sample by
            # its later clock, so the dedup guard cannot fire — extend at C
            # speed.
            timeline.extend(zip(tops.tolist(), queued, repeat(n_running),
                                strict=False))
            return
        for top, depth in zip(tops.tolist(), queued, strict=True):
            sample = (top, depth, n_running)
            if not timeline or timeline[-1] != sample:
                timeline.append(sample)

    def _step(self, state: EngineState, prefill_work: List[tuple],
              decode_batch: List[ServingRequest]) -> None:
        """Price one iteration, advance the clock and apply its progress.

        The prefill chunks are priced by a left-to-right fold of
        ``prefill_chunk_s`` (each chunk at its midpoint context), the
        decode step by one ``decode_iteration_batch_s`` over the batch's
        gathered contexts.
        """
        cost, cols, rec = state.cost, state.columns, state.recorder
        prefill_s = 0.0
        chunk_tokens = 0
        for request, tokens in prefill_work:
            if request.restore_remaining > 0:
                done = request.restore_total - request.restore_remaining
            else:
                done = request.query.prompt_tokens - request.prefill_remaining
            prefill_s += cost.prefill_chunk_s(tokens, max(done + tokens // 2, 1))
            chunk_tokens += tokens
        decode_s = 0.0
        if decode_batch:
            rows = np.fromiter((r._row for r in decode_batch), dtype=np.intp,
                               count=len(decode_batch))
            decode_s = cost.decode_iteration_batch_s(
                cols.prompt_tokens[rows] - cols.prefill_remaining[rows]
                + cols.tokens_generated[rows])
            state.decode_time_s += decode_s
            state.decode_step_tokens += len(decode_batch)
        start_s = state.clock
        state.clock += prefill_s + decode_s
        state.prefill_time_s += prefill_s
        clock = state.clock
        if rec is not None:
            decode_ids = tuple(r.request_id for r in decode_batch)
            prefill_ids = tuple(r.request_id for r, _ in prefill_work)
            kind = ("mixed" if decode_ids and prefill_ids
                    else "decode" if decode_ids else "prefill")
            rec.window_step(kind, (decode_ids, prefill_ids), start_s, clock,
                            1, chunk_tokens if prefill_ids else 0)
            rec.now_s = clock
        # Only a request whose token count changed this iteration can newly
        # satisfy the finish condition, so the decode batch plus the
        # just-completed prefills cover every candidate.
        finished: List[ServingRequest] = []
        if decode_batch:
            cols.tokens_generated[rows] += 1
            # Time between tokens, including any prefill stalls since each
            # request's previous token.
            gaps = (clock - cols.last_token_time_s[rows]).tolist()
            for request, gap in zip(decode_batch, gaps, strict=True):
                request.tbt_samples_s.append(gap)
            cols.last_token_time_s[rows] = clock
            finished = [decode_batch[i] for i in np.flatnonzero(
                cols.tokens_generated[rows] >= cols.decode_tokens[rows]).tolist()]
        for request in self._apply_prefill(state, prefill_work):
            if request.tokens_generated >= request.query.decode_tokens:
                finished.append(request)
        self._finish(state, finished)

    @staticmethod
    def _apply_prefill(state: EngineState, prefill_work: List[tuple]
                       ) -> List[ServingRequest]:
        """Apply the iteration's prefill chunks; returns the requests whose
        prompt completed (each has just emitted its first token)."""
        clock, rec = state.clock, state.recorder
        completed: List[ServingRequest] = []
        for request, tokens in prefill_work:
            if request.restore_remaining > 0:
                # KV rebuilt, nothing emitted: the request already owns its
                # generated tokens and rejoins decode next iteration.
                request.restore_remaining -= tokens
                if request.restore_remaining == 0:
                    if request.prefill_remaining == 0:
                        request.state = RequestState.DECODE
                    # Eviction-to-rebuilt: the rebuild span joins the
                    # off-device time already accrued at resume (a prefill
                    # victim's prompt tail then continues as ordinary,
                    # non-stall prefill work).
                    rebuild_s = clock - request.restore_started_s
                    request.stall_s += rebuild_s
                    if request.first_token_time_s is None:
                        request.prefill_stall_s += rebuild_s
                continue
            request.prefill_remaining -= tokens
            if request.prefill_remaining == 0:
                # The chunk completing the prefill emits the first token.
                request.state = RequestState.DECODE
                request.first_token_time_s = clock
                request.last_token_time_s = clock
                request.tokens_generated = 1
                if rec is not None:
                    rec.event("request.first_token", clock, request.request_id)
                if request.prefix_pending:
                    # Cache-miss promotion: the prefix KV this request just
                    # prefilled becomes the shared chain later arrivals
                    # attach to (best-effort — skipped when another request
                    # won the race or the pool cannot spare the tail
                    # snapshot block).
                    request.prefix_pending = False
                    state.allocator.register_prefix(
                        request.query.prefix_key, request.query.prefix_tokens,
                        request.request_id, now_s=clock)
                completed.append(request)
        return completed

    @staticmethod
    def _finish(state: EngineState, finished: List[ServingRequest]) -> None:
        """Retire ``finished`` at the clock: free their KV and slots."""
        if not finished:
            return
        clock, rec = state.clock, state.recorder
        for request in finished:
            request.state = RequestState.FINISHED
            request.finish_time_s = clock
            if rec is not None:
                rec.event("request.finished", clock, request.request_id,
                          tokens=request.tokens_generated)
            if state.paged:
                state.allocator.release(request.request_id, now_s=clock)
                request.kv_tokens = 0
            else:
                state.reserved_bytes -= request.kv_reserved_bytes
        # In place: the loop and the phases share this list.
        state.running[:] = [r for r in state.running
                            if r.state is not RequestState.FINISHED]

    # ------------------------------------------------- paged-mode eviction

    @staticmethod
    def _log_preemption(state: EngineState, victim: ServingRequest, kind: str,
                        **details) -> None:
        """Record one eviction exactly once: a plain ``evictions`` entry
        when tracing is off, a typed ``serving.preempt`` event (from which
        ``preemption_log`` is derived) when it is on."""
        if state.recorder is None:
            state.evictions.append((state.clock, victim.request_id))
        else:
            state.recorder.event("serving.preempt", state.clock,
                                 victim.request_id, kind=kind, **details)

    def _preempt(self, state: EngineState, victim: ServingRequest) -> None:
        """Evict ``victim``: free its blocks, set up its restore path."""
        allocator, policy, clock = state.allocator, state.policy, state.clock
        if victim.restore_remaining > 0:
            # Re-evicted mid-rebuild: the aborted rebuild was stall time,
            # and the unexecuted tail of the earlier recompute charge never
            # ran — refund it before re-charging below.
            aborted_s = clock - victim.restore_started_s
            victim.stall_s += aborted_s
            if victim.first_token_time_s is None:
                victim.prefill_stall_s += aborted_s
            victim.recompute_tokens -= victim.restore_remaining
            victim.restore_remaining = 0
            victim.restore_total = 0
        tokens_with_kv = victim.kv_tokens
        context = victim.context_length
        # A shared-prefix reader keeps its chain pinned across the park
        # (keep_prefix): its shared blocks never leave the device, so they
        # neither travel on a swap nor rebuild on a recompute.
        shared_tokens = (allocator.shared_tokens(victim.request_id)
                         if self.prefix_sharing else 0)
        allocator.release(victim.request_id, keep_prefix=True)
        victim.kv_tokens = 0
        victim.preempted_count += 1
        victim.preempt_time_s = clock
        victim.state = RequestState.PREEMPTED
        victim.restore_ready_s = 0.0
        victim.restore_via = policy.restore
        if policy.restore == "swap":
            # Only materialised KV travels; the prompt's still-unwritten
            # tail of a prefilling victim does not, nor do the chain's
            # device-resident shared blocks.
            victim.resume_kv_tokens = tokens_with_kv
            victim.swap_bytes = max(context - shared_tokens, 0) * state.bytes_per_token
            out_s = kv_swap_time_s(victim.swap_bytes, self.system.config.link,
                                   pp_stages=state.plan.pp_stages)
            victim.num_swap_outs += 1
            victim.swap_time_s += out_s
            victim.swap_done_s = clock + out_s
        elif victim.prefill_remaining > 0:
            # Recompute a half-prefilled victim: rebuild the lost prefix
            # through the restore path, then let the prompt's tail
            # continue; the rebuild span counts as stall exactly like a
            # decoding victim's.
            prefix = victim.query.prompt_tokens - victim.prefill_remaining
            rebuild = max(prefix - shared_tokens, 0)
            victim.recompute_tokens += rebuild
            victim.restore_remaining = rebuild
            victim.restore_total = rebuild
            victim.resume_kv_tokens = victim.query.prompt_tokens
        else:
            # Recompute a decoding victim by re-prefilling its context.
            rebuild = max(context - shared_tokens, 0)
            victim.recompute_tokens += rebuild
            victim.restore_remaining = rebuild
            victim.restore_total = rebuild
            victim.resume_kv_tokens = context
        state.running.remove(victim)
        state.preempted.append(victim)
        self._log_preemption(state, victim, "full", restore=policy.restore,
                             kv_tokens=tokens_with_kv, context=context)

    def _stage_out(self, state: EngineState, victim: ServingRequest,
                   num_blocks: int, *, park: bool) -> None:
        """Block-granular eviction: stage the victim's coldest prefix
        blocks to host memory, keeping the rest device-resident.

        ``park=True`` takes a runner out of the batch (its restore is a
        small swap-in of just the staged blocks instead of re-allocating —
        and re-transferring — the whole context).  ``park=False`` deepens
        the eviction of an *already parked* victim when no runner is left
        to evict: the extra bite joins the same parked episode — its
        restore grows by the staged blocks and its stall clock keeps
        running from the original eviction — instead of deadlocking the
        survivor's growth.
        """
        allocator, clock = state.allocator, state.clock
        staged = allocator.evict_blocks(victim.request_id, num_blocks)
        victim.swapped_kv_blocks += staged
        victim.partial_evictions += 1
        victim.preempted_count += 1
        bytes_out = staged * allocator.pool.block_bytes
        out_s = kv_swap_time_s(bytes_out, self.system.config.link,
                               pp_stages=state.plan.pp_stages)
        victim.num_swap_outs += 1
        victim.swap_time_s += out_s
        if park:
            victim.preempt_time_s = clock
            victim.state = RequestState.PREEMPTED
            victim.restore_ready_s = 0.0
            victim.restore_via = "swap"
            # The allocation survives: resume re-admits the staged blocks
            # and the KV token count is unchanged.
            victim.resume_kv_tokens = victim.kv_tokens
            victim.swap_bytes = bytes_out
            victim.swap_done_s = clock + out_s
            state.running.remove(victim)
            state.preempted.append(victim)
        else:
            victim.swap_bytes += bytes_out
            # The fresh transfer queues behind any still-draining one.
            victim.swap_done_s = max(victim.swap_done_s, clock) + out_s
        self._log_preemption(state, victim, "partial", staged_blocks=staged,
                             park=park)

    def _resume(self, state: EngineState, request: ServingRequest) -> None:
        """Bring a preempted request back; its KV is already booked."""
        clock = state.clock
        via = request.restore_via
        request.kv_tokens = request.resume_kv_tokens
        before_first = request.first_token_time_s is None
        parked_s = clock - request.preempt_time_s
        request.stall_s += parked_s
        if before_first:
            request.prefill_stall_s += parked_s
        if via == "swap":
            in_s = kv_swap_time_s(request.swap_bytes, self.system.config.link,
                                  pp_stages=state.plan.pp_stages)
            request.num_swap_ins += 1
            request.swap_time_s += in_s
            # Swap-in serialises behind any still-draining swap-out.
            request.restore_ready_s = max(clock, request.swap_done_s) + in_s
            request.stall_s += request.restore_ready_s - clock
            if before_first:
                request.prefill_stall_s += request.restore_ready_s - clock
        request.restore_via = ""
        request.migration_pending = False
        if request.restore_remaining > 0:
            # Recompute restore: the re-prefill ahead still keeps the
            # request off decode, so its span counts as stall too (accrued
            # when the rebuild completes).
            request.restore_started_s = clock
        rebuilding = request.prefill_remaining > 0 or request.restore_remaining > 0
        request.state = RequestState.PREFILL if rebuilding else RequestState.DECODE
        if state.recorder is not None:
            state.recorder.event("request.resume", clock, request.request_id,
                                 via=via, ready_s=request.restore_ready_s,
                                 rebuild_tokens=request.restore_remaining)

    def _grow_or_preempt(self, state: EngineState,
                         candidates: List[ServingRequest]) -> List[ServingRequest]:
        """Grow each decodable request's KV to its context, evicting on
        pool exhaustion; returns the requests that may decode now."""
        allocator, policy, clock = state.allocator, state.policy, state.clock
        partial = policy.partial_blocks
        batch: List[ServingRequest] = []
        for request in candidates:
            if request.state is RequestState.PREEMPTED:
                continue  # evicted by an earlier candidate's growth
            target = max(request.context_length, request.kv_tokens)
            grown = allocator.grow(request.request_id, target)
            while not grown:
                victims = [r for r in state.running
                           if r is not request and r.restore_ready_s <= clock]
                kind, victim = policy.select_eviction(
                    victims,
                    allocator.evictable_prefixes() if self.prefix_sharing else (),
                    clock)
                if kind == "chain":
                    # The coldest blocks pool-wide belong to an idle
                    # (refcount-zero) shared prefix: reclaim it before
                    # preempting any live request.
                    allocator.evict_prefix(victim.key)
                elif victim is not None:
                    # Block-granular swap: stage only the victim's coldest
                    # prefix blocks when it holds more than that; a victim
                    # at or below the partial size is evicted whole.
                    if (partial is not None
                            and allocator.holds_resident_blocks(
                                victim.request_id) > partial):
                        self._stage_out(state, victim, partial, park=True)
                    else:
                        self._preempt(state, victim)
                    if victim in batch:
                        batch.remove(victim)
                elif partial is not None:
                    # No runner left to evict; free blocks from a parked,
                    # still partially-resident victim instead of
                    # deadlocking the survivor's growth.
                    parked = [r for r in state.preempted
                              if allocator.holds_resident_blocks(r.request_id) > 0]
                    victim = policy.select_victim(parked, clock)
                    if victim is None:
                        break
                    self._stage_out(state, victim, partial, park=False)
                else:
                    break
                grown = allocator.grow(request.request_id, target)
            if grown:
                request.kv_tokens = target
                batch.append(request)
        self._track_peak(state)
        return batch

    # ------------------------------------------------------------- migration

    def migrate_out(self, state: EngineState, request: ServingRequest,
                    *, now_s: float) -> KvMigration:
        """Hand ``request`` off to another engine, staging its KV in host
        memory.

        Used by the closed-loop cluster controller when a re-placement
        dismantles a replica with work in flight: the request's
        materialised KV streams out over the CXL fabric (KV a swap eviction
        already staged pays no fresh transfer), its blocks or reservation
        are freed, and the returned :class:`KvMigration` carries everything
        :meth:`migrate_in` needs to resume it elsewhere at its original
        progress.  A recompute-evicted request has no KV to move (restart
        it instead); a finished, rejected or already-migrated request
        cannot move at all.
        """
        if request.state in (RequestState.FINISHED, RequestState.REJECTED,
                             RequestState.MIGRATED):
            raise ValueError(
                f"request {request.request_id} is {request.state.value}; "
                "only in-flight requests can migrate"
            )
        if request.restore_remaining > 0:
            raise ValueError(
                f"request {request.request_id} awaits a recompute rebuild; "
                "its KV is gone — restart it on the destination instead"
            )
        context = request.context_length
        total_bytes = context * state.bytes_per_token
        # KV already swap-staged in host memory travels for free; only the
        # device-resident remainder pays a fresh swap-out on this fabric.
        staged_bytes = (request.swap_bytes
                        if request.state is RequestState.PREEMPTED else 0)
        fresh_bytes = max(total_bytes - staged_bytes, 0)
        out_s = (kv_swap_time_s(fresh_bytes, self.system.config.link,
                                pp_stages=state.plan.pp_stages)
                 if fresh_bytes else 0.0)
        # The host copy is whole once the fresh transfer finishes AND any
        # still-draining eviction swap-out has landed.
        host_ready_s = now_s + out_s
        if request.state is RequestState.PREEMPTED:
            host_ready_s = max(host_ready_s, request.swap_done_s)
        moved = KvMigration(
            query=request.query,
            tokens_generated=request.tokens_generated,
            prefill_remaining=request.prefill_remaining,
            kv_tokens=context,
            swap_bytes=total_bytes,
            swap_out_s=out_s,
            host_ready_s=host_ready_s,
            swap_in_priced=request.migration_pending,
            admitted_time_s=request.admitted_time_s,
            first_token_time_s=request.first_token_time_s,
            last_token_time_s=request.last_token_time_s,
            tbt_samples_s=tuple(request.tbt_samples_s),
            preempted_count=request.preempted_count,
            num_swap_outs=request.num_swap_outs + (1 if fresh_bytes else 0),
            num_swap_ins=request.num_swap_ins,
            swap_time_s=request.swap_time_s + out_s,
            recompute_tokens=request.recompute_tokens,
            # A request migrated while parked has been stalled since its
            # eviction; close that span here (the destination's resume
            # counts only from the migration instant onward).
            stall_s=request.stall_s + (
                max(now_s - request.preempt_time_s, 0.0)
                if request.state is RequestState.PREEMPTED else 0.0),
            prefill_stall_s=request.prefill_stall_s + (
                max(now_s - request.preempt_time_s, 0.0)
                if (request.state is RequestState.PREEMPTED
                    and request.first_token_time_s is None) else 0.0),
            partial_evictions=request.partial_evictions,
            migrated_count=request.migrated_count,
            migrated_kv_bytes=request.migrated_kv_bytes,
            prefix_lookups=request.prefix_lookups,
            prefix_hits=request.prefix_hits,
            prefix_hit_tokens=request.prefix_hit_tokens,
            cow_blocks=request.cow_blocks,
        )
        rec = state.recorder
        if rec is not None:
            rec.event("request.migrate_out", now_s, request.request_id,
                      kv_bytes=total_bytes, swap_out_s=out_s,
                      host_ready_s=host_ready_s,
                      tokens_generated=request.tokens_generated)
            rec.now_s = now_s
        # Strip the request from the (frozen) source state: free its blocks
        # or reservation and drop it from whichever queue still holds it.
        # A full release also detaches any shared-prefix chain reference
        # (the chain stays cached on the source pool).
        if state.paged:
            state.allocator.release(request.request_id, now_s=now_s)
        elif request in state.running:
            state.reserved_bytes -= request.kv_reserved_bytes
        for queue in (state.pending, state.waiting, state.preempted):
            if request in queue:
                queue.remove(request)
        if request in state.running:
            state.running.remove(request)
        request.kv_tokens = 0
        request.swapped_kv_blocks = 0
        request.restore_via = ""
        request.migration_pending = False
        request.state = RequestState.MIGRATED
        return moved

    def migrate_in(self, state: EngineState, moved: KvMigration,
                   *, now_s: float) -> ServingRequest:
        """Admit a migrated request with its progress and history intact.

        The request joins the destination like a swap-evicted victim whose
        KV sits in host memory: it queues as ``PREEMPTED`` and resumes —
        ahead of fresh admissions — once the destination can hold its KV
        (block re-allocation in paged mode, a full-context reservation in
        reserve mode), paying a swap-in priced on *this* engine's fabric
        serialised behind the source's still-draining swap-out.  TTFT,
        latency and SLA classification stay anchored to the original
        arrival time, which travels inside ``moved.query``.  An over-long
        query raises before the state changes.
        """
        servable = bool(self._servable_mask(
            np.array([moved.query.total_context], dtype=np.int64),
            state.kv_budget)[0])
        if servable:
            self._check_planned(state, moved.query)
        request = ServingRequest(len(state.requests), moved.query,
                                 columns=state.columns)
        state.requests.append(request)
        request.tokens_generated = moved.tokens_generated
        request.prefill_remaining = moved.prefill_remaining
        request.admitted_time_s = moved.admitted_time_s
        request.first_token_time_s = moved.first_token_time_s
        request.last_token_time_s = moved.last_token_time_s
        request.tbt_samples_s = list(moved.tbt_samples_s)
        request.preempted_count = moved.preempted_count
        request.num_swap_outs = moved.num_swap_outs
        request.num_swap_ins = moved.num_swap_ins
        request.swap_time_s = moved.swap_time_s
        request.recompute_tokens = moved.recompute_tokens
        request.stall_s = moved.stall_s
        request.prefill_stall_s = moved.prefill_stall_s
        request.partial_evictions = moved.partial_evictions
        request.migrated_count = moved.migrated_count + 1
        request.migrated_kv_bytes = moved.migrated_kv_bytes + moved.swap_bytes
        request.prefix_lookups = moved.prefix_lookups
        request.prefix_hits = moved.prefix_hits
        request.prefix_hit_tokens = moved.prefix_hit_tokens
        request.cow_blocks = moved.cow_blocks
        rec = state.recorder
        if not servable:
            request.state = RequestState.REJECTED
            if rec is not None:
                rec.event("request.migrate_in", now_s, request.request_id,
                          accepted=False)
            return request
        request.state = RequestState.PREEMPTED
        request.restore_via = "swap"
        request.migration_pending = True
        request.preempt_time_s = now_s
        request.swap_bytes = moved.swap_bytes
        request.swap_done_s = moved.host_ready_s
        # Blocks on resume: the whole prompt for a mid-prefill request
        # (mirroring paged admission), the materialised context otherwise.
        request.resume_kv_tokens = (moved.query.prompt_tokens
                                    if moved.prefill_remaining > 0
                                    else moved.kv_tokens)
        if not state.paged:
            request.kv_reserved_bytes = \
                self._kv_reservation_bytes(moved.query.total_context)
        state.preempted.append(request)
        if rec is not None:
            rec.event("request.migrate_in", now_s, request.request_id,
                      accepted=True, kv_bytes=moved.swap_bytes,
                      tokens_generated=moved.tokens_generated,
                      host_ready_s=moved.host_ready_s)
        return request

    # ------------------------------------------------------------------ sizing

    def estimated_capacity_qps(self, trace: Sequence[Query]) -> float:
        """Rough sustainable arrival rate (queries/s) for ``trace``'s shape.

        Models the engine's actual steady state: prefills serialise (one
        request's prompt streams exclusively, and by default decoding stalls
        while it does), whereas decode iterations advance the whole batch at
        once, so a query's decode share is ``decode_tokens`` iterations
        divided across the occupied slots.  Useful for choosing an arrival
        rate that loads, but does not drown, the system.  The memory-side
        slot cap is admission-aware: ``reserve`` books each query's
        full-context KV up front, while ``paged`` holds only the *current*
        context, so its sustainable concurrency is how many mid-decode
        contexts the block pool fits — sizing paged replicas by the reserve
        booking (the pre-fix behaviour) under-estimated them and starved
        the cluster placer's capability probe.
        """
        queries = list(trace)
        plan, cost, slots, _ = self._setup(queries)
        # Estimate from the queries admission could actually accept, with the
        # same predicate (and weight-feasibility error) run() applies.
        kv_budget = self._kv_budget_bytes(plan)
        mask = self._servable_mask(
            np.fromiter((q.total_context for q in queries),
                        dtype=np.int64, count=len(queries)),
            kv_budget)
        servable = [q for q, ok in zip(queries, mask.tolist(), strict=True) if ok]
        if servable:
            queries = servable
        mean_prompt = sum(q.prompt_tokens for q in queries) / len(queries)
        mean_decode = sum(q.decode_tokens for q in queries) / len(queries)
        mid_context = int(mean_prompt + mean_decode / 2)
        # On memory-bound configs the KV budget, not the plan, caps how many
        # requests decode concurrently — per the admission mode actually
        # gating the run.
        if self.admission == "paged":
            pool = self._make_pool(kv_budget)
            blocks_per_query = pool.blocks_for(max(mid_context, 1))
            if blocks_per_query > 0:
                slots = max(1, min(slots, pool.num_blocks // blocks_per_query))
        else:
            reservation = self._kv_reservation_bytes(int(mean_prompt + mean_decode))
            if reservation > 0:
                slots = max(1, min(slots, kv_budget // reservation))
        prefill_s = cost.prefill_chunk_s(int(mean_prompt), max(int(mean_prompt) // 2, 1))
        decode_share_s = mean_decode * cost.decode_iteration_s([mid_context]) / slots
        return 1.0 / (prefill_s + decode_share_s)
