"""Per-iteration cost interface for continuous-batching serving.

``InferenceSimulator`` prices whole inferences of identical queries; the
serving engine instead needs the cost of *one* engine iteration over a mixed
batch — requests at different context lengths, some prefilling, some
decoding.  ``IterationCostModel`` extracts that interface from the
performance model:

* per-block latency comes from the same compiled-program simulation as the
  batch path, but is evaluated on a coarse **context grid** and linearly
  interpolated in between (per-block cost is affine in the context length,
  see ``repro.core.inference``), so a trace touching thousands of distinct
  contexts only triggers a handful of block simulations;
* grid evaluations go through the shared :class:`PerformanceModel`, whose
  LRU cache bounds memory across engine iterations and is reused by the
  static batch path of the same :class:`~repro.core.system.CentSystem`.

Timing semantics match the batch simulator: a pipeline-parallel replica
emits one token per stage beat (``blocks_per_stage * block_latency``), so a
full-batch decode iteration — one token for every in-flight query — takes
one token latency (host work is overlapped across queries, as in the batch
throughput model), and prefill streams prompt tokens through the pipeline at
one token per stage beat per replica.
"""

from __future__ import annotations

from typing import Dict, Sequence

import numpy as np

from repro.core.performance import PerformanceModel
from repro.mapping.parallelism import ParallelismPlan
from repro.models.config import ModelConfig

__all__ = ["IterationCostModel"]


class IterationCostModel:
    """Prices one continuous-batching iteration under a fixed (model, plan)."""

    def __init__(
        self,
        performance: PerformanceModel,
        model: ModelConfig,
        plan: ParallelismPlan,
        context_step: int = 256,
    ) -> None:
        if context_step <= 0:
            raise ValueError("context step must be positive")
        self.performance = performance
        self.model = model
        self.plan = plan
        self.context_step = context_step
        # Interpolation endpoints seen this run; tiny (one float per grid
        # point) and keyed only by context because model and plan are fixed.
        self._grid_ns: Dict[int, float] = {}
        # Model and plan are frozen for the lifetime of the cost model, so
        # the per-stage block count (and with it the layer total) is a
        # constant of the instance rather than a per-call lookup.
        self._blocks_per_stage = plan.blocks_per_stage(model)
        self._effective_layers = plan.pp_stages * self._blocks_per_stage
        # Dense per-context latency table backing the batch entry points:
        # one float64 per context in [0, max_context], NaN until priced.
        # Values are filled by the same grid interpolation as
        # ``block_latency_ns`` so table reads are bit-identical to the
        # scalar path.
        self._table_ns = np.full(model.max_context + 1, np.nan)

    # ------------------------------------------------------------------ block level

    def _grid_latency_ns(self, context: int) -> float:
        if context not in self._grid_ns:
            cost = self.performance.block_cost(self.model, self.plan, context)
            self._grid_ns[context] = cost.breakdown.total_ns
        return self._grid_ns[context]

    def block_latency_ns(self, context_length: int) -> float:
        """Per-block latency at ``context_length``, grid-interpolated.

        Contexts are clamped to the model's supported range; the last grid
        cell is shortened to end exactly at ``max_context`` so interpolation
        never prices a context the model cannot hold.
        """
        context = min(max(int(context_length), 1), self.model.max_context)
        lower = max((context // self.context_step) * self.context_step, 1)
        if context == lower:
            return self._grid_latency_ns(lower)
        upper = min(lower + self.context_step, self.model.max_context)
        low_ns = self._grid_latency_ns(lower)
        high_ns = self._grid_latency_ns(upper)
        fraction = (context - lower) / (upper - lower)
        return low_ns + (high_ns - low_ns) * fraction

    # ------------------------------------------------------------------ batch level

    def _fill_table(self, contexts: np.ndarray) -> None:
        """Price the given (unique, clipped) contexts into the dense table.

        Simulates exactly the grid points the scalar path would touch: the
        lower endpoint always, the upper endpoint only for contexts that do
        not sit on the grid — so warming the table never triggers block
        simulations ``block_latency_ns`` itself would have skipped.
        """
        step = self.context_step
        lower = np.maximum((contexts // step) * step, 1)
        off_grid = contexts != lower
        upper = np.minimum(lower + step, self.model.max_context)
        for point in np.unique(
            np.concatenate([lower, upper[off_grid]])
        ).tolist():
            self._grid_latency_ns(int(point))
        grid = self._grid_ns
        low = np.array([grid[p] for p in lower.tolist()])
        high = low.copy()
        high[off_grid] = [grid[p] for p in upper[off_grid].tolist()]
        fraction = np.zeros(len(contexts))
        fraction[off_grid] = (
            (contexts[off_grid] - lower[off_grid])
            / (upper[off_grid] - lower[off_grid])
        )
        self._table_ns[contexts] = low + (high - low) * fraction

    def _table_latencies(self, contexts: np.ndarray) -> np.ndarray:
        """Per-block latencies for an int array of *clipped* contexts."""
        latencies = self._table_ns[contexts]
        missing = np.isnan(latencies)
        if missing.any():
            self._fill_table(np.unique(contexts[missing]))
            latencies = self._table_ns[contexts]
        return latencies

    def block_latency_batch_ns(self, context_lengths: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`block_latency_ns` over an integer array."""
        contexts = np.minimum(
            np.maximum(np.asarray(context_lengths, dtype=np.int64), 1),
            self.model.max_context,
        )
        return self._table_latencies(contexts)

    def decode_iteration_batch_s(self, context_lengths: np.ndarray) -> float:
        """Vectorized :meth:`decode_iteration_s`, bit-exact with the scalar.

        The scalar path folds the per-request latencies left to right with
        the builtin ``sum``; ``cumsum`` performs the same sequential fold,
        so the mean (and with it the returned duration) matches bit for bit.
        """
        contexts = np.asarray(context_lengths, dtype=np.int64)
        n = contexts.shape[0]
        if n == 0:
            return 0.0
        latencies = self.block_latency_batch_ns(contexts)
        total = float(latencies.cumsum()[-1])
        return self._effective_layers * (total / n) * 1e-9

    def decode_span_s(self, context_lengths: np.ndarray, steps: int) -> np.ndarray:
        """Durations of ``steps`` consecutive decode iterations of one batch.

        Iteration ``i`` prices every request at ``context + i`` (each decode
        grows every context by exactly one token and the batch composition
        is fixed across the span — the fast-forward window's precondition).
        Row ``i`` of the result equals ``decode_iteration_s`` on those
        contexts bit for bit.
        """
        contexts = np.asarray(context_lengths, dtype=np.int64)
        n = contexts.shape[0]
        if n == 0 or steps <= 0:
            return np.zeros(max(steps, 0))
        span = np.minimum(
            np.maximum(
                contexts[None, :] + np.arange(steps, dtype=np.int64)[:, None], 1
            ),
            self.model.max_context,
        )
        latencies = self._table_latencies(span)
        totals = latencies.cumsum(axis=1)[:, -1]
        return self._effective_layers * (totals / n) * 1e-9

    # ------------------------------------------------------------------ iteration level

    @property
    def effective_layers(self) -> int:
        """Blocks a token traverses, rounded to whole pipeline stages."""
        return self._effective_layers

    def stage_latency_s(self, context_length: int) -> float:
        """Duration of one pipeline-stage beat at ``context_length``."""
        return self._blocks_per_stage * self.block_latency_ns(context_length) * 1e-9

    def decode_iteration_s(self, context_lengths: Sequence[int]) -> float:
        """Wall-clock time to advance every running request by one token.

        The in-flight requests progress through the pipeline concurrently
        (staggered across stages), so the iteration takes one token latency
        at the batch's mean context, independent of how many of the
        ``pp_stages * dp_replicas`` slots are occupied; per-token host work
        is overlapped across queries exactly as in the batch throughput
        model.
        """
        contexts = list(context_lengths)
        if not contexts:
            return 0.0
        # Explicit left-to-right fold: the batch entry points reproduce this
        # accumulation order bit-exactly (float-fold rule).
        total_block_ns = 0.0
        for context in contexts:
            total_block_ns += self.block_latency_ns(context)
        mean_block_ns = total_block_ns / len(contexts)
        return self.effective_layers * mean_block_ns * 1e-9

    def prefill_chunk_s(self, num_tokens: int, context_length: int) -> float:
        """Wall-clock time to stream ``num_tokens`` of one request's prompt.

        Prompt tokens enter the pipeline back to back (paper §5.5), one per
        stage beat.  A single request streams through one replica's pipeline,
        so data parallelism does not shorten its prefill (the engine
        serialises concurrent prefill chunks, which is conservative for DP
        plans where replicas could prefill different requests in parallel).
        """
        if num_tokens <= 0:
            return 0.0
        return num_tokens * self.stage_latency_s(context_length)
