"""Per-request state tracked by the serving engine.

The hot per-iteration fields (progress counters, timing marks, lifecycle
state) live in a struct-of-arrays store, :class:`RequestColumns`, so the
engine can build, price and advance whole batches with numpy
gathers instead of per-object attribute walks.  :class:`ServingRequest` is a
*view* over one row of that store: scalar code (the kvstore, preemption
policies, live migration, tests) keeps reading and writing the same named
attributes it always did, while ``state.columns`` exposes the parallel
arrays underneath.

A ``ServingRequest`` constructed without an explicit store (tests, rejected
placeholders) gets a private single-row store, so standalone instances
behave exactly like engine-owned ones.
"""

from __future__ import annotations

import enum
import math
from typing import List, Optional

import numpy as np

from repro.workloads.queries import Query

__all__ = ["RequestColumns", "RequestState", "ServingRequest"]


class RequestState(enum.Enum):
    """Lifecycle of one request inside the serving engine."""

    QUEUED = "queued"        # arrived, waiting for admission
    PREFILL = "prefill"      # admitted, prompt tokens streaming in
    DECODE = "decode"        # generating output tokens
    PREEMPTED = "preempted"  # evicted from the paged KV pool, awaiting resume
    FINISHED = "finished"    # all output tokens generated
    REJECTED = "rejected"    # can never fit the system; refused on arrival
    MIGRATED = "migrated"    # live-migrated to another engine, which owns it now


#: Stable state <-> int8 coding for the columnar store.
_STATE_BY_CODE = tuple(RequestState)
_CODE_BY_STATE = {state: code for code, state in enumerate(_STATE_BY_CODE)}


class RequestColumns:
    """Struct-of-arrays backing store for a set of serving requests.

    Integer progress counters and float timing marks are kept in parallel
    numpy arrays indexed by the request's ``row``; ``math.nan`` encodes the
    ``None`` of the optional timestamps.  Arrays double on demand and are
    never compacted, so a row index stays valid for the request's lifetime.
    """

    _INT_COLUMNS = (
        "prompt_tokens",
        "decode_tokens",
        "prefill_remaining",
        "tokens_generated",
        "kv_tokens",
        "restore_remaining",
    )
    _FLOAT_COLUMNS = (
        "arrival_time_s",
        "admitted_time_s",
        "first_token_time_s",
        "last_token_time_s",
        "finish_time_s",
        "restore_ready_s",
    )

    __slots__ = _INT_COLUMNS + _FLOAT_COLUMNS + ("state_code", "size", "_capacity")

    def __init__(self, capacity: int = 16) -> None:
        capacity = max(int(capacity), 1)
        for name in self._INT_COLUMNS:
            setattr(self, name, np.zeros(capacity, dtype=np.int64))
        for name in self._FLOAT_COLUMNS:
            setattr(self, name, np.zeros(capacity))
        self.state_code = np.zeros(capacity, dtype=np.int8)
        self.size = 0
        self._capacity = capacity

    def _grow(self, need: int) -> None:
        capacity = self._capacity
        while capacity < need:
            capacity *= 2
        for name in self._INT_COLUMNS + self._FLOAT_COLUMNS + ("state_code",):
            old = getattr(self, name)
            new = np.zeros(capacity, dtype=old.dtype)
            new[: self.size] = old[: self.size]
            setattr(self, name, new)
        self._capacity = capacity

    def append(self, query: Query) -> int:
        """Add a fresh (QUEUED) row for ``query`` and return its index."""
        row = self.size
        if row + 1 > self._capacity:
            self._grow(row + 1)
        self.size = row + 1
        self.prompt_tokens[row] = query.prompt_tokens
        self.decode_tokens[row] = query.decode_tokens
        self.prefill_remaining[row] = query.prompt_tokens
        self.tokens_generated[row] = 0
        self.kv_tokens[row] = 0
        self.restore_remaining[row] = 0
        self.arrival_time_s[row] = query.arrival_time_s
        self.admitted_time_s[row] = math.nan
        self.first_token_time_s[row] = math.nan
        self.last_token_time_s[row] = math.nan
        self.finish_time_s[row] = math.nan
        self.restore_ready_s[row] = 0.0
        self.state_code[row] = 0  # RequestState.QUEUED
        return row

def _int_column(name: str):
    def getter(self: "ServingRequest") -> int:
        return int(getattr(self._columns, name)[self._row])

    def setter(self: "ServingRequest", value: int) -> None:
        getattr(self._columns, name)[self._row] = value

    return property(getter, setter)


def _float_column(name: str):
    def getter(self: "ServingRequest") -> float:
        return float(getattr(self._columns, name)[self._row])

    def setter(self: "ServingRequest", value: float) -> None:
        getattr(self._columns, name)[self._row] = value

    return property(getter, setter)


def _optional_float_column(name: str):
    def getter(self: "ServingRequest") -> Optional[float]:
        value = getattr(self._columns, name)[self._row]
        return None if value != value else float(value)  # NaN encodes None

    def setter(self: "ServingRequest", value: Optional[float]) -> None:
        getattr(self._columns, name)[self._row] = (
            math.nan if value is None else value
        )

    return property(getter, setter)


class ServingRequest:
    """One query's measured journey through the engine.

    The fields below ``tbt_samples_s`` exist for the paged-admission mode
    (``repro.kvstore``): they track the request's on-device KV allocation,
    its restore progress after a preemption, and the preemption/swap
    counters the aggregation folds into the
    :class:`~repro.core.results.ServingResult`.  Under the legacy
    ``admission="reserve"`` path they keep their zero defaults.
    """

    __slots__ = (
        "request_id",
        "query",
        "_columns",
        "_row",
        "kv_reserved_bytes",
        "tbt_samples_s",
        #: Size of the current rebuild (a decode victim's whole context, a
        #: prefill victim's lost prefix); prices the rebuild chunks' midpoints.
        "restore_total",
        #: Tokens the next resume must re-allocate blocks for.
        "resume_kv_tokens",
        #: When the in-flight swap-out finishes draining (swap-in serialises
        #: behind it if the request resumes immediately).
        "swap_done_s",
        #: KV bytes the last swap-out staged to the host (swap restore only).
        "swap_bytes",
        #: When the request was last preempted (stall accounting).
        "preempt_time_s",
        #: When the request last re-acquired a slot with a KV rebuild still
        #: ahead of it (recompute restore); the rebuild span counts as stall.
        "restore_started_s",
        #: How the current eviction's KV comes back: ``"swap"`` or
        #: ``"recompute"`` while evicted, ``""`` otherwise.  Live migrations
        #: always restore by swap, whatever the destination's policy.
        "restore_via",
        #: Blocks of this request's KV staged in host memory by a partial
        #: (block-granular) eviction; resume re-admits exactly these while
        #: the rest of the allocation stayed device-resident.
        "swapped_kv_blocks",
        #: True between a live migration landing and its first resume on the
        #: destination: the chain's single swap-in is already accounted for.
        "migration_pending",
        # ---- counters surfaced through aggregate_serving_result ----
        "preempted_count",
        "num_swap_outs",
        "num_swap_ins",
        "swap_time_s",
        "recompute_tokens",
        "stall_s",
        #: Share of ``stall_s`` accrued before the first token was emitted
        #: (a preempted prefill victim's off-device and rebuild time); the
        #: attribution layer splits the stall across the prefill/decode
        #: phases with it.
        "prefill_stall_s",
        #: Block-granular evictions among ``preempted_count``.
        "partial_evictions",
        #: Times this request was live-migrated between engines, and the KV
        #: bytes those moves streamed through host memory.
        "migrated_count",
        "migrated_kv_bytes",
        #: Shared-prefix cache outcome at admission: a prefix-tagged request
        #: records one lookup; a hit also records the prefix tokens whose
        #: prefill it skipped and the copy-on-write block (if any) it took
        #: of the chain's partial tail.
        "prefix_lookups",
        "prefix_hits",
        "prefix_hit_tokens",
        "cow_blocks",
        #: True between a cache-miss admission and prefill completion, when
        #: the engine promotes this request's prefix blocks into a chain.
        "prefix_pending",
    )

    def __init__(
        self,
        request_id: int,
        query: Query,
        state: RequestState = RequestState.QUEUED,
        *,
        columns: Optional[RequestColumns] = None,
        row: Optional[int] = None,
    ) -> None:
        self.request_id = request_id
        self.query = query
        if columns is None:
            columns = RequestColumns(capacity=1)
            row = columns.append(query)
        elif row is None:
            row = columns.append(query)
        self._columns = columns
        self._row = row
        if state is not RequestState.QUEUED:
            self.state = state
        self.kv_reserved_bytes = 0
        self.tbt_samples_s: List[float] = []
        self.restore_total = 0
        self.resume_kv_tokens = 0
        self.swap_done_s = 0.0
        self.swap_bytes = 0
        self.preempt_time_s: Optional[float] = None
        self.restore_started_s = 0.0
        self.restore_via = ""
        self.swapped_kv_blocks = 0
        self.migration_pending = False
        self.preempted_count = 0
        self.num_swap_outs = 0
        self.num_swap_ins = 0
        self.swap_time_s = 0.0
        self.recompute_tokens = 0
        self.stall_s = 0.0
        self.prefill_stall_s = 0.0
        self.partial_evictions = 0
        self.migrated_count = 0
        self.migrated_kv_bytes = 0
        self.prefix_lookups = 0
        self.prefix_hits = 0
        self.prefix_hit_tokens = 0
        self.cow_blocks = 0
        self.prefix_pending = False

    # ------------------------------------------------------------------ columnar views

    @property
    def row(self) -> int:
        """Index of this request in its :class:`RequestColumns` store."""
        return self._row

    prefill_remaining = _int_column("prefill_remaining")
    tokens_generated = _int_column("tokens_generated")
    #: Tokens currently backed by allocated KV blocks (paged mode only).
    kv_tokens = _int_column("kv_tokens")
    #: Tokens of KV still to re-prefill after a recompute-mode preemption.
    restore_remaining = _int_column("restore_remaining")
    admitted_time_s = _optional_float_column("admitted_time_s")
    first_token_time_s = _optional_float_column("first_token_time_s")
    last_token_time_s = _optional_float_column("last_token_time_s")
    finish_time_s = _optional_float_column("finish_time_s")
    #: Engine time at which this request's swap-in completes; the request
    #: holds its slot and blocks but cannot decode before then.
    restore_ready_s = _float_column("restore_ready_s")

    @property
    def state(self) -> RequestState:
        return _STATE_BY_CODE[self._columns.state_code[self._row]]

    @state.setter
    def state(self, value: RequestState) -> None:
        self._columns.state_code[self._row] = _CODE_BY_STATE[value]

    # ------------------------------------------------------------------ progress

    @property
    def arrival_time_s(self) -> float:
        return self.query.arrival_time_s

    @property
    def context_length(self) -> int:
        """Tokens currently held in the request's KV cache."""
        columns, row = self._columns, self._row
        return int(
            self.query.prompt_tokens
            - columns.prefill_remaining[row]
            + columns.tokens_generated[row]
        )

    @property
    def is_running(self) -> bool:
        return self.state in (RequestState.PREFILL, RequestState.DECODE)

    # ------------------------------------------------------------------ telemetry

    def trace_args(self) -> dict:
        """Static args attached to this request's ``request.queued`` trace
        event (the sizes every lifecycle consumer wants next to the id)."""
        return {"prompt_tokens": self.query.prompt_tokens,
                "decode_tokens": self.query.decode_tokens}

    # ------------------------------------------------------------------ metrics

    @property
    def ttft_s(self) -> Optional[float]:
        """Time from arrival to the first generated token."""
        if self.first_token_time_s is None:
            return None
        return self.first_token_time_s - self.arrival_time_s

    @property
    def queueing_delay_s(self) -> Optional[float]:
        if self.admitted_time_s is None:
            return None
        return self.admitted_time_s - self.arrival_time_s

    @property
    def latency_s(self) -> Optional[float]:
        """End-to-end query latency (arrival to last token)."""
        if self.finish_time_s is None:
            return None
        return self.finish_time_s - self.arrival_time_s

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ServingRequest(request_id={self.request_id}, "
            f"state={self.state.name}, context={self.context_length})"
        )
