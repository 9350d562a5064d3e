"""Performance model: compiled block programs to latency and activity.

The model compiles one transformer block per (model, channel assignment,
context length), executes every operation's per-channel instruction stream on
a :class:`~repro.pim.channel.PIMChannel` timing substrate, adds the PNM
accelerator / RISC-V latencies and the CXL communication of the chosen
parallelisation plan, and caches the result.  Inference-level aggregation
(prefill / decoding phases, pipelining, throughput) lives in
``repro.core.inference``.

Two caches sit in this module:

* each :class:`PerformanceModel` keeps an LRU of whole block costs, keyed by
  (model, context, channel assignment);
* one process-wide :data:`OPERATION_MEMO`, shared by every model (and so by
  every ``CentSystem``), maps one compiled operation to its channel timing.
  Every operation runs on a fresh ``PIMChannel``, so its busy time, buffer
  transfer counts and DRAM command counts are a pure function of
  ``(timing, geometry, program content)``; the memo is keyed by exactly
  that and is therefore exact.  The FC GEMVs repeat at every context length
  and across device counts, so most operations of a cold run are hits.
  The block fold over operations is the same on a hit or a miss, so every
  :class:`BlockCost` is bit-identical to a simulation without the memo.
"""

from __future__ import annotations

import pickle
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, NamedTuple, Tuple

from repro.compiler.operations import PnmTask, PnmUnit
from repro.compiler.transformer import compile_transformer_block
from repro.core.config import CentConfig
from repro.core.results import LatencyBreakdown
from repro.cxl.primitives import broadcast, gather, multicast, send_receive
from repro.dram.commands import CommandType
from repro.dram.geometry import ChannelGeometry
from repro.dram.timing import TimingParameters
from repro.isa.program import Program
from repro.mapping.parallelism import ParallelismPlan
from repro.models.config import ModelConfig
from repro.pim.channel import PIMChannel
from repro.pnm.accelerators import PnmLatencyModel
from repro.pnm.riscv import RiscvCluster

__all__ = [
    "BlockCost",
    "OPERATION_MEMO",
    "OPERATION_MEMO_ENTRIES",
    "OperationMemo",
    "OperationTiming",
    "PerformanceModel",
]

#: Bound of the process-wide operation memo.  An entry is one operation's
#: program key (a few kB to ~100 kB of bytes) and four counters.
OPERATION_MEMO_ENTRIES = 4096


class OperationTiming(NamedTuple):
    """What one operation's program leaves on a fresh ``PIMChannel``."""

    busy_until_ns: float
    global_buffer_writes: int
    shared_buffer_transfers: int
    #: DRAM command counts in the order the channel first issued each kind.
    command_counts: Tuple[Tuple[CommandType, int], ...]


class OperationMemo:
    """Bounded LRU of operation timings by program content.

    The key is the pickled tuple of every instruction's class name and field
    values, so two programs share an entry only when they are the same
    instruction stream.  ``hits`` and ``misses`` count lookups since
    construction.
    """

    def __init__(self, capacity: int = OPERATION_MEMO_ENTRIES) -> None:
        if capacity <= 0:
            raise ValueError("memo capacity must be positive")
        self.capacity = capacity
        self.hits = 0
        self.misses = 0
        self._entries: "OrderedDict[Tuple, OperationTiming]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def timing(
        self, timing: TimingParameters, geometry: ChannelGeometry, program: Program
    ) -> OperationTiming:
        """What ``program`` leaves on a fresh channel once its row is
        closed, simulated only on the first lookup."""
        key = (timing, geometry, pickle.dumps(
            tuple((type(instruction).__name__, *vars(instruction).values())
                  for instruction in program)))
        result = self._entries.get(key)
        if result is not None:
            self.hits += 1
            self._entries.move_to_end(key)
            return result
        self.misses += 1
        channel = PIMChannel(timing=timing, geometry=geometry)
        channel.execute_program(program)
        channel.close_row()
        result = self._entries[key] = OperationTiming(
            busy_until_ns=channel.busy_until_ns,
            global_buffer_writes=channel.stats.global_buffer_writes,
            shared_buffer_transfers=channel.stats.shared_buffer_transfers,
            command_counts=tuple(channel.dram.stats.counts.items()),
        )
        if len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
        return result


#: The memo every :class:`PerformanceModel` in the process shares.
OPERATION_MEMO = OperationMemo()


@dataclass
class BlockCost:
    """Latency and activity of one transformer block for one token."""

    breakdown: LatencyBreakdown
    command_counts_per_channel: Dict[CommandType, int] = field(default_factory=dict)
    fc_channels: int = 1
    attention_channels: int = 1
    dram_bytes_read: int = 0
    flops: int = 0

    def total_command_counts(self) -> Dict[CommandType, int]:
        """Command counts scaled to all channels executing the block.

        The per-channel stream is representative of every channel assigned to
        the block, so total activity is the per-channel count times the
        channel count (using the FC channel count, which carries almost all
        of the traffic).
        """
        return {kind: count * self.fc_channels
                for kind, count in self.command_counts_per_channel.items()}


class PerformanceModel:
    """Maps (model, plan, context) to block latency, with bounded caching.

    Block simulations are cached in an LRU keyed by (model, context, channel
    assignment).  The capacity comes from ``config.block_cache_entries`` (or
    the explicit ``cache_capacity`` override) so long serving traces that
    sweep many context lengths cannot grow memory without bound.

    Below that cache, a block miss still compiles the block (so compiler
    validation and the allocator's capacity check always run) but takes
    each operation's channel timing from the process-wide
    :data:`OPERATION_MEMO`, which simulates only programs it has not seen.
    """

    def __init__(self, config: CentConfig, cache_capacity: int | None = None) -> None:
        self.config = config
        if cache_capacity is None:
            cache_capacity = config.block_cache_entries
        if cache_capacity <= 0:
            raise ValueError("cache capacity must be positive")
        self.cache_capacity = cache_capacity
        self._cache: "OrderedDict[Tuple, BlockCost]" = OrderedDict()
        self._pnm_latency = PnmLatencyModel(
            clock_ghz=config.pnm_clock_ghz, instances=config.pnm_units
        )
        self._riscv = RiscvCluster(
            num_cores=config.riscv_cores, clock_ghz=config.pnm_clock_ghz
        )

    # ------------------------------------------------------------------ block level

    def block_cost(
        self,
        model: ModelConfig,
        plan: ParallelismPlan,
        context_length: int,
    ) -> BlockCost:
        """Latency/activity of one transformer block under ``plan``."""
        fc_channels = plan.fc_channels_per_block(model)
        attention_channels = plan.attention_channels_per_block(model)
        key = (model.name, context_length, fc_channels, attention_channels)
        base = self._cache.get(key)
        if base is not None:
            self._cache.move_to_end(key)
        else:
            base = self._cache[key] = self._simulate_block(
                model, context_length, fc_channels, attention_channels
            )
            while len(self._cache) > self.cache_capacity:
                self._cache.popitem(last=False)
        cxl_ns = self._cxl_latency_ns(model, plan)
        breakdown = LatencyBreakdown(
            pim_ns=base.breakdown.pim_ns,
            pnm_ns=base.breakdown.pnm_ns,
            cxl_ns=cxl_ns,
            host_ns=0.0,
        )
        return BlockCost(
            breakdown=breakdown,
            command_counts_per_channel=base.command_counts_per_channel,
            fc_channels=fc_channels,
            attention_channels=attention_channels,
            dram_bytes_read=base.dram_bytes_read,
            flops=base.flops,
        )

    def token_breakdown(
        self,
        model: ModelConfig,
        plan: ParallelismPlan,
        context_length: int,
    ) -> LatencyBreakdown:
        """Latency of one full token (all blocks plus host work)."""
        block = self.block_cost(model, plan, context_length)
        per_token = block.breakdown.scaled(model.num_layers)
        return LatencyBreakdown(
            pim_ns=per_token.pim_ns,
            pnm_ns=per_token.pnm_ns,
            cxl_ns=per_token.cxl_ns,
            host_ns=self.config.host_ns_per_token,
        )

    # ------------------------------------------------------------------ internals

    def _simulate_block(
        self,
        model: ModelConfig,
        context_length: int,
        fc_channels: int,
        attention_channels: int,
    ) -> BlockCost:
        block = compile_transformer_block(
            model,
            context_length,
            num_channels=fc_channels,
            attention_channels=attention_channels,
            geometry=self.config.geometry,
        )
        pim_ns = 0.0
        command_counts: Dict[CommandType, int] = {}
        slot_bytes = self.config.geometry.access_granularity_bytes
        for operation in block.operations:
            if len(operation.program) == 0:
                continue
            op = OPERATION_MEMO.timing(
                self.config.timing, self.config.geometry, operation.program
            )
            pim_ns += op.busy_until_ns
            # Staging traffic over the device-internal bus: WR_GB carries the
            # same vector to every channel's global buffer, so it is a
            # broadcast paid once per device; per-channel results and KV
            # writes (RD_MAC, WR_SBK, ...) are distinct and serialise across
            # the concurrently active channels of the device.
            broadcast_bytes = op.global_buffer_writes * slot_bytes
            distinct_bytes = (op.shared_buffer_transfers * slot_bytes
                              * self.config.channels_per_device)
            pim_ns += (broadcast_bytes + distinct_bytes) / self.config.device_bus_gbps
            for kind, count in op.command_counts:
                command_counts[kind] = command_counts.get(kind, 0) + count
        pnm_ns = sum(self._pnm_task_latency(task) for task in block.pnm_tasks)
        return BlockCost(
            breakdown=LatencyBreakdown(pim_ns=pim_ns, pnm_ns=pnm_ns),
            command_counts_per_channel=command_counts,
            fc_channels=fc_channels,
            attention_channels=attention_channels,
            dram_bytes_read=block.total_dram_bytes,
            flops=block.total_flops,
        )

    def _pnm_task_latency(self, task: PnmTask) -> float:
        if task.unit is PnmUnit.RISCV:
            return self._riscv.latency_ns(task.routine, task.num_elements)
        return self._pnm_latency.latency_for_elements(task.num_elements)

    def _cxl_latency_ns(self, model: ModelConfig, plan: ParallelismPlan) -> float:
        total = 0.0
        for primitive, num_bytes, fan in plan.cxl_transfers_per_block(model):
            if num_bytes <= 0:
                continue
            if primitive == "send_receive":
                total += send_receive(num_bytes, self.config.link).latency_ns
            elif primitive == "broadcast":
                total += broadcast(num_bytes, fan, self.config.link).latency_ns
            elif primitive == "multicast":
                total += multicast(num_bytes, fan, self.config.link).latency_ns
            elif primitive == "gather":
                total += gather(num_bytes, fan, self.config.link).latency_ns
            else:
                raise ValueError(f"unknown CXL primitive {primitive!r}")
        return total
