"""The process-wide PIM operation memo against the full cycle simulator.

``PerformanceModel._simulate_block`` takes each compiled operation's channel
timing from ``OPERATION_MEMO`` instead of re-running the cycle-level
``PIMChannel`` on every block.  The memo is exact only if every
``BlockCost`` field stays bit-identical to a simulation without it, whatever
was cached before and in whatever order; these tests check that on a golden
grid (two models, four contexts, FC and attention channel counts including
``fc != attn``), plus the counters and the LRU bound.
"""

from dataclasses import replace

import pytest

from repro.core import performance
from repro.core.config import CentConfig
from repro.core.performance import (
    OPERATION_MEMO,
    OPERATION_MEMO_ENTRIES,
    OperationMemo,
    OperationTiming,
    PerformanceModel,
)
from repro.core.system import CentSystem
from repro.isa.instructions import MacAllBank, WriteGlobalBuffer
from repro.isa.program import Program
from repro.models.config import LLAMA2_7B, ModelConfig
from repro.pim.channel import PIMChannel

SMALL_LLAMA = ModelConfig(name="small-llama", num_layers=8, d_model=1024,
                          num_heads=16, num_kv_heads=4, d_ff=2816,
                          vocab_size=32000, max_context=2048)

CONTEXTS = (1, 17, 257, 2048)

#: ``(model, fc_channels, attention_channels)``; the 7B rows stay at
#: channel counts whose cycle simulation takes a fraction of a second.
CHANNELS = (
    (SMALL_LLAMA, 2, 2),
    (SMALL_LLAMA, 4, 4),
    (SMALL_LLAMA, 8, 2),
    (SMALL_LLAMA, 16, 16),
    (LLAMA2_7B, 8, 2),
    (LLAMA2_7B, 16, 16),
)

GRID = [(model, context, fc, attn)
        for model, fc, attn in CHANNELS for context in CONTEXTS]

CONFIG = CentConfig(num_devices=4)


class CycleSimulator:
    """Stands in for the memo: a fresh ``PIMChannel`` for every operation,
    every time, exactly as blocks were priced before the memo existed."""

    def timing(self, timing, geometry, program):
        channel = PIMChannel(timing=timing, geometry=geometry)
        channel.execute_program(program)
        channel.close_row()
        return OperationTiming(
            busy_until_ns=channel.busy_until_ns,
            global_buffer_writes=channel.stats.global_buffer_writes,
            shared_buffer_transfers=channel.stats.shared_buffer_transfers,
            command_counts=tuple(channel.dram.stats.counts.items()),
        )


def block(model, context, fc, attn):
    """A freshly simulated block (no block-cost cache in the way)."""
    return PerformanceModel(CONFIG)._simulate_block(model, context, fc, attn)


def fingerprint(cost):
    """Every field of a ``BlockCost``, command-count order included."""
    breakdown = cost.breakdown
    return (breakdown.pim_ns, breakdown.pnm_ns, breakdown.cxl_ns,
            breakdown.host_ns,
            tuple(cost.command_counts_per_channel.items()),
            cost.fc_channels, cost.attention_channels,
            cost.dram_bytes_read, cost.flops)


@pytest.fixture(scope="module")
def oracle():
    """The golden grid priced by the cycle simulator alone."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(performance, "OPERATION_MEMO", CycleSimulator())
        return {point: fingerprint(block(*point)) for point in GRID}


@pytest.fixture
def memo(monkeypatch):
    """A cold memo in place of the process-wide one."""
    fresh = OperationMemo()
    monkeypatch.setattr(performance, "OPERATION_MEMO", fresh)
    return fresh


def test_cold_memo_matches_cycle_simulator(oracle, memo):
    for point in GRID:
        assert fingerprint(block(*point)) == oracle[point], point
    # The FC GEMVs repeat at every context length.
    assert memo.hits > 0 and memo.misses > 0


def test_warm_memo_matches_cycle_simulator(oracle, memo):
    for point in GRID:
        block(*point)
    misses = memo.misses
    for point in GRID:
        assert fingerprint(block(*point)) == oracle[point], point
    assert memo.misses == misses          # every operation was a hit


def test_memo_warmed_in_reverse_matches_cycle_simulator(oracle, memo):
    for point in reversed(GRID):
        block(*point)
    for point in GRID:
        assert fingerprint(block(*point)) == oracle[point], point


def test_systems_of_different_sizes_share_hits(memo):
    # 8 devices run PP=8 and 16 devices PP=8 x DP=2: the same channels per
    # block, priced by two systems with separate block-cost caches.
    small = CentSystem(CentConfig(num_devices=8, context_samples=2), SMALL_LLAMA)
    large = CentSystem(CentConfig(num_devices=16, context_samples=2), SMALL_LLAMA)
    first = small.performance.block_cost(
        SMALL_LLAMA, small.throughput_plan(), 300)
    misses, hits = memo.misses, memo.hits
    assert misses > 0
    second = large.performance.block_cost(
        SMALL_LLAMA, large.throughput_plan(), 300)
    assert memo.misses == misses
    assert memo.hits - hits == misses + hits
    assert fingerprint(second) == fingerprint(first)


def test_lru_bound_evicts_least_recently_used():
    memo = OperationMemo(capacity=2)
    config = CentConfig()
    programs = [Program(f"p{size}", [WriteGlobalBuffer(op_size=size),
                                     MacAllBank(op_size=size, row=size)])
                for size in (1, 2, 3)]
    results = [memo.timing(config.timing, config.geometry, p) for p in programs]
    assert len(memo) == 2 and (memo.hits, memo.misses) == (0, 3)
    # programs[1] and programs[2] are resident; programs[0] was evicted.
    assert memo.timing(config.timing, config.geometry, programs[2]) is results[2]
    assert memo.hits == 1
    again = memo.timing(config.timing, config.geometry, programs[0])
    assert memo.misses == 4 and again == results[0]
    # Re-inserting programs[0] pushed out programs[1], the coldest.
    memo.timing(config.timing, config.geometry, programs[1])
    assert memo.misses == 5 and len(memo) == 2


def test_key_is_program_content_not_identity():
    memo = OperationMemo()
    config = CentConfig()
    one = Program("a", [MacAllBank(op_size=4, row=1, column=2)])
    same = Program("b", [MacAllBank(op_size=4, row=1, column=2)])
    other = Program("c", [MacAllBank(op_size=4, row=1, column=3)])
    memo.timing(config.timing, config.geometry, one)
    memo.timing(config.timing, config.geometry, same)
    assert (memo.hits, memo.misses) == (1, 1)
    memo.timing(config.timing, config.geometry, other)
    assert memo.misses == 2 and len(memo) == 2
    with pytest.raises(ValueError):
        OperationMemo(capacity=0)


def test_key_includes_timing_and_geometry():
    memo = OperationMemo()
    config = CentConfig()
    program = Program("p", [MacAllBank(op_size=8, row=1),
                            MacAllBank(op_size=8, row=2)])
    base = memo.timing(config.timing, config.geometry, program)
    slower = replace(config.timing, t_rp=2 * config.timing.t_rp)
    larger = replace(config.geometry,
                     bank_capacity_bytes=2 * config.geometry.bank_capacity_bytes)
    assert memo.timing(slower, config.geometry, program) != base
    memo.timing(config.timing, larger, program)
    assert (memo.hits, memo.misses) == (0, 3)


def test_process_memo_has_the_fixed_bound():
    assert OPERATION_MEMO.capacity == OPERATION_MEMO_ENTRIES
