"""Unit tests for the performance model and the inference simulator."""

import pytest

from repro.core.config import CentConfig
from repro.core.inference import InferenceSimulator
from repro.core.performance import PerformanceModel
from repro.dram.channel import DRAMChannel
from repro.mapping.parallelism import PipelineParallel, TensorParallel
from repro.models.config import LLAMA2_7B


@pytest.fixture(scope="module")
def config() -> CentConfig:
    return CentConfig(num_devices=4, context_samples=2)


@pytest.fixture(scope="module")
def performance(config) -> PerformanceModel:
    return PerformanceModel(config)


@pytest.fixture(scope="module")
def small_model_m():
    from repro.models.config import ModelConfig

    return ModelConfig(name="small-llama", num_layers=8, d_model=1024, num_heads=16,
                       num_kv_heads=4, d_ff=2816, vocab_size=32000, max_context=2048)


class TestPerformanceModel:
    def test_block_cost_positive(self, performance, small_model_m):
        plan = PipelineParallel(4, small_model_m)
        cost = performance.block_cost(small_model_m, plan, context_length=256)
        assert cost.breakdown.pim_ns > 0
        assert cost.breakdown.pnm_ns > 0
        assert cost.flops > 0
        assert cost.dram_bytes_read > 0

    def test_pim_dominates(self, performance, small_model_m):
        plan = PipelineParallel(4, small_model_m)
        cost = performance.block_cost(small_model_m, plan, context_length=512)
        assert cost.breakdown.pim_ns > 10 * cost.breakdown.pnm_ns

    def test_latency_grows_with_context(self, performance, small_model_m):
        plan = PipelineParallel(4, small_model_m)
        short = performance.block_cost(small_model_m, plan, 128).breakdown.total_ns
        long = performance.block_cost(small_model_m, plan, 2048).breakdown.total_ns
        assert long > short

    def test_more_channels_reduce_latency(self, performance, small_model_m):
        few = performance.block_cost(small_model_m, PipelineParallel(1, small_model_m), 256)
        many = performance.block_cost(small_model_m, PipelineParallel(4, small_model_m), 256)
        assert many.breakdown.pim_ns < few.breakdown.pim_ns

    def test_tensor_parallel_adds_cxl(self, performance, small_model_m):
        pp = performance.block_cost(small_model_m, PipelineParallel(4, small_model_m), 256)
        tp = performance.block_cost(small_model_m, TensorParallel(4), 256)
        assert tp.breakdown.cxl_ns > pp.breakdown.cxl_ns

    def test_cache_hit_returns_consistent_result(self, performance, small_model_m):
        plan = PipelineParallel(4, small_model_m)
        first = performance.block_cost(small_model_m, plan, 256)
        second = performance.block_cost(small_model_m, plan, 256)
        assert first.breakdown.total_ns == second.breakdown.total_ns

    def test_command_counts_scale_to_all_channels(self, performance, small_model_m):
        plan = PipelineParallel(4, small_model_m)
        cost = performance.block_cost(small_model_m, plan, 256)
        totals = cost.total_command_counts()
        for kind, count in cost.command_counts_per_channel.items():
            assert totals[kind] == count * cost.fc_channels

    def test_token_breakdown_includes_host(self, performance, small_model_m):
        plan = PipelineParallel(4, small_model_m)
        token = performance.token_breakdown(small_model_m, plan, 256)
        block = performance.block_cost(small_model_m, plan, 256)
        assert token.host_ns > 0
        assert token.pim_ns == pytest.approx(block.breakdown.pim_ns * small_model_m.num_layers)


METAMORPHIC_CONTEXTS = (1, 16, 17, 255, 256, 257, 1024, 2048)
METAMORPHIC_CHANNELS = (2, 4, 8, 16)


@pytest.mark.parametrize("model_name", ["small-llama", "Llama2-7B"])
class TestBlockCostMetamorphic:
    """Relations between block costs, needing no reference value: a longer
    context never makes a block cheaper, more channels never make its PIM
    work slower, and no block streams its weights and KV faster than the
    channels' peak internal bandwidth.  Each point is the ``BlockCost`` of
    a block on that many FC and attention channels."""

    @pytest.fixture
    def table(self, performance, small_model_m, model_name):
        model = small_model_m if model_name == "small-llama" else LLAMA2_7B
        return {(channels, context): performance._simulate_block(
                    model, context, channels, channels)
                for channels in METAMORPHIC_CHANNELS
                for context in METAMORPHIC_CONTEXTS}

    def test_latency_does_not_decrease_with_context(self, table):
        for channels in METAMORPHIC_CHANNELS:
            totals = [table[channels, context].breakdown.pim_ns
                      + table[channels, context].breakdown.pnm_ns
                      for context in METAMORPHIC_CONTEXTS]
            assert totals == sorted(totals), channels

    def test_pim_time_does_not_increase_with_channels(self, table):
        for context in METAMORPHIC_CONTEXTS:
            pim = [table[channels, context].breakdown.pim_ns
                   for channels in METAMORPHIC_CHANNELS]
            assert pim == sorted(pim, reverse=True), context

    def test_pim_time_is_at_least_the_roofline(self, table, config):
        """Roofline bound: the bytes a block reads from DRAM cannot stream
        faster than ``channels`` x the per-channel peak internal bandwidth
        (GB/s is bytes per ns)."""
        peak_gbps = DRAMChannel(config.timing,
                                config.geometry).peak_internal_bandwidth_gbps()
        for (channels, context), cost in table.items():
            assert cost.dram_bytes_read > 0
            roofline_ns = cost.dram_bytes_read / (channels * peak_gbps)
            assert cost.breakdown.pim_ns >= roofline_ns, (channels, context)


class TestInferenceSimulator:
    def test_simulation_shapes(self, config, performance, small_model_m):
        simulator = InferenceSimulator(config, performance)
        plan = PipelineParallel(4, small_model_m)
        result = simulator.simulate(small_model_m, plan, prompt_tokens=64, decode_tokens=192)
        assert result.queries_in_flight == small_model_m.num_layers
        assert result.decode_latency_s > result.prefill_latency_s
        assert result.decode_throughput_tokens_per_s > 0
        assert result.token_latency_breakdown.total_ns > 0

    def test_tensor_parallel_lower_latency_lower_throughput(self, config, performance,
                                                            small_model_m):
        simulator = InferenceSimulator(config, performance)
        pp = simulator.simulate(small_model_m, PipelineParallel(4, small_model_m), 64, 192)
        tp = simulator.simulate(small_model_m, TensorParallel(4), 64, 192)
        assert tp.query_latency_s < pp.query_latency_s
        assert tp.decode_throughput_tokens_per_s < pp.decode_throughput_tokens_per_s

    def test_context_overflow_rejected(self, config, performance, small_model_m):
        simulator = InferenceSimulator(config, performance)
        plan = PipelineParallel(4, small_model_m)
        with pytest.raises(ValueError):
            simulator.simulate(small_model_m, plan, prompt_tokens=2048, decode_tokens=2048)

    def test_invalid_token_counts_rejected(self, config, performance, small_model_m):
        simulator = InferenceSimulator(config, performance)
        plan = PipelineParallel(4, small_model_m)
        with pytest.raises(ValueError):
            simulator.simulate(small_model_m, plan, prompt_tokens=0, decode_tokens=16)

    def test_context_samples_bound_runtime(self, small_model_m):
        # More context samples refine the integration but never change the
        # qualitative result; the averages stay within a few percent.
        coarse_cfg = CentConfig(num_devices=4, context_samples=2)
        fine_cfg = CentConfig(num_devices=4, context_samples=4)
        coarse = InferenceSimulator(coarse_cfg).simulate(
            small_model_m, PipelineParallel(4, small_model_m), 64, 192)
        fine = InferenceSimulator(fine_cfg).simulate(
            small_model_m, PipelineParallel(4, small_model_m), 64, 192)
        assert coarse.decode_throughput_tokens_per_s == pytest.approx(
            fine.decode_throughput_tokens_per_s, rel=0.1)

    def test_phase_cost_helper(self, config, performance, small_model_m):
        simulator = InferenceSimulator(config, performance)
        plan = PipelineParallel(4, small_model_m)
        phase = simulator.decode_phase(small_model_m, plan, 64, 192)
        assert phase.per_query_latency_s > 0
        assert phase.throughput_tokens_per_s > 0
        assert phase.mean_block_cost.breakdown.pim_ns > 0


class TestCentSystem:
    def test_run_inference_with_power(self, small_model_m):
        from repro.core.system import CentSystem

        system = CentSystem(CentConfig(num_devices=4, context_samples=2), small_model_m)
        result = system.run_inference(prompt_tokens=64, decode_tokens=192)
        assert result.average_power_w > 0
        assert result.energy_per_token_j > 0
        assert result.devices_used <= 4

    def test_plans(self, small_model_m):
        from repro.core.system import CentSystem

        system = CentSystem(CentConfig(num_devices=4, context_samples=2), small_model_m)
        assert system.throughput_plan().pp_stages == small_model_m.num_layers
        assert system.latency_plan().is_tensor_parallel

    def test_llama7b_quickstart_throughput_in_expected_band(self):
        # The headline sanity check: an 8-device CENT system serves Llama2-7B
        # at a few thousand tokens/s (the paper's effective throughput is in
        # the low thousands).
        from repro.core.system import CentSystem

        system = CentSystem(CentConfig(num_devices=8, context_samples=2), LLAMA2_7B)
        result = system.run_inference(512, 512, plan=PipelineParallel(8, LLAMA2_7B),
                                      with_power=False)
        assert 1000 < result.decode_throughput_tokens_per_s < 20000
