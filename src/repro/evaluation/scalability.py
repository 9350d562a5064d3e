"""Figure 19: CENT scalability from 16 to 128 devices on Llama2-70B.

Throughput grows with the device count, with intermittent plateaus where an
additional device cannot receive a whole transformer block (blocks are never
split across devices, so those devices idle), and data parallelism takes over
once pipeline parallelism has consumed all the blocks.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.core.config import CentConfig
from repro.core.system import CentSystem
from repro.mapping.planner import plan_for_throughput
from repro.models.config import LLAMA2_70B, ModelConfig

__all__ = ["figure19_scalability"]


def figure19_scalability(
    model: ModelConfig = LLAMA2_70B,
    device_counts: Sequence[int] = (16, 24, 32, 40, 44, 48, 64, 80, 96, 128),
    prompt_tokens: int = 512,
    decode_tokens: int = 3584,
    context_samples: int = 3,
) -> List[Dict[str, object]]:
    """Throughput and device utilisation versus device count."""
    rows: List[Dict[str, object]] = []
    for devices in device_counts:
        config = CentConfig(num_devices=devices, context_samples=context_samples)
        system = CentSystem(config, model)
        plan = plan_for_throughput(model, devices,
                                   context_length=prompt_tokens + decode_tokens)
        result = system.run_inference(prompt_tokens, decode_tokens, plan=plan,
                                      with_power=False)
        rows.append({
            "devices": devices,
            "plan": plan.name,
            "dp_replicas": plan.dp_replicas,
            "devices_used": result.devices_used,
            "device_utilization": result.devices_used / devices,
            "tokens_per_s": result.decode_throughput_tokens_per_s,
            "k_tokens_per_s": result.decode_throughput_tokens_per_s / 1e3,
        })
    return rows
