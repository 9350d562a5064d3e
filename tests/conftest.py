"""Shared fixtures: scaled-down models and systems that keep tests fast."""

from __future__ import annotations

import os

import pytest
from hypothesis import settings

from repro.core.config import CentConfig
from repro.models.config import ModelConfig

# Property tests must behave the same on every CI run: the "ci" profile
# derandomizes example generation (no ambient entropy — the same guarantee
# repro-lint's determinism rule enforces on the simulator itself) and drops
# the per-example deadline, which flakes on shared runners.  Local runs keep
# the randomized default profile so new counterexamples can still surface;
# opt in with HYPOTHESIS_PROFILE=ci to reproduce a CI failure exactly.
settings.register_profile("ci", derandomize=True, deadline=None)
settings.register_profile("dev", deadline=None)
settings.load_profile(
    os.environ.get("HYPOTHESIS_PROFILE", "ci" if os.environ.get("CI") else "dev"))


@pytest.fixture
def tiny_model() -> ModelConfig:
    """A Llama-shaped model small enough for functional simulation."""
    return ModelConfig(
        name="tiny-llama",
        num_layers=4,
        d_model=64,
        num_heads=4,
        num_kv_heads=2,
        d_ff=128,
        vocab_size=512,
        max_context=64,
    )


@pytest.fixture
def small_model() -> ModelConfig:
    """A mid-sized model used by performance-path tests (still fast)."""
    return ModelConfig(
        name="small-llama",
        num_layers=8,
        d_model=1024,
        num_heads=16,
        num_kv_heads=4,
        d_ff=2816,
        vocab_size=32000,
        max_context=2048,
    )


@pytest.fixture
def small_config() -> CentConfig:
    """A 4-device CENT configuration with few context samples."""
    return CentConfig(num_devices=4, context_samples=2)


@pytest.fixture
def route_all():
    """Route every tenant's whole trace in one window — the open loop's
    routing pass: the merged stream in arrival order (ties keep tenant-list
    order, then trace order) against a fresh backlog model."""
    from repro.cluster import RouterState

    def route(scheduler, tenants, placement, estimator):
        stream = sorted(((query, tenant.name)
                         for tenant in tenants for query in tenant.trace),
                        key=lambda item: item[0].arrival_time_s)
        return scheduler.route_window(tenants, placement, estimator,
                                      stream=stream, state=RouterState())
    return route
