"""Multi-tenant cluster serving on one shared CXL-PIM device pool.

``ClusterEngine`` composes the three cluster pieces — placement, routing,
and the existing per-replica :class:`~repro.serving.ServingEngine` — into
one run, which every call hands to
:class:`~repro.cluster.control.ClusterControlLoop`:

1. a :class:`~repro.cluster.placement.ClusterPlacer` partitions (or
   time-shares) the pool's devices into replicas;
2. every replica becomes an independent :class:`~repro.core.system.CentSystem`
   deployment of its device slice, served by an unmodified ``ServingEngine``
   (the cluster layer never forks the iteration loop);
3. a :class:`~repro.cluster.scheduler.ClusterScheduler` routes each arriving
   request to one of its tenant's replicas, applying per-tenant admission —
   the whole trace up front on the open loop (zero control epochs), one
   epoch window at a time on the closed loop;
4. each replica serves its routed requests, and the per-request outcomes
   are re-attributed to tenants and folded into one
   :class:`~repro.core.results.ClusterResult` (one
   :class:`~repro.core.results.ServingResult` per tenant, each judged
   against that tenant's own SLA, plus pool-level goodput, fairness and
   utilisation).

A single-tenant cluster degenerates to exactly one replica spanning the
whole pool, so its per-tenant result reproduces ``ServingEngine.run`` on
the same deployment.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

from repro.cluster.control import (
    REBALANCE_MODES,
    ClusterControlLoop,
    ControlConfig,
)
from repro.cluster.placement import ClusterPlacer
from repro.cluster.scheduler import ClusterScheduler
from repro.cluster.tenant import TenantSpec, resolve_models
from repro.core.config import CentConfig
from repro.core.results import ClusterResult
from repro.core.system import CentSystem
from repro.models.config import ModelConfig
from repro.serving.engine import ServingEngine, evict_to_bound
from repro.telemetry.recorder import TraceRecorder
from repro.telemetry.slo import SloMonitor

__all__ = ["ClusterEngine"]


class ClusterEngine:
    """Serves several tenants' traces on one shared device pool.

    Parameters
    ----------
    config:
        Pool-level configuration; ``config.num_devices`` is the pool size,
        every other field is inherited by each replica's slice.
    tenants:
        The tenant specs to serve.  Tenants without a model use
        ``default_model``.
    placement_policy / routing_policy:
        See :data:`~repro.cluster.placement.PLACEMENT_POLICIES` and
        :data:`~repro.cluster.scheduler.ROUTING_POLICIES`.
    max_replica_devices / share_replicas:
        Forwarded to :class:`~repro.cluster.placement.ClusterPlacer`.
    engine_kwargs:
        Extra keyword arguments for every per-replica ``ServingEngine``
        (e.g. ``prefill_chunk_tokens``, ``context_step``).
    """

    def __init__(
        self,
        config: CentConfig,
        tenants: Sequence[TenantSpec],
        *,
        default_model: Optional[ModelConfig] = None,
        placement_policy: str = "proportional",
        routing_policy: str = "least_outstanding",
        max_replica_devices: Optional[int] = None,
        share_replicas: bool = False,
        **engine_kwargs,
    ) -> None:
        self.config = config
        self.tenants = resolve_models(tenants, default_model)
        self.engine_kwargs = engine_kwargs
        # FIFO-bounded like ServingEngine._setup_cache: the capability trim
        # probes one candidate count per device, and an unbounded engine
        # cache would retain a warmed CentSystem per probe for the engine's
        # lifetime.  Estimates are cheap floats and get a wider bound.
        self._capability_cache: Dict[Tuple[Tuple[str, ...], int], float] = {}
        self._capability_cache_entries = 256
        self._engine_cache: Dict[Tuple[Tuple[str, ...], int], ServingEngine] = {}
        # The capability trim probes up to one engine per candidate device
        # count per tenant group, so the bound scales with the pool: a
        # fixed small bound would evict the winning probe's engine before
        # the replicas fetch it, redoing the warm-up the cache exists for.
        self._engine_cache_entries = max(32, 2 * config.num_devices)
        self._max_replica_devices = max_replica_devices
        self._share_replicas = share_replicas
        self.placer = self._make_placer(placement_policy)
        self.scheduler = ClusterScheduler(routing_policy)

    def _make_placer(self, placement_policy: str) -> ClusterPlacer:
        return ClusterPlacer(
            placement_policy,
            channels_per_device=self.config.channels_per_device,
            max_replica_devices=self._max_replica_devices,
            share_replicas=self._share_replicas,
            capability=self._capability,
        )

    def _engine_for(
        self, names: Tuple[str, ...], devices: int, model: ModelConfig
    ) -> ServingEngine:
        """One serving engine per (tenant group, device count), memoised.

        The capability probe for the winning count and the replica that
        ultimately serves it share this engine, so the probe's ``_setup``
        work (plan search, validation, cost-model warm-up) is done once;
        replicas of identical shape share it too (the engine keeps no
        per-run state beyond its caches).
        """
        key = (names, devices)
        if key not in self._engine_cache:
            evict_to_bound(self._engine_cache, self._engine_cache_entries)
            system = CentSystem(self.config.scaled(devices), model)
            self._engine_cache[key] = ServingEngine(system, **self.engine_kwargs)
        return self._engine_cache[key]

    def _capability(self, members: Tuple[TenantSpec, ...], devices: int) -> float:
        """Estimated sustainable rate (queries/s) of ``members`` on ``devices``.

        The placer's trim step probes several candidate counts, so results
        are memoised; infeasible counts score zero.
        """
        key = (tuple(t.name for t in members), devices)
        if key not in self._capability_cache:
            evict_to_bound(self._capability_cache, self._capability_cache_entries)
            engine = self._engine_for(key[0], devices, members[0].model)
            trace = [q for tenant in members for q in tenant.trace]
            try:
                self._capability_cache[key] = engine.estimated_capacity_qps(trace)
            except MemoryError:
                self._capability_cache[key] = 0.0
        return self._capability_cache[key]

    def _group_tokens_per_s(self, names: Tuple[str, ...], devices: int) -> float:
        """Estimated sustained token rate of one replica of ``names``.

        Converts the memoised :meth:`_capability` estimate (queries/s on
        the replica's candidate trace — all queries of the tenants it
        serves) into a token rate; the placer's trim probe for the same
        (tenants, devices) key already paid for it.  The router's backlog
        model and the closed-loop rebalancer's gain projection share this
        one definition.
        """
        by_name = {t.name: t for t in self.tenants}
        members = tuple(by_name[name] for name in names)
        qps = self._capability(members, devices)
        tokens = sum(t.offered_tokens for t in members)
        queries = sum(len(t.trace) for t in members)
        return max(qps * tokens / queries, 1e-9)

    # ------------------------------------------------------------------ run

    def run(
        self,
        placement_policy: Optional[str] = None,
        *,
        rebalance: str = "off",
        epoch_s: Optional[float] = None,
        migration: Optional[str] = None,
        control: Optional[ControlConfig] = None,
        telemetry: Optional[TraceRecorder] = None,
        slo_monitor: Optional[SloMonitor] = None,
    ) -> ClusterResult:
        """Place, route and serve every tenant; return the cluster outcome.

        ``placement_policy`` overrides the constructor's policy for this
        run only.  Policy sweeps should reuse one engine this way: the
        capability probes (the expensive part of placement, cost-model
        warm-up included) are policy-independent and stay cached across
        runs.

        Every run is a :class:`~repro.cluster.control.ClusterControlLoop`
        run.  ``rebalance="off"`` (default) is the open loop: the loop with
        zero epochs, which routes the whole trace once against the
        uncorrected backlog model and drains every replica.
        ``rebalance="epoch"`` — or an explicit ``control`` config — runs
        the closed loop: backlog-feedback routing plus observed-demand
        re-placement at epoch boundaries; ``epoch_s`` overrides the control
        interval and ``migration`` selects what happens to a dismantled
        replica's in-flight requests (``"live"``, the default, swaps their
        KV through host memory so they resume at their original progress;
        ``"restart"`` re-runs them from scratch).  Both apply only to the
        closed loop and are rejected on the open loop.

        ``telemetry`` (a :class:`repro.telemetry.TraceRecorder`) records the
        run's full event stream: every replica's engine writes into its own
        scope (``replica-<id>``), the router and control loop into a
        ``control`` scope.  Recording never changes the simulated outcome —
        runs stay bit-exact with ``telemetry=None``.

        ``slo_monitor`` (a :class:`repro.telemetry.SloMonitor`) overrides
        the stock SLO rule set a traced closed-loop run arms by default;
        the monitor observes each epoch's metrics snapshot and its
        :class:`~repro.telemetry.slo.AlertLog` lands on the result.  Pure
        observation either way — alerts never change the run.
        """
        if rebalance not in REBALANCE_MODES:
            raise ValueError(
                f"unknown rebalance mode {rebalance!r}; choose from "
                f"{REBALANCE_MODES}"
            )
        overrides = {name: value for name, value in
                     (("epoch_s", epoch_s), ("migration", migration))
                     if value is not None}
        first = next(iter(overrides), None)
        if control is not None:
            if first is not None:
                raise ValueError(
                    f"pass either {first} or an explicit control config, "
                    f"not both (the config carries its own {first})"
                )
        elif rebalance == "epoch":
            control = ControlConfig(**overrides)
        else:
            if first is not None:
                raise ValueError(
                    f"{first} only applies to closed-loop runs; set "
                    "rebalance='epoch' (or pass a control config)"
                )
            if slo_monitor is not None:
                raise ValueError(
                    "slo_monitor needs the per-epoch metrics timeline; set "
                    "rebalance='epoch' (or pass a control config)"
                )
            control = ControlConfig(max_epochs=0)
        return ClusterControlLoop(
            self, control, telemetry=telemetry,
            slo_monitor=slo_monitor).run(placement_policy)
