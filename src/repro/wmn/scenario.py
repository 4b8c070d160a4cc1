"""Scenario builder: a whole simulated city in one call.

Combines the core :class:`~repro.core.deployment.Deployment` (NO, TTP,
GMs, users, routers with real keys) with the simulator substrate (event
loop, radio, topology, nodes) into a runnable :class:`Scenario`.
Benchmarks E4-E7 and the integration tests are all built on this.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro import obs
from repro.core.clock import Clock
from repro.core.deployment import Deployment
from repro.core.durable import DurableRouterStore, FileStorage, MemoryStorage
from repro.obs.health import (
    AlertEngine,
    HealthMonitor,
    RouterSignals,
    correlate_incidents,
    default_metro_rules,
    incidents_to_jsonl,
)
from repro.obs.rollup import TelemetryRollup, to_jsonl
from repro.core.protocols.dos import DosPolicy
from repro.core.protocols.user_router import RetryPolicy
from repro.core.revocation import RevocationTagCache, epoch_period
from repro.core.router import MeshRouter
from repro.errors import SimulationError
from repro.wmn.costmodel import CostModel
from repro.wmn.metrics import (
    HandshakeStats,
    counters_to_registry,
    merge_counters,
)
from repro.wmn.backbone import BackboneNetwork, UplinkDirectory
from repro.wmn.gossip import ListGossip
from repro.wmn.mobility import RandomWaypoint
from repro.wmn.nodes import SimMeshRouter, SimUser
from repro.wmn.radio import RadioMedium
from repro.wmn.relay import RelayUser
from repro.wmn.simclock import EventLoop, SimClock
from repro.wmn.topology import MetroTopology, TopologyConfig, build_topology


def _stable_id(node_id: str) -> int:
    """Deterministic per-node seed offset (``hash()`` is salted per
    process, which would make simulations non-reproducible)."""
    import zlib
    return zlib.crc32(node_id.encode()) % 1000


@dataclass(frozen=True)
class ScenarioConfig:
    """High-level configuration of a simulated deployment."""

    preset: str = "TEST"
    seed: int = 0
    topology: TopologyConfig = field(default_factory=TopologyConfig)
    group_sizes: Tuple[Tuple[str, int], ...] = (("Company X", 32),
                                                ("University Z", 32))
    beacon_interval: float = 5.0
    data_interval: Optional[float] = None
    loss_probability: float = 0.0
    relay_capable: bool = False
    dos_policy_factory: Optional[object] = None   # () -> DosPolicy
    list_refresh_period: float = 600.0
    cost_model: CostModel = field(default_factory=CostModel)
    mobility: bool = False                # random-waypoint user motion
    mobility_speed: Tuple[float, float] = (1.0, 8.0)   # m/s range
    reconnect_interval: Optional[float] = None   # periodic re-association
    retry_policy: Optional[RetryPolicy] = None   # M.2 retransmission
    expire_interval: Optional[float] = None      # router expiry ticks
    tracing: bool = False                # own obs registry + causal spans
    telemetry_window: float = 0.0        # >0: rollup every N sim seconds
    gossip_period: float = 0.0           # >0: epidemic CRL/URL rounds
    gossip_loss: float = 0.0             # per-exchange loss probability
    sharded_revocation: bool = False     # O(1) epoch-tag revocation path
    durable: bool = False                # journal router state (crashable)
    durable_dir: Optional[str] = None    # None: in-memory storage backend
    durable_sync_every: int = 1          # records per fsync (fault surface)
    gossip_checkpoints: bool = False     # tag-checkpoint warm-up offers
    health: bool = False                 # per-window health + alert rules


class Scenario:
    """A built, runnable simulation."""

    def __init__(self, config: ScenarioConfig) -> None:
        self.config = config
        self.loop = EventLoop(start=1_000_000.0)
        self.clock: Clock = SimClock(self.loop)
        self.rng = random.Random(config.seed)
        # Tracing/telemetry: the scenario owns a registry on the *sim
        # clock* (span timestamps and rollup windows are virtual time).
        # It is installed as the ambient registry only for the dynamic
        # extent of run(), so building or inspecting a scenario never
        # leaks collection into the caller's process.
        self.registry: Optional[obs.MetricsRegistry] = None
        self.rollup: Optional[TelemetryRollup] = None
        if config.tracing or config.telemetry_window > 0:
            self.registry = obs.MetricsRegistry(clock=self.clock,
                                                max_spans=4096)
        # Health evaluation rides the telemetry roll: monitor gauges
        # are exported *before* the window closes so the alert rules
        # see them in the same window record (detection stays inside
        # one telemetry window).
        self.health_monitor: Optional[HealthMonitor] = None
        self.alert_engine: Optional[AlertEngine] = None
        self._fsync_lost: Dict[str, float] = {}
        if config.health:
            if config.telemetry_window <= 0:
                raise SimulationError(
                    "health evaluation is window-driven: configure "
                    "telemetry_window > 0 alongside health=True")
            self.health_monitor = HealthMonitor()
            self.alert_engine = AlertEngine(default_metro_rules())
        if config.telemetry_window > 0:
            self.rollup = TelemetryRollup(self.registry)
            self.loop.schedule_every(
                config.telemetry_window, self._telemetry_tick)
        self.topology: MetroTopology = build_topology(config.topology)
        self.radio = RadioMedium(
            self.loop, loss_probability=config.loss_probability,
            rng=random.Random(config.seed + 1),
            default_range=config.topology.access_range)

        groups = dict(config.group_sizes)
        group_names = list(groups)
        user_specs = []
        for i, user_id in enumerate(self.topology.user_positions):
            membership = group_names[i % len(group_names)]
            user_specs.append((user_id, [membership]))

        self.deployment = Deployment.build(
            preset=config.preset, seed=config.seed, groups=groups,
            users=user_specs,
            routers=list(self.topology.router_positions),
            clock=self.clock,
            dos_policy_factory=config.dos_policy_factory)

        self.backbone = BackboneNetwork(self.loop, self.topology.backbone)
        self.directory = UplinkDirectory()
        self.sim_routers: Dict[str, SimMeshRouter] = {}
        for router_id, position in self.topology.router_positions.items():
            self.sim_routers[router_id] = SimMeshRouter(
                self.deployment.routers[router_id], position, self.loop,
                self.radio, cost_model=config.cost_model,
                beacon_interval=config.beacon_interval,
                list_refresh_period=config.list_refresh_period,
                access_range=config.topology.access_range,
                backbone=self.backbone, directory=self.directory,
                rng=random.Random(config.seed + _stable_id(router_id)))
            if config.expire_interval is not None:
                # Read ``sim.router`` at fire time: a restart swaps the
                # router object, and a bound method captured here would
                # keep ticking the dead one.
                self.loop.schedule_every(
                    config.expire_interval,
                    self._make_expire_tick(self.sim_routers[router_id]))

        # Epidemic CRL/URL distribution over the backbone adjacency.
        self.gossip: Optional[ListGossip] = None
        if config.gossip_period > 0:
            self.gossip = ListGossip(
                self.loop,
                [sim.router for sim in self.sim_routers.values()],
                round_period=config.gossip_period,
                loss_probability=config.gossip_loss,
                rng=random.Random(config.seed + 0x60551),
                peers=self.topology.backbone,
                checkpoints=config.gossip_checkpoints)
            self.gossip.start()

        # Tag-index revocation: every router gets the O(1) epoch-tag
        # check, every user signs under the matching epoch period.  In
        # a durable scenario each router owns its cache (a crash must
        # actually lose it -- that coldness is what checkpoint warm-up
        # recovers); otherwise one cache is shared process-wide (tags
        # are public).
        self.tag_caches: Dict[str, RevocationTagCache] = {}
        if config.sharded_revocation:
            shared_cache = None if config.durable else RevocationTagCache()
            for router_id, sim in self.sim_routers.items():
                cache = (RevocationTagCache() if config.durable
                         else shared_cache)
                self.tag_caches[router_id] = cache
                sim.router.enable_sharded_revocation(cache=cache)
            period = epoch_period(self.deployment.operator.gpk.epoch)
            for user in self.deployment.users.values():
                user.auth_period = period

        # Durable journals: attached last so the initial snapshot
        # already carries the tag index.
        self.durable_stores: Dict[str, DurableRouterStore] = {}
        self._incarnations: Dict[str, int] = {}
        if config.durable:
            for router_id, sim in self.sim_routers.items():
                if config.durable_dir is not None:
                    storage = FileStorage(os.path.join(
                        config.durable_dir, f"{router_id}.journal"))
                else:
                    storage = MemoryStorage()
                store = DurableRouterStore(
                    storage, router_id,
                    sync_every=config.durable_sync_every)
                sim.router.attach_durable(store)
                self.durable_stores[router_id] = store

        user_class = RelayUser if config.relay_capable else SimUser
        self.sim_users: Dict[str, SimUser] = {}
        self.walkers: Dict[str, RandomWaypoint] = {}
        for user_id, position in self.topology.user_positions.items():
            membership = dict(user_specs)[user_id][0]
            user = user_class(
                self.deployment.users[user_id], user_id, position,
                self.loop, self.radio, cost_model=config.cost_model,
                context=membership,
                data_interval=config.data_interval,
                user_range=config.topology.user_range,
                boost_range=config.topology.access_range * 1.2,
                reconnect_interval=config.reconnect_interval,
                retry_policy=config.retry_policy,
                rng=random.Random(config.seed + _stable_id(user_id)))
            self.sim_users[user_id] = user
            if config.mobility:
                walker = RandomWaypoint(
                    self.loop, config.topology.area_side,
                    get_position=lambda u=user: u.position,
                    set_position=lambda p, u=user: setattr(
                        u, "position", p),
                    speed_min=config.mobility_speed[0],
                    speed_max=config.mobility_speed[1],
                    rng=random.Random(config.seed * 7 + len(self.walkers)))
                walker.start()
                self.walkers[user_id] = walker

    @staticmethod
    def _make_expire_tick(sim: SimMeshRouter):
        def tick() -> None:
            if not sim.crashed:
                sim.router.expire()
        return tick

    # -- crash / restart lifecycle -----------------------------------------

    @property
    def supports_crashes(self) -> bool:
        """Kill/restart faults need a journal to restart from."""
        return self.config.durable

    def kill_router(self, router_id: str) -> None:
        """Crash one router: its in-memory state is gone; only the
        durable journal survives.  Idempotent on an already-dead one."""
        sim = self._require_durable(router_id)
        if sim.crashed:
            return
        sim.crash()
        if self.gossip is not None:
            self.gossip.isolate(router_id)
        obs.counter("recovery.kills_total")

    def restart_router(self, router_id: str) -> None:
        """Boot a killed router back up from its durable journal.

        The new incarnation gets a *fresh* rng stream (a rebooted
        process does not resume its predecessor's entropy) and -- when
        the tag index is on -- a fresh cold cache, pre-warmed only
        with whatever tag checkpoint the journal carried.  Degraded
        re-entry is automatic: a router that journaled ``channel_up =
        False`` comes back degraded, and its recovered lists' age
        counts from their journaled fetch time.
        """
        sim = self._require_durable(router_id)
        if not sim.crashed:
            return
        store = self.durable_stores[router_id]
        incarnation = self._incarnations.get(router_id, 0) + 1
        self._incarnations[router_id] = incarnation
        rng = random.Random(self.config.seed + _stable_id(router_id)
                            + 7919 * incarnation)
        cache = None
        if self.config.sharded_revocation:
            cache = RevocationTagCache()
            self.tag_caches[router_id] = cache
        policy = (self.config.dos_policy_factory()
                  if self.config.dos_policy_factory else None)
        with obs.span("recovery.restart"):
            router = MeshRouter.restore(
                store, self.deployment.operator, clock=self.clock,
                rng=rng, dos_policy=policy, cache=cache)
        self.deployment.routers[router_id] = router
        sim.restart(router)
        if self.gossip is not None:
            self.gossip.replace_router(router)
            self.gossip.rejoin(router_id)
        obs.counter("recovery.restarts_total")

    def lose_unsynced(self, router_id: str) -> int:
        """Storage fault: drop this router's unsynced journal tail."""
        self._require_durable(router_id)
        lost = self.durable_stores[router_id].storage.lose_unsynced()
        if lost:
            obs.counter("durable.fsync_lost_bytes", lost)
            self._fsync_lost[router_id] = \
                self._fsync_lost.get(router_id, 0.0) + lost
        return lost

    def _require_durable(self, router_id: str) -> SimMeshRouter:
        if not self.config.durable:
            raise SimulationError(
                "crash/storage lifecycle needs a durable=True scenario")
        if router_id not in self.sim_routers:
            raise SimulationError(f"unknown router {router_id!r}")
        return self.sim_routers[router_id]

    # -- driving -----------------------------------------------------------

    def run(self, duration: float) -> None:
        """Advance the simulation by ``duration`` virtual seconds.

        With ``tracing``/``telemetry_window`` configured, the
        scenario's registry is ambient for the duration of the call
        (and only then), collecting causal handshake spans and rollup
        windows on the sim clock; the caller's previously installed
        registry (if any) is restored on exit.
        """
        if self.registry is None:
            self.loop.run_until(self.loop.now + duration)
            return
        previous = obs.install(self.registry)
        try:
            self.loop.run_until(self.loop.now + duration)
        finally:
            obs.install(previous)

    def telemetry_jsonl(self) -> str:
        """The rollup windows collected so far, as JSONL (empty string
        when ``telemetry_window`` was not configured)."""
        if self.rollup is None:
            return ""
        return to_jsonl(self.rollup.windows())

    # -- health & incidents ------------------------------------------------

    def _telemetry_tick(self) -> None:
        """One telemetry roll, with health evaluation when configured:
        classify -> export gauges -> close the window -> run rules."""
        now = self.loop.now
        if self.health_monitor is not None:
            self.health_monitor.observe(
                now, self.rollup.next_index,
                self._health_signals(now),
                pool_worker_restarts=self.registry.counter_value(
                    "pool.worker_restarts"),
                registry=self.registry)
        window = self.rollup.roll(now)
        if self.alert_engine is not None:
            self.alert_engine.evaluate(window)

    def _health_signals(self, now: float) -> "list[RouterSignals]":
        latest = self.deployment.operator.list_versions()
        signals = []
        for router_id, sim in self.sim_routers.items():
            if sim.crashed:
                signals.append(RouterSignals(router_id=router_id,
                                             crashed=True))
                continue
            router = sim.router
            crl_version, url_version = router.list_versions()
            behind = max(latest[0] - crl_version,
                         latest[1] - url_version, 0)
            signals.append(RouterSignals(
                router_id=router_id,
                channel_up=not router.degraded,
                lists_age=router.lists_age(now),
                staleness_grace=router.staleness_grace,
                versions_behind=behind,
                handshakes_completed=sim.metrics.get(
                    "handshakes_completed", 0),
                handshakes_rejected=sim.metrics.get(
                    "handshakes_rejected", 0),
                fsync_lost_bytes=self._fsync_lost.get(router_id, 0.0)))
        return signals

    def _require_health(self) -> None:
        if self.health_monitor is None:
            raise SimulationError(
                "scenario was not built with health=True")

    def health_snapshot(self) -> Dict[str, object]:
        """The latest ``/health``-shaped judgment (status, per-router
        states + reasons) -- the payload a service-plane daemon's
        ``/health`` endpoint would serve verbatim.  Evaluates on
        demand if no telemetry window has closed yet."""
        self._require_health()
        if self.health_monitor.last_snapshot is None:
            self._telemetry_tick()
        return self.health_monitor.last_snapshot

    def alert_events(self) -> "list[Dict[str, object]]":
        """Full firing/resolved alert history, evaluation order."""
        self._require_health()
        return list(self.alert_engine.events)

    def incidents(self, injector) -> "list[Dict[str, object]]":
        """Per-incident timelines with MTTD/MTTR: the ``injector``'s
        ground-truth :class:`~repro.faults.injector.FaultEvent` log
        joined against this run's health transitions and alerts."""
        self._require_health()
        window_times = [float(w["t"]) for w in self.rollup.windows()]
        return correlate_incidents(
            injector.events_snapshot(),
            self.health_monitor.transitions,
            self.alert_engine.events, window_times)

    def incidents_jsonl(self, injector) -> str:
        """:meth:`incidents` as one JSON object per line (the CI
        chaos artifact format)."""
        return incidents_to_jsonl(self.incidents(injector))

    @property
    def health_eval_seconds(self) -> float:
        """Wall-clock seconds spent on health classification + alert
        rules so far (the <= 3% overhead gate's numerator)."""
        if self.health_monitor is None:
            return 0.0
        return (self.health_monitor.eval_seconds
                + self.alert_engine.eval_seconds)

    # -- results -----------------------------------------------------------

    def handshake_stats(self) -> HandshakeStats:
        stats = HandshakeStats()
        for user in self.sim_users.values():
            stats.extend(user.auth_delays)
        return stats

    def router_metrics(self) -> Dict[str, float]:
        return merge_counters(r.metrics for r in self.sim_routers.values())

    def user_metrics(self) -> Dict[str, float]:
        return merge_counters(u.metrics for u in self.sim_users.values())

    def connected_fraction(self) -> float:
        users = list(self.sim_users.values())
        if not users:
            return 0.0
        return sum(1 for u in users if u.state == "connected") / len(users)

    def publish_metrics(self, registry=None) -> None:
        """Push simulator aggregates onto a :mod:`repro.obs` registry.

        Node counters become ``wmn.router.<key>`` / ``wmn.user.<key>``
        gauges.  Handshake delays are not republished: the live nodes
        feed ``wmn.auth_delay_seconds`` while a registry is installed
        during ``run()``.  Safe to call repeatedly -- gauges overwrite,
        they never double.  With no explicit ``registry`` the
        scenario's own tracing registry (when configured) is preferred
        over the ambient one.
        """
        if registry is None:
            registry = self.registry
        if registry is None:
            registry = obs.active()
        if registry is None:
            return
        counters_to_registry(self.router_metrics(), "wmn.router", registry)
        counters_to_registry(self.user_metrics(), "wmn.user", registry)
        registry.gauge("wmn.connected_fraction", self.connected_fraction())
