"""Crash/restart chaos and checkpoint warm-up security.

Tentpole acceptance (ISSUE): scenarios with kill/restart faults replay
bit-identically per seed; a restarted router recovers from its journal
(re-entering degraded mode when its recovered lists aged out); and the
signed tag-checkpoint warm-up admits only authentic checkpoints --
tampering, wrong signers, and revoked/cut-off routers all fail closed
into full tag re-derivation.
"""

import dataclasses
import random

import pytest

from repro import instrument, obs
from repro.core.operator_entity import NetworkOperator
from repro.core.protocols.user_router import RetryPolicy
from repro.core.revocation import RevocationTagCache, TagCheckpoint
from repro.core.router import MeshRouter
from repro.core.wire import Writer
from repro.errors import CertificateError, EncodingError, FaultInjectionError
from repro.faults import (
    FaultInjector,
    FaultPlan,
    RouterFault,
    StorageFault,
)
from repro.pairing import PairingGroup
from repro.wmn.gossip import ListGossip
from repro.wmn.scenario import Scenario, ScenarioConfig
from repro.wmn.simclock import EventLoop, SimClock
from repro.wmn.topology import TopologyConfig

CHAOS_SEEDS = [101, 202, 303]

RETRY = RetryPolicy(initial_timeout=2.0, backoff_factor=2.0,
                    max_timeout=8.0, max_retries=4, jitter=0.1)


def crash_scenario(seed, **overrides):
    """A durable, tag-indexed, gossiping 4-router city under 15% loss."""
    defaults = dict(
        preset="TEST", seed=seed,
        topology=TopologyConfig(area_side=800.0, router_grid=2,
                                user_count=6, seed=seed,
                                access_range=600.0),
        group_sizes=(("Company X", 8),),
        beacon_interval=4.0,
        loss_probability=0.15,
        retry_policy=RETRY,
        durable=True,
        sharded_revocation=True,
        gossip_period=20.0,
        gossip_checkpoints=True)
    defaults.update(overrides)
    scenario = Scenario(ScenarioConfig(**defaults))
    for user in scenario.sim_users.values():
        user.connect_timeout = 60.0
    return scenario


def crash_plan(seed, router_ids):
    """Kill/restart two routers on a stagger, with an fsync loss just
    before the first kill (the power-cut composition)."""
    first, second = router_ids[0], router_ids[-1]
    return FaultPlan(
        seed=seed,
        router=(RouterFault("kill", at=40.0, router_id=first),
                RouterFault("restart", at=90.0, router_id=first),
                RouterFault("kill", at=60.0, router_id=second),
                RouterFault("restart", at=130.0, router_id=second)),
        storage=(StorageFault("fsync_loss", at=39.0, router_id=first),))


class TestScenarioCrashChaos:
    @pytest.mark.parametrize("seed", CHAOS_SEEDS)
    def test_kill_restart_replays_bit_identically(self, seed):
        """The headline acceptance criterion: the same (scenario seed,
        fault plan) replays to identical terminal state -- connection
        outcomes, per-router counters, list versions, fault tallies."""
        def run():
            scenario = crash_scenario(seed)
            ids = sorted(scenario.sim_routers)
            injector = FaultInjector(crash_plan(seed, ids))
            injector.arm_scenario(scenario)
            scenario.run(240.0)
            return {
                "connected": scenario.connected_fraction(),
                "router_metrics": scenario.router_metrics(),
                "user_metrics": scenario.user_metrics(),
                "versions": {rid: sim.router.list_versions()
                             for rid, sim in
                             scenario.sim_routers.items()},
                "recoveries": {
                    rid: sim.router.recovery.summary
                    for rid, sim in scenario.sim_routers.items()
                    if sim.router.recovery is not None},
                "injected": injector.snapshot(),
            }

        assert run() == run()

    @pytest.mark.parametrize("seed", CHAOS_SEEDS)
    def test_restart_recovers_from_journal(self, seed):
        scenario = crash_scenario(seed)
        ids = sorted(scenario.sim_routers)
        injector = FaultInjector(crash_plan(seed, ids))
        injector.arm_scenario(scenario)
        with obs.collecting() as registry:
            scenario.run(240.0)
            assert registry.counter_value("recovery.restores_total") == 2
            assert registry.counter_value("recovery.kills_total") == 2
        assert injector.counts["kill"] == 2
        assert injector.counts["restart"] == 2
        assert injector.counts["fsync_loss"] == 1
        for rid in (ids[0], ids[-1]):
            sim = scenario.sim_routers[rid]
            assert not sim.crashed
            assert sim.metrics["crashes"] == 1
            assert sim.metrics["restarts"] == 1
            assert sim.router.recovery is not None
            # The restarted router is a live gossip participant again.
            assert not scenario.gossip.isolated(rid)
            assert scenario.gossip.routers[rid] is sim.router

    def test_crash_faults_require_durable_scenario(self):
        scenario = crash_scenario(101, durable=False,
                                  gossip_checkpoints=False)
        rid = sorted(scenario.sim_routers)[0]
        injector = FaultInjector(FaultPlan(
            seed=1, router=(RouterFault("kill", at=5.0,
                                        router_id=rid),)))
        with pytest.raises(FaultInjectionError):
            injector.arm_scenario(scenario)

    @pytest.mark.parametrize("seed", CHAOS_SEEDS)
    def test_partitioned_restart_reenters_degraded(self, seed):
        """Sever the backhaul, crash the router, restart it after its
        journaled lists aged past the grace window: it must come back
        *degraded* -- suppressed beacons, not resurrected freshness."""
        scenario = crash_scenario(seed, gossip_period=0.0,
                                  gossip_checkpoints=False)
        rid = sorted(scenario.sim_routers)[0]
        plan = FaultPlan(
            seed=seed,
            router=(RouterFault("sever_channel", at=10.0,
                                router_id=rid),
                    RouterFault("kill", at=20.0, router_id=rid),
                    RouterFault("restart", at=650.0, router_id=rid)))
        injector = FaultInjector(plan)
        injector.arm_scenario(scenario)
        scenario.run(700.0)
        sim = scenario.sim_routers[rid]
        assert not sim.crashed
        router = sim.router
        assert router.degraded
        # Staleness counts from the *journaled* fetch time, not the
        # restart time: the recovered lists are already out of grace.
        assert router.lists_age() > router.staleness_grace
        assert sim.metrics["beacons_suppressed"] >= 1

    def test_lose_unsynced_rolls_back_to_last_sync(self):
        """fsync-loss composition at the scenario surface: unsynced
        journal records die with the page cache, and the restart
        recovers the older (synced) state."""
        scenario = crash_scenario(101, durable_sync_every=100,
                                  gossip_period=0.0,
                                  gossip_checkpoints=False)
        rid = sorted(scenario.sim_routers)[0]
        store = scenario.durable_stores[rid]
        store.sync()
        synced_url = store.state.url_blob
        # An unsynced list update...
        sim = scenario.sim_routers[rid]
        scenario.deployment.operator.issue_url()   # keep NO in step
        sim.router.refresh_lists()
        assert scenario.lose_unsynced(rid) > 0
        scenario.kill_router(rid)
        scenario.restart_router(rid)
        assert scenario.sim_routers[rid].router._url.encode() \
            == synced_url


# ---------------------------------------------------------------------------
# Checkpoint warm-up security


def checkpoint_pair(seed=7, revocations=3):
    """NO + a warm source router + a target without the tag index, with
    ``revocations`` real URL entries."""
    loop = EventLoop(start=1_000_000.0)
    clock = SimClock(loop)
    operator = NetworkOperator(PairingGroup("TEST"), clock=clock,
                               rng=random.Random(seed))
    source = MeshRouter("MR-0", operator, clock=clock,
                        rng=random.Random(seed + 1))
    target = MeshRouter("MR-1", operator, clock=clock,
                        rng=random.Random(seed + 2))
    gm_bundle, _ = operator.register_user_group("Metro", 8)
    for index, _x in gm_bundle.entries[:revocations]:
        operator.revoke_user_key(index)
    source.refresh_lists()
    target.refresh_lists()
    source.enable_sharded_revocation(cache=RevocationTagCache())
    return loop, clock, operator, source, target


def tamper_tag(checkpoint):
    (token, tag), *rest = checkpoint.entries
    flipped = bytes([tag[0] ^ 1]) + tag[1:]
    return dataclasses.replace(checkpoint,
                               entries=((token, flipped), *rest))


class TestCheckpointSecurity:
    @pytest.mark.parametrize("seed", CHAOS_SEEDS)
    def test_valid_checkpoint_warms_with_zero_pairings(self, seed):
        _loop, _clock, _op, source, target = checkpoint_pair(seed)
        checkpoint = source.make_tag_checkpoint()
        assert len(checkpoint.entries) == 3
        with instrument.count_operations() as ops:
            target.enable_sharded_revocation(
                cache=RevocationTagCache(), warm_checkpoint=checkpoint)
        assert ops.total("pairing") == 0
        assert target.tag_warm_fraction() == 1.0
        # Tags are pure functions of (epoch, token): the warmed cache
        # agrees with the source's own derivations entry for entry.
        for token, tag in checkpoint.entries:
            assert target.revocation_state.cache.get(
                target.revocation_state.epoch, token) == tag

    @pytest.mark.parametrize("seed", CHAOS_SEEDS)
    def test_tampered_tag_rejected_then_rederived(self, seed):
        _loop, _clock, _op, source, target = checkpoint_pair(seed)
        tampered = tamper_tag(source.make_tag_checkpoint())
        with obs.collecting() as registry, \
                instrument.count_operations() as ops:
            target.enable_sharded_revocation(
                cache=RevocationTagCache(), warm_checkpoint=tampered)
            assert registry.counter_value(
                "gossip.checkpoint.rejected") == 1
        # Full re-derive fallback: every tag paid for honestly, and
        # the poisoned value never entered the cache.
        assert ops.total("pairing") == 3
        genuine = dict(source.make_tag_checkpoint().entries)
        state = target.revocation_state
        for token, tag in genuine.items():
            assert state.cache.get(state.epoch, token) == tag

    @pytest.mark.parametrize("seed", CHAOS_SEEDS)
    def test_tampered_signature_raises(self, seed):
        _loop, _clock, _op, source, target = checkpoint_pair(seed)
        checkpoint = source.make_tag_checkpoint()
        forged = dataclasses.replace(
            checkpoint, signature=target.keypair.sign(
                checkpoint.signed_payload()))
        target.enable_sharded_revocation(cache=RevocationTagCache())
        with pytest.raises(CertificateError, match="bad signature"):
            target.adopt_tag_checkpoint(forged)

    def test_wire_round_trip_then_adopt(self):
        _loop, _clock, _op, source, target = checkpoint_pair()
        checkpoint = source.make_tag_checkpoint()
        decoded = TagCheckpoint.decode(checkpoint.encode())
        assert decoded == checkpoint
        target.enable_sharded_revocation(cache=RevocationTagCache())
        assert target.adopt_tag_checkpoint(decoded) == 3

    def test_old_layout_refused(self):
        """A checkpoint in the layout that carried a shard count
        (``b"TCK"``, then a u32 count before the entries) fails to
        decode instead of misparsing into a checkpoint."""
        _loop, _clock, _op, source, _target = checkpoint_pair()
        checkpoint = source.make_tag_checkpoint()
        writer = (Writer().raw(b"TCK").string(checkpoint.router_id)
                  .u64(checkpoint.epoch).u64(checkpoint.url_version)
                  .u32(16).u32(len(checkpoint.entries)))
        for token, tag in checkpoint.entries:
            writer.var(token).var(tag)
        old = (writer.var(checkpoint.certificate)
               .var(checkpoint.signature).done())
        with pytest.raises(EncodingError):
            TagCheckpoint.decode(old)

    def test_certificate_swap_rejected(self):
        _loop, _clock, _op, source, target = checkpoint_pair()
        checkpoint = source.make_tag_checkpoint()
        swapped = dataclasses.replace(
            checkpoint, certificate=target.certificate.encode())
        target.enable_sharded_revocation(cache=RevocationTagCache())
        with pytest.raises(CertificateError, match="names"):
            target.adopt_tag_checkpoint(swapped)

    def test_revoked_source_checkpoint_rejected(self):
        """A checkpoint from a router on the target's CRL fails the
        chain even though its signature is genuine."""
        _loop, _clock, operator, source, target = checkpoint_pair()
        checkpoint = source.make_tag_checkpoint()
        operator.revoke_router(source.router_id)
        target.refresh_lists()
        target.enable_sharded_revocation(cache=RevocationTagCache())
        with pytest.raises(CertificateError, match="revoked"):
            target.adopt_tag_checkpoint(checkpoint)

    def test_cut_off_router_neither_serves_nor_adopts(self):
        _loop, _clock, _op, source, target = checkpoint_pair()
        checkpoint = source.make_tag_checkpoint()
        target.enable_sharded_revocation(cache=RevocationTagCache())
        target.revocation_state.cache = RevocationTagCache()  # cold
        target.sever_operator_channel()
        assert target.adopt_tag_checkpoint(checkpoint) == 0
        source.sever_operator_channel()
        assert source.make_tag_checkpoint() is None

    def test_other_epoch_checkpoint_ignored_not_rejected(self):
        _loop, _clock, _op, source, target = checkpoint_pair()
        checkpoint = source.make_tag_checkpoint()
        stale = dataclasses.replace(checkpoint, epoch=checkpoint.epoch + 1)
        stale = dataclasses.replace(
            stale, signature=source.keypair.sign(stale.signed_payload()))
        target.enable_sharded_revocation(cache=RevocationTagCache())
        target.revocation_state.cache = RevocationTagCache()  # cold
        # Authentic but for another epoch: not an attack, just useless.
        assert target.adopt_tag_checkpoint(stale) == 0
        assert target.tag_warm_fraction() < 1.0


class TestCheckpointGossip:
    def _overlay(self, seed=7):
        loop, clock, operator, source, target = checkpoint_pair(seed)
        target.enable_sharded_revocation(cache=RevocationTagCache())
        target.revocation_state.cache = RevocationTagCache()  # cold
        gossip = ListGossip(loop, [source, target], round_period=30.0,
                            fanout=1, rng=random.Random(seed),
                            checkpoints=True)
        return gossip, source, target

    def test_round_warms_cold_peer_without_pairings(self):
        gossip, _source, target = self._overlay()
        assert target.tag_warm_fraction() < 1.0
        with instrument.count_operations() as ops:
            gossip.run_round()
        assert gossip.checkpoints_offered >= 1
        assert gossip.checkpoints_adopted >= 1
        assert ops.total("pairing") == 0
        assert target.tag_warm_fraction() == 1.0
        # Warm peers are not re-offered: the checkpoint is pure
        # optimization and an up-to-date overlay goes quiet.
        offered = gossip.checkpoints_offered
        gossip.run_round()
        assert gossip.checkpoints_offered == offered

    @pytest.mark.parametrize("seed", CHAOS_SEEDS)
    def test_tamper_in_transit_rejected_and_counted(self, seed):
        gossip, _source, target = self._overlay(seed)
        gossip.checkpoint_filter = tamper_tag
        with obs.collecting() as registry:
            gossip.run_round()
            assert registry.counter_value(
                "gossip.checkpoint.rejected") >= 1
        assert gossip.checkpoints_rejected >= 1
        assert gossip.checkpoints_adopted == 0
        # The poisoned tags never landed: the target is still cold.
        assert target.tag_warm_fraction() < 1.0
