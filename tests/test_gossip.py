"""Epidemic CRL/URL distribution (repro.wmn.gossip.ListGossip).

Anti-entropy must converge a stale overlay under loss, prefer deltas
over full lists, refuse tampered reconstructions, compose with the
fault injector (isolate/rejoin) and degraded mode, and never launder
fresh lists into a revoked (``_cut_off``) router.
"""

import random

import pytest

from repro.core.operator_entity import NetworkOperator
from repro.core.revocation import epoch_period
from repro.core.router import MeshRouter
from repro.errors import (
    CertificateError,
    DegradedModeError,
    SimulationError,
)
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan, GossipFault
from repro.pairing import PairingGroup
from repro.wmn.gossip import ListGossip
from repro.wmn.scenario import Scenario, ScenarioConfig
from repro.wmn.simclock import EventLoop, SimClock
from repro.wmn.topology import TopologyConfig


def _overlay(router_count=8, seed=7, loss=0.0, revocations=2,
             fanout=2):
    """NO + ``router_count`` stale routers; only router 0 refreshed."""
    loop = EventLoop(start=1_000_000.0)
    clock = SimClock(loop)
    operator = NetworkOperator(PairingGroup("TEST"), clock=clock,
                               rng=random.Random(seed))
    routers = [MeshRouter(f"MR-{i}", operator, clock=clock,
                          rng=random.Random(seed + 1 + i))
               for i in range(router_count)]
    gm_bundle, _ = operator.register_user_group("Metro", 8)
    for index, _x in gm_bundle.entries[:revocations]:
        operator.revoke_user_key(index)
    routers[0].refresh_lists()
    gossip = ListGossip(loop, routers, round_period=30.0, fanout=fanout,
                        loss_probability=loss,
                        rng=random.Random(seed + 0x60551))
    return loop, clock, operator, routers, gossip


class TestConstruction:
    def test_parameter_validation(self):
        loop, _, _, routers, _ = _overlay(router_count=2)
        with pytest.raises(SimulationError):
            ListGossip(loop, routers, round_period=0.0)
        with pytest.raises(SimulationError):
            ListGossip(loop, routers, fanout=0)
        with pytest.raises(SimulationError):
            ListGossip(loop, routers, loss_probability=1.0)
        with pytest.raises(SimulationError):
            ListGossip(loop, routers + [routers[0]])

    def test_peer_topology_filters_unknown_ids(self):
        loop, _, _, routers, _ = _overlay(router_count=3)
        gossip = ListGossip(loop, routers,
                            peers={"MR-0": ["MR-1", "ghost"],
                                   "MR-1": ["MR-0"],
                                   "MR-2": []})
        assert gossip._peers["MR-0"] == ["MR-1"]
        assert gossip._peers["MR-2"] == []


class TestConvergence:
    def test_lossless_overlay_converges(self):
        _, _, operator, routers, gossip = _overlay(router_count=8)
        rounds = gossip.run_until_converged(max_rounds=16)
        target = (operator.issue_crl().version,
                  operator.issue_url().version)
        assert all(r.list_versions() == target for r in routers)
        assert rounds <= 16

    def test_converges_under_15pct_loss_within_bound(self):
        _, _, _, routers, gossip = _overlay(router_count=16, loss=0.15)
        rounds = gossip.run_until_converged(max_rounds=32)
        assert gossip.converged()
        assert rounds <= 32
        assert gossip.losses > 0

    def test_same_seed_replays_identically(self):
        results = []
        for _ in range(2):
            _, _, _, _, gossip = _overlay(router_count=12, seed=11,
                                          loss=0.15)
            rounds = gossip.run_until_converged(max_rounds=32)
            results.append((rounds, gossip.exchanges, gossip.losses,
                            gossip.deltas_applied, gossip.full_syncs))
        assert results[0] == results[1]

    def test_convergence_bound_raises(self):
        # 100% effective isolation: nothing can ever converge.
        _, _, _, routers, gossip = _overlay(router_count=4)
        for router in routers[1:]:
            gossip.isolate(router.router_id)
        gossip.rejoin(routers[1].router_id)
        gossip.loss_probability = 0.99
        with pytest.raises(SimulationError):
            gossip.run_until_converged(max_rounds=3)

    def test_scheduled_rounds_on_the_loop(self):
        loop, _, _, _, gossip = _overlay(router_count=6)
        gossip.start()
        loop.run_until(loop.now + 10 * 30.0)
        assert gossip.rounds >= 9
        assert gossip.converged()


class TestDeltaVsFull:
    def test_recent_peer_gets_delta(self):
        _, _, _, routers, gossip = _overlay(router_count=2)
        # Router 0 refreshed and remembers version 0 in its history.
        gossip.run_round()
        assert gossip.deltas_applied > 0
        assert gossip.full_syncs == 0

    def test_unknown_version_falls_back_to_full_list(self):
        loop = EventLoop(start=1_000_000.0)
        clock = SimClock(loop)
        operator = NetworkOperator(PairingGroup("TEST"), clock=clock,
                                   rng=random.Random(3))
        stale = MeshRouter("MR-stale", operator, clock=clock,
                           rng=random.Random(4))
        gm_bundle, _ = operator.register_user_group("Metro", 8)
        for index, _x in gm_bundle.entries[:2]:
            operator.revoke_user_key(index)
        # Fresh router built *after* the revocations: its bounded
        # history never contained version 0.
        fresh = MeshRouter("MR-fresh", operator, clock=clock,
                          rng=random.Random(5))
        assert fresh.url_delta_for(0) is None
        gossip = ListGossip(loop, [stale, fresh],
                            rng=random.Random(6))
        gossip.run_round()
        assert stale.list_versions() == fresh.list_versions()
        assert gossip.full_syncs > 0

    def test_cut_off_router_refuses_adoption(self):
        _, _, operator, routers, gossip = _overlay(router_count=3)
        revoked = routers[2]
        revoked.sever_operator_channel()
        gossip.run_until_converged(max_rounds=8)
        # The overlay converged -- without the revoked router, whose
        # lists stayed at version 0 (E7: no laundering via gossip).
        assert gossip.converged()
        assert revoked.list_versions() == (0, 0)
        assert not revoked.adopt_lists(crl=operator.issue_crl(),
                                       url=operator.issue_url())

    def test_adoption_is_version_monotonic_and_signed(self):
        _, _, operator, routers, gossip = _overlay(router_count=2)
        gossip.run_until_converged(max_rounds=8)
        follower = routers[1]
        current = follower.list_versions()
        # Re-offering what it already holds is a no-op...
        assert not follower.adopt_lists(crl=operator.issue_crl(),
                                        url=operator.issue_url())
        assert follower.list_versions() == current
        # ...and a forged (resigned-by-nobody) list is rejected.
        url = operator.issue_url()
        forged = type(url)(
            version=url.version + 1, issued_at=url.issued_at,
            update_period=url.update_period, tokens=url.tokens,
            signature=b"\x00" * len(url.signature))
        with pytest.raises(CertificateError):
            follower.adopt_lists(url=forged)
        assert follower.list_versions() == current


class TestFaultComposition:
    def test_isolate_and_rejoin_via_injector(self):
        _, _, _, routers, gossip = _overlay(router_count=6)
        plan = FaultPlan(seed=1, gossip=(
            GossipFault("isolate", router_id="MR-3"),))
        injector = FaultInjector(plan)
        injector.arm_gossip(gossip)
        assert gossip.isolated("MR-3")
        assert injector.counts["isolate"] == 1

        gossip.run_until_converged(max_rounds=8)
        assert gossip.converged()                       # reachable set
        assert not gossip.converged(include_isolated=True)
        assert routers[3].list_versions() == (0, 0)

        FaultInjector(FaultPlan(seed=2, gossip=(
            GossipFault("rejoin", router_id="MR-3"),))).arm_gossip(gossip)
        gossip.run_until_converged(max_rounds=8)
        assert gossip.converged(include_isolated=True)

    def test_scheduled_gossip_fault_fires_on_the_loop(self):
        loop, _, _, _, gossip = _overlay(router_count=4)
        plan = FaultPlan(seed=3, gossip=(
            GossipFault("isolate", at=50.0, router_id="MR-1"),))
        FaultInjector(plan).arm_gossip(gossip, loop=loop)
        assert not gossip.isolated("MR-1")
        loop.run_until(loop.now + 60.0)
        assert gossip.isolated("MR-1")

    def test_unknown_router_id_rejected(self):
        from repro.errors import FaultInjectionError
        _, _, _, _, gossip = _overlay(router_count=2)
        plan = FaultPlan(seed=4, gossip=(
            GossipFault("isolate", router_id="nope"),))
        with pytest.raises(FaultInjectionError):
            FaultInjector(plan).arm_gossip(gossip)

    def test_degraded_router_healed_within_grace(self):
        """A router cut from its backhaul ages toward refusal; gossip
        hands it authentically fresh lists and service continues."""
        loop, clock, operator, routers, gossip = _overlay(
            router_count=2, revocations=0)
        degraded = routers[1]
        degraded.set_operator_channel(False)
        assert degraded.degraded

        # Age past the grace window: the router fails closed.
        loop.run_until(loop.now + 650.0)
        with pytest.raises(DegradedModeError):
            degraded.make_beacon()

        # Fresh revocations published *now*; the connected router
        # fetches them, one anti-entropy exchange heals the degraded
        # one (adoption re-dates staleness to the lists' issue time).
        gm_bundle, _ = operator.register_user_group("Late", 4)
        operator.revoke_user_key(gm_bundle.entries[0][0])
        operator.provision_router("decoy")
        operator.revoke_router("decoy")
        routers[0].refresh_lists()
        gossip.run_until_converged(max_rounds=4)
        assert degraded.degraded            # channel is still down...
        degraded.make_beacon()              # ...but service resumed
        assert degraded.list_versions() == routers[0].list_versions()


class TestScenarioWiring:
    def test_gossip_and_sharded_revocation_knobs(self):
        scenario = Scenario(ScenarioConfig(
            preset="TEST", seed=5,
            topology=TopologyConfig(area_side=800.0, router_grid=2,
                                    user_count=4, seed=5),
            group_sizes=(("Company X", 8),),
            gossip_period=30.0, gossip_loss=0.1,
            sharded_revocation=True))
        assert scenario.gossip is not None
        backbone = scenario.topology.backbone
        for router_id, peers in scenario.gossip._peers.items():
            assert peers == sorted(backbone[router_id])
        period = epoch_period(scenario.deployment.operator.gpk.epoch)
        for sim in scenario.sim_routers.values():
            state = sim.router.revocation_state
            assert state is sim.router.engine.revocation_state
            assert state.period == period
        for user in scenario.deployment.users.values():
            assert user.auth_period == period
        scenario.run(100.0)
        assert scenario.gossip.rounds >= 3

    def test_gossip_off_by_default(self):
        scenario = Scenario(ScenarioConfig(
            preset="TEST", seed=6,
            topology=TopologyConfig(area_side=800.0, router_grid=2,
                                    user_count=2, seed=6),
            group_sizes=(("Company X", 4),)))
        assert scenario.gossip is None
        for sim in scenario.sim_routers.values():
            assert sim.router.revocation_state is None
