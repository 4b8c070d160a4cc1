"""Scripted attack campaigns over the simulator (experiments E5-E7).

Each campaign builds a small city, injects one adversary class, runs it
for a configured duration, and returns a structured result that the
corresponding benchmark formats and the test suite asserts on.  The
security claims of Section V.A become these observables:

* E5 (DoS):   legitimate connection success and delay under flood,
              with and without the client-puzzle defense.
* E6 (bogus injection): acceptance counts per attacker class -- the
              paper claims *all* bogus traffic is filtered.
* E7 (phishing): how long a revoked router keeps collecting victims --
              the paper bounds it by the CRL update period.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

from repro.core.protocols.dos import DosPolicy
from repro.wmn.adversary import (
    DosFlooder,
    Eavesdropper,
    OutsiderInjector,
    ReplayAttacker,
    RevokedRouterPhisher,
    RoguePhisher,
)
from repro.wmn.scenario import Scenario, ScenarioConfig
from repro.wmn.topology import TopologyConfig


def _small_city(seed: int, user_count: int,
                dos_policy_factory=None,
                list_refresh_period: float = 600.0,
                beacon_interval: float = 5.0) -> Scenario:
    """One router, a handful of users -- the standard campaign arena."""
    config = ScenarioConfig(
        preset="TEST", seed=seed,
        topology=TopologyConfig(area_side=400.0, router_grid=1,
                                user_count=user_count, seed=seed,
                                access_range=400.0),
        group_sizes=(("Company X", max(8, user_count)),
                     ("University Z", max(8, user_count))),
        beacon_interval=beacon_interval,
        dos_policy_factory=dos_policy_factory,
        list_refresh_period=list_refresh_period)
    return Scenario(config)


# ---------------------------------------------------------------------------
# E6: bogus data injection
# ---------------------------------------------------------------------------


@dataclass
class InjectionResult:
    """Outcome of the bogus-injection campaign."""

    legit_accepted: int
    legit_attempted: int
    outsider_injected: int
    outsider_accepted: int
    replays_sent: int
    replays_accepted: int
    revoked_attempts: int
    revoked_accepted: int
    bogus_data_frames: int
    bogus_data_accepted: int


def injection_campaign(seed: int = 11, user_count: int = 4,
                       duration: float = 120.0) -> InjectionResult:
    """Run the E6 campaign and return a fully reconciled result."""
    scenario = _small_city(seed, user_count)
    loop, radio = scenario.loop, scenario.radio
    group = scenario.deployment.group
    router_id = next(iter(scenario.sim_routers))
    sim_router = scenario.sim_routers[router_id]

    outsider = OutsiderInjector("ATK-outsider", (10.0, 10.0), loop, radio,
                                group, rng=random.Random(seed + 100))
    replayer = ReplayAttacker("ATK-replay", (20.0, 20.0), loop, radio,
                              replay_delay=45.0)

    victim_id = next(iter(scenario.sim_users))
    victim = scenario.sim_users[victim_id]
    credential = victim.user.credentials[victim.context]
    scenario.deployment.operator.revoke_user_key(credential.index)
    for router in scenario.deployment.routers.values():
        router.refresh_lists()
    victim.connect_timeout = 20.0

    from repro.core.messages import DataPacket
    from repro.wmn.radio import Frame
    bogus_data = {"sent": 0}

    def inject_data() -> None:
        packet = DataPacket(session_id=b"\x00" * 16,
                            sequence=bogus_data["sent"],
                            sealed=b"\x00" * 48)
        bogus_data["sent"] += 1
        radio.transmit(Frame("DAT", packet.encode(), src="ATK-outsider",
                             dst=router_id))

    loop.schedule_every(10.0, inject_data)
    data_before = sim_router.metrics["data_delivered"]
    scenario.run(duration)

    legit_users = [u for uid, u in scenario.sim_users.items()
                   if uid != victim_id]
    legit_connected = sum(u.metrics["connected"] for u in legit_users)
    completed = int(sim_router.metrics["handshakes_completed"])
    return InjectionResult(
        legit_accepted=legit_connected,
        legit_attempted=sum(u.metrics["connect_attempts"]
                            for u in legit_users),
        outsider_injected=outsider.injected,
        outsider_accepted=max(0, completed - legit_connected),
        replays_sent=replayer.replayed,
        replays_accepted=max(0, completed - legit_connected),
        revoked_attempts=victim.metrics["connect_attempts"],
        revoked_accepted=victim.metrics["connected"],
        bogus_data_frames=bogus_data["sent"],
        bogus_data_accepted=int(sim_router.metrics["data_delivered"]
                                - data_before
                                - sum(u.metrics["data_sent"]
                                      for u in scenario.sim_users.values())),
    )


# ---------------------------------------------------------------------------
# E7: phishing window of a revoked router
# ---------------------------------------------------------------------------


@dataclass
class PhishingResult:
    """Outcome of the revoked-router phishing campaign."""

    crl_update_period: float
    revoked_at: float
    last_victim_at: Optional[float]
    victims_before_revocation: int
    victims_after_revocation: int
    observed_window: float          # time after revocation still phishing
    paper_bound: float              # <= one CRL update period
    rogue_victims: int              # fresh rogue router (must be 0)


def phishing_campaign(crl_update_period: float = 120.0,
                      revoke_at: float = 100.0,
                      duration: float = 600.0,
                      seed: int = 23,
                      user_count: int = 4) -> PhishingResult:
    """A provisioned router turns rogue after NO revokes it.

    Users keep probing (short sessions); the phisher never completes a
    handshake (it has no interest in M.3) so users time out and retry,
    re-evaluating the increasingly stale CRL each time.
    """
    scenario = _small_city(seed, user_count,
                           list_refresh_period=crl_update_period / 2)
    scenario.deployment.operator.crl_update_period = crl_update_period
    loop, radio = scenario.loop, scenario.radio
    start = loop.now

    # Users probe aggressively and drop sessions quickly.
    for user in scenario.sim_users.values():
        user.connect_timeout = 10.0
        loop.schedule_every(15.0, user.disconnect, jitter_rng=scenario.rng)

    # The second router is provisioned, then revoked mid-run.
    from repro.core.router import MeshRouter as CoreRouter
    phish_core = CoreRouter("MR-phish", scenario.deployment.operator,
                            clock=scenario.clock,
                            rng=random.Random(seed + 5))
    phish_core.refresh_lists()
    # Beacon faster than the honest router so idle probers regularly
    # answer the phisher first (worst case for the defenders).
    phisher = RevokedRouterPhisher(phish_core, (50.0, 50.0), loop, radio,
                                   beacon_interval=2.0,
                                   rng=random.Random(seed + 6))
    rogue = RoguePhisher("MR-rogue", (350.0, 350.0), loop, radio,
                         scenario.deployment.group,
                         rng=random.Random(seed + 7))

    def revoke() -> None:
        scenario.deployment.operator.revoke_router("MR-phish")
        phish_core.sever_operator_channel()

    loop.schedule(revoke_at, revoke)
    scenario.run(duration)

    revoked_wall = start + revoke_at
    before = sum(1 for t in phisher.victim_times if t < revoked_wall)
    after_times = [t for t in phisher.victim_times if t >= revoked_wall]
    last_victim = max(after_times) if after_times else None
    window = (last_victim - revoked_wall) if last_victim else 0.0
    return PhishingResult(
        crl_update_period=crl_update_period,
        revoked_at=revoke_at,
        last_victim_at=last_victim,
        victims_before_revocation=before,
        victims_after_revocation=len(after_times),
        observed_window=window,
        paper_bound=crl_update_period,
        rogue_victims=len(rogue.victims))


# ---------------------------------------------------------------------------
# E5: DoS flood with and without puzzles
# ---------------------------------------------------------------------------


@dataclass
class DosResult:
    """Outcome of one DoS campaign configuration."""

    flood_rate: float
    puzzles_enabled: bool
    puzzle_difficulty: int
    legit_users: int
    legit_connected: int
    mean_auth_delay: float
    requests_dropped_queue: int
    attacker_sent: int
    attacker_puzzle_limited: int
    router_cpu_busy: float
    duration: float

    @property
    def legit_success_rate(self) -> float:
        return (self.legit_connected / self.legit_users
                if self.legit_users else 0.0)


def dos_campaign(flood_rate: float = 40.0, puzzles: bool = False,
                 difficulty: int = 14, attacker_hash_rate: float = 50_000.0,
                 duration: float = 90.0, seed: int = 31,
                 user_count: int = 4) -> DosResult:
    """Flood one router; measure what happens to legitimate users."""
    policy_factory = None
    if puzzles:
        def policy_factory() -> DosPolicy:
            return DosPolicy(rate_threshold=5.0, window=10.0,
                             base_difficulty=difficulty,
                             max_difficulty=difficulty, adaptive=False)

    scenario = _small_city(seed, user_count,
                           dos_policy_factory=policy_factory,
                           beacon_interval=3.0)
    loop, radio = scenario.loop, scenario.radio
    router_id = next(iter(scenario.sim_routers))
    sim_router = scenario.sim_routers[router_id]
    for user in scenario.sim_users.values():
        user.connect_timeout = 20.0     # retry under overload

    flooder = DosFlooder("ATK-flood", (30.0, 30.0), loop, radio,
                         scenario.deployment.group, router_id,
                         rate=flood_rate, hash_rate=attacker_hash_rate,
                         rng=random.Random(seed + 9))

    scenario.run(duration)

    from repro.wmn.metrics import mean
    users = list(scenario.sim_users.values())
    delays = [d for u in users for d in u.auth_delays]
    return DosResult(
        flood_rate=flood_rate, puzzles_enabled=puzzles,
        puzzle_difficulty=difficulty if puzzles else 0,
        legit_users=len(users),
        legit_connected=sum(1 for u in users if u.state == "connected"),
        mean_auth_delay=mean(delays) if delays else float("nan"),
        requests_dropped_queue=int(
            sim_router.metrics["requests_dropped_queue"]),
        attacker_sent=flooder.sent,
        attacker_puzzle_limited=flooder.puzzle_limited,
        router_cpu_busy=sim_router.metrics["cpu_busy_seconds"],
        duration=duration)
