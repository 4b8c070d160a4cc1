"""Epidemic CRL/URL distribution between mesh routers.

The operator publishes revocation lists, but at metropolitan scale not
every router has a live backhaul every update period -- degraded
routers (fiber cut, NO outage) would otherwise age out of their
``staleness_grace`` and refuse service even though a neighbour one hop
away holds a fresher list.  :class:`ListGossip` runs classic
push-pull anti-entropy on the sim clock:

* every ``round_period`` each participating router contacts ``fanout``
  peers chosen from its peer set by the seeded rng;
* the exchange opens with a *digest* -- ``(crl_version, url_version)``
  -- and only a version gap moves data;
* the fresher side serves a :class:`~repro.core.certs.CrlDelta` /
  :class:`~repro.core.certs.UrlDelta` when the stale side's version is
  still in its bounded history, else the full signed list; the
  receiver reconstructs and *validates the NO signature* before
  adopting (:meth:`MeshRouter.adopt_lists`), so a corrupted or forged
  delta can never take effect;
* each exchange is lost with probability ``loss_probability`` (seeded,
  replayable), modelling the lossy mesh links the paper's setting
  assumes.

**Shard-checkpoint warm-up** (``checkpoints=True``): after the list
reconcile, each side offers its signed
:class:`~repro.core.revocation.TagCheckpoint` to a peer whose epoch-tag
cache is cold (a restarted or newly joined router), so the peer warms
its :class:`~repro.core.revocation.RevocationTagCache` from one
exchange instead of re-deriving |URL| pairings.  Adoption runs the full
PKI chain at the receiving router (certificate validity, CRL, ECDSA
over the entry set); a tampered checkpoint raises ``CertificateError``
-- counted in ``gossip.checkpoint.rejected`` -- and the receiver falls
back to full tag re-derivation.  ``_cut_off`` routers neither serve
nor adopt checkpoints (E7 again).

Composition with the fault model: routers can be *isolated* from the
gossip overlay and later *rejoin* (:class:`repro.faults.plan.GossipFault`
armed through :meth:`repro.faults.injector.FaultInjector.arm_gossip`);
a revoked (``_cut_off``) router keeps its stale lists -- adoption is
refused at the router, preserving the E7 phishing-window behaviour.
A killed/restarted router is swapped in with
:meth:`ListGossip.replace_router`.  Counters: ``gossip.rounds_total``,
``gossip.exchanges_total``, ``gossip.deltas_applied_total``,
``gossip.full_syncs_total``, ``gossip.losses_total``, plus the
``gossip.checkpoint.*`` family.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Sequence, Tuple

from repro import obs
from repro.core.router import MeshRouter
from repro.errors import CertificateError, SimulationError
from repro.wmn.simclock import EventLoop


class ListGossip:
    """Anti-entropy distribution of CRL/URL versions over a router set."""

    def __init__(self, loop: EventLoop, routers: Sequence[MeshRouter],
                 round_period: float = 30.0, fanout: int = 2,
                 loss_probability: float = 0.0,
                 rng: Optional[random.Random] = None,
                 peers: Optional[Dict[str, Sequence[str]]] = None,
                 checkpoints: bool = False) -> None:
        if round_period <= 0:
            raise SimulationError("gossip round_period must be positive")
        if fanout < 1:
            raise SimulationError("gossip fanout must be >= 1")
        if not 0.0 <= loss_probability < 1.0:
            raise SimulationError("gossip loss probability must be in [0,1)")
        self.loop = loop
        self.routers: Dict[str, MeshRouter] = {
            router.router_id: router for router in routers}
        if len(self.routers) != len(routers):
            raise SimulationError("duplicate router ids in gossip set")
        self.round_period = round_period
        self.fanout = fanout
        self.loss_probability = loss_probability
        self.rng = rng or random.Random()
        # Overlay topology: router id -> candidate peer ids.  Default is
        # a complete graph (uniform peer sampling, the textbook model);
        # a scenario passes its backbone adjacency for mesh-shaped
        # spread.
        self._peers: Dict[str, List[str]] = {}
        for router_id in self.routers:
            if peers is not None:
                candidates = [peer for peer in peers.get(router_id, ())
                              if peer in self.routers and peer != router_id]
            else:
                candidates = [peer for peer in self.routers
                              if peer != router_id]
            self._peers[router_id] = sorted(candidates)
        self._isolated: set = set()
        self.checkpoints = checkpoints
        #: Chaos hook: callable mutating a checkpoint in flight
        #: (tamper-in-transit tests); None passes it through verbatim.
        self.checkpoint_filter = None
        self.rounds = 0
        self.exchanges = 0
        self.deltas_applied = 0
        self.full_syncs = 0
        self.losses = 0
        self.checkpoints_offered = 0
        self.checkpoints_adopted = 0
        self.checkpoints_rejected = 0

    # -- fault hooks --------------------------------------------------------

    def replace_router(self, router: MeshRouter) -> None:
        """Swap in a restarted router object under its existing id
        (the overlay topology and isolation state are unchanged)."""
        if router.router_id not in self.routers:
            raise SimulationError(
                f"unknown gossip router {router.router_id!r}")
        self.routers[router.router_id] = router

    def isolate(self, router_id: str) -> None:
        """Sever a router from the overlay (both directions)."""
        if router_id not in self.routers:
            raise SimulationError(f"unknown gossip router {router_id!r}")
        self._isolated.add(router_id)
        obs.counter("gossip.isolated_total")

    def rejoin(self, router_id: str) -> None:
        """Restore a severed router to the overlay."""
        if router_id not in self.routers:
            raise SimulationError(f"unknown gossip router {router_id!r}")
        self._isolated.discard(router_id)
        obs.counter("gossip.rejoined_total")

    def isolated(self, router_id: str) -> bool:
        return router_id in self._isolated

    # -- scheduling ---------------------------------------------------------

    def start(self, until: Optional[float] = None) -> None:
        """Arm one anti-entropy round every ``round_period`` on the loop."""
        self.loop.schedule_every(self.round_period, self.run_round,
                                 until=until)

    # -- the protocol -------------------------------------------------------

    def run_round(self) -> None:
        """One synchronous anti-entropy round: everyone gossips once."""
        self.rounds += 1
        obs.counter("gossip.rounds_total")
        # Deterministic iteration order: dict order is insertion order,
        # and the router set is fixed at construction.
        for router_id in self.routers:
            if router_id in self._isolated:
                continue
            candidates = [peer for peer in self._peers[router_id]
                          if peer not in self._isolated]
            if not candidates:
                continue
            count = min(self.fanout, len(candidates))
            for peer_id in self.rng.sample(candidates, count):
                self._exchange(router_id, peer_id)

    def _exchange(self, initiator_id: str, peer_id: str) -> None:
        """One push-pull digest exchange; lossy, symmetric."""
        self.exchanges += 1
        obs.counter("gossip.exchanges_total")
        if (self.loss_probability
                and self.rng.random() < self.loss_probability):
            self.losses += 1
            obs.counter("gossip.losses_total")
            return
        initiator = self.routers[initiator_id]
        peer = self.routers[peer_id]
        # Push: initiator lifts the peer where it is fresher...
        self._reconcile(source=initiator, target=peer)
        # ...pull: and the peer lifts the initiator back.
        self._reconcile(source=peer, target=initiator)
        if self.checkpoints:
            self._offer_checkpoint(source=initiator, target=peer)
            self._offer_checkpoint(source=peer, target=initiator)

    def _reconcile(self, source: MeshRouter, target: MeshRouter) -> None:
        """Move ``source``'s fresher lists into ``target``.

        Tries the delta first (source still remembers the target's
        version), falling back to the full signed list.  A delta whose
        reconstruction fails NO validation is discarded and the full
        list is sent instead -- tampering degrades to the slow path,
        never to adoption.
        """
        src_crl, src_url = source.list_versions()
        dst_crl, dst_url = target.list_versions()
        crl = url = None
        used_delta = False
        if src_crl > dst_crl:
            delta = source.crl_delta_for(dst_crl)
            if delta is not None:
                try:
                    crl = delta.apply(target.crl)
                    used_delta = True
                except CertificateError:
                    crl = None
            if crl is None:
                crl = source.crl
        if src_url > dst_url:
            delta = source.url_delta_for(dst_url)
            if delta is not None:
                try:
                    url = delta.apply(target.url)
                    used_delta = True
                except CertificateError:
                    url = None
            if url is None:
                url = source.url
        if crl is None and url is None:
            return
        try:
            adopted = target.adopt_lists(crl=crl, url=url)
        except CertificateError:
            # Reconstruction (or a forged full list) failed signature
            # validation; retry with the authoritative full lists.
            obs.counter("gossip.delta_rejected_total")
            try:
                adopted = target.adopt_lists(
                    crl=source.crl if crl is not None else None,
                    url=source.url if url is not None else None)
            except CertificateError:
                return
            used_delta = False
        if adopted:
            if used_delta:
                self.deltas_applied += 1
                obs.counter("gossip.deltas_applied_total")
            else:
                self.full_syncs += 1
                obs.counter("gossip.full_syncs_total")

    def _offer_checkpoint(self, source: MeshRouter,
                          target: MeshRouter) -> None:
        """Warm ``target``'s tag cache from ``source``'s checkpoint.

        Offered only when both ends run the tag index on the same
        epoch and the target's cache is actually cold -- a checkpoint
        is pure optimization, so an up-to-date peer costs nothing.
        The target performs the full verification chain; rejection
        (``CertificateError``) leaves its cache untouched and the next
        index build re-derives the tags it is missing.
        """
        src_state = source.revocation_state
        dst_state = target.revocation_state
        if src_state is None or dst_state is None:
            return
        if src_state.epoch != dst_state.epoch:
            return
        if target.tag_warm_fraction() >= 1.0:
            return
        checkpoint = source.make_tag_checkpoint()
        if checkpoint is None:
            return
        if self.checkpoint_filter is not None:
            checkpoint = self.checkpoint_filter(checkpoint)
        self.checkpoints_offered += 1
        obs.counter("gossip.checkpoint.offered")
        try:
            adopted = target.adopt_tag_checkpoint(checkpoint)
        except CertificateError:
            # The router already counted gossip.checkpoint.rejected.
            self.checkpoints_rejected += 1
            return
        if adopted:
            self.checkpoints_adopted += 1

    # -- convergence --------------------------------------------------------

    def converged(self, crl_version: Optional[int] = None,
                  url_version: Optional[int] = None,
                  include_isolated: bool = False) -> bool:
        """True when every reachable router holds the target versions.

        Defaults to the maximum version any participant holds.  Revoked
        (``_cut_off``) routers never converge by design and are always
        excluded; isolated routers are excluded unless asked for.
        """
        participants = [router for router_id, router in self.routers.items()
                        if not router._cut_off
                        and (include_isolated
                             or router_id not in self._isolated)]
        if not participants:
            return True
        if crl_version is None:
            crl_version = max(r.list_versions()[0] for r in participants)
        if url_version is None:
            url_version = max(r.list_versions()[1] for r in participants)
        return all(router.list_versions() >= (crl_version, url_version)
                   for router in participants)

    def run_until_converged(self, max_rounds: int,
                            crl_version: Optional[int] = None,
                            url_version: Optional[int] = None) -> int:
        """Drive rounds directly (no loop) until convergence.

        Returns the number of rounds taken; raises
        :class:`~repro.errors.SimulationError` past ``max_rounds`` --
        the bound the scale benchmark holds epidemic spread to.
        """
        for round_index in range(max_rounds):
            if self.converged(crl_version, url_version):
                return round_index
            self.run_round()
        if self.converged(crl_version, url_version):
            return max_rounds
        raise SimulationError(
            f"gossip failed to converge within {max_rounds} rounds")
