"""Mesh routers *MR_k* (Sections III.A, IV.B).

A mesh router broadcasts beacons, runs the router side of the
user-router handshake, maintains its session table and authentication
log (the audit trail), and periodically refreshes the CRL / URL from NO
over their pre-established secure channel.

The refresh model matters for experiment E7: a *revoked* router keeps
serving its last-fetched CRL, which goes stale after one update period
-- precisely the paper's bound on the phishing window.

Two distinct ways a router stops getting fresh lists:

* **Revocation** (:meth:`MeshRouter.sever_operator_channel`): NO cut
  the router off on purpose.  The router keeps serving its stale lists
  indefinitely -- that *is* the adversarial behaviour E7 measures.
* **Channel loss** (:meth:`MeshRouter.set_operator_channel`): an honest
  router lost its backhaul (fiber cut, NO outage).  It enters *degraded
  mode*: it keeps serving its last-known CRL/URL while they are younger
  than ``staleness_grace`` seconds, then refuses service with
  :class:`~repro.errors.DegradedModeError` rather than authenticate
  against lists it knows are stale.  Restoring the channel refreshes
  immediately and clears the degradation.
"""

from __future__ import annotations

import random
from collections import OrderedDict
from dataclasses import replace
from typing import TYPE_CHECKING, Optional, Tuple

from repro import obs
from repro.core.certs import (
    CertificateRevocationList,
    CrlDelta,
    RouterCertificate,
    UrlDelta,
    UserRevocationList,
)
from repro.core.durable import DurableRouterStore, DurableState, RecoveryInfo
from repro.core.groupsig import GroupPublicKey
from repro.core.revocation import (
    RevocationState,
    RevocationTagCache,
    TagCheckpoint,
)
from repro.core.clock import Clock, SystemClock
from repro.core.messages import AccessConfirm, AccessRequest, Beacon
from repro.core.operator_entity import NetworkOperator
from repro.core.protocols.dos import DosPolicy
from repro.core.protocols.session import SecureSession
from repro.core.protocols.user_router import RouterAuthEngine
from repro.errors import (
    CertificateError,
    DegradedModeError,
    EncodingError,
    SimulationError,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.verifier_pool import VerifierPool


class MeshRouter:
    """One mesh router, provisioned by ``operator``."""

    #: How many past CRL/URL versions this router can serve as deltas.
    max_list_history = 16

    def __init__(self, router_id: str, operator: NetworkOperator,
                 clock: Optional[Clock] = None,
                 rng: Optional[random.Random] = None,
                 cert_validity: float = 30 * 86400.0,
                 dos_policy: Optional[DosPolicy] = None,
                 staleness_grace: float = 600.0,
                 provisioned: Optional[Tuple] = None,
                 initial_lists: Optional[Tuple] = None,
                 channel_up: bool = True) -> None:
        self.router_id = router_id
        self.operator = operator
        self.clock = clock or SystemClock()
        self.rng = rng or random.Random()
        if provisioned is not None:
            # Restart path: keep the credentials NO already issued (and
            # consume no operator randomness -- see ``restore``).
            keypair, certificate = provisioned
        else:
            keypair, certificate = operator.provision_router(
                router_id, validity=cert_validity)
        self.keypair = keypair
        self.certificate: RouterCertificate = certificate
        if initial_lists is not None:
            # Restart path: the journaled lists, not a fresh NO fetch
            # (a partitioned router cannot reach NO at boot).
            self._crl, self._url, fetched_at = initial_lists
        else:
            self._crl = operator.issue_crl()
            self._url = operator.issue_url()
            fetched_at = self.clock.now()
        self._cut_off = False   # set when NO severs the secure channel
        self.staleness_grace = staleness_grace
        self._channel_up = channel_up    # honest backhaul state
        self._refresh_silent_failure = False   # chaos: refreshes no-op
        self._lists_fetched_at = fetched_at
        self._durable: Optional[DurableRouterStore] = None
        #: Set by :meth:`restore` -- what the journal recovery found.
        self.recovery: Optional[RecoveryInfo] = None
        self.engine = RouterAuthEngine(
            router_id=router_id, keypair=keypair, certificate=certificate,
            gpk=operator.gpk, crl_provider=lambda: self._crl,
            url_provider=lambda: self._url, clock=self.clock, rng=self.rng,
            dos_policy=dos_policy)
        # Bounded history of adopted list versions, so this router can
        # serve *deltas* to gossip peers that are only a few versions
        # behind (anything older gets the full signed list).
        self._crl_history: "OrderedDict[int, CertificateRevocationList]" \
            = OrderedDict()
        self._url_history: "OrderedDict[int, UserRevocationList]" \
            = OrderedDict()
        self._record_history()

    # -- list refresh over the NO secure channel ------------------------------

    def refresh_lists(self) -> None:
        """Periodic CRL/URL update; fails silently once NO cut us off
        (a revoked router can no longer obtain fresh lists) and while
        the backhaul channel is down (an honest router cannot reach
        NO)."""
        if self._cut_off or not self._channel_up:
            return
        if self._refresh_silent_failure:   # chaos: stale_lists fault
            obs.counter("router.refresh_suppressed_total")
            return
        with obs.span("router.list_refresh"):
            self._crl = self.operator.issue_crl()
            self._url = self.operator.issue_url()
        self._lists_fetched_at = self.clock.now()
        self._record_history()
        self._sync_revocation_state()
        self._journal_lists()

    def _record_history(self) -> None:
        for history, current in ((self._crl_history, self._crl),
                                 (self._url_history, self._url)):
            history[current.version] = current
            history.move_to_end(current.version)
            while len(history) > self.max_list_history:
                history.popitem(last=False)

    def sever_operator_channel(self) -> None:
        """Called when NO revokes this router: no more fresh lists."""
        self._cut_off = True
        if self._durable is not None:
            self._durable.record_channel(self._channel_up, self._cut_off)

    # -- degraded mode (honest channel loss, NOT revocation) ------------------

    def set_operator_channel(self, up: bool) -> None:
        """Flip the honest backhaul channel to NO.

        Going down puts the router in *degraded mode*; coming back up
        refreshes the lists immediately and clears the degradation.  A
        revoked router (:meth:`sever_operator_channel`) is exempt:
        revocation is permanent and keeps the E7 stale-list behaviour.
        """
        if self._cut_off:
            return
        if up and not self._channel_up:
            self._channel_up = True
            obs.counter("router.channel_restored_total")
            if self._durable is not None:
                self._durable.record_channel(self._channel_up,
                                             self._cut_off)
            self.refresh_lists()
        elif not up and self._channel_up:
            self._channel_up = False
            obs.counter("router.channel_severed_total")
            if self._durable is not None:
                self._durable.record_channel(self._channel_up,
                                             self._cut_off)

    def set_refresh_silent_failure(self, failing: bool) -> None:
        """Chaos hook: make :meth:`refresh_lists` silently do nothing,
        leaving the router to serve ever-staler lists without knowing."""
        self._refresh_silent_failure = failing

    @property
    def degraded(self) -> bool:
        """True while an honest router has no channel to NO."""
        return not self._channel_up and not self._cut_off

    def lists_age(self, now: Optional[float] = None) -> float:
        """Seconds since the CRL/URL were last fetched from NO."""
        return (self.clock.now() if now is None else now) \
            - self._lists_fetched_at

    def _check_degraded(self) -> None:
        """Fail closed past the grace window.

        In degraded mode the router serves its last-known lists only
        while they are younger than ``staleness_grace``; after that it
        refuses to authenticate anyone rather than act on lists it
        knows are stale.  Revoked routers never take this path -- their
        stale service *is* the behaviour under test in E7.
        """
        if not self.degraded:
            return
        age = self.lists_age()
        if age > self.staleness_grace:
            obs.counter("router.degraded_refusals_total")
            raise DegradedModeError(
                f"router {self.router_id} degraded: operator channel "
                f"down and lists are {age:.0f}s old "
                f"(grace {self.staleness_grace:.0f}s)")

    def adopt_new_epoch(self) -> None:
        """Pick up a rotated gpk plus fresh lists over the NO channel."""
        if self._cut_off:
            return
        self.engine.gpk = self.operator.gpk
        self.refresh_lists()
        # The backhaul may be down; the state must still follow the gpk
        # the engine now verifies under (refresh_lists syncs only when
        # it actually fetched).
        self._sync_revocation_state()
        if self._durable is not None:
            self._durable.record_epoch(
                self.engine.gpk.epoch, self.engine.gpk.encode(),
                self._crl.encode(), self._url.encode(),
                self._lists_fetched_at)
            self._journal_checkpoint()

    # -- period-mode tag index ------------------------------------------------

    @property
    def revocation_state(self) -> Optional[RevocationState]:
        """The auth engine's tag index; ``None`` keeps the default
        linear-scan verification path untouched."""
        return self.engine.revocation_state

    def enable_sharded_revocation(self,
                                  cache: Optional[RevocationTagCache] = None,
                                  warm_checkpoint: Optional[TagCheckpoint]
                                  = None) -> RevocationState:
        """Opt this router into the period-mode tag-index revocation path.

        Builds a :class:`~repro.core.revocation.RevocationState` over
        the current URL and hands it to the auth engine: handshakes
        verify SPK correctness as usual under the state's epoch period,
        then run the O(1) tag lookup instead of the linear Eq.3 scan.
        Users must sign under the same epoch period (see
        ``NetworkUser.auth_period``); outcomes are bit-identical to the
        serial scan.  ``cache`` may be shared across routers.

        ``warm_checkpoint`` pre-warms the cache from a peer's signed
        :class:`~repro.core.revocation.TagCheckpoint` *before* the
        first index build, so a cold router skips the per-token pairing
        re-derivation entirely (verified exactly like a gossiped
        checkpoint; tampering raises ``CertificateError`` and the build
        falls back to full re-derivation).
        """
        state = RevocationState(self.engine.gpk, cache=cache)
        self.engine.revocation_state = state
        if warm_checkpoint is not None:
            try:
                self.adopt_tag_checkpoint(warm_checkpoint)
            except CertificateError:
                # Full re-derive fallback: the update below pays the
                # pairings a valid checkpoint would have saved.
                pass
        state.update(self._url.tokens, self._url.version)
        self._journal_checkpoint()
        return state

    def _sync_revocation_state(self) -> None:
        """Re-index after any list or epoch change (no-op when off)."""
        state = self.revocation_state
        if state is None:
            return
        if state.epoch != self.engine.gpk.epoch:
            state.rotate(self.engine.gpk, self._url.tokens,
                         self._url.version)
        elif state.url_version != self._url.version:
            state.update(self._url.tokens, self._url.version)

    # -- epidemic (router-to-router) list distribution ------------------------

    def list_versions(self) -> Tuple[int, int]:
        """The anti-entropy digest: ``(crl_version, url_version)``."""
        return (self._crl.version, self._url.version)

    def adopt_lists(self, crl: Optional[CertificateRevocationList] = None,
                    url: Optional[UserRevocationList] = None) -> bool:
        """Adopt gossiped lists; the epidemic-distribution sink.

        Every candidate must carry a valid NO signature and advance the
        version this router holds (freshness is governed separately by
        the degraded-mode clockwork, so an old-but-authentic list from
        a peer is acceptable while it advances us).  A revoked router
        (``_cut_off``) refuses adoption outright: its stale lists are
        the E7 behaviour under test, and gossip must not launder fresh
        lists into it.  Successful adoption re-dates the lists to
        ``min(now, issued_at)`` so a degraded router healed by gossip
        counts staleness from the lists' real issue time.
        """
        if self._cut_off:
            return False
        now = self.clock.now()
        adopted = False
        if crl is not None and crl.version > self._crl.version:
            crl.validate(self.operator.public_key, now,
                         max_staleness=float("inf"))
            self._crl = crl
            adopted = True
        if url is not None and url.version > self._url.version:
            url.validate(self.operator.public_key, now,
                         max_staleness=float("inf"))
            self._url = url
            adopted = True
        if adopted:
            self._lists_fetched_at = min(
                now, min(self._crl.issued_at, self._url.issued_at))
            self._record_history()
            self._sync_revocation_state()
            self._journal_lists()
            obs.counter("router.gossip_adopted_total")
        return adopted

    def crl_delta_for(self, peer_version: int) -> Optional[CrlDelta]:
        """Delta lifting a peer from ``peer_version`` to this CRL.

        Requires the peer's version in this router's bounded history
        (to know exactly what the peer holds); otherwise ``None`` and
        the peer gets the full signed list.  The delta reuses NO's
        signature over this router's current list, so the peer's
        reconstruction validates like any published CRL.
        """
        base = self._crl_history.get(peer_version)
        if base is None or peer_version >= self._crl.version:
            return None
        current = self._crl
        return CrlDelta(
            from_version=peer_version, to_version=current.version,
            issued_at=current.issued_at,
            update_period=current.update_period,
            added=tuple(sorted(current.revoked_router_ids
                               - base.revoked_router_ids)),
            removed=tuple(sorted(base.revoked_router_ids
                                 - current.revoked_router_ids)),
            list_signature=current.signature)

    def url_delta_for(self, peer_version: int) -> Optional[UrlDelta]:
        """Delta lifting a peer from ``peer_version`` to this URL."""
        base = self._url_history.get(peer_version)
        if base is None or peer_version >= self._url.version:
            return None
        current = self._url
        base_encodings = {token.encode() for token in base.tokens}
        current_encodings = {token.encode() for token in current.tokens}
        return UrlDelta(
            from_version=peer_version, to_version=current.version,
            issued_at=current.issued_at,
            update_period=current.update_period,
            added=tuple(token for token in current.tokens
                        if token.encode() not in base_encodings),
            removed=tuple(sorted(base_encodings - current_encodings)),
            list_signature=current.signature)

    @property
    def crl(self) -> CertificateRevocationList:
        return self._crl

    @property
    def url(self) -> UserRevocationList:
        return self._url

    # -- tag-checkpoint gossip ------------------------------------------------

    def make_tag_checkpoint(self) -> Optional[TagCheckpoint]:
        """Export this router's warm epoch tags, signed with RPK/RSK.

        ``None`` when there is nothing trustworthy to serve: the tag
        index is off, or NO cut this router off (a revoked router must
        not seed peers' caches any more than it may adopt their lists
        -- E7).
        """
        state = self.revocation_state
        if self._cut_off or state is None:
            return None
        unsigned = TagCheckpoint(
            router_id=self.router_id, epoch=state.epoch,
            url_version=state.url_version, entries=state.entries(),
            certificate=self.certificate.encode(), signature=b"")
        signature = self.keypair.sign(unsigned.signed_payload())
        obs.counter("gossip.checkpoint.served")
        return replace(unsigned, signature=signature)

    def _reject_checkpoint(self, reason: str) -> None:
        obs.counter("gossip.checkpoint.rejected")
        raise CertificateError(reason)

    def adopt_tag_checkpoint(self, checkpoint: TagCheckpoint) -> int:
        """Warm the tag cache from a peer's signed checkpoint.

        Verification chain: the embedded ``Cert_k`` must decode,
        validate against NO's key, name the claimed serving router, and
        that router must not be on this router's CRL; the ECDSA
        signature must cover the exact entry set.  Any failure raises
        :class:`~repro.errors.CertificateError` (and bumps
        ``gossip.checkpoint.rejected``) -- the caller falls back to
        full tag re-derivation.  A ``_cut_off`` router adopts nothing.
        Returns the number of tags adopted (0 when the checkpoint is
        authentic but for another epoch, or the tag index is off here).
        """
        if self._cut_off:
            return 0
        try:
            cert = RouterCertificate.decode(
                self.operator.curve, checkpoint.certificate)
        except EncodingError:
            self._reject_checkpoint(
                f"checkpoint from {checkpoint.router_id!r}: certificate "
                "does not decode")
        try:
            cert.validate(self.operator.public_key, self.clock.now())
        except CertificateError:
            obs.counter("gossip.checkpoint.rejected")
            raise
        if cert.router_id != checkpoint.router_id:
            self._reject_checkpoint(
                f"checkpoint claims {checkpoint.router_id!r} but its "
                f"certificate names {cert.router_id!r}")
        if self._crl.is_revoked(cert.router_id):
            self._reject_checkpoint(
                f"checkpoint from revoked router {cert.router_id!r}")
        if not cert.public_key.verify(checkpoint.signed_payload(),
                                      checkpoint.signature):
            self._reject_checkpoint(
                f"checkpoint from {checkpoint.router_id!r} has a bad "
                "signature")
        state = self.revocation_state
        if state is None or checkpoint.epoch != state.epoch:
            obs.counter("gossip.checkpoint.ignored")
            return 0
        for token_encoding, tag in checkpoint.entries:
            state.cache.put(checkpoint.epoch, token_encoding, tag)
        obs.counter("gossip.checkpoint.adopted")
        obs.counter("gossip.checkpoint.tags_adopted",
                    len(checkpoint.entries))
        return len(checkpoint.entries)

    def tag_warm_fraction(self) -> float:
        """Fraction of this URL's tags already cached for this epoch
        (counter-free; used to decide whether a peer checkpoint is
        worth offering)."""
        state = self.revocation_state
        if state is None or not self._url.tokens:
            return 1.0
        warm = sum(1 for token in self._url.tokens
                   if state.cache.contains(state.epoch, token.encode()))
        return warm / len(self._url.tokens)

    # -- durable state --------------------------------------------------------

    def attach_durable(self, store: DurableRouterStore,
                       record_initial: bool = True) -> None:
        """Journal this router's security state into ``store``.

        With ``record_initial`` the store is reset to one snapshot of
        the state as of now; a :meth:`restore`-d router passes False to
        keep appending to the journal it just recovered from.
        """
        self._durable = store
        if record_initial:
            store.initialize(self._capture_state())

    def _capture_state(self) -> DurableState:
        state = self.revocation_state
        return DurableState(
            store_id=self.router_id, epoch=self.engine.gpk.epoch,
            gpk_blob=self.engine.gpk.encode(),
            crl_blob=self._crl.encode(), url_blob=self._url.encode(),
            lists_fetched_at=self._lists_fetched_at,
            channel_up=self._channel_up, cut_off=self._cut_off,
            tag_index=state is not None,
            tag_epoch=(state.epoch if state is not None
                       else self.engine.gpk.epoch),
            tag_entries=state.entries() if state is not None else ())

    def _journal_lists(self) -> None:
        if self._durable is None:
            return
        self._durable.record_lists(self._crl.encode(), self._url.encode(),
                                   self._lists_fetched_at)
        self._journal_checkpoint()

    def _journal_checkpoint(self) -> None:
        """Persist the current index tags so a local restart warms its
        cache from disk without peers (no-op when the index is off)."""
        state = self.revocation_state
        if self._durable is None or state is None:
            return
        self._durable.record_checkpoint(state.epoch, state.entries())

    @classmethod
    def restore(cls, store: DurableRouterStore, operator: NetworkOperator,
                clock: Optional[Clock] = None,
                rng: Optional[random.Random] = None,
                dos_policy: Optional[DosPolicy] = None,
                staleness_grace: float = 600.0,
                cache: Optional[RevocationTagCache] = None
                ) -> "MeshRouter":
        """Rebuild a router from its journal after a crash.

        Recovery semantics:

        * Credentials come from :meth:`NetworkOperator
          .reprovision_router` -- same RPK/RSK and ``Cert_k``, no
          operator randomness consumed.
        * Lists, epoch, and channel state come from the journal, NOT a
          fresh NO fetch: a partitioned router reboots into degraded
          mode and re-enters the refusal path once its recovered lists
          age past ``staleness_grace``.
        * If the tag index was on, it is re-enabled with the cache
          pre-warmed from the journaled tags (zero pairing re-derivation
          for them).
        * The recovered journal is re-attached, so post-restart changes
          keep appending where the crash left off.
        """
        with obs.span("recovery.restore"):
            info = store.load()
            state = info.state
            crl = CertificateRevocationList.decode(state.crl_blob)
            url = UserRevocationList.decode(operator.group, state.url_blob)
            router = cls(
                store.store_id, operator, clock=clock, rng=rng,
                dos_policy=dos_policy, staleness_grace=staleness_grace,
                provisioned=operator.reprovision_router(store.store_id),
                initial_lists=(crl, url, state.lists_fetched_at),
                channel_up=state.channel_up)
            if state.cut_off:
                router._cut_off = True
            # The journaled gpk, not NO's current one: an epoch
            # rotation that happened while this router was down must
            # reach it through adopt_new_epoch / gossip, exactly as if
            # it had merely been partitioned.  (GroupPublicKey wire
            # encoding drops the epoch; re-stamp it from the journal.)
            if (state.epoch != operator.gpk.epoch
                    or state.gpk_blob != operator.gpk.encode()):
                gpk = GroupPublicKey.decode(operator.group, state.gpk_blob)
                router.engine.gpk = GroupPublicKey(
                    gpk.group, gpk.w, epoch=state.epoch)
            if state.tag_index:
                warm_cache = cache if cache is not None \
                    else RevocationTagCache()
                for token_encoding, tag in state.tag_entries:
                    warm_cache.put(state.tag_epoch, token_encoding, tag)
                router.enable_sharded_revocation(cache=warm_cache)
            router.attach_durable(store, record_initial=False)
            router.recovery = info
        obs.counter("recovery.restores_total")
        if not info.clean:
            obs.counter("recovery.torn_tail_total")
        return router

    # -- protocol passthroughs ------------------------------------------------

    def make_beacon(self) -> Beacon:
        """Broadcast (M.1); refuses past the degraded-mode grace window."""
        self._check_degraded()
        return self.engine.make_beacon()

    def process_request(self, request: AccessRequest
                        ) -> Tuple[AccessConfirm, SecureSession]:
        """Handle (M.2) -> (M.3); raises on any validation failure."""
        self._check_degraded()
        if self.engine.dos_policy is not None:
            self.engine.dos_policy.note_request(self.clock.now())
        return self.engine.process_request(request)

    def process_request_batch(self, requests: "list[AccessRequest]",
                              pool: "Optional[VerifierPool]" = None,
                              traces: "Optional[list]" = None
                              ) -> "list[object]":
        """Handle a burst of (M.2) messages through batch verification.

        Each request still counts toward the DoS policy's arrival rate;
        outcomes mirror :meth:`RouterAuthEngine.process_requests`.
        ``pool`` opts the group-signature verification into a
        :class:`~repro.core.verifier_pool.VerifierPool`; a pool whose
        snapshot no longer matches this router's URL is ignored.
        ``traces`` carries one optional
        :class:`~repro.obs.spans.TraceContext` per request for
        per-handshake span stitching on the pool path.
        """
        self._check_degraded()
        if self.engine.dos_policy is not None:
            now = self.clock.now()
            for _ in requests:
                self.engine.dos_policy.note_request(now)
        return self.engine.process_requests(requests, pool=pool,
                                            traces=traces)

    def expire(self, now: Optional[float] = None) -> None:
        """Expiry tick: prune the engine's outstanding beacons and
        completed-handshake cache (see :meth:`RouterAuthEngine.expire`)."""
        self.engine.expire(now)

    def session(self, session_id: bytes) -> SecureSession:
        try:
            return self.engine.sessions[session_id]
        except KeyError as exc:
            raise SimulationError(
                f"router {self.router_id} has no session "
                f"{session_id.hex()[:8]}") from exc

    @property
    def auth_log(self):
        """The network log consulted by NO's audit protocol."""
        return self.engine.log

    @property
    def stats(self):
        return self.engine.stats
