"""The user-router mutual authentication and key agreement (Section IV.B).

Three messages:

1. Router broadcasts a signed :class:`~repro.core.messages.Beacon`
   carrying a fresh DH base ``g``, its share ``g^r_R``, its certificate,
   and the current CRL / URL (M.1).
2. The user validates all of it, group-signs ``{g^r_j, g^r_R, ts2}``
   anonymously, and unicasts the :class:`AccessRequest` (M.2).
3. The router checks freshness, verifies the group signature against
   gpk and the URL (Eq.2 / Eq.3), computes ``K = (g^r_j)^r_R``, and
   answers with the sealed :class:`AccessConfirm` (M.3).

Mutual explicit authentication: the user authenticated the router via
its NO-certified ECDSA signature; the router authenticated the user as
*some unrevoked group member* via the group signature; both confirmed
key possession through M.3.

Loss tolerance (metropolitan radio is lossy): the user side may drive
(M.2) through a :class:`Retransmitter` -- per-message timeout with
capped exponential backoff plus jitter and a bounded retry budget --
resending the *identical* wire bytes, no message-format change.  The
router side makes retransmits idempotent by keying completed
handshakes on the pair of fresh DH shares ``(g^r_R, g^r_j)`` (the
protocol's existing freshness nonces): a duplicate (M.2) is answered
with the cached (M.3) without re-verifying, without a second session,
and without a second audit-log entry.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.verifier_pool import VerifierPool

from repro import instrument, obs
from repro.core import groupsig
from repro.core.certs import (
    CertificateRevocationList,
    SignatureMemo,
    UserRevocationList,
)
from repro.core.clock import Clock, SystemClock
from repro.core.groupsig import GroupPrivateKey, GroupPublicKey
from repro.core.messages import AccessConfirm, AccessRequest, Beacon
from repro.core.protocols.dos import DosPolicy
from repro.core.protocols.session import SecureSession, session_id_from
from repro.core.wire import Writer, quantize_ts
from repro.crypto import puzzles
from repro.errors import (
    AuthenticationError,
    CertificateError,
    ProtocolError,
    PuzzleError,
    ReplayError,
)
from repro.mathx.jacobian import Ladder
from repro.pairing.group import G1Element, PairingGroup
from repro.sig.ecdsa import EcdsaKeyPair, EcdsaPublicKey

#: Default acceptance window for timestamp freshness, seconds.
DEFAULT_TS_WINDOW = 30.0


def _power(group: PairingGroup, ladder: Ladder, exponent: int) -> G1Element:
    """``P ** exponent`` on the ladder of ``P`` its subgroup check ran
    on: the same element, and the same one noted "exp", as ``**``."""
    instrument.note("exp")
    return G1Element(group.curve.multi_mul([(ladder, exponent)]), group)


@dataclass(frozen=True)
class RetryPolicy:
    """Capped exponential backoff for handshake retransmissions.

    Attempt ``n`` (0-based) waits ``initial_timeout * backoff_factor**n``
    seconds, capped at ``max_timeout``, multiplied by a uniform jitter
    in ``[1-jitter, 1+jitter]`` (desynchronizes a cell full of users
    retrying after the same collision).  The defaults keep the whole
    retry span inside the protocol's freshness window: a retransmit
    that would arrive with a stale ``ts2`` is pointless, the user
    should restart from a fresh beacon instead.
    """

    initial_timeout: float = 2.0
    backoff_factor: float = 2.0
    max_timeout: float = 8.0
    max_retries: int = 3
    jitter: float = 0.1

    def __post_init__(self) -> None:
        if self.initial_timeout <= 0 or self.max_timeout <= 0:
            raise ProtocolError("retry timeouts must be positive")
        if self.backoff_factor < 1.0:
            raise ProtocolError("backoff_factor must be >= 1")
        if self.max_retries < 0:
            raise ProtocolError("max_retries must be >= 0")
        if not 0.0 <= self.jitter < 1.0:
            raise ProtocolError("jitter must be in [0, 1)")

    def timeout_for(self, attempt: int,
                    rng: Optional[random.Random] = None) -> float:
        """Backoff delay before retry ``attempt`` (0-based)."""
        base = min(self.initial_timeout * self.backoff_factor ** attempt,
                   self.max_timeout)
        if rng is not None and self.jitter:
            base *= 1.0 + self.jitter * (2.0 * rng.random() - 1.0)
        return base


class Retransmitter:
    """Per-message retransmission state machine (the user's M.2).

    Transport-agnostic: ``send`` emits the frame, ``schedule(delay,
    callback)`` arms a timer (the simulator passes
    :meth:`~repro.wmn.simclock.EventLoop.schedule`).  The same wire
    bytes are resent each time; receiver idempotence comes from the
    router's duplicate suppression on the handshake's fresh DH shares.
    ``ack()`` on (M.3) receipt stops the timers; after ``max_retries``
    unacknowledged resends ``on_give_up`` fires once and the machine
    goes inert.  Retries are counted in ``retries`` and the ambient
    ``handshake.retries`` observability counter.
    """

    def __init__(self, send: Callable[[], None],
                 schedule: Callable[[float, Callable[[], None]], None],
                 policy: RetryPolicy,
                 rng: Optional[random.Random] = None,
                 on_retry: Optional[Callable[[], None]] = None,
                 on_give_up: Optional[Callable[[], None]] = None) -> None:
        self._send = send
        self._schedule = schedule
        self.policy = policy
        self.rng = rng
        self.on_retry = on_retry
        self.on_give_up = on_give_up
        self.retries = 0
        self.acked = False
        self.cancelled = False
        self._epoch = 0          # invalidates stale timers

    @property
    def alive(self) -> bool:
        return not (self.acked or self.cancelled)

    def start(self) -> None:
        """First transmission + first timer."""
        if not self.alive:
            return
        self._send()
        self._arm()

    def ack(self) -> None:
        """The peer answered; all outstanding timers become no-ops."""
        self.acked = True

    def cancel(self) -> None:
        """Abandon the handshake attempt (no ``on_give_up`` firing)."""
        self.cancelled = True

    def _arm(self) -> None:
        self._epoch += 1
        epoch = self._epoch
        timeout = self.policy.timeout_for(self.retries, self.rng)
        self._schedule(timeout, lambda: self._fire(epoch))

    def _fire(self, epoch: int) -> None:
        if not self.alive or epoch != self._epoch:
            return
        if self.retries >= self.policy.max_retries:
            self.cancelled = True
            if self.on_give_up is not None:
                self.on_give_up()
            return
        self.retries += 1
        obs.counter("handshake.retries")
        if self.on_retry is not None:
            self.on_retry()
        self._send()
        self._arm()


@dataclass
class AuthLogEntry:
    """What the router logs per authentication, enabling later audit.

    Contains exactly the material the paper's audit protocol consults:
    the (M.2) authentication message (signed payload + group signature)
    keyed by the session identifier.
    """

    router_id: str
    session_id: bytes
    signed_payload: bytes
    group_signature: groupsig.GroupSignature
    timestamp: float


@dataclass
class PendingUserSession:
    """User-side handshake state between sending M.2 and receiving M.3."""

    router_id: str
    r_user: int
    g_r_user: G1Element
    g_r_router: G1Element
    session: SecureSession


class RouterAuthEngine:
    """Router-side protocol driver: beacons in, sessions out."""

    def __init__(self, router_id: str, keypair: EcdsaKeyPair,
                 certificate, gpk: GroupPublicKey,
                 crl_provider: Callable[[], CertificateRevocationList],
                 url_provider: Callable[[], UserRevocationList],
                 clock: Optional[Clock] = None,
                 rng: Optional[random.Random] = None,
                 ts_window: float = DEFAULT_TS_WINDOW,
                 dos_policy: Optional[DosPolicy] = None,
                 beacon_validity: float = 300.0) -> None:
        self.router_id = router_id
        self.keypair = keypair
        self.certificate = certificate
        self.gpk = gpk
        self.group: PairingGroup = gpk.group
        self.crl_provider = crl_provider
        self.url_provider = url_provider
        self.clock = clock or SystemClock()
        self.rng = rng or random.SystemRandom()
        self.ts_window = ts_window
        self.dos_policy = dos_policy
        self.beacon_validity = beacon_validity
        # outstanding beacons: g^r_R encoding -> (r_R, g, issued_at, puzzle)
        self._outstanding: Dict[bytes, Tuple[int, G1Element, float,
                                             Optional[puzzles.Puzzle]]] = {}
        self.sessions: Dict[bytes, SecureSession] = {}
        self.log: list = []          # AuthLogEntry per successful auth
        # completed handshakes keyed on the fresh DH-share pair, for
        # idempotent answers to retransmitted (M.2)s:
        # (g^r_R enc, g^r_j enc) -> (confirm, session, accepted_at)
        self._completed: Dict[Tuple[bytes, bytes],
                              Tuple[AccessConfirm, SecureSession,
                                    float]] = {}
        self.stats = {"beacons": 0, "requests": 0, "accepted": 0,
                      "duplicate_requests": 0,
                      "rejected_replay": 0, "rejected_signature": 0,
                      "rejected_revoked": 0, "rejected_puzzle": 0}
        #: Period-mode tag index
        #: (:class:`repro.core.revocation.RevocationState`), set by
        #: :meth:`MeshRouter.enable_sharded_revocation`.  When set,
        #: verification runs the SPK check under the index's epoch
        #: period (users sign under the matching ``auth_period`` -- the
        #: challenge binds the generators) and replaces the linear Eq.3
        #: scan with the O(1) tag lookup; ``None`` keeps the default
        #: per-signature mode.
        self.revocation_state = None

    def _bump(self, key: str) -> None:
        """Increment one protocol stat, mirrored into the obs registry.

        The local ``stats`` dict keeps its exact historical behaviour
        (tests and benchmarks read it); the ambient registry gets the
        same event as ``router.<key>_total`` so a deployment-wide
        report can aggregate across routers.
        """
        self.stats[key] += 1
        obs.counter(f"router.{key}_total")

    # -- M.1 ----------------------------------------------------------------

    def make_beacon(self) -> Beacon:
        """Build and sign a fresh beacon (M.1); remembers r_R for later.

        ``ts1`` is quantized to wire precision at creation so the
        broadcast object, its signed payload, and any decoded copy all
        carry the identical timestamp (see :func:`repro.core.wire.quantize_ts`).
        """
        now = quantize_ts(self.clock.now())
        self._expire_outstanding(now)
        r_router = self.group.random_scalar(self.rng)
        # g = g1^s for a fresh s is a uniformly random generator of the
        # prime-order G1, and g^r_R = g1^(s r_R): both come off the gpk
        # engine's fixed-base table.  As with any fresh g, only g^r_R is
        # billed (one exp).
        s = self.group.random_scalar(self.rng)
        engine = self.gpk.engine
        g = engine.g1_exp(s, count=False)
        g_r_router = engine.g1_exp(s * r_router % self.group.order)
        puzzle = None
        if self.dos_policy is not None and self.dos_policy.under_attack(now):
            puzzle = self.dos_policy.fresh_puzzle()
        beacon = Beacon(
            router_id=self.router_id, g=g, g_r_router=g_r_router, ts1=now,
            signature=b"", certificate=self.certificate,
            crl=self.crl_provider(), url=self.url_provider(), puzzle=puzzle)
        signature = self.keypair.sign(beacon.signed_payload())
        beacon = Beacon(beacon.router_id, beacon.g, beacon.g_r_router,
                        beacon.ts1, signature, beacon.certificate,
                        beacon.crl, beacon.url, beacon.puzzle)
        self._outstanding[g_r_router.encode()] = (r_router, g, now, puzzle)
        self._bump("beacons")
        return beacon

    def _expire_outstanding(self, now: float) -> None:
        stale = [key for key, (_r, _g, issued, _p) in self._outstanding.items()
                 if now - issued > self.beacon_validity]
        for key in stale:
            del self._outstanding[key]
        done = [key for key, (_c, _s, accepted) in self._completed.items()
                if now - accepted > self.beacon_validity]
        for key in done:
            del self._completed[key]

    def expire(self, now: Optional[float] = None) -> None:
        """Explicit expiry tick: prune outstanding beacons and the
        completed-handshake cache.

        Beacon creation already prunes as a side effect; a scenario loop
        (or an operator cron) calls this directly so a router that stops
        beaconing -- burst of traffic, then silence -- still releases
        the ``r_R`` secrets and cached confirms for stale handshakes
        instead of holding them until the next beacon.
        """
        self._expire_outstanding(self.clock.now() if now is None else now)

    # -- M.2 -> M.3 -----------------------------------------------------------

    def _duplicate(self, request: AccessRequest, now: float
                   ) -> Optional[Tuple[AccessConfirm, SecureSession]]:
        """Cached outcome for a retransmitted (M.2), if any.

        The cache key is the pair of DH shares -- both fresh per
        handshake -- so only a byte-identical retransmit of an already
        accepted request matches, and only within ``ts_window`` of the
        original acceptance: a prompt re-send is a *duplicate* (served
        idempotently), a late one is a *replay* and falls through to
        the freshness checks, which reject it exactly as before.  Hits
        re-serve the original (M.3) without re-verifying and without a
        second session or log entry; they count as
        ``duplicate_requests``, not fresh traffic.
        """
        cached = self._completed.get(
            (request.g_r_router.encode(), request.g_r_user.encode()))
        if cached is None:
            return None
        confirm, session, accepted = cached
        if now - accepted > self.ts_window:
            return None
        self._bump("duplicate_requests")
        return confirm, session

    def _precheck(self, request: AccessRequest, now: float
                  ) -> Tuple[int, Ladder]:
        """Every pre-pairing check of (M.2); returns the beacon's r_R and
        the ladder of g^r_j the subgroup check ran on (:meth:`_accept`
        raises it to r_R).

        Raises (and tallies) the cheap rejections -- replay, timestamp,
        puzzle, degenerate DH share -- so the expensive group-signature
        verification only ever runs on structurally plausible requests.
        """
        record = self._outstanding.get(request.g_r_router.encode())
        if record is None:
            self._bump("rejected_replay")
            raise ReplayError("unknown or expired g^r_R echo")
        r_router, _g, _issued, puzzle = record
        if abs(now - request.ts2) > self.ts_window:
            self._bump("rejected_replay")
            raise ReplayError("ts2 outside the acceptance window")

        # DoS defense: while under suspected attack the router requires
        # a solution with EVERY (M.2); a request answering a pre-attack
        # puzzle-free beacon is rejected cheaply rather than verified.
        if (puzzle is None and self.dos_policy is not None
                and self.dos_policy.under_attack(now)):
            self._bump("rejected_puzzle")
            raise PuzzleError(
                "puzzle required while under attack; re-request a beacon")
        # Verify the puzzle BEFORE any pairing operation.
        if puzzle is not None:
            if request.puzzle_solution is None or not puzzles.verify_solution(
                    puzzle, request.puzzle_binding(),
                    request.puzzle_solution):
                self._bump("rejected_puzzle")
                raise PuzzleError("missing or wrong puzzle solution")

        curve = self.group.curve
        share = request.g_r_user.point
        ladder = curve.ladder(share)  # None for the identity
        if ladder is None or not curve.ladder_in_subgroup(share, ladder):
            self._bump("rejected_signature")
            raise AuthenticationError(
                "g^r_j degenerate or outside the subgroup")
        return r_router, ladder

    def _accept(self, request: AccessRequest, r_router: int,
                ladder: Ladder, now: float
                ) -> Tuple[AccessConfirm, SecureSession]:
        """Post-verification tail of (M.2): key, session, (M.3), log."""
        shared = _power(self.group, ladder, r_router)  # K = (g^r_j)^r_R
        session_id = session_id_from(request.g_r_router, request.g_r_user)
        session = SecureSession(session_id, shared, initiator=False,
                                peer_label="anonymous-user")
        confirm_payload = (Writer().string(self.router_id)
                           .var(request.g_r_user.encode())
                           .var(request.g_r_router.encode())
                           .done())
        confirm = AccessConfirm(
            g_r_user=request.g_r_user, g_r_router=request.g_r_router,
            sealed=session.seal_handshake(confirm_payload))
        self.sessions[session_id] = session
        self.log.append(AuthLogEntry(
            router_id=self.router_id, session_id=session_id,
            signed_payload=request.signed_payload(),
            group_signature=request.group_signature, timestamp=now))
        self._completed[(request.g_r_router.encode(),
                         request.g_r_user.encode())] = (confirm, session, now)
        self._bump("accepted")
        return confirm, session

    def process_request(self, request: AccessRequest
                        ) -> Tuple[AccessConfirm, SecureSession]:
        """Validate (M.2); on success return (M.3) and the new session.

        Raises the specific :mod:`repro.errors` subclass describing the
        rejection -- the attack benchmarks classify failures by type.
        """
        now = self.clock.now()
        self._bump("requests")
        duplicate = self._duplicate(request, now)
        if duplicate is not None:
            return duplicate
        with obs.span("router.handshake"):
            with obs.span("router.precheck"):
                r_router, ladder = self._precheck(request, now)

            url = self.url_provider()
            state = self.revocation_state
            try:
                with obs.span("router.verify"):
                    if state is not None:
                        # Tag-index path: SPK correctness first (same
                        # order as the serial scan -- a forged signature
                        # is rejected as invalid, never as revoked),
                        # then the O(1) tag lookup instead of the linear
                        # Eq.3 scan.
                        payload = request.signed_payload()
                        groupsig.verify(self.gpk, payload,
                                        request.group_signature,
                                        period=state.period,
                                        check_revocation=False)
                        state.check(payload, request.group_signature)
                    else:
                        groupsig.verify(self.gpk, request.signed_payload(),
                                        request.group_signature,
                                        url=url.tokens)
            except groupsig.RevokedKeyError:
                self._bump("rejected_revoked")
                raise
            except groupsig.InvalidSignature:
                self._bump("rejected_signature")
                raise

            with obs.span("router.accept"):
                return self._accept(request, r_router, ladder, now)

    def process_requests(self, requests: "list[AccessRequest]",
                         pool: "Optional[VerifierPool]" = None,
                         traces: "Optional[list]" = None
                         ) -> "list[object]":
        """Batch counterpart of :meth:`process_request` (M.2 fan-in).

        A busy gateway router accumulates the (M.2) messages that
        arrive within one scheduling quantum and authenticates them
        together: prechecks run per request, then every surviving
        signature goes through :func:`groupsig.verify_batch`, which
        shares the gpk engine's precomputation tables across the whole
        batch.  Returns one outcome per input, in order: an
        ``(AccessConfirm, SecureSession)`` pair on acceptance or the
        exception instance the sequential path would have raised.
        Stats and the auth log are updated exactly as if each request
        had been processed individually, and each request's precheck
        and accept run in their own ``router.precheck`` and
        ``router.accept`` spans, as in :meth:`process_request`.

        ``pool`` opts in to multi-core verification through a
        :class:`~repro.core.verifier_pool.VerifierPool`.  The pool is
        consulted only when its worker-side snapshot still matches this
        router's gpk and *current* URL (the URL rotates every update
        period); otherwise the batch silently takes the serial path.
        Either way the outcomes and instrumented operation counts are
        identical -- the pool buys wall-clock time only.

        ``traces`` optionally carries one
        :class:`~repro.obs.spans.TraceContext` (or ``None``) per
        request; on the pool path each item's worker-side verification
        span is parented under its context, stitching the per-item
        crypto cost into the submitting handshake's trace.
        """
        now = self.clock.now()
        with obs.span("router.batch"):
            outcomes: "list[object]" = [None] * len(requests)
            prechecked: Dict[int, Tuple[int, Ladder]] = {}
            batch = []
            positions = []
            for index, request in enumerate(requests):
                self._bump("requests")
                duplicate = self._duplicate(request, now)
                if duplicate is not None:
                    outcomes[index] = duplicate
                    continue
                try:
                    with obs.span("router.precheck"):
                        prechecked[index] = self._precheck(request, now)
                except (ReplayError, PuzzleError, AuthenticationError) as exc:
                    outcomes[index] = exc
                    continue
                batch.append((request.signed_payload(),
                              request.group_signature))
                positions.append(index)

            if batch:
                url = self.url_provider()
                state = self.revocation_state
                if state is not None:
                    # Tag-index path: batch-verify the SPKs, then run the
                    # O(1) tag lookup per survivor.  The pool is skipped --
                    # its workers snapshot the flat URL, and the whole point
                    # here is not to scan it.
                    errors = groupsig.verify_batch(self.gpk, batch,
                                                   period=state.period,
                                                   check_revocation=False)
                    for slot, (payload, sig) in enumerate(batch):
                        if errors[slot] is None:
                            try:
                                state.check(payload, sig)
                            except groupsig.RevokedKeyError as exc:
                                errors[slot] = exc
                elif pool is not None and pool.matches(self.gpk, url.tokens):
                    batch_traces = None
                    if traces is not None:
                        batch_traces = [traces[position]
                                        for position in positions]
                    errors = pool.verify_batch(batch, traces=batch_traces)
                else:
                    errors = groupsig.verify_batch(self.gpk, batch,
                                                   url=url.tokens)
                for position, error in zip(positions, errors):
                    if error is None:
                        with obs.span("router.accept"):
                            outcomes[position] = self._accept(
                                requests[position], *prechecked[position],
                                now)
                    elif isinstance(error, groupsig.RevokedKeyError):
                        self._bump("rejected_revoked")
                        outcomes[position] = error
                    else:
                        self._bump("rejected_signature")
                        outcomes[position] = error
        obs.counter("router.batch_requests_total", len(requests))
        return outcomes


class UserAuthEngine:
    """User-side protocol driver."""

    def __init__(self, gpk: GroupPublicKey, operator_key: EcdsaPublicKey,
                 credential: GroupPrivateKey,
                 clock: Optional[Clock] = None,
                 rng: Optional[random.Random] = None,
                 ts_window: float = DEFAULT_TS_WINDOW,
                 max_puzzle_difficulty: int = 24,
                 verified: Optional[SignatureMemo] = None) -> None:
        self.gpk = gpk
        self.group: PairingGroup = gpk.group
        self.operator_key = operator_key
        self.credential = credential
        self.clock = clock or SystemClock()
        self.rng = rng or random.SystemRandom()
        self.ts_window = ts_window
        self.max_puzzle_difficulty = max_puzzle_difficulty
        #: NO signatures on certificates and lists this party has
        #: verified.  :class:`~repro.core.user.NetworkUser` hands each
        #: engine it builds its own memo, which outlives the engine.
        self.verified = verified if verified is not None else SignatureMemo()
        #: Period label for period-mode signing; must equal the
        #: router's tag-index period (the Fiat-Shamir challenge binds
        #: the period-derived generators).  ``None`` = default mode.
        self.auth_period: Optional[bytes] = None

    # -- validate M.1, produce M.2 -------------------------------------------

    def validate_beacon(self, beacon: Beacon,
                        now: Optional[float] = None
                        ) -> Tuple[Ladder, Ladder]:
        """Every check of (M.1), Section IV.B step 2; raises on failure.

        Returns the ladders of g and g^r_R the subgroup checks ran on,
        which :meth:`process_beacon` raises to r_j.

        NO's signatures on Cert_k, the CRL and the URL go through
        :attr:`verified`, so bytes this party has verified before cost
        no ECDSA verify.  The time checks (ts1 window, expiry,
        staleness, future-dating), the router-id match and the CRL
        lookup run on every beacon, as do the beacon's own signature
        and the DH checks.
        """
        if now is None:
            now = self.clock.now()
        if abs(now - beacon.ts1) > self.ts_window:
            raise ReplayError("beacon ts1 outside the acceptance window")
        beacon.certificate.validate(self.operator_key, now,
                                    memo=self.verified)
        if beacon.certificate.router_id != beacon.router_id:
            raise CertificateError("certificate/beacon router id mismatch")
        beacon.crl.validate(self.operator_key, now, memo=self.verified)
        if beacon.crl.is_revoked(beacon.router_id):
            raise CertificateError(
                f"router {beacon.router_id} is on the CRL")
        beacon.url.validate(self.operator_key, now, memo=self.verified)
        if not beacon.certificate.public_key.verify(
                beacon.signed_payload(), beacon.signature):
            raise AuthenticationError("beacon signature invalid")
        if beacon.g.is_identity() or beacon.g_r_router.is_identity():
            raise ProtocolError("degenerate DH values in beacon")
        curve = self.group.curve
        g, g_r_router = beacon.g.point, beacon.g_r_router.point
        ladders = curve.ladder(g), curve.ladder(g_r_router)
        if not (curve.ladder_in_subgroup(g, ladders[0])
                and curve.ladder_in_subgroup(g_r_router, ladders[1])):
            raise ProtocolError("beacon DH values outside the subgroup")
        return ladders

    def process_beacon(self, beacon: Beacon
                       ) -> Tuple[AccessRequest, PendingUserSession]:
        """Step 2 of Section IV.B: full beacon validation, then M.2."""
        now = self.clock.now()
        with obs.span("user.process_beacon"):
            with obs.span("user.beacon_validate"):
                g_ladder, g_r_router_ladder = self.validate_beacon(
                    beacon, now)

            r_user = self.group.random_scalar(self.rng)
            g_r_user = _power(self.group, g_ladder, r_user)
            ts2 = quantize_ts(now)   # match what the wire will carry
            request = AccessRequest(g_r_user=g_r_user,
                                    g_r_router=beacon.g_r_router, ts2=ts2,
                                    group_signature=None)  # placeholder
            signature = groupsig.sign(self.gpk, self.credential,
                                      request.signed_payload(), rng=self.rng,
                                      period=self.auth_period)
            solution = None
            if beacon.puzzle is not None:
                if beacon.puzzle.difficulty_bits > self.max_puzzle_difficulty:
                    raise PuzzleError("puzzle difficulty beyond client policy")
                solution = puzzles.solve_puzzle(beacon.puzzle,
                                                request.puzzle_binding())
            request = AccessRequest(g_r_user, beacon.g_r_router, ts2,
                                    signature, solution)

            shared = _power(self.group, g_r_router_ladder,
                            r_user)                     # K = (g^r_R)^r_j
            session_id = session_id_from(beacon.g_r_router, g_r_user)
            session = SecureSession(session_id, shared, initiator=True,
                                    peer_label=beacon.router_id)
            pending = PendingUserSession(
                router_id=beacon.router_id, r_user=r_user, g_r_user=g_r_user,
                g_r_router=beacon.g_r_router, session=session)
        obs.counter("user.requests_built_total")
        return request, pending

    # -- validate M.3 ------------------------------------------------------

    def complete(self, pending: PendingUserSession,
                 confirm: AccessConfirm) -> SecureSession:
        """Step 3.4 receipt: open E_K(MR_k, g^r_j, g^r_R), check contents."""
        with obs.span("user.complete"):
            if (confirm.g_r_user != pending.g_r_user
                    or confirm.g_r_router != pending.g_r_router):
                raise ProtocolError("confirm echoes the wrong DH values")
            payload = pending.session.open_handshake(confirm.sealed)
            expected = (Writer().string(pending.router_id)
                        .var(pending.g_r_user.encode())
                        .var(pending.g_r_router.encode())
                        .done())
            if payload != expected:
                raise AuthenticationError("confirm payload mismatch")
        obs.counter("user.handshakes_completed_total")
        return pending.session
