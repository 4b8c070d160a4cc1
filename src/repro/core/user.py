"""Network users (Sections III.A, IV.A-IV.C).

A :class:`NetworkUser` holds a real-world identity, enrolls with one or
more group managers, assembles group private keys from the GM component
and the TTP share, and runs the user-router and user-user protocol
engines with whichever credential (role) fits the current context --
the paper's multi-faceted privacy model in action: a user at the office
signs with their employer-group key, at home with their tenant-group
key, and the two are cryptographically unlinkable.
"""

from __future__ import annotations

import random
from typing import Dict, Optional, Tuple

from repro import instrument
from repro.core import groupsig
from repro.core.certs import SignatureMemo
from repro.core.clock import Clock, SystemClock
from repro.core.group_manager import Enrollment, GroupManager
from repro.core.groupsig import GroupPrivateKey, GroupPublicKey
from repro.core.identity import UserIdentity
from repro.core.messages import AccessConfirm, AccessRequest, Beacon
from repro.core.protocols.session import SecureSession
from repro.core.protocols.user_router import (
    PendingUserSession,
    UserAuthEngine,
)
from repro.core.protocols.user_user import PeerAuthEngine
from repro.core.ttp import TrustedThirdParty
from repro.core.wire import Writer
from repro.errors import AuthenticationError, ParameterError
from repro.pairing import fastpath
from repro.pairing.fastpath import final_exponentiation
from repro.pairing.fields import Fp2
from repro.pairing.group import PairingGroup
from repro.sig.curves import SECP160R1, WeierstrassCurve
from repro.sig.ecdsa import EcdsaKeyPair, ecdsa_generate


class NetworkUser:
    """One mobile network user and their credential wallet."""

    def __init__(self, identity: UserIdentity, gpk: GroupPublicKey,
                 operator_public_key,
                 clock: Optional[Clock] = None,
                 rng: Optional[random.Random] = None,
                 curve: WeierstrassCurve = SECP160R1) -> None:
        self.identity = identity
        self.gpk = gpk
        self.group: PairingGroup = gpk.group
        self.operator_public_key = operator_public_key
        self.clock = clock or SystemClock()
        self.rng = rng or random.SystemRandom()
        # Receipt-signing key (non-repudiation during setup).
        self.signing_key: EcdsaKeyPair = ecdsa_generate(curve, rng=self.rng)
        self.credentials: Dict[str, GroupPrivateKey] = {}
        #: Period-mode signing label; set to the routers' epoch period
        #: when the deployment runs tag-index revocation (``None`` keeps
        #: default per-signature generators).
        self.auth_period: Optional[bytes] = None
        #: NO signatures this user has verified on certificates and
        #: lists, shared by every engine :meth:`auth_engine` builds (one
        #: per connect).  Never shared with another user: each device
        #: does its own checks.
        self.verified = SignatureMemo()

    def adopt_gpk(self, gpk: GroupPublicKey) -> None:
        """Adopt a rotated group public key (membership renewal).

        Existing credentials are dead under the new gpk and are
        dropped; the user must re-enroll with each group manager.
        A period-mode user follows the rotation to the new epoch's
        period label (the routers' tag index does the same).
        """
        self.gpk = gpk
        self.credentials.clear()
        if self.auth_period is not None:
            from repro.core.revocation import epoch_period
            self.auth_period = epoch_period(gpk.epoch)

    # -- enrollment (setup, user side) ----------------------------------------

    def enroll_with(self, gm: GroupManager,
                    ttp: TrustedThirdParty) -> GroupPrivateKey:
        """Join user group ``gm``: collect both halves, assemble gsk.

        Follows the paper's three steps: GM sends ``([i,j], grp_i,
        x_j)``, TTP sends ``A XOR x_j``, the user XORs and checks the
        resulting SDH tuple against the group public key before
        accepting (``e(A, w * g2^(grp+x)) == e(g1, g2)``).  Signs a
        receipt back to the GM.
        """
        enrollment = gm.enroll(self.identity)
        share = ttp.deliver_share(enrollment.index, self.identity.uid)
        a = groupsig.unblind_share(self.group, share, enrollment.x)
        credential = GroupPrivateKey(a=a, grp=enrollment.grp,
                                     x=enrollment.x,
                                     index=enrollment.index)
        self._validate_credential(credential)
        receipt_payload = self._enrollment_payload(enrollment, share)
        receipt = self.signing_key.sign(receipt_payload)
        gm.record_member_receipt(enrollment.index, receipt,
                                 self.signing_key.public, receipt_payload)
        self.credentials[gm.name] = credential
        return credential

    def _validate_credential(self, credential: GroupPrivateKey) -> None:
        """Reject a corrupt credential before ever signing with it.

        The paper's SDH check ``e(A, w * g2^(grp+x)) == e(g1, g2)``, on
        the gpk engine's kernels.  ``A`` must first be a point of the
        order-``r`` subgroup, checked on ``A``'s ladder (which signing
        builds anyway): ``A + (0, 0)`` passes the pairing equation (the
        2-torsion part's Miller chain stops at its first doubling, and
        the final exponentiation kills what it leaves), yet every router
        rejects its signatures.  Then, by
        bilinearity and symmetry, the left side is ``FE(f_w(A) *
        f_g2([grp+x]A))``: the ``w`` and ``g2`` NAF line tables on one
        Miller accumulator, compared with the engine's ``e(g1, g2)``.
        Notes the paper's 1 exp and 2 pairings whatever the verdict.
        """
        engine = self.gpk.engine
        curve = self.group.curve
        p = curve.p
        point = credential.a.point
        instrument.note("exp")
        instrument.note("pairing")
        base = engine.base_pairing()
        if point.is_infinity() or not curve.ladder_in_subgroup(
                point, credential.a_ladder):
            raise AuthenticationError(
                "assembled group private key is outside the prime-order "
                "subgroup")
        scaled = curve.multi_mul([(credential.a_ladder,
                                   credential.exponent_sum)])
        raw = fastpath.miller_eval_pair(engine.w_naf_steps, point,
                                        engine.g2_naf_steps, scaled, p)
        if final_exponentiation(curve, Fp2(raw[0], raw[1], p)) != base.value:
            raise AuthenticationError(
                "assembled group private key fails the SDH check")

    @staticmethod
    def _enrollment_payload(enrollment: Enrollment, share: bytes) -> bytes:
        return (Writer().string(enrollment.group_name)
                .u32(enrollment.index[0]).u32(enrollment.index[1])
                .var(share).done())

    # -- credential selection ------------------------------------------------

    def credential_for(self, context: Optional[str] = None
                       ) -> GroupPrivateKey:
        """Pick the credential matching the current role/context.

        ``context`` names a user group; ``None`` picks an arbitrary one
        (the paper lets users choose "an appropriate group private key
        of his").
        """
        if not self.credentials:
            raise ParameterError(
                f"user {self.identity.name} holds no credentials")
        if context is None:
            return next(iter(self.credentials.values()))
        try:
            return self.credentials[context]
        except KeyError as exc:
            raise ParameterError(
                f"user {self.identity.name} holds no credential "
                f"for {context!r}") from exc

    # -- protocol frontends -----------------------------------------------

    def auth_engine(self, context: Optional[str] = None) -> UserAuthEngine:
        """User-router engine signing under the chosen role."""
        engine = UserAuthEngine(self.gpk, self.operator_public_key,
                                self.credential_for(context),
                                clock=self.clock, rng=self.rng,
                                verified=self.verified)
        engine.auth_period = self.auth_period
        return engine

    def peer_engine(self, context: Optional[str] = None) -> PeerAuthEngine:
        """User-user engine signing under the chosen role."""
        return PeerAuthEngine(self.gpk, self.credential_for(context),
                              clock=self.clock, rng=self.rng)

    def connect_to_router(self, beacon: Beacon,
                          context: Optional[str] = None
                          ) -> Tuple[AccessRequest, PendingUserSession]:
        """Convenience: process a beacon into an access request."""
        return self.auth_engine(context).process_beacon(beacon)

    def complete_router_handshake(self, pending: PendingUserSession,
                                  confirm: AccessConfirm) -> SecureSession:
        """Convenience: finish the user-router handshake."""
        # The engine's complete() is stateless w.r.t. credentials.
        engine = UserAuthEngine(self.gpk, self.operator_public_key,
                                next(iter(self.credentials.values())),
                                clock=self.clock, rng=self.rng)
        return engine.complete(pending, confirm)
