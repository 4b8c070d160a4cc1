"""The off-line trusted third party *TTP* (Sections III.A, IV.A).

TTP stores the blinded shares ``A_{i,j} XOR x_j`` received from NO at
setup and forwards a user's share over their pre-established secure
channel when the group manager requests it.  TTP is trusted not to
disclose what it stores; by construction it cannot recover ``A_{i,j}``
or ``x_j`` from the XOR alone.  TTP is required only during setup.
"""

from __future__ import annotations

import random
from typing import Dict, Optional

from repro.core.operator_entity import KeyIndex, TtpShareBundle
from repro.errors import ParameterError
from repro.sig.curves import SECP160R1, WeierstrassCurve
from repro.sig.ecdsa import EcdsaKeyPair, EcdsaPublicKey, ecdsa_generate


class TrustedThirdParty:
    """Blinded-share escrow with non-repudiation receipts."""

    def __init__(self, curve: WeierstrassCurve = SECP160R1,
                 rng: Optional[random.Random] = None) -> None:
        self.signing_key: EcdsaKeyPair = ecdsa_generate(curve, rng=rng)
        self._shares: Dict[KeyIndex, bytes] = {}
        # TTP ends up knowing which uid received which share (it
        # delivered it); still insufficient to compute x_j or A_{i,j}.
        self._deliveries: Dict[KeyIndex, bytes] = {}

    @property
    def public_key(self) -> EcdsaPublicKey:
        return self.signing_key.public

    def store_bundle(self, bundle: TtpShareBundle,
                     operator_key: EcdsaPublicKey) -> bytes:
        """Setup step 7: verify NO's signature, store, sign a receipt."""
        operator_key.require_valid(bundle.signed_payload(), bundle.signature)
        for index, share in bundle.entries:
            self._shares[index] = share
        return self.signing_key.sign(bundle.signed_payload())

    def deliver_share(self, index: KeyIndex, uid: bytes) -> bytes:
        """Setup (user side, step 2): hand ``A XOR x`` to the user.

        In deployment this flows over the user-TTP secure channel; the
        library returns it directly and the simulator models the channel.
        """
        share = self._shares.get(index)
        if share is None:
            raise ParameterError(f"no share stored for index {index}")
        self._deliveries[index] = uid
        return share

    def knows_uid_for(self, index: KeyIndex) -> Optional[bytes]:
        """What TTP could reveal under subpoena: uid <-> blinded share."""
        return self._deliveries.get(index)
