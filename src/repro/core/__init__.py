"""PEACE core: the paper's primary contribution.

The group-signature variation (:mod:`repro.core.groupsig`), the five
system entities (NO, TTP, GM, users, mesh routers), the authentication
and key-agreement protocols, and the audit / tracing machinery.
"""

from repro.core.groupsig import (
    CryptoEngine,
    GroupMasterSecret,
    GroupPublicKey,
    GroupPrivateKey,
    GroupSignature,
    RevocationToken,
    issue_member_key,
    keygen_master,
    open_signature,
    revocation_tag,
    sign,
    signature_matches_token,
    verify,
    verify_batch,
)
from repro.core.revocation import (
    RevocationState,
    RevocationTagCache,
    epoch_period,
)

__all__ = [
    "RevocationState",
    "RevocationTagCache",
    "epoch_period",
    "CryptoEngine",
    "GroupMasterSecret",
    "GroupPrivateKey",
    "GroupPublicKey",
    "GroupSignature",
    "RevocationToken",
    "issue_member_key",
    "keygen_master",
    "open_signature",
    "revocation_tag",
    "sign",
    "signature_matches_token",
    "verify",
    "verify_batch",
]
