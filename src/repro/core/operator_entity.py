"""The network operator *NO* (paper Sections III.A, IV.A, IV.D).

NO owns the group master secret gamma, generates every SDH tuple, keeps
the revocation-token map ``grt`` (token -> user group), provisions mesh
routers with certified ECDSA keys, publishes the CRL and URL, and runs
the audit protocol.  Crucially, NO never learns which *user* holds which
key: key components travel to the group manager and the TTP, and the
binding to a uid happens only at the GM ("late binding").
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple

from repro.core import groupsig
from repro.core.certs import (
    CertificateRevocationList,
    RouterCertificate,
    UrlDelta,
    UserRevocationList,
)
from repro.core.clock import Clock, SystemClock
from repro.core.groupsig import (
    GroupMasterSecret,
    GroupPrivateKey,
    GroupPublicKey,
    RevocationToken,
)
from repro.core.wire import Writer
from repro.errors import AuditError, ParameterError
from repro.pairing.group import G1Element, PairingGroup
from repro.sig.curves import SECP160R1, WeierstrassCurve
from repro.sig.ecdsa import EcdsaKeyPair, EcdsaPublicKey, ecdsa_generate

KeyIndex = Tuple[int, int]


@dataclass(frozen=True)
class GmKeyBundle:
    """Setup step 5: ``{[i,j], grp_i, x_j | for all j}`` signed by NO."""

    group_id: int
    group_name: str
    grp: int
    entries: Tuple[Tuple[KeyIndex, int], ...]   # (index, x_j)
    signature: bytes

    def signed_payload(self) -> bytes:
        writer = (Writer().raw(b"GMB").u32(self.group_id)
                  .string(self.group_name).var(_int_bytes(self.grp))
                  .u32(len(self.entries)))
        for (i, j), x in self.entries:
            writer.u32(i).u32(j).var(_int_bytes(x))
        return writer.done()


@dataclass(frozen=True)
class TtpShareBundle:
    """Setup step 7: ``{[i,j], A_{i,j} XOR x_j | for all i,j}`` signed."""

    entries: Tuple[Tuple[KeyIndex, bytes], ...]
    signature: bytes

    def signed_payload(self) -> bytes:
        writer = Writer().raw(b"TTB").u32(len(self.entries))
        for (i, j), share in self.entries:
            writer.u32(i).u32(j).var(share)
        return writer.done()


@dataclass
class _GroupRecord:
    group_id: int
    name: str
    grp: int
    next_member: int = 0
    gm_receipt: Optional[bytes] = None


@dataclass(frozen=True)
class AuditResult:
    """Outcome of NO's audit: the responsible *user group*, never a uid."""

    token: RevocationToken
    group_id: int
    group_name: str
    epoch: int = 0

    def describe(self) -> str:
        return (f"session attributed to a member of user group "
                f"{self.group_name!r} (id {self.group_id})")


@dataclass
class _EpochArchive:
    """Frozen view of a retired key epoch, kept for auditing old logs.

    The paper's membership maintenance allows periodic renewal via
    "group public key update"; sessions authenticated under a retired
    gpk must remain auditable, so NO archives each epoch's public key,
    grt, and group-name map when rotating.
    """

    epoch: int
    gpk: GroupPublicKey
    grt: List[Tuple[RevocationToken, KeyIndex]]
    group_names: Dict[int, str]


def _int_bytes(value: int) -> bytes:
    return value.to_bytes((value.bit_length() + 7) // 8 or 1, "big")


def _is_publication(published, version: int, now: float,
                    update_period: float) -> bool:
    """Whether ``published`` (a signed CRL or URL, or ``None``) is the
    list to publish at ``version``, ``now`` and ``update_period``."""
    return (published is not None and published.version == version
            and published.issued_at == now
            and published.update_period == update_period)


class NetworkOperator:
    """NO: key generation, router provisioning, revocation, audit."""

    #: How many past URL versions stay answerable with a delta.
    max_list_snapshots = 32

    def __init__(self, group: PairingGroup,
                 clock: Optional[Clock] = None,
                 rng: Optional[random.Random] = None,
                 curve: WeierstrassCurve = SECP160R1,
                 crl_update_period: float = 600.0,
                 url_update_period: float = 600.0) -> None:
        self.group = group
        self.clock = clock or SystemClock()
        self.rng = rng or random.SystemRandom()
        self.curve = curve
        self.gpk, self._master = groupsig.keygen_master(group, self.rng)
        self.signing_key: EcdsaKeyPair = ecdsa_generate(curve, rng=self.rng)
        self.crl_update_period = crl_update_period
        self.url_update_period = url_update_period

        self._groups: Dict[int, _GroupRecord] = {}
        self._groups_by_name: Dict[str, int] = {}
        self._next_group_id = 1
        # grt: token -> (group_id, member index j).  NO can map any
        # signature to a user group, and no further (Section IV.D).
        self._grt: List[Tuple[RevocationToken, KeyIndex]] = []
        self._token_by_index: Dict[KeyIndex, RevocationToken] = {}

        self._router_keys: Dict[str, EcdsaKeyPair] = {}
        self._router_certs: Dict[str, RouterCertificate] = {}
        self._revoked_routers: set = set()
        # The URL in order, keyed by each token's A: revoking and
        # reinstating a key are dictionary operations, and iteration
        # keeps the append-and-remove order the URL is published in.
        self._revoked_tokens: Dict[G1Element, RevocationToken] = {}
        self._crl_version = 0
        self._url_version = 0
        self.epoch = 0
        self._archives: List[_EpochArchive] = []
        # Bounded per-version URL snapshots so NO can answer "what
        # changed since version v" with a delta instead of the full
        # list.  A version older than the window gets no delta and the
        # requester falls back to the full signed list.
        self._url_snapshots: Dict[int, Tuple[RevocationToken, ...]] = {0: ()}
        # The last CRL and URL signed.  A request for the same version,
        # issue time and update period gets that list back, so routers
        # refreshing at one instant share one signature per list: every
        # content change bumps a version, and RFC 6979 signing would
        # reproduce the same bytes anyway.
        self._published_crl: Optional[CertificateRevocationList] = None
        self._published_url: Optional[UserRevocationList] = None

    # -- public key material -------------------------------------------------

    @property
    def public_key(self) -> EcdsaPublicKey:
        """NPK: used by everyone to validate certificates, CRL, URL."""
        return self.signing_key.public

    # -- user group registration (setup steps 2-7) ---------------------------

    def register_user_group(self, name: str, member_count: int
                            ) -> Tuple[GmKeyBundle, TtpShareBundle]:
        """Create a user group and issue its initial batch of keys.

        Returns the signed bundle for the group manager (grp_i and the
        x_j components) and the signed bundle for the TTP (the blinded
        A XOR x shares).  NO retains only the revocation tokens.
        """
        if name in self._groups_by_name:
            raise ParameterError(f"user group {name!r} already registered")
        group_id = self._next_group_id
        self._next_group_id += 1
        grp = groupsig.random_group_id(self.group, self.rng)
        record = _GroupRecord(group_id=group_id, name=name, grp=grp)
        self._groups[group_id] = record
        self._groups_by_name[name] = group_id
        gm_bundle, ttp_bundle = self._issue_batch(record, member_count)
        return gm_bundle, ttp_bundle

    def issue_additional_keys(self, group_name: str, member_count: int
                              ) -> Tuple[GmKeyBundle, TtpShareBundle]:
        """Membership addition: extend an existing group's key pool."""
        group_id = self._groups_by_name.get(group_name)
        if group_id is None:
            raise ParameterError(f"unknown user group {group_name!r}")
        return self._issue_batch(self._groups[group_id], member_count)

    def _issue_batch(self, record: _GroupRecord, member_count: int
                     ) -> Tuple[GmKeyBundle, TtpShareBundle]:
        if member_count < 1:
            raise ParameterError("member_count must be positive")
        gm_entries = []
        ttp_entries = []
        for _ in range(member_count):
            j = record.next_member
            record.next_member += 1
            index = (record.group_id, j)
            gsk = groupsig.issue_member_key(self.group, self._master,
                                            record.grp, index, self.rng,
                                            engine=self.gpk.engine)
            token = RevocationToken(gsk.a)
            self._grt.append((token, index))
            self._token_by_index[index] = token
            gm_entries.append((index, gsk.x))
            ttp_entries.append((index, groupsig.blind_share(gsk.a, gsk.x)))
        gm_bundle = GmKeyBundle(record.group_id, record.name, record.grp,
                                tuple(gm_entries), b"")
        gm_bundle = GmKeyBundle(record.group_id, record.name, record.grp,
                                tuple(gm_entries),
                                self.signing_key.sign(
                                    gm_bundle.signed_payload()))
        ttp_bundle = TtpShareBundle(tuple(ttp_entries), b"")
        ttp_bundle = TtpShareBundle(tuple(ttp_entries),
                                    self.signing_key.sign(
                                        ttp_bundle.signed_payload()))
        return gm_bundle, ttp_bundle

    def record_gm_receipt(self, group_name: str, receipt: bytes,
                          gm_key: EcdsaPublicKey,
                          bundle: GmKeyBundle) -> None:
        """Store the GM's non-repudiation receipt (setup: GM signs back)."""
        gm_key.require_valid(bundle.signed_payload(), receipt)
        self._groups[self._groups_by_name[group_name]].gm_receipt = receipt

    # -- mesh router provisioning ------------------------------------------

    def provision_router(self, router_id: str, validity: float = 86400.0
                         ) -> Tuple[EcdsaKeyPair, RouterCertificate]:
        """Issue (RPK_k, RSK_k) and the accompanying ``Cert_k``."""
        keypair = ecdsa_generate(self.curve, rng=self.rng)
        cert = RouterCertificate(router_id, keypair.public,
                                 self.clock.now() + validity, b"")
        cert = RouterCertificate(router_id, keypair.public,
                                 cert.expires_at,
                                 self.signing_key.sign(
                                     cert.signed_payload()))
        self._router_keys[router_id] = keypair
        self._router_certs[router_id] = cert
        return keypair, cert

    def reprovision_router(self, router_id: str
                           ) -> Tuple[EcdsaKeyPair, RouterCertificate]:
        """Return the credentials already issued to ``router_id``.

        A router restarting from its durable journal keeps its original
        (RPK_k, RSK_k) and ``Cert_k``; minting fresh ones (or consuming
        operator randomness) would make a restart observably different
        from a router that never crashed.
        """
        if router_id not in self._router_keys:
            raise ParameterError(
                f"router {router_id!r} was never provisioned")
        return self._router_keys[router_id], self._router_certs[router_id]

    # -- revocation ---------------------------------------------------------

    def _snapshot_url(self) -> None:
        self._url_snapshots[self._url_version] = tuple(
            self._revoked_tokens.values())
        while len(self._url_snapshots) > self.max_list_snapshots:
            del self._url_snapshots[min(self._url_snapshots)]

    def revoke_router(self, router_id: str) -> None:
        """Put a router on the CRL (effective at the next publication)."""
        if router_id not in self._router_certs:
            raise ParameterError(f"unknown router {router_id!r}")
        self._revoked_routers.add(router_id)
        self._crl_version += 1

    def revoke_user_key(self, index: KeyIndex) -> RevocationToken:
        """Dynamic user revocation: move grt[i,j] into the URL."""
        token = self._token_by_index.get(index)
        if token is None:
            raise ParameterError(f"unknown key index {index}")
        if token.a not in self._revoked_tokens:
            self._revoked_tokens[token.a] = token
            self._url_version += 1
            self._snapshot_url()
        return token

    def unrevoke_user_key(self, index: KeyIndex) -> RevocationToken:
        """Reinstate a key: drop grt[i,j]'s token from the URL.

        The paper's revocation is one-way, but an audit that clears a
        suspected key (or an administrative mistake) needs the reverse
        path; the version still advances so every relying party
        re-syncs and evicts the token's cached tag.
        """
        token = self._token_by_index.get(index)
        if token is None:
            raise ParameterError(f"unknown key index {index}")
        if self._revoked_tokens.pop(token.a, None) is not None:
            self._url_version += 1
            self._snapshot_url()
        return token

    def issue_crl(self, now: Optional[float] = None
                  ) -> CertificateRevocationList:
        """Publish the signed CRL (periodic update), signing it only when
        its version, ``now`` or the update period moved."""
        now = self.clock.now() if now is None else now
        crl = self._published_crl
        if not _is_publication(crl, self._crl_version, now,
                               self.crl_update_period):
            crl = CertificateRevocationList(
                version=self._crl_version, issued_at=now,
                update_period=self.crl_update_period,
                revoked_router_ids=frozenset(self._revoked_routers),
                signature=b"")
            crl = self._published_crl = replace(
                crl, signature=self.signing_key.sign(crl.signed_payload()))
        return crl

    def issue_url(self, now: Optional[float] = None) -> UserRevocationList:
        """Publish the signed URL (periodic update), signing it only when
        its version, ``now`` or the update period moved."""
        now = self.clock.now() if now is None else now
        url = self._published_url
        if not _is_publication(url, self._url_version, now,
                               self.url_update_period):
            url = UserRevocationList(
                version=self._url_version, issued_at=now,
                update_period=self.url_update_period,
                tokens=tuple(self._revoked_tokens.values()), signature=b"")
            url = self._published_url = url.signed(
                self.signing_key.sign(url.signed_payload()))
        return url

    def list_versions(self) -> Tuple[int, int]:
        """Current authoritative ``(crl_version, url_version)``.

        The freshest versions any relying party could hold; a
        router's :meth:`~repro.core.router.MeshRouter.list_versions`
        lag behind these is its gossip-convergence debt (the health
        monitor's ``versions_behind`` signal)."""
        return (self._crl_version, self._url_version)

    def issue_url_delta(self, from_version: int,
                        now: Optional[float] = None) -> Optional[UrlDelta]:
        """Delta from a past URL version to the current one, or ``None``.

        Exact because the URL only ever mutates by append (revoke) and
        remove-anywhere (unrevoke, epoch rotation): the current list is
        always the base's survivors in base order followed by the newly
        appended tokens, which is precisely how
        :meth:`~repro.core.certs.UrlDelta.apply` reconstructs it.
        """
        base = self._url_snapshots.get(from_version)
        if base is None or from_version >= self._url_version:
            return None
        # The delta carries the published URL's signature: it signs
        # nothing of its own.
        target = self.issue_url(now)
        base_encodings = {token.encode() for token in base}
        current_encodings = {token.encode() for token in target.tokens}
        return UrlDelta(
            from_version=from_version, to_version=target.version,
            issued_at=target.issued_at, update_period=target.update_period,
            added=tuple(token for token in target.tokens
                        if token.encode() not in base_encodings),
            removed=tuple(sorted(base_encodings - current_encodings)),
            list_signature=target.signature)

    # -- membership renewal: group public key update -----------------------

    def rotate_system_keys(self) -> Dict[str, Tuple["GmKeyBundle",
                                                    "TtpShareBundle"]]:
        """Periodic renewal (Section III.A / V.A revocation case i).

        Archives the current epoch (old sessions stay auditable),
        generates a fresh ``gamma`` and gpk, reissues every registered
        group's key pool at its current size, and clears the URL --
        keys of the retired epoch are dead wholesale, so revoked users
        "do not have any group private key currently in use due to
        group public key update".

        Returns fresh ``{group_name: (gm_bundle, ttp_bundle)}`` for
        redistribution; group managers decide whom to re-enroll (a
        revoked member simply is not).
        """
        self._archives.append(_EpochArchive(
            epoch=self.epoch, gpk=self.gpk, grt=list(self._grt),
            group_names={gid: rec.name
                         for gid, rec in self._groups.items()}))
        self.epoch += 1
        self.gpk, self._master = groupsig.keygen_master(self.group,
                                                        self.rng)
        # Stamp the fresh gpk with its generation so epoch-keyed state
        # (tag caches, period derivation) rotates with it; epoch is
        # compare-excluded, so equality/wire behaviour is unchanged.
        self.gpk = GroupPublicKey(self.gpk.group, self.gpk.w,
                                  epoch=self.epoch)
        self._grt.clear()
        self._token_by_index.clear()
        self._revoked_tokens.clear()
        self._url_version += 1
        self._snapshot_url()
        bundles: Dict[str, Tuple[GmKeyBundle, TtpShareBundle]] = {}
        for record in self._groups.values():
            pool_size = record.next_member
            record.grp = groupsig.random_group_id(self.group, self.rng)
            record.next_member = 0
            bundles[record.name] = self._issue_batch(record, pool_size)
        return bundles

    # -- audit (Section IV.D) --------------------------------------------

    def audit_session(self, signed_payload: bytes,
                      signature: groupsig.GroupSignature) -> AuditResult:
        """Run the audit protocol over a logged (M.2)/(M~.*) message.

        Scans grt with Eq.3 and maps the matching token to its user
        group.  Reveals the group (nonessential attribute information)
        and nothing else.  Sessions signed under a retired epoch are
        found in the archived grt of that epoch.  Raises
        :class:`AuditError` when no token matches in any epoch (the
        signature is not by any key NO issued, or its T1 or T2 is at
        infinity or outside the prime-order subgroup).
        """
        grt_view = [(token, (token, index)) for token, index in self._grt]
        match = groupsig.open_signature(self.gpk, signed_payload,
                                        signature, grt_view)
        if match is not None:
            token, index = match
            record = self._groups[index[0]]
            return AuditResult(token=token, group_id=record.group_id,
                               group_name=record.name, epoch=self.epoch)
        for archive in reversed(self._archives):
            view = [(token, (token, index)) for token, index in archive.grt]
            match = groupsig.open_signature(archive.gpk, signed_payload,
                                            signature, view)
            if match is not None:
                token, index = match
                return AuditResult(token=token, group_id=index[0],
                                   group_name=archive.group_names[index[0]],
                                   epoch=archive.epoch)
        raise AuditError("no revocation token matches the signature")

    def audit_result_index(self, result: AuditResult) -> KeyIndex:
        """Resolve an audit result back to its key index (for revocation
        and for handing ``(A_{i,j}, grp_i)`` to the law authority).

        Searches the grt of the epoch the audit matched in, so sessions
        from retired epochs remain traceable.
        """
        if result.epoch == self.epoch:
            grt = self._grt
        else:
            grt = next((a.grt for a in self._archives
                        if a.epoch == result.epoch), [])
        for token, index in grt:
            if token.a == result.token.a:
                return index
        raise AuditError("token not in grt")

    # -- introspection used by experiments -------------------------------

    def group_name(self, group_id: int) -> str:
        return self._groups[group_id].name

    @property
    def grt_size(self) -> int:
        return len(self._grt)
