"""Certificates and revocation lists (paper Section IV.A / IV.B).

* :class:`RouterCertificate` -- ``Cert_k = {MR_k, RPK_k, ExpT,
  Sig_NSK}``, the mesh router credential signed by the network operator.
* :class:`CertificateRevocationList` (CRL) -- revoked router
  certificates, signed and versioned by NO, carried in beacons.
* :class:`UserRevocationList` (URL) -- revocation tokens of revoked
  group private keys (a subset of grt), signed and versioned by NO,
  carried in beacons.

Both lists carry an ``issued_at`` timestamp and an update period so
relying parties can detect staleness -- the phishing-window experiment
(E7) measures exactly how long a freshly revoked router can keep
phishing before its inability to present a fresh CRL exposes it.

A beacon carries the same certificate and lists until the next update
period, so a relying party need not redo the fixed work on each one:
:class:`SignatureMemo` remembers the NO signatures it has verified, and
:meth:`UserRevocationList.decode` returns the last list it decoded for
equal bytes.  Neither skips a time check.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from dataclasses import dataclass, field, replace
from typing import FrozenSet, Optional, Tuple

from repro.core.groupsig import RevocationToken
from repro.core.wire import Reader, Writer
from repro.errors import CertificateError
from repro.pairing.group import PairingGroup
from repro.sig.curves import WeierstrassCurve
from repro.sig.ecdsa import EcdsaPublicKey

#: How far ahead of the verifier's clock an ``issued_at`` may sit before
#: the artifact is rejected as future-dated.  Staleness is computed as
#: ``now - issued_at``; without this bound a future-dated list has
#: *negative* staleness and passes every freshness check until its
#: forged issue time plus one period -- letting whoever obtains one
#: (say, from an operator with a skewed clock) stretch the phishing
#: window E7 bounds.  Two minutes generously covers honest clock skew.
MAX_CLOCK_SKEW = 120.0


class SignatureMemo:
    """NO signatures one relying party has already verified.

    An entry is the triple ``(operator key, SHA-256 of the signed
    payload, signature)``.  ECDSA verifies exactly that digest under
    that key, so a hit vouches for what the skipped check would have.
    Only successes are stored, at most :attr:`MAX_ENTRIES` of them,
    least recently used out.  The memo covers the signature alone: the
    ``validate`` methods still run every time check on every call.
    """

    MAX_ENTRIES = 16

    def __init__(self) -> None:
        self._entries: "OrderedDict[tuple, None]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def verify(self, key: EcdsaPublicKey, payload: bytes,
               signature: bytes) -> bool:
        """``key.verify(payload, signature)``, skipped for a known triple."""
        entry = (key, hashlib.sha256(payload).digest(), signature)
        if entry in self._entries:
            self._entries.move_to_end(entry)
            return True
        if not key.verify(payload, signature):
            return False
        self._entries[entry] = None
        if len(self._entries) > self.MAX_ENTRIES:
            self._entries.popitem(last=False)
        return True


def _signed_by_operator(operator_key: EcdsaPublicKey, payload: bytes,
                        signature: bytes,
                        memo: Optional[SignatureMemo]) -> bool:
    if memo is None:
        return operator_key.verify(payload, signature)
    return memo.verify(operator_key, payload, signature)


@dataclass(frozen=True)
class RouterCertificate:
    """``Cert_k``: binds a router id to its ECDSA public key until ExpT."""

    router_id: str
    public_key: EcdsaPublicKey
    expires_at: float
    signature: bytes  # by NO's NSK over signed_payload()

    def signed_payload(self) -> bytes:
        return (Writer().string(self.router_id)
                .var(self.public_key.encode())
                .f64(self.expires_at)
                .done())

    def encode(self) -> bytes:
        return (Writer().string(self.router_id)
                .var(self.public_key.encode())
                .f64(self.expires_at)
                .var(self.signature)
                .done())

    @classmethod
    def decode(cls, curve: WeierstrassCurve, data: bytes
               ) -> "RouterCertificate":
        reader = Reader(data)
        router_id = reader.string()
        public_key = EcdsaPublicKey.decode(curve, reader.var())
        expires_at = reader.f64()
        signature = reader.var()
        reader.expect_end()
        return cls(router_id, public_key, expires_at, signature)

    def validate(self, operator_key: EcdsaPublicKey, now: float,
                 memo: Optional[SignatureMemo] = None) -> None:
        """Check the expiry and NO's signature (through ``memo`` when
        given); raise on failure."""
        if now > self.expires_at:
            raise CertificateError(
                f"certificate for {self.router_id} expired")
        if not _signed_by_operator(operator_key, self.signed_payload(),
                                   self.signature, memo):
            raise CertificateError(
                f"certificate for {self.router_id} has a bad NO signature")


@dataclass(frozen=True)
class CertificateRevocationList:
    """CRL: revoked router ids, versioned and signed by NO."""

    version: int
    issued_at: float
    update_period: float
    revoked_router_ids: FrozenSet[str]
    signature: bytes

    def signed_payload(self) -> bytes:
        writer = (Writer().raw(b"CRL").u64(self.version)
                  .f64(self.issued_at).f64(self.update_period)
                  .u32(len(self.revoked_router_ids)))
        for router_id in sorted(self.revoked_router_ids):
            writer.string(router_id)
        return writer.done()

    def encode(self) -> bytes:
        return Writer().raw(self.signed_payload()).var(self.signature).done()

    @classmethod
    def decode(cls, data: bytes) -> "CertificateRevocationList":
        reader = Reader(data)
        magic = reader.raw(3)
        if magic != b"CRL":
            raise CertificateError("not a CRL blob")
        version = reader.u64()
        issued_at = reader.f64()
        update_period = reader.f64()
        count = reader.u32()
        revoked = frozenset(reader.string() for _ in range(count))
        signature = reader.var()
        reader.expect_end()
        return cls(version, issued_at, update_period, revoked, signature)

    def validate(self, operator_key: EcdsaPublicKey, now: float,
                 max_staleness: float = None,
                 max_skew: float = MAX_CLOCK_SKEW,
                 memo: Optional[SignatureMemo] = None) -> None:
        """Check NO's signature, freshness, and issue-time plausibility.

        ``max_staleness`` defaults to one update period: a list older
        than that means the presenter failed to fetch the periodic
        update -- the tell that unmasks revoked phishing routers.
        ``max_skew`` bounds how far ``issued_at`` may sit *ahead* of
        ``now``; beyond it the list is future-dated and rejected (its
        staleness would be negative, passing every check until the
        forged issue time).  ``memo`` covers the signature check only.
        """
        if not _signed_by_operator(operator_key, self.signed_payload(),
                                   self.signature, memo):
            raise CertificateError("CRL has a bad NO signature")
        if self.issued_at - now > max_skew:
            raise CertificateError(
                f"CRL future-dated: issued_at is "
                f"{self.issued_at - now:.1f}s ahead of now "
                f"(skew allowance {max_skew:.1f}s)")
        limit = self.update_period if max_staleness is None else max_staleness
        if now - self.issued_at > limit:
            raise CertificateError(
                f"CRL stale: issued {now - self.issued_at:.1f}s ago, "
                f"limit {limit:.1f}s")

    def is_revoked(self, router_id: str) -> bool:
        return router_id in self.revoked_router_ids


@dataclass(frozen=True)
class UserRevocationList:
    """URL: revocation tokens of revoked group private keys.

    The signed bytes live on the instance: a decoded list keeps the
    slice it was parsed from, a constructed one encodes its tokens on
    first use, so a repeat ``validate`` or ``encode`` re-encodes no
    token.
    """

    version: int
    issued_at: float
    update_period: float
    tokens: Tuple[RevocationToken, ...]
    signature: bytes
    _payload: Optional[bytes] = field(default=None, init=False,
                                      repr=False, compare=False)

    def signed_payload(self) -> bytes:
        if self._payload is None:
            writer = (Writer().raw(b"URL").u64(self.version)
                      .f64(self.issued_at).f64(self.update_period)
                      .u32(len(self.tokens)))
            for token in self.tokens:
                writer.var(token.encode())
            object.__setattr__(self, "_payload", writer.done())
        return self._payload

    def signed(self, signature: bytes) -> "UserRevocationList":
        """This list under ``signature``, sharing its signed bytes."""
        url = replace(self, signature=signature)
        object.__setattr__(url, "_payload", self.signed_payload())
        return url

    def encode(self) -> bytes:
        return Writer().raw(self.signed_payload()).var(self.signature).done()

    @classmethod
    def decode(cls, group: PairingGroup, data: bytes
               ) -> "UserRevocationList":
        """Decode a URL blob, or return the list decoded last from equal
        bytes.

        Each token costs a square root to decompress, and a beacon
        carries the same URL for a whole update period.  The memo is one
        ``(blob, list)`` pair on ``group.url_memo``, replaced by a single
        assignment; a blob that fails to decode is never stored.
        """
        memo = group.url_memo
        if memo is not None and memo[0] == data:
            return memo[1]
        reader = Reader(data)
        magic = reader.raw(3)
        if magic != b"URL":
            raise CertificateError("not a URL blob")
        version = reader.u64()
        issued_at = reader.f64()
        update_period = reader.f64()
        count = reader.u32()
        tokens = tuple(RevocationToken.decode(group, reader.var())
                       for _ in range(count))
        signature = reader.var()
        reader.expect_end()
        url = cls(version, issued_at, update_period, tokens, signature)
        # The signed bytes are the blob up to the signature field.
        object.__setattr__(url, "_payload",
                           bytes(data[:len(data) - 4 - len(signature)]))
        group.url_memo = (bytes(data), url)
        return url

    def validate(self, operator_key: EcdsaPublicKey, now: float,
                 max_staleness: float = None,
                 max_skew: float = MAX_CLOCK_SKEW,
                 memo: Optional[SignatureMemo] = None) -> None:
        if not _signed_by_operator(operator_key, self.signed_payload(),
                                   self.signature, memo):
            raise CertificateError("URL has a bad NO signature")
        if self.issued_at - now > max_skew:
            raise CertificateError(
                f"URL future-dated: issued_at is "
                f"{self.issued_at - now:.1f}s ahead of now")
        limit = self.update_period if max_staleness is None else max_staleness
        if now - self.issued_at > limit:
            raise CertificateError("URL stale")


# ---------------------------------------------------------------------------
# Delta updates (epidemic distribution)
# ---------------------------------------------------------------------------
#
# A delta is *self-authenticating*: it carries the NO signature over the
# signed_payload of the TARGET list it reconstructs, not a signature of
# its own.  ``apply`` rebuilds the target list from the base plus the
# delta; the caller then runs the ordinary ``validate`` on the result,
# so a tampered delta (or one applied to the wrong base) can only yield
# a list whose NO signature fails -- adoption is refused and the peer
# falls back to a full signed list.  Reconstruction is exact because the
# operator only ever appends new entries at the end and removes entries
# anywhere (preserving survivor order): filter-by-removed + append-added
# reproduces the target byte-for-byte.


@dataclass(frozen=True)
class CrlDelta:
    """CRL version-to-version delta, authenticated by the target list."""

    from_version: int
    to_version: int
    issued_at: float
    update_period: float
    added: Tuple[str, ...]
    removed: Tuple[str, ...]
    list_signature: bytes  # NO's signature over the TARGET CRL payload

    def encode(self) -> bytes:
        writer = (Writer().raw(b"CRD").u64(self.from_version)
                  .u64(self.to_version).f64(self.issued_at)
                  .f64(self.update_period)
                  .u32(len(self.added)))
        for router_id in self.added:
            writer.string(router_id)
        writer.u32(len(self.removed))
        for router_id in self.removed:
            writer.string(router_id)
        return writer.var(self.list_signature).done()

    @classmethod
    def decode(cls, data: bytes) -> "CrlDelta":
        reader = Reader(data)
        if reader.raw(3) != b"CRD":
            raise CertificateError("not a CRL delta blob")
        from_version = reader.u64()
        to_version = reader.u64()
        issued_at = reader.f64()
        update_period = reader.f64()
        added = tuple(reader.string() for _ in range(reader.u32()))
        removed = tuple(reader.string() for _ in range(reader.u32()))
        signature = reader.var()
        reader.expect_end()
        return cls(from_version, to_version, issued_at, update_period,
                   added, removed, signature)

    def apply(self, base: CertificateRevocationList
              ) -> CertificateRevocationList:
        """Reconstruct the target CRL; the caller must ``validate`` it."""
        if base.version != self.from_version:
            raise CertificateError(
                f"CRL delta targets base version {self.from_version}, "
                f"have {base.version}")
        if self.to_version <= self.from_version:
            raise CertificateError("CRL delta does not advance the version")
        ids = ((base.revoked_router_ids - frozenset(self.removed))
               | frozenset(self.added))
        return CertificateRevocationList(
            self.to_version, self.issued_at, self.update_period,
            ids, self.list_signature)


@dataclass(frozen=True)
class UrlDelta:
    """URL version-to-version delta, authenticated by the target list.

    ``removed`` carries token *encodings* (the URL is order-significant,
    tokens are matched by their canonical bytes); ``added`` carries
    whole tokens, appended in order after the surviving base tokens --
    exactly how the operator grows the list.
    """

    from_version: int
    to_version: int
    issued_at: float
    update_period: float
    added: Tuple[RevocationToken, ...]
    removed: Tuple[bytes, ...]
    list_signature: bytes  # NO's signature over the TARGET URL payload

    def encode(self) -> bytes:
        writer = (Writer().raw(b"URD").u64(self.from_version)
                  .u64(self.to_version).f64(self.issued_at)
                  .f64(self.update_period)
                  .u32(len(self.added)))
        for token in self.added:
            writer.var(token.encode())
        writer.u32(len(self.removed))
        for encoding in self.removed:
            writer.var(encoding)
        return writer.var(self.list_signature).done()

    @classmethod
    def decode(cls, group: PairingGroup, data: bytes) -> "UrlDelta":
        reader = Reader(data)
        if reader.raw(3) != b"URD":
            raise CertificateError("not a URL delta blob")
        from_version = reader.u64()
        to_version = reader.u64()
        issued_at = reader.f64()
        update_period = reader.f64()
        added = tuple(RevocationToken.decode(group, reader.var())
                      for _ in range(reader.u32()))
        removed = tuple(reader.var() for _ in range(reader.u32()))
        signature = reader.var()
        reader.expect_end()
        return cls(from_version, to_version, issued_at, update_period,
                   added, removed, signature)

    def apply(self, base: UserRevocationList) -> UserRevocationList:
        """Reconstruct the target URL; the caller must ``validate`` it."""
        if base.version != self.from_version:
            raise CertificateError(
                f"URL delta targets base version {self.from_version}, "
                f"have {base.version}")
        if self.to_version <= self.from_version:
            raise CertificateError("URL delta does not advance the version")
        gone = frozenset(self.removed)
        survivors = tuple(token for token in base.tokens
                          if token.encode() not in gone)
        return UserRevocationList(
            self.to_version, self.issued_at, self.update_period,
            survivors + tuple(self.added), self.list_signature)
