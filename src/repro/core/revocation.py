"""Metropolitan-scale revocation: the period tag index and its cache.

The paper's verifier-local revocation (Eq.3) scans the whole URL -- 2
pairings per listed token per verification -- which collapses at the
ROADMAP's metropolitan scale (10^5..10^6 users).  This module makes the
check |URL|-independent without changing a single accept/reject
outcome:

**The tag index.**  In period mode (Section V.C) the revocation
relation collapses to a *tag* comparison:

    e(T2, u_hat) / e(T1, v_hat)  ==  e(A, u_hat)

where ``u_hat`` depends only on ``(gpk, period)``.  The right side is a
pure function of the revocation token ``A``, so every token's tag is
computed once per period and :class:`RevocationState` keeps one
``{tag: first URL index}`` map.  A verifier computes the left side (2
pairings) and looks it up -- the pairing is injective in ``A`` for a
fixed ``u_hat``, so a hit names the very ``token_index`` the serial
first-match scan would.  The period is derived from the gpk epoch
(:func:`epoch_period`), so epoch rotation re-derives every tag in one
deterministic step.

**The tag cache.**  Tags are keyed by ``(gpk epoch, token)`` in a
bounded LRU (:class:`RevocationTagCache`).  Rebuilding the index after
a delta update re-derives only the *new* tokens' tags (cache hits are
pairing-free); an epoch bump strictly invalidates every entry of the
retired epoch, and a delta that removes a token evicts its entry.
Hits/misses/evictions surface as ``revocation.cache.hit`` /
``revocation.cache.miss`` / ``revocation.cache.evict`` counters.

**Scope.**  The index is period-mode only: with per-signature
generators the tag depends on ``(message, r)`` and cannot be
precomputed per token.  That is the paper's own Section V.C trade --
signatures by one signer within a period (here: an epoch) are linkable
to each other, never to an identity.  Routers opt in via
:meth:`repro.core.router.MeshRouter.enable_sharded_revocation`; the
default verification path is untouched.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

from repro import instrument, obs
from repro.core.groupsig import (
    GroupPublicKey,
    GroupSignature,
    RevocationToken,
)
from repro.core.wire import Reader, Writer
from repro.errors import EncodingError, ParameterError, RevokedKeyError
from repro.pairing import fastpath
from repro.pairing.curve import Point
from repro.pairing.fastpath import final_exponentiation
from repro.pairing.fields import Fp2
from repro.pairing.group import GTElement


def epoch_period(epoch: int) -> bytes:
    """The canonical period label for one gpk epoch.

    Deriving the Section V.C period generators from the *epoch* (rather
    than a wall-clock period) ties the tag index to the key lifetime:
    rotating the gpk changes ``u_hat`` and therefore every token's tag
    in one deterministic step.
    """
    if epoch < 0:
        raise ParameterError("epoch must be >= 0")
    return b"PEACE/url-epoch/%d" % epoch


class RevocationTagCache:
    """Bounded LRU of revocation tags keyed by ``(gpk epoch, token)``.

    The value is the tag's canonical GT encoding -- what one abstract
    pairing ``e(A, u_hat_epoch)`` produces.  Thread-safe; shared freely
    between the routers of one process (tags are public derivations of
    public tokens, there is nothing secret to isolate).
    """

    def __init__(self, capacity: int = 1 << 16) -> None:
        if capacity < 1:
            raise ParameterError("tag cache capacity must be >= 1")
        self.capacity = capacity
        self._lock = threading.Lock()
        self._entries: "OrderedDict[Tuple[int, bytes], bytes]" = OrderedDict()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def get(self, epoch: int, token_encoding: bytes) -> Optional[bytes]:
        """Look one tag up, counting the hit/miss."""
        key = (epoch, token_encoding)
        with self._lock:
            tag = self._entries.get(key)
            if tag is not None:
                self._entries.move_to_end(key)
        if tag is None:
            obs.counter("revocation.cache.miss")
        else:
            obs.counter("revocation.cache.hit")
        return tag

    def contains(self, epoch: int, token_encoding: bytes) -> bool:
        """Counter-free peek: is this tag warm?  Used by gossip to
        decide whether a peer needs a checkpoint without skewing the
        hit/miss counters or the LRU order."""
        with self._lock:
            return (epoch, token_encoding) in self._entries

    def put(self, epoch: int, token_encoding: bytes, tag: bytes) -> None:
        evicted = 0
        with self._lock:
            self._entries[(epoch, token_encoding)] = tag
            self._entries.move_to_end((epoch, token_encoding))
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                evicted += 1
        if evicted:
            obs.counter("revocation.cache.evict", evicted)

    def evict(self, epoch: int, token_encoding: bytes) -> bool:
        """Drop one entry (URL delta removed the token)."""
        with self._lock:
            removed = self._entries.pop((epoch, token_encoding),
                                        None) is not None
        if removed:
            obs.counter("revocation.cache.evict")
        return removed

    def invalidate_epoch(self, retired_epoch: int) -> int:
        """Strictly drop every entry of one (retired) epoch."""
        with self._lock:
            stale = [key for key in self._entries if key[0] == retired_epoch]
            for key in stale:
                del self._entries[key]
        if stale:
            obs.counter("revocation.cache.evict", len(stale))
        return len(stale)


class RevocationState:
    """Router-side period-mode revocation index for one gpk epoch.

    Holds the epoch, its period label, the URL version and one
    ``{tag: first URL index}`` map, filled through the shared
    :class:`RevocationTagCache`.  :meth:`check` costs 2 pairings plus a
    dict lookup -- independent of ``|URL|`` -- and raises the
    *identical* :class:`~repro.errors.RevokedKeyError` (message and
    ``token_index``) the serial Eq.3 scan produces.

    Both run on the NAF Miller steps of ``u_hat`` and ``v_hat``
    (:func:`repro.pairing.fastpath.naf_steps`): a check evaluates
    ``e(T2, u_hat) * e(-T1, v_hat)`` as one shared Miller chain and one
    final exponentiation, and :meth:`update` the new tokens' ``e(A,
    u_hat)`` with one batched easy part.  NAF and binary Miller values
    differ only by F_p* factors, which the final exponentiation removes,
    so every tag is byte-identical to generic pairings.
    """

    def __init__(self, gpk: GroupPublicKey,
                 cache: Optional[RevocationTagCache] = None) -> None:
        self.cache = cache if cache is not None else RevocationTagCache()
        self.url_version = 0
        # (token encoding, tag) per URL entry, in URL order.
        self._entries: Tuple[Tuple[bytes, bytes], ...] = ()
        self._first_by_tag: Dict[bytes, int] = {}
        self._adopt_gpk(gpk)

    # -- epoch / generator management ----------------------------------

    def _adopt_gpk(self, gpk: GroupPublicKey) -> None:
        self.gpk = gpk
        self.epoch = gpk.epoch
        self.period = epoch_period(self.epoch)
        # The period's steps, built once by the engine and shared with
        # period-mode verification; every check and tag build reuses
        # them (the amortization behind "6 exp + 5 pairings").
        context = gpk.engine.generators(self.period)
        self._u_steps = context.u_steps
        self._v_steps = context.v_steps

    def rotate(self, gpk: GroupPublicKey,
               url: Optional[Sequence[RevocationToken]] = None,
               url_version: int = 0) -> None:
        """Adopt a rotated gpk: strict cache invalidation + rebuild.

        Every tag of the retired epoch is dropped from the cache, the
        period generators are re-derived, and the (new) URL is
        re-indexed under the new epoch's tags.
        """
        retired = self.epoch
        self._adopt_gpk(gpk)
        if gpk.epoch != retired:
            self.cache.invalidate_epoch(retired)
        self.update(url if url is not None else (), url_version)
        obs.counter("revocation.state.rotations_total")

    # -- URL maintenance ------------------------------------------------

    def update(self, tokens: Sequence[RevocationToken],
               url_version: int = 0) -> None:
        """(Re)build the index from ``tokens``.

        Tokens already tagged under this epoch hit the cache and cost
        nothing; tokens that *left* the list (a delta's ``removed``)
        have their cache entries strictly evicted, so a later re-add
        re-derives the tag instead of trusting state from before the
        removal.
        """
        tokens = tuple(tokens)
        encodings = tuple(token.encode() for token in tokens)
        removed = ({encoding for encoding, _ in self._entries}
                   - set(encodings))
        # Bulk tag derivation: cache hits are pairing-free; the misses
        # share the u_hat steps per Miller loop and one batched
        # final-exponentiation easy part, still billed one abstract
        # pairing per derived tag.
        tags: list = []
        miss_slots: list = []
        for encoding in encodings:
            tag = self.cache.get(self.epoch, encoding)
            tags.append(tag)
            if tag is None:
                miss_slots.append(len(tags) - 1)
        if miss_slots:
            group = self.gpk.group
            p = group.curve.p
            points = [tokens[slot].a.point for slot in miss_slots]
            finite = [point for point in points if not point.is_infinity()]
            values = iter(fastpath.final_exponentiation_each(
                [fastpath.miller_eval(self._u_steps, point, p)
                 for point in finite], group.curve))
            for slot, point in zip(miss_slots, points):
                instrument.note("pairing")
                # e(O, u_hat) = 1
                value = Fp2.one(p) if point.is_infinity() else next(values)
                tag = GTElement(value, group).encode()
                tags[slot] = tag
                self.cache.put(self.epoch, encodings[slot], tag)
        # Duplicate tokens share a tag; the serial scan stops at the
        # first, so the index keeps the smallest position.
        first_by_tag: Dict[bytes, int] = {}
        for index, tag in enumerate(tags):
            first_by_tag.setdefault(tag, index)
        for encoding in sorted(removed):
            self.cache.evict(self.epoch, encoding)
        self._entries = tuple(zip(encodings, tags))
        self._first_by_tag = first_by_tag
        self.url_version = url_version
        obs.counter("revocation.state.rebuilds_total")

    def entries(self) -> Tuple[Tuple[bytes, bytes], ...]:
        """``(token encoding, tag)`` per URL entry, in URL order -- what
        a :class:`TagCheckpoint` or a journal checkpoint carries."""
        return self._entries

    # -- the check ------------------------------------------------------

    def check(self, message: bytes, signature: GroupSignature) -> None:
        """Eq.3 as one tag lookup; |URL|-independent.

        Computes the signature's period tag ``e(T2, u_hat) * e(-T1,
        v_hat)`` (2 counted pairings on one Miller chain and one final
        exponentiation), looks it up, and raises
        :meth:`RevokedKeyError.for_token` on a match
        -- the same exception object shape, message text, and
        ``token_index`` as the paper's first-match Eq.3 scan, which
        ``tests/test_revocation.py`` holds it to through the tests'
        reference verifier.  ``message`` is unused in period mode (the
        generators depend on the period alone) and kept for signature
        parity with the scan.
        """
        del message
        with obs.span("revocation.tag_check"):
            instrument.note("pairing", 2)
            hit = self._first_by_tag.get(
                self._tag(signature.t1.point, signature.t2.point))
        obs.counter("revocation.checks_total")
        if hit is not None:
            obs.counter("revocation.check_revoked_total")
            raise RevokedKeyError.for_token(hit)

    def _tag(self, t1: Point, t2: Point) -> bytes:
        """The period tag ``e(T2, u_hat) * e(-T1, v_hat)`` as GT bytes:
        both Miller loops on one shared chain, one final exponentiation."""
        group = self.gpk.group
        curve = group.curve
        raw = fastpath.miller_eval_pair(self._u_steps, t2, self._v_steps,
                                        curve.neg(t1), curve.p)
        return GTElement(final_exponentiation(
            curve, Fp2(raw[0], raw[1], curve.p)), group).encode()


@dataclass(frozen=True)
class TagCheckpoint:
    """A signed export of one router's warm epoch tags.

    A cold or freshly-restarted router adopts a peer's checkpoint to
    skip the per-token pairing re-derivation (|URL| pairings at
    metropolitan scale).  The serving router signs the whole entry set
    with its RPK/RSK pair and attaches its operator-issued ``Cert_k``,
    so adoption is gated on the same PKI a beacon is: certificate
    validity, CRL membership, and the ECDSA signature.  Tags are pure
    functions of ``(epoch, token)`` -- they transfer between routers
    verbatim -- so a checkpoint never grants authority, it only saves
    pairings; a *tampered* checkpoint would poison accept/reject
    decisions, which is why verification failure is a
    ``CertificateError``, not a silent skip.
    """

    #: Leads the signed payload.  Distinct from the ``b"TCK"`` of the
    #: layout that also carried a shard count, so a checkpoint in that
    #: layout is refused by :meth:`decode` instead of misparsed.
    MAGIC = b"TC2"

    router_id: str
    epoch: int
    url_version: int
    entries: Tuple[Tuple[bytes, bytes], ...]  # (token encoding, tag)
    certificate: bytes                        # serving router's Cert_k
    signature: bytes                          # ECDSA over signed_payload

    def signed_payload(self) -> bytes:
        writer = (Writer().raw(self.MAGIC).string(self.router_id)
                  .u64(self.epoch).u64(self.url_version)
                  .u32(len(self.entries)))
        for token_encoding, tag in self.entries:
            writer.var(token_encoding)
            writer.var(tag)
        return writer.done()

    def encode(self) -> bytes:
        return (Writer().raw(self.signed_payload())
                .var(self.certificate).var(self.signature).done())

    @classmethod
    def decode(cls, data: bytes) -> "TagCheckpoint":
        reader = Reader(data)
        if reader.raw(len(cls.MAGIC)) != cls.MAGIC:
            raise EncodingError("not a tag checkpoint")
        router_id = reader.string()
        epoch = reader.u64()
        url_version = reader.u64()
        count = reader.u32()
        entries = tuple((reader.var(), reader.var()) for _ in range(count))
        certificate = reader.var()
        signature = reader.var()
        reader.expect_end()
        return cls(router_id=router_id, epoch=epoch,
                   url_version=url_version, entries=entries,
                   certificate=certificate, signature=signature)

