"""Tests for router certificates, CRL, and URL."""

import random
from dataclasses import replace

import pytest

from repro.core import groupsig
from repro.core.certs import (
    MAX_CLOCK_SKEW,
    CertificateRevocationList,
    RouterCertificate,
    SignatureMemo,
    UserRevocationList,
)
from repro.core.clock import ManualClock
from repro.errors import CertificateError
from repro.pairing.group import G1Element, PairingGroup
from repro.sig.curves import SECP160R1
from repro.sig.ecdsa import ecdsa_generate


@pytest.fixture(scope="module")
def operator_key():
    return ecdsa_generate(SECP160R1, rng=random.Random(500))


@pytest.fixture(scope="module")
def router_cert(operator_key):
    router_key = ecdsa_generate(SECP160R1, rng=random.Random(501))
    cert = RouterCertificate("MR-9", router_key.public, 2000.0, b"")
    return RouterCertificate("MR-9", router_key.public, 2000.0,
                             operator_key.sign(cert.signed_payload()))


class TestRouterCertificate:
    def test_valid_cert_accepted(self, router_cert, operator_key):
        router_cert.validate(operator_key.public, now=1000.0)

    def test_expired_cert_rejected(self, router_cert, operator_key):
        with pytest.raises(CertificateError):
            router_cert.validate(operator_key.public, now=2001.0)

    def test_forged_signature_rejected(self, router_cert, operator_key):
        forged = RouterCertificate(router_cert.router_id,
                                   router_cert.public_key,
                                   router_cert.expires_at,
                                   b"\x00" * 42)
        with pytest.raises(CertificateError):
            forged.validate(operator_key.public, now=1000.0)

    def test_self_signed_cert_rejected(self, operator_key):
        """The rogue-phisher case: signed by the router itself."""
        rogue_key = ecdsa_generate(SECP160R1, rng=random.Random(502))
        cert = RouterCertificate("MR-rogue", rogue_key.public, 9999.0, b"")
        cert = RouterCertificate("MR-rogue", rogue_key.public, 9999.0,
                                 rogue_key.sign(cert.signed_payload()))
        with pytest.raises(CertificateError):
            cert.validate(operator_key.public, now=1000.0)

    def test_encode_roundtrip(self, router_cert, operator_key):
        decoded = RouterCertificate.decode(SECP160R1, router_cert.encode())
        decoded.validate(operator_key.public, now=1000.0)
        assert decoded.router_id == "MR-9"

    def test_altered_expiry_rejected(self, router_cert, operator_key):
        extended = RouterCertificate(router_cert.router_id,
                                     router_cert.public_key,
                                     router_cert.expires_at + 10_000,
                                     router_cert.signature)
        with pytest.raises(CertificateError):
            extended.validate(operator_key.public, now=1000.0)


def make_crl(operator_key, version=1, issued_at=1000.0, period=600.0,
             revoked=frozenset()):
    crl = CertificateRevocationList(version, issued_at, period,
                                    frozenset(revoked), b"")
    return CertificateRevocationList(
        version, issued_at, period, frozenset(revoked),
        operator_key.sign(crl.signed_payload()))


class TestCrl:
    def test_valid_crl_accepted(self, operator_key):
        crl = make_crl(operator_key)
        crl.validate(operator_key.public, now=1100.0)

    def test_stale_crl_rejected(self, operator_key):
        """Staleness beyond one update period -- the phishing tell."""
        crl = make_crl(operator_key, issued_at=1000.0, period=600.0)
        with pytest.raises(CertificateError):
            crl.validate(operator_key.public, now=1601.0)

    def test_staleness_override(self, operator_key):
        crl = make_crl(operator_key, issued_at=1000.0, period=600.0)
        crl.validate(operator_key.public, now=1601.0, max_staleness=1e9)

    def test_membership(self, operator_key):
        crl = make_crl(operator_key, revoked={"MR-1", "MR-2"})
        assert crl.is_revoked("MR-1")
        assert not crl.is_revoked("MR-3")

    def test_forged_crl_rejected(self, operator_key):
        """An attacker cannot shrink the CRL: signature covers content."""
        crl = make_crl(operator_key, revoked={"MR-1"})
        stripped = CertificateRevocationList(
            crl.version, crl.issued_at, crl.update_period, frozenset(),
            crl.signature)
        with pytest.raises(CertificateError):
            stripped.validate(operator_key.public, now=1100.0)

    def test_encode_roundtrip(self, operator_key):
        crl = make_crl(operator_key, revoked={"MR-5"})
        decoded = CertificateRevocationList.decode(crl.encode())
        decoded.validate(operator_key.public, now=1100.0)
        assert decoded.is_revoked("MR-5")

    def test_garbage_rejected(self):
        with pytest.raises(CertificateError):
            CertificateRevocationList.decode(b"XYZ garbage")


class TestFutureDating:
    """A future-dated list must not pass freshness forever (negative
    staleness used to satisfy ``now - issued_at <= limit`` trivially)."""

    def test_future_dated_crl_rejected(self, operator_key):
        clock = ManualClock(1000.0)
        crl = make_crl(operator_key,
                       issued_at=clock.now() + MAX_CLOCK_SKEW + 1.0)
        with pytest.raises(CertificateError, match="future-dated"):
            crl.validate(operator_key.public, now=clock.now())

    def test_future_dated_crl_within_skew_accepted(self, operator_key):
        clock = ManualClock(1000.0)
        crl = make_crl(operator_key,
                       issued_at=clock.now() + MAX_CLOCK_SKEW - 1.0)
        crl.validate(operator_key.public, now=clock.now())

    def test_future_dated_crl_accepted_once_time_catches_up(self,
                                                            operator_key):
        clock = ManualClock(1000.0)
        issued_at = clock.now() + MAX_CLOCK_SKEW + 50.0
        crl = make_crl(operator_key, issued_at=issued_at)
        with pytest.raises(CertificateError):
            crl.validate(operator_key.public, now=clock.now())
        clock.advance(MAX_CLOCK_SKEW + 50.0)
        crl.validate(operator_key.public, now=clock.now())

    def test_future_dated_url_rejected(self, operator_key):
        clock = ManualClock(5000.0)
        issued_at = clock.now() + MAX_CLOCK_SKEW + 1.0
        url = UserRevocationList(0, issued_at, 600.0, (), b"")
        url = UserRevocationList(0, issued_at, 600.0, (),
                                 operator_key.sign(url.signed_payload()))
        with pytest.raises(CertificateError, match="future-dated"):
            url.validate(operator_key.public, now=clock.now())

    def test_skew_override(self, operator_key):
        clock = ManualClock(1000.0)
        crl = make_crl(operator_key, issued_at=clock.now() + 500.0)
        with pytest.raises(CertificateError):
            crl.validate(operator_key.public, now=clock.now())
        crl.validate(operator_key.public, now=clock.now(), max_skew=1000.0)

    def test_max_staleness_override_does_not_bypass_skew(self,
                                                         operator_key):
        """The old bypass: huge max_staleness must not admit a
        future-dated list."""
        clock = ManualClock(1000.0)
        crl = make_crl(operator_key, issued_at=clock.now() + 10_000.0)
        with pytest.raises(CertificateError, match="future-dated"):
            crl.validate(operator_key.public, now=clock.now(),
                         max_staleness=1e9)


class TestUrl:
    def test_url_roundtrip(self, operator_key, group, member_keys):
        tokens = (groupsig.RevocationToken(member_keys["a1"].a),)
        url = UserRevocationList(3, 1000.0, 600.0, tokens, b"")
        url = UserRevocationList(
            3, 1000.0, 600.0, tokens,
            operator_key.sign(url.signed_payload()))
        decoded = UserRevocationList.decode(group, url.encode())
        decoded.validate(operator_key.public, now=1200.0)
        assert decoded.tokens[0].a == tokens[0].a

    def test_stale_url_rejected(self, operator_key):
        url = UserRevocationList(0, 1000.0, 600.0, (), b"")
        url = UserRevocationList(0, 1000.0, 600.0, (),
                                 operator_key.sign(url.signed_payload()))
        with pytest.raises(CertificateError):
            url.validate(operator_key.public, now=1700.0)

    def test_token_injection_rejected(self, operator_key, group,
                                      member_keys):
        """Adding a token (framing a user) breaks the signature."""
        url = UserRevocationList(0, 1000.0, 600.0, (), b"")
        url = UserRevocationList(0, 1000.0, 600.0, (),
                                 operator_key.sign(url.signed_payload()))
        framed = UserRevocationList(
            url.version, url.issued_at, url.update_period,
            (groupsig.RevocationToken(member_keys["a1"].a),),
            url.signature)
        with pytest.raises(CertificateError):
            framed.validate(operator_key.public, now=1100.0)


class TestUrlSignedBytes:
    """A list keeps its signed bytes: a decoded one the slice it was
    parsed from, a constructed one its first encoding."""

    def _ss512_url(self, operator_key, count):
        group = PairingGroup("SS512")
        curve, g = group.curve, group.g1.point
        tokens, point = [], g
        for _ in range(count):
            tokens.append(groupsig.RevocationToken(G1Element(point, group)))
            point = curve.add(point, g)
        url = UserRevocationList(4, 1000.0, 600.0, tuple(tokens), b"")
        return group, url.signed(operator_key.sign(url.signed_payload()))

    def _count_token_encodes(self, monkeypatch):
        calls = []
        encode = groupsig.RevocationToken.encode

        def counting(token):
            calls.append(token)
            return encode(token)

        monkeypatch.setattr(groupsig.RevocationToken, "encode", counting)
        return calls

    def test_memo_hit_validate_encodes_no_token(self, operator_key,
                                                monkeypatch):
        group, url = self._ss512_url(operator_key, 1000)
        decoded = UserRevocationList.decode(group, url.encode())
        memo = SignatureMemo()
        decoded.validate(operator_key.public, now=1100.0, memo=memo)
        calls = self._count_token_encodes(monkeypatch)
        decoded.validate(operator_key.public, now=1100.0, memo=memo)
        assert calls == []
        fresh = UserRevocationList(decoded.version, decoded.issued_at,
                                   decoded.update_period, decoded.tokens,
                                   decoded.signature)
        assert decoded.signed_payload() == fresh.signed_payload()
        assert len(calls) == 1000  # the fresh list encoded once

    def test_constructed_list_encodes_once(self, operator_key,
                                           monkeypatch):
        _group, url = self._ss512_url(operator_key, 3)
        calls = self._count_token_encodes(monkeypatch)
        blob = url.encode()
        url.validate(operator_key.public, now=1100.0)
        assert url.encode() == blob
        assert calls == []  # `signed` carried the unsigned list's bytes
        unsigned = UserRevocationList(4, 1000.0, 600.0, url.tokens, b"")
        unsigned.signed_payload()
        unsigned.encode()
        assert len(calls) == 3

    def test_replace_recomputes_the_signed_bytes(self, operator_key):
        _group, url = self._ss512_url(operator_key, 3)
        shorter = replace(url, tokens=url.tokens[:1])
        assert shorter.signed_payload() != url.signed_payload()
        with pytest.raises(CertificateError):
            shorter.validate(operator_key.public, now=1100.0)
