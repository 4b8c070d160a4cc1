"""ECDSA with deterministic (RFC 6979) nonces.

The paper stipulates ECDSA-160 for every conventional signature: mesh
router certificates, CRL / URL signatures, beacon signatures, and the
non-repudiation receipts exchanged during setup.  Deterministic nonces
remove the classic nonce-reuse footgun and make test vectors stable.
"""

from __future__ import annotations

import hashlib
import hmac
import secrets
from dataclasses import dataclass
from typing import Tuple

from repro import instrument
from repro.errors import EncodingError, InvalidSignature, NotOnCurveError
from repro.mathx import bytes_to_int, int_to_bytes
from repro.sig.curves import SECP160R1, WeierstrassCurve


def _bits2int(data: bytes, n: int) -> int:
    """Leftmost-bits conversion of a hash to an integer (RFC 6979 2.3.2)."""
    value = bytes_to_int(data)
    excess = len(data) * 8 - n.bit_length()
    if excess > 0:
        value >>= excess
    return value


def _rfc6979_nonce(curve: WeierstrassCurve, private: int,
                   digest: bytes) -> int:
    """Derive the per-signature nonce k deterministically (RFC 6979)."""
    n = curve.n
    holen = hashlib.sha256().digest_size
    x_octets = int_to_bytes(private, curve.scalar_bytes)
    h1 = _bits2int(digest, n) % n
    h1_octets = int_to_bytes(h1, curve.scalar_bytes)
    v = b"\x01" * holen
    k = b"\x00" * holen
    k = hmac.new(k, v + b"\x00" + x_octets + h1_octets, hashlib.sha256).digest()
    v = hmac.new(k, v, hashlib.sha256).digest()
    k = hmac.new(k, v + b"\x01" + x_octets + h1_octets, hashlib.sha256).digest()
    v = hmac.new(k, v, hashlib.sha256).digest()
    while True:
        t = b""
        while len(t) < curve.scalar_bytes:
            v = hmac.new(k, v, hashlib.sha256).digest()
            t += v
        candidate = _bits2int(t[:curve.scalar_bytes], n)
        if 1 <= candidate < n:
            return candidate
        k = hmac.new(k, v + b"\x00", hashlib.sha256).digest()
        v = hmac.new(k, v, hashlib.sha256).digest()


@dataclass(frozen=True)
class EcdsaPublicKey:
    """An ECDSA verification key."""

    curve: WeierstrassCurve
    point: Tuple[int, int]

    def verify(self, message: bytes, signature: bytes) -> bool:
        """Verify; returns False rather than raising for bad signatures."""
        instrument.note("ecdsa_verify")
        try:
            r, s = decode_signature(self.curve, signature)
        except EncodingError:
            return False
        n = self.curve.n
        if not (1 <= r < n and 1 <= s < n):
            return False
        digest = hashlib.sha256(message).digest()
        e = _bits2int(digest, n) % n
        w = pow(s, -1, n)
        u1 = e * w % n
        u2 = r * w % n
        point = self.curve.multi_mul([(self.curve.generator, u1),
                                      (self.point, u2)])
        if point is None:
            return False
        return point[0] % n == r

    def require_valid(self, message: bytes, signature: bytes) -> None:
        """Verify or raise :class:`InvalidSignature`."""
        if not self.verify(message, signature):
            raise InvalidSignature("ECDSA verification failed")

    def encode(self) -> bytes:
        """Uncompressed SEC-1 encoding (0x04 + x + y)."""
        size = self.curve.coordinate_bytes
        return (b"\x04" + int_to_bytes(self.point[0], size)
                + int_to_bytes(self.point[1], size))

    @classmethod
    def decode(cls, curve: WeierstrassCurve, data: bytes) -> "EcdsaPublicKey":
        size = curve.coordinate_bytes
        if len(data) != 1 + 2 * size or data[0] != 4:
            raise EncodingError("bad SEC-1 public key encoding")
        point = (bytes_to_int(data[1:1 + size]), bytes_to_int(data[1 + size:]))
        if max(point) >= curve.p:
            # SEC 1 section 2.3.6: coordinates are field elements, so
            # each point has one encoding.
            raise EncodingError("public key coordinate is not below p")
        try:
            curve.require_on_curve(point)
        except NotOnCurveError as exc:
            raise EncodingError("public key not on curve") from exc
        return cls(curve, point)


@dataclass(frozen=True)
class EcdsaKeyPair:
    """An ECDSA signing key with its public half."""

    curve: WeierstrassCurve
    private: int
    public: EcdsaPublicKey

    def sign(self, message: bytes) -> bytes:
        """Produce a fixed-width ``r || s`` signature over SHA-256(message)."""
        instrument.note("ecdsa_sign")
        n = self.curve.n
        digest = hashlib.sha256(message).digest()
        e = _bits2int(digest, n) % n
        while True:
            k = _rfc6979_nonce(self.curve, self.private, digest)
            point = self.curve.generator_mul(k)
            assert point is not None
            r = point[0] % n
            if r == 0:
                digest = hashlib.sha256(digest).digest()
                continue
            s = pow(k, -1, n) * (e + r * self.private) % n
            if s == 0:
                digest = hashlib.sha256(digest).digest()
                continue
            return encode_signature(self.curve, r, s)


def encode_signature(curve: WeierstrassCurve, r: int, s: int) -> bytes:
    """Fixed-width concatenation ``r || s`` (2 * scalar_bytes)."""
    size = curve.scalar_bytes
    return int_to_bytes(r, size) + int_to_bytes(s, size)


def decode_signature(curve: WeierstrassCurve,
                     data: bytes) -> Tuple[int, int]:
    size = curve.scalar_bytes
    if len(data) != 2 * size:
        raise EncodingError(
            f"ECDSA signature must be {2 * size} bytes, got {len(data)}")
    return bytes_to_int(data[:size]), bytes_to_int(data[size:])


def signature_bytes(curve: WeierstrassCurve = SECP160R1) -> int:
    """Serialized ECDSA signature size for ``curve`` (42 B for ECDSA-160)."""
    return 2 * curve.scalar_bytes


def ecdsa_generate(curve: WeierstrassCurve = SECP160R1,
                   rng=None) -> EcdsaKeyPair:
    """Generate a key pair; ``rng`` (with ``randrange``) makes it
    deterministic for tests, otherwise a CSPRNG is used."""
    if rng is None:
        private = secrets.randbelow(curve.n - 1) + 1
    else:
        private = rng.randrange(1, curve.n)
    point = curve.generator_mul(private)
    assert point is not None
    return EcdsaKeyPair(curve, private, EcdsaPublicKey(curve, point))
