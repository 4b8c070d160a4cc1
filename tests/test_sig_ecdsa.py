"""Tests for ECDSA-160/256 signing and verification."""

import random

import pytest

from repro.errors import EncodingError, InvalidSignature
from repro.sig.curves import SECP160R1, SECP256R1, WeierstrassCurve
from repro.sig.ecdsa import (
    EcdsaPublicKey,
    decode_signature,
    ecdsa_generate,
    encode_signature,
    signature_bytes,
)


#: A curve over the Mersenne prime 2^127 - 1: its 16-byte coordinates
#: leave room for y + p, which no point of secp160r1 or secp256r1 a
#: search can find does.  Decoding reads only p, a and b.
_HEADROOM = WeierstrassCurve(name="headroom", p=2 ** 127 - 1, a=1, b=3,
                             gx=0, gy=0, n=2 ** 127 - 1, h=1)


def _small_x_point(curve):
    """The point with the least x (even y) on ``curve`` (p = 3 mod 4)."""
    p = curve.p
    for x in range(1, 1000):
        rhs = (x ** 3 + curve.a * x + curve.b) % p
        y = pow(rhs, (p + 1) // 4, p)
        if y * y % p == rhs:
            return (x, y if y % 2 == 0 else p - y)
    raise AssertionError("no point with a small x")


@pytest.fixture(scope="module")
def keypair():
    return ecdsa_generate(SECP160R1, rng=random.Random(77))


class TestSignVerify:
    def test_roundtrip(self, keypair):
        sig = keypair.sign(b"hello")
        assert keypair.public.verify(b"hello", sig)

    def test_wrong_message_rejected(self, keypair):
        sig = keypair.sign(b"hello")
        assert not keypair.public.verify(b"hellO", sig)

    def test_tampered_signature_rejected(self, keypair):
        sig = bytearray(keypair.sign(b"hello"))
        sig[5] ^= 1
        assert not keypair.public.verify(b"hello", bytes(sig))

    def test_wrong_key_rejected(self, keypair):
        other = ecdsa_generate(SECP160R1, rng=random.Random(78))
        sig = keypair.sign(b"hello")
        assert not other.public.verify(b"hello", sig)

    def test_empty_message(self, keypair):
        sig = keypair.sign(b"")
        assert keypair.public.verify(b"", sig)

    def test_long_message(self, keypair):
        message = b"m" * 100_000
        assert keypair.public.verify(message, keypair.sign(message))

    def test_require_valid_raises(self, keypair):
        with pytest.raises(InvalidSignature):
            keypair.public.require_valid(b"a", b"\x00" * 42)

    def test_garbage_signature_rejected_without_raising(self, keypair):
        assert not keypair.public.verify(b"a", b"nonsense")
        assert not keypair.public.verify(b"a", b"")

    def test_all_zero_signature_rejected(self, keypair):
        assert not keypair.public.verify(b"a", b"\x00" * 42)

    def test_secp256r1_works_too(self):
        kp = ecdsa_generate(SECP256R1, rng=random.Random(79))
        sig = kp.sign(b"modern")
        assert kp.public.verify(b"modern", sig)
        assert len(sig) == 64


class TestDeterminism:
    def test_rfc6979_style_determinism(self, keypair):
        assert keypair.sign(b"same") == keypair.sign(b"same")

    def test_different_messages_different_signatures(self, keypair):
        assert keypair.sign(b"a") != keypair.sign(b"b")

    def test_keygen_reproducible(self):
        a = ecdsa_generate(SECP160R1, rng=random.Random(5))
        b = ecdsa_generate(SECP160R1, rng=random.Random(5))
        assert a.private == b.private


class TestEncoding:
    def test_signature_size_matches_paper_scale(self, keypair):
        # ECDSA-160: two 161-bit scalars -> 42 bytes on the wire.
        assert len(keypair.sign(b"x")) == signature_bytes(SECP160R1) == 42

    def test_signature_codec_roundtrip(self):
        blob = encode_signature(SECP160R1, 123, 456)
        assert decode_signature(SECP160R1, blob) == (123, 456)

    def test_bad_signature_length_rejected(self):
        with pytest.raises(EncodingError):
            decode_signature(SECP160R1, b"\x00" * 17)

    def test_public_key_roundtrip(self, keypair):
        blob = keypair.public.encode()
        decoded = EcdsaPublicKey.decode(SECP160R1, blob)
        assert decoded == keypair.public

    def test_public_key_off_curve_rejected(self, keypair):
        blob = bytearray(keypair.public.encode())
        blob[-1] ^= 1
        with pytest.raises(EncodingError):
            EcdsaPublicKey.decode(SECP160R1, bytes(blob))

    def test_public_key_bad_prefix_rejected(self, keypair):
        blob = b"\x05" + keypair.public.encode()[1:]
        with pytest.raises(EncodingError):
            EcdsaPublicKey.decode(SECP160R1, blob)

    @pytest.mark.parametrize("curve, coordinate", [
        (SECP160R1, 0),
        (_HEADROOM, 0),
        (_HEADROOM, 1),
    ], ids=["secp160r1-x", "headroom-x", "headroom-y"])
    def test_public_key_coordinate_plus_p_rejected(self, curve, coordinate):
        # The on-curve check works mod p, so a coordinate + p used to
        # pass as a second encoding of the same key.
        point = _small_x_point(curve)
        size = curve.coordinate_bytes
        values = list(point)
        values[coordinate] += curve.p
        assert values[coordinate] < 1 << (8 * size)
        assert curve.is_on_curve(tuple(values))
        alias = b"\x04" + b"".join(v.to_bytes(size, "big") for v in values)
        canonical = EcdsaPublicKey(curve, point).encode()
        assert EcdsaPublicKey.decode(curve, canonical).point == point
        with pytest.raises(EncodingError):
            EcdsaPublicKey.decode(curve, alias)


class _FixedRng:
    """``randrange`` stub that hands ``ecdsa_generate`` a chosen key."""

    def __init__(self, value):
        self.value = value

    def randrange(self, _low, _high):
        return self.value


class TestVectors:
    """Pinned signatures: RFC 6979 A.2.5 (P-256, SHA-256) and three
    ECDSA-160 signatures over fixed keys and messages."""

    RFC_KEY = 0xC9AFA9D845BA75166B5C215767B1D6934E50C3DB36E89B127B8A622B120F6721
    RFC_PUBLIC = (
        0x60FED4BA255A9D31C961EB74C6356D68C049B8923B61FA6CE669622E60F29FB6,
        0x7903FE1008B8BC99A41AE9E95628BC64F2F1B20C2D7E9F5177A3C294D4462299)

    @pytest.fixture(scope="class")
    def rfc_keypair(self):
        return ecdsa_generate(SECP256R1, rng=_FixedRng(self.RFC_KEY))

    def test_rfc6979_p256_public_point(self, rfc_keypair):
        assert rfc_keypair.public.point == self.RFC_PUBLIC

    @pytest.mark.parametrize("message, r, s", [
        (b"sample",
         0xEFD48B2AACB6A8FD1140DD9CD45E81D69D2C877B56AAF991C34D0EA84EAF3716,
         0xF7CB1C942D657C41D436C7A1B6E29F65F3E900DBB9AFF4064DC4AB2F843ACDA8),
        (b"test",
         0xF1ABB023518351CD71D881567B1EA663ED3EFCF6C5132B354F28D3B0B7D38367,
         0x019F4113742A2B14BD25926B49C649155F267E60D3814B4C0CC84250E46F0083),
    ])
    def test_rfc6979_p256_signature(self, rfc_keypair, message, r, s):
        signature = rfc_keypair.sign(message)
        assert decode_signature(SECP256R1, signature) == (r, s)
        assert rfc_keypair.public.verify(message, signature)

    @pytest.mark.parametrize("seed, message, signature", [
        (101, b"beacon",
         "00ce9f0409c18e01a4612de2145316857aa47f10a6"
         "0033fa14911b740cf57262cc4aac9d97890961d62f"),
        (202, b"certificate",
         "00adf63010ef138cfdf138686321be74b74d15fa23"
         "001738ef246e92fb9c44a0ca995a0e3cbcf4a165e2"),
        (303, b"",
         "001ab9eb9778f92a99a411021553125696098f7bcb"
         "00a184510307f5c0553e3f4823fd2f8aec77741c5d"),
    ])
    def test_secp160r1_pinned_signature(self, seed, message, signature):
        keypair = ecdsa_generate(SECP160R1, rng=random.Random(seed))
        assert keypair.sign(message).hex() == signature
        assert keypair.public.verify(message, bytes.fromhex(signature))
