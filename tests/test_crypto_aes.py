"""AES correctness against FIPS-197 / SP 800-38A vectors.

The table-driven cipher is also checked against :class:`ByteWiseAES`,
the straightforward byte-per-byte FIPS 197 cipher (SubBytes, ShiftRows,
MixColumns, AddRoundKey on a 4x4 state).  ``TestSmoke`` is the subset
``scripts/tier1.sh smoke`` runs.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import instrument
from repro.crypto.aes import _RCON, _SBOX, AES
from repro.errors import ParameterError


def _gf_mul(a, b):
    """General GF(2^8) multiplication modulo 0x11B (schoolbook)."""
    result = 0
    while b:
        if b & 1:
            result ^= a
        a <<= 1
        if a & 0x100:
            a ^= 0x11B
        b >>= 1
    return result


aes_keys = st.sampled_from([16, 24, 32]).flatmap(
    lambda size: st.binary(min_size=size, max_size=size))


class ByteWiseAES:
    """Oracle: the FIPS 197 forward cipher one state byte at a time."""

    def __init__(self, key):
        self._nk = len(key) // 4
        self._nr = self._nk + 6
        words = [list(key[4 * i:4 * i + 4]) for i in range(self._nk)]
        for i in range(self._nk, 4 * (self._nr + 1)):
            temp = list(words[i - 1])
            if i % self._nk == 0:
                temp = temp[1:] + temp[:1]
                temp = [_SBOX[b] for b in temp]
                temp[0] ^= _RCON[i // self._nk - 1]
            elif self._nk > 6 and i % self._nk == 4:
                temp = [_SBOX[b] for b in temp]
            words.append([words[i - self._nk][j] ^ temp[j] for j in range(4)])
        self._round_keys = words

    def encrypt_block(self, block):
        state = [list(block[i::4]) for i in range(4)]  # column-major
        self._add_round_key(state, 0)
        for round_index in range(1, self._nr):
            self._sub_bytes(state)
            self._shift_rows(state)
            self._mix_columns(state)
            self._add_round_key(state, round_index)
        self._sub_bytes(state)
        self._shift_rows(state)
        self._add_round_key(state, self._nr)
        return bytes(state[row][col] for col in range(4) for row in range(4))

    def ctr_xor(self, nonce, data):
        counter = int.from_bytes(nonce, "big")
        stream = bytearray()
        while len(stream) < len(data):
            stream += self.encrypt_block(counter.to_bytes(16, "big"))
            counter = (counter + 1) % (1 << 128)
        return bytes(x ^ y for x, y in zip(data, stream))

    def _add_round_key(self, state, round_index):
        words = self._round_keys[4 * round_index:4 * round_index + 4]
        for col in range(4):
            for row in range(4):
                state[row][col] ^= words[col][row]

    @staticmethod
    def _sub_bytes(state):
        for row in state:
            for col in range(4):
                row[col] = _SBOX[row[col]]

    @staticmethod
    def _shift_rows(state):
        for row in range(1, 4):
            state[row] = state[row][row:] + state[row][:row]

    @staticmethod
    def _mix_columns(state):
        for col in range(4):
            a = [state[row][col] for row in range(4)]
            state[0][col] = _gf_mul(a[0], 2) ^ _gf_mul(a[1], 3) ^ a[2] ^ a[3]
            state[1][col] = a[0] ^ _gf_mul(a[1], 2) ^ _gf_mul(a[2], 3) ^ a[3]
            state[2][col] = a[0] ^ a[1] ^ _gf_mul(a[2], 2) ^ _gf_mul(a[3], 3)
            state[3][col] = _gf_mul(a[0], 3) ^ a[1] ^ a[2] ^ _gf_mul(a[3], 2)


class TestFips197Vectors:
    def test_aes128(self):
        cipher = AES(bytes.fromhex("000102030405060708090a0b0c0d0e0f"))
        out = cipher.encrypt_block(
            bytes.fromhex("00112233445566778899aabbccddeeff"))
        assert out == bytes.fromhex("69c4e0d86a7b0430d8cdb78070b4c55a")

    def test_aes192(self):
        cipher = AES(bytes.fromhex(
            "000102030405060708090a0b0c0d0e0f1011121314151617"))
        out = cipher.encrypt_block(
            bytes.fromhex("00112233445566778899aabbccddeeff"))
        assert out == bytes.fromhex("dda97ca4864cdfe06eaf70a0ec0d7191")

    def test_aes256(self):
        cipher = AES(bytes.fromhex(
            "000102030405060708090a0b0c0d0e0f"
            "101112131415161718191a1b1c1d1e1f"))
        out = cipher.encrypt_block(
            bytes.fromhex("00112233445566778899aabbccddeeff"))
        assert out == bytes.fromhex("8ea2b7ca516745bfeafc49904b496089")

    def test_sp800_38a_aes128_ecb_first_block(self):
        cipher = AES(bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c"))
        out = cipher.encrypt_block(
            bytes.fromhex("6bc1bee22e409f96e93d7e117393172a"))
        assert out == bytes.fromhex("3ad77bb40d7a3660a89ecaf32466ef97")


class TestCtrMode:
    def test_sp800_38a_ctr_vector(self):
        cipher = AES(bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c"))
        counter = bytes.fromhex("f0f1f2f3f4f5f6f7f8f9fafbfcfdfeff")
        plaintext = bytes.fromhex(
            "6bc1bee22e409f96e93d7e117393172a"
            "ae2d8a571e03ac9c9eb76fac45af8e51")
        expected = bytes.fromhex(
            "874d6191b620e3261bef6864990db6ce"
            "9806f66b7970fdff8617187bb9fffdff")
        assert cipher.ctr_xor(counter, plaintext) == expected

    def test_ctr_self_inverse(self):
        cipher = AES(b"k" * 16)
        nonce = b"n" * 16
        data = b"some session payload bytes"
        assert cipher.ctr_xor(nonce, cipher.ctr_xor(nonce, data)) == data

    def test_ctr_counter_wraps(self):
        cipher = AES(b"k" * 16)
        nonce = b"\xff" * 16
        # Two blocks force a counter increment past 2^128 - 1.
        out = cipher.ctr_keystream(nonce, 32)
        assert len(out) == 32
        assert out[:16] != out[16:]

    def test_ctr_bad_nonce_rejected(self):
        with pytest.raises(ParameterError):
            AES(b"k" * 16).ctr_xor(b"short", b"data")

    @given(st.binary(min_size=0, max_size=200))
    @settings(max_examples=25)
    def test_property_roundtrip(self, data):
        cipher = AES(b"p" * 16)
        nonce = b"q" * 16
        assert cipher.ctr_xor(nonce, cipher.ctr_xor(nonce, data)) == data


class TestKeyHandling:
    def test_bad_key_sizes_rejected(self):
        for size in (0, 8, 15, 17, 31, 33):
            with pytest.raises(ParameterError):
                AES(b"k" * size)

    def test_bad_block_size_rejected(self):
        with pytest.raises(ParameterError):
            AES(b"k" * 16).encrypt_block(b"short")

    def test_different_keys_differ(self):
        block = b"b" * 16
        assert (AES(b"a" * 16).encrypt_block(block)
                != AES(b"b" * 16).encrypt_block(block))


class TestOracle:
    """The byte-wise oracle itself reproduces the FIPS 197 vectors."""

    @pytest.mark.parametrize("key_hex, expected", [
        ("000102030405060708090a0b0c0d0e0f",
         "69c4e0d86a7b0430d8cdb78070b4c55a"),
        ("000102030405060708090a0b0c0d0e0f1011121314151617",
         "dda97ca4864cdfe06eaf70a0ec0d7191"),
        ("000102030405060708090a0b0c0d0e0f"
         "101112131415161718191a1b1c1d1e1f",
         "8ea2b7ca516745bfeafc49904b496089"),
    ])
    def test_fips197_appendix_c(self, key_hex, expected):
        oracle = ByteWiseAES(bytes.fromhex(key_hex))
        out = oracle.encrypt_block(
            bytes.fromhex("00112233445566778899aabbccddeeff"))
        assert out == bytes.fromhex(expected)


class TestSmoke:
    """Table-driven cipher against the byte-wise oracle."""

    @given(aes_keys, st.binary(min_size=16, max_size=16))
    @settings(max_examples=30, deadline=None)
    def test_block_matches_byte_wise_oracle(self, key, block):
        expected = ByteWiseAES(key).encrypt_block(block)
        assert AES(key).encrypt_block(block) == expected

    @pytest.mark.parametrize("length", [0, 1, 15, 16, 17, 255, 256, 300])
    def test_ctr_lengths_match_oracle(self, length):
        rng = random.Random(length)
        key = rng.randbytes(16)
        nonce = rng.randbytes(16)
        data = rng.randbytes(length)
        out = AES(key).ctr_xor(nonce, data)
        assert len(out) == length
        assert out == ByteWiseAES(key).ctr_xor(nonce, data)

    def test_ctr_counter_wrap_matches_oracle(self):
        # The counter steps 2^128 - 2 -> 2^128 - 1 -> 0 -> 1.
        key = bytes(range(32))
        nonce = ((1 << 128) - 2).to_bytes(16, "big")
        data = bytes(range(64))
        out = AES(key).ctr_xor(nonce, data)
        assert out == ByteWiseAES(key).ctr_xor(nonce, data)
        zero_block = AES(key).encrypt_block(bytes(16))
        assert out[32:48] == bytes(x ^ y for x, y in
                                   zip(data[32:48], zero_block))

    def test_one_aes_block_note_per_block(self):
        with instrument.count_operations() as ops:
            AES(b"k" * 16).ctr_xor(b"n" * 16, b"x" * 33)
        assert ops.total("aes_block") == 3
