"""Pure-Python AES (FIPS 197) block cipher with CTR mode.

Only encryption of single blocks is required -- CTR mode turns the block
cipher into a stream cipher, and decryption is the same keystream XOR.
Key sizes 128/192/256 are supported; the S-box is generated at import
time from the AES finite-field definition rather than pasted as a magic
table, which doubles as a self-check of the field arithmetic.

The rounds are table-driven: four 32-bit T-tables derived from the
S-box fold SubBytes, ShiftRows and MixColumns into 16 lookups and XORs
on four column words (the round keys are 32-bit words too); the final
round reads the S-box.  This is NOT constant-time: the lookups are
indexed by key-dependent state bytes, so the cache lines they touch
leak key material through cache timing.  It exists because the
offline environment has no cryptography package.
"""

from __future__ import annotations

from typing import List

from repro import instrument
from repro.errors import ParameterError

_MASK128 = (1 << 128) - 1


def _xtime(a: int) -> int:
    """Multiply by x in GF(2^8) modulo the AES polynomial 0x11B."""
    a <<= 1
    if a & 0x100:
        a ^= 0x11B
    return a & 0xFF


def _build_sbox() -> List[int]:
    """Derive the S-box: multiplicative inverse + affine transform."""
    # Build inverses via exponentiation tables on generator 3.
    exp = [0] * 512
    log = [0] * 256
    value = 1
    for i in range(255):
        exp[i] = value
        log[value] = i
        value ^= _xtime(value)          # value * 3
    for i in range(255, 512):
        exp[i] = exp[i - 255]
    sbox = [0] * 256
    for byte in range(256):
        inv = 0 if byte == 0 else exp[255 - log[byte]]
        transformed = 0
        for bit in range(8):
            parity = (
                (inv >> bit) ^ (inv >> ((bit + 4) % 8))
                ^ (inv >> ((bit + 5) % 8)) ^ (inv >> ((bit + 6) % 8))
                ^ (inv >> ((bit + 7) % 8)) ^ (0x63 >> bit)
            ) & 1
            transformed |= parity << bit
        sbox[byte] = transformed
    return sbox


def _build_t_tables(sbox: List[int]) -> List[List[int]]:
    """``T_r[x]``: the MixColumns column contributed by S-box output
    ``S[x]`` sitting in row ``r`` -- coefficients (2,1,1,3) rotated
    right by ``r`` bytes."""
    te0 = []
    for s in sbox:
        s2 = _xtime(s)
        te0.append((s2 << 24) | (s << 16) | (s << 8) | (s2 ^ s))
    tables = [te0]
    for _ in range(3):
        tables.append([(w >> 8) | ((w & 0xFF) << 24) for w in tables[-1]])
    return tables


_SBOX = _build_sbox()
_TE0, _TE1, _TE2, _TE3 = _build_t_tables(_SBOX)
_RCON = [0x01]
while len(_RCON) < 14:
    _RCON.append(_xtime(_RCON[-1]))


def _sub_word(word: int) -> int:
    sbox = _SBOX
    return ((sbox[word >> 24] << 24) | (sbox[word >> 16 & 0xFF] << 16)
            | (sbox[word >> 8 & 0xFF] << 8) | sbox[word & 0xFF])


class AES:
    """AES block cipher bound to a key; exposes ECB single-block and CTR."""

    def __init__(self, key: bytes) -> None:
        if len(key) not in (16, 24, 32):
            raise ParameterError("AES key must be 16, 24, or 32 bytes")
        self._nk = len(key) // 4
        self._nr = self._nk + 6
        self._round_keys = self._expand_key(key)

    # -- key schedule ----------------------------------------------------

    def _expand_key(self, key: bytes) -> List[int]:
        nk = self._nk
        words = [int.from_bytes(key[4 * i:4 * i + 4], "big")
                 for i in range(nk)]
        for i in range(nk, 4 * (self._nr + 1)):   # 4 words per round key
            temp = words[i - 1]
            if i % nk == 0:
                rotated = ((temp << 8) & 0xFFFFFFFF) | (temp >> 24)
                temp = _sub_word(rotated) ^ (_RCON[i // nk - 1] << 24)
            elif nk > 6 and i % nk == 4:
                temp = _sub_word(temp)
            words.append(words[i - nk] ^ temp)
        return words

    # -- block encryption ---------------------------------------------------

    def encrypt_block(self, block: bytes) -> bytes:
        """Encrypt one 16-byte block (AES forward cipher)."""
        if len(block) != 16:
            raise ParameterError("AES block must be 16 bytes")
        instrument.note("aes_block")
        return self._encrypt(int.from_bytes(block, "big")).to_bytes(16, "big")

    def _encrypt(self, block: int) -> int:
        """The forward cipher on a block held as a 128-bit integer."""
        rk = self._round_keys
        te0, te1, te2, te3 = _TE0, _TE1, _TE2, _TE3
        s0 = (block >> 96) ^ rk[0]
        s1 = (block >> 64 & 0xFFFFFFFF) ^ rk[1]
        s2 = (block >> 32 & 0xFFFFFFFF) ^ rk[2]
        s3 = (block & 0xFFFFFFFF) ^ rk[3]
        # Column c of a round reads row r from column c + r (ShiftRows).
        for k in range(4, 4 * self._nr, 4):
            s0, s1, s2, s3 = (
                te0[s0 >> 24] ^ te1[s1 >> 16 & 0xFF]
                ^ te2[s2 >> 8 & 0xFF] ^ te3[s3 & 0xFF] ^ rk[k],
                te0[s1 >> 24] ^ te1[s2 >> 16 & 0xFF]
                ^ te2[s3 >> 8 & 0xFF] ^ te3[s0 & 0xFF] ^ rk[k + 1],
                te0[s2 >> 24] ^ te1[s3 >> 16 & 0xFF]
                ^ te2[s0 >> 8 & 0xFF] ^ te3[s1 & 0xFF] ^ rk[k + 2],
                te0[s3 >> 24] ^ te1[s0 >> 16 & 0xFF]
                ^ te2[s1 >> 8 & 0xFF] ^ te3[s2 & 0xFF] ^ rk[k + 3])
        # Final round: SubBytes and ShiftRows only, one word per column.
        sbox = _SBOX
        k = 4 * self._nr
        return ((((sbox[s0 >> 24] << 24 | sbox[s1 >> 16 & 0xFF] << 16
                   | sbox[s2 >> 8 & 0xFF] << 8 | sbox[s3 & 0xFF]) ^ rk[k])
                 << 96)
                | (((sbox[s1 >> 24] << 24 | sbox[s2 >> 16 & 0xFF] << 16
                     | sbox[s3 >> 8 & 0xFF] << 8 | sbox[s0 & 0xFF])
                    ^ rk[k + 1]) << 64)
                | (((sbox[s2 >> 24] << 24 | sbox[s3 >> 16 & 0xFF] << 16
                     | sbox[s0 >> 8 & 0xFF] << 8 | sbox[s1 & 0xFF])
                    ^ rk[k + 2]) << 32)
                | ((sbox[s3 >> 24] << 24 | sbox[s0 >> 16 & 0xFF] << 16
                    | sbox[s1 >> 8 & 0xFF] << 8 | sbox[s2 & 0xFF])
                   ^ rk[k + 3]))

    # -- CTR mode --------------------------------------------------------

    def ctr_keystream(self, nonce: bytes, length: int) -> bytes:
        """Generate ``length`` keystream bytes for a 16-byte initial counter."""
        if len(nonce) != 16:
            raise ParameterError("CTR nonce/counter block must be 16 bytes")
        counter = int.from_bytes(nonce, "big")
        blocks = []
        for _ in range(-(-length // 16)):
            instrument.note("aes_block")
            blocks.append(self._encrypt(counter).to_bytes(16, "big"))
            counter = (counter + 1) & _MASK128
        return b"".join(blocks)[:length]

    def ctr_xor(self, nonce: bytes, data: bytes) -> bytes:
        """CTR encryption/decryption (self-inverse)."""
        stream = self.ctr_keystream(nonce, len(data))
        return (int.from_bytes(data, "big")
                ^ int.from_bytes(stream, "big")).to_bytes(len(data), "big")
