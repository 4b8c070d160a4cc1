"""Pairing parameter sets for the supersingular curve ``y^2 = x^3 + x``.

A parameter set is ``(p, r, h)`` with ``p = h*r - 1`` prime,
``p = 3 (mod 4)``, and ``r`` a prime dividing ``p + 1 = #E(F_p)``.
The pairing groups are the order-``r`` subgroups of ``E(F_p)`` (G1 = G2
in this Type-1 setting) and of F_p2* (GT).

Four presets are shipped, generated once with :func:`find_parameters`
and frozen here so importing the package never pays generation cost:

========  ==========  =========  ====================================
name      ``r`` bits  ``p`` bits  role
========  ==========  =========  ====================================
TEST      64          128        unit tests (fast, zero security)
SS256     128         256        integration tests
SS512     160         512        default; ~80-bit security, the same
                                 level the paper claims for MNT-170
SS1024    160         1024       high-security preset
========  ==========  =========  ====================================
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Optional

from repro.errors import ParameterError
from repro.mathx import is_probable_prime


@dataclass(frozen=True)
class PairingParams:
    """Immutable description of a supersingular pairing curve.

    Attributes:
        name: Human-readable preset label.
        p: Field prime, ``p = 3 (mod 4)``.
        r: Prime order of the pairing groups (the paper's ``p``; renamed
            to avoid colliding with the field prime).
        h: Cofactor with ``p + 1 = h * r``.
    """

    name: str
    p: int
    r: int
    h: int

    def validate(self) -> None:
        """Check internal consistency; raise :class:`ParameterError`."""
        if self.p % 4 != 3:
            raise ParameterError(f"{self.name}: p must be 3 mod 4")
        if self.h * self.r != self.p + 1:
            raise ParameterError(f"{self.name}: h*r != p+1")
        if not is_probable_prime(self.p):
            raise ParameterError(f"{self.name}: p is not prime")
        if not is_probable_prime(self.r):
            raise ParameterError(f"{self.name}: r is not prime")

    @property
    def scalar_bytes(self) -> int:
        """Serialized size of a Z_r scalar."""
        return (self.r.bit_length() + 7) // 8

    @property
    def field_bytes(self) -> int:
        """Serialized size of an F_p coordinate."""
        return (self.p.bit_length() + 7) // 8

    @property
    def point_bytes(self) -> int:
        """Serialized size of a compressed curve point (tag + x)."""
        return 1 + self.field_bytes


PRESETS: Dict[str, PairingParams] = {
    "TEST": PairingParams(
        name="TEST",
        r=0xF06D3FEF701966A1,
        h=0x10000000000000088,
        p=0xF06D3FEF70196720BA09F7338D7E8587,
    ),
    "SS256": PairingParams(
        name="SS256",
        r=0x930CDBD30F0AD2A81B2D19A2BEAA14A7,
        h=0x100000000000000000000000000000020,
        p=0x930CDBD30F0AD2A81B2D19A2BEAA14B9619B7A61E15A550365A33457D54294DF,
    ),
    "SS512": PairingParams(
        name="SS512",
        r=882857777327198621437422122265070572194596203571,
        h=int("91739944639602860464432835812083477631862599566731244949"
              "50355357547691504353939232280074212440502746220132"),
        p=int("80993323616640030969293840203215020305670793627178272246"
              "96145015362463027162230207937068087698376322456275623675"
              "79419021099997339930480028454135745049137" "1"),
    ),
    "SS1024": PairingParams(
        name="SS1024",
        r=735534353282416530661845620734073417826760090669,
        h=int("12300315572313620856784744768322366441573186918071506594"
              "49307036182549555219534923030103686935401493438227090503"
              "22214299552689203876695953600699775494388206142090885899"
              "729347827083318884583758435450548517566916626912548274908"
              "112766882031433928533568160966641936"),
        p=int("90473046596513362799611597727297991933563138772871768097"
              "63360666790550551671480387967630006254404009356723057664"
              "77031486302539270983156308545596489880438708566094704945"
              "86123167691503876821917167897404256194256387336625514736"
              "57433735641438405951476252426803549072454237601796793223"
              "5604867945887785691817695183"),
    ),
}

DEFAULT_PRESET = "SS512"


def get_params(name: str = DEFAULT_PRESET) -> PairingParams:
    """Return a shipped preset by name (case-insensitive)."""
    try:
        return PRESETS[name.upper()]
    except KeyError as exc:
        raise ParameterError(
            f"unknown pairing preset {name!r}; "
            f"choose one of {sorted(PRESETS)}") from exc


def find_parameters(r_bits: int, p_bits: int,
                    rng: Optional[random.Random] = None,
                    max_cofactor_steps: int = 500_000) -> PairingParams:
    """Search for a fresh parameter set ``(p, r, h)``.

    Picks a random ``r_bits``-bit prime ``r``, then walks cofactors
    ``h = 0 (mod 4)`` near ``2^(p_bits - r_bits)`` until ``p = h*r - 1``
    is a prime congruent to 3 mod 4.  (``h = 0 (mod 4)`` together with odd
    ``r`` forces ``p = 3 (mod 4)``.)  This is how the shipped presets were
    produced.
    """
    if p_bits <= r_bits:
        raise ParameterError("p_bits must exceed r_bits")
    rng = rng or random.Random()
    while True:
        r = _random_odd_prime(r_bits, rng)
        base = 1 << (p_bits - r_bits)
        base -= base % 4
        for step in range(max_cofactor_steps):
            h = base + 4 * step
            p = h * r - 1
            if p % 4 != 3 or p.bit_length() != p_bits:
                continue
            if is_probable_prime(p):
                params = PairingParams(name=f"gen-{r_bits}-{p_bits}",
                                       p=p, r=r, h=h)
                params.validate()
                return params


def _random_odd_prime(bits: int, rng: random.Random) -> int:
    while True:
        candidate = rng.getrandbits(bits) | (1 << (bits - 1)) | 1
        if is_probable_prime(candidate):
            return candidate
