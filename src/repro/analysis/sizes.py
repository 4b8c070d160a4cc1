"""Signature and message size accounting (experiment E1, Section V.C).

The paper's communication-overhead argument: with the MNT curves of
[15], ``p`` is a 170-bit prime and G1 elements are 171 bits, so the
group signature -- two G1 elements and five Z_p elements -- is

    2 * 171 + 5 * 170 = 1,192 bits = 149 bytes,

"almost the same" as a 1,024-bit (128-byte) RSA signature.  This module
reproduces that arithmetic exactly, and measures the real encoded sizes
of this package's own instantiation for comparison.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List

from repro.core.groupsig import GroupSignature
from repro.pairing.group import PairingGroup
from repro.sig.curves import SECP160R1, SECP256R1


@dataclass(frozen=True)
class CurveSizeModel:
    """Abstract bit sizes of one pairing instantiation."""

    name: str
    scalar_bits: int   # |Z_p| (group order)
    g1_bits: int       # one (compressed) G1 element

    def group_signature_bits(self) -> int:
        """2 G1 + 5 Z_p, the paper's formula."""
        return 2 * self.g1_bits + 5 * self.scalar_bits

    def group_signature_bytes(self) -> int:
        return math.ceil(self.group_signature_bits() / 8)


#: The paper's parameter choice ([15], MNT curves).
PAPER_MNT170 = CurveSizeModel(name="MNT-170 (paper)", scalar_bits=170,
                              g1_bits=171)

RSA_1024_BYTES = 128
RSA_1024_BITS = 1024


def size_model_for(group: PairingGroup) -> CurveSizeModel:
    """Abstract size model of one of this package's presets."""
    params = group.params
    return CurveSizeModel(name=f"{params.name} (this impl)",
                          scalar_bits=params.scalar_bytes * 8,
                          g1_bits=params.point_bytes * 8)


@dataclass(frozen=True)
class SchemeSizes:
    """One row of the E1 size table."""

    scheme: str
    signature_bytes: int
    signature_bits: int
    note: str = ""


def paper_signature_accounting() -> SchemeSizes:
    """The paper's headline number: 1,192 bits / 149 bytes."""
    model = PAPER_MNT170
    return SchemeSizes(scheme="PEACE group signature (MNT-170, paper)",
                       signature_bytes=model.group_signature_bytes(),
                       signature_bits=model.group_signature_bits(),
                       note="2*|G1| + 5*|Zp| with |G1|=171, |Zp|=170")


def signature_size_table(group: PairingGroup) -> List[SchemeSizes]:
    """All rows of the E1 table: paper numbers + this implementation."""
    ours = size_model_for(group)
    rows = [
        paper_signature_accounting(),
        SchemeSizes(
            scheme="RSA-1024 (paper baseline)",
            signature_bytes=RSA_1024_BYTES,
            signature_bits=RSA_1024_BITS,
            note="standard 1024-bit RSA signature"),
        SchemeSizes(
            scheme=f"PEACE group signature ({group.params.name}, measured)",
            signature_bytes=GroupSignature.encoded_size(group),
            signature_bits=8 * GroupSignature.encoded_size(group),
            note="len(sig.encode()) of a real signature"),
        SchemeSizes(
            scheme=f"PEACE group signature ({group.params.name}, formula)",
            signature_bytes=ours.group_signature_bytes(),
            signature_bits=ours.group_signature_bits(),
            note="2*|G1| + 5*|Zp| with serialized widths"),
        SchemeSizes(
            scheme="ECDSA-160 (router/NO signatures)",
            signature_bytes=2 * SECP160R1.scalar_bytes,
            signature_bits=16 * SECP160R1.scalar_bytes,
            note="r || s over secp160r1"),
        SchemeSizes(
            scheme="ECDSA-256 (modern comparison)",
            signature_bytes=2 * SECP256R1.scalar_bytes,
            signature_bits=16 * SECP256R1.scalar_bytes,
            note="r || s over secp256r1"),
    ]
    return rows

