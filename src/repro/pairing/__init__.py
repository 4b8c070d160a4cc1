"""Bilinear pairing substrate.

A from-scratch Type-1 (symmetric) pairing on the supersingular curve
``y^2 = x^3 + x`` over F_p with ``p = 3 (mod 4)``: embedding degree 2,
distortion map ``phi(x, y) = (-x, i*y)``, and the Tate pairing computed
with Miller's algorithm plus denominator elimination.

The public entry point is :class:`repro.pairing.group.PairingGroup`,
which exposes the (G1, G2, GT, psi, e) interface the PEACE scheme is
written against.  See DESIGN.md for why a Type-1 instantiation replaces
the paper's MNT curves.
"""

from repro.pairing.fields import Fp2
from repro.pairing.params import (
    PRESETS,
    PairingParams,
    find_parameters,
    get_params,
)
from repro.pairing.curve import Curve, FixedBaseTable, Point
from repro.pairing.group import (
    G1Element,
    G2Element,
    GTElement,
    PairingGroup,
)

__all__ = [
    "Curve",
    "FixedBaseTable",
    "Fp2",
    "G1Element",
    "G2Element",
    "GTElement",
    "PRESETS",
    "PairingGroup",
    "PairingParams",
    "Point",
    "find_parameters",
    "get_params",
]
