"""Hash functions with group and scalar-field ranges.

The PEACE scheme needs two random oracles (paper Section IV.A):

* ``H0`` with range G2 x G2 -- produces the per-signature generators
  ``(u_hat, v_hat)``; implemented as two domain-separated hash-to-curve
  invocations (try-and-increment with cofactor clearing).
* ``H`` with range Z_p (our ``Z_r``) -- the Fiat-Shamir challenge.

Both are built on SHA-256 with explicit domain-separation tags so the
two oracles are independent, as the random-oracle model requires.
"""

from __future__ import annotations

import hashlib
from typing import Tuple

from repro.pairing.curve import Curve, Point

DOMAIN_H0_U = b"repro/peace/H0/u"
DOMAIN_H0_V = b"repro/peace/H0/v"
DOMAIN_H = b"repro/peace/H"
DOMAIN_G = b"repro/peace/generator"


def _digest_stream(domain: bytes, data: bytes, field_bytes: int):
    """Return a ``counter -> bytes`` callable for try-and-increment."""

    def stream(counter: int) -> bytes:
        material = b""
        block = 0
        while len(material) < field_bytes + 1:
            h = hashlib.sha256()
            h.update(domain)
            h.update(counter.to_bytes(4, "big"))
            h.update(block.to_bytes(4, "big"))
            h.update(data)
            material += h.digest()
            block += 1
        return material[:field_bytes + 1]

    return stream


def hash_to_point(curve: Curve, domain: bytes, data: bytes) -> Point:
    """Map ``data`` to a point of the order-``r`` subgroup."""
    stream = _digest_stream(domain, data, curve.params.field_bytes)
    return curve.point_from_digest_stream(stream)


def hash_h0(curve: Curve, data: bytes) -> Tuple[Point, Point]:
    """The paper's ``H0``: map ``data`` to a pair of G2 points.

    The one H0 routine: signing reaches it through
    :meth:`~repro.pairing.group.PairingGroup.hash_h0`, the batch core
    calls it directly and notes the two hashes itself.
    """
    return (hash_to_point(curve, DOMAIN_H0_U, data),
            hash_to_point(curve, DOMAIN_H0_V, data))


def hash_to_scalar(order: int, data: bytes, domain: bytes = DOMAIN_H) -> int:
    """The paper's ``H``: map ``data`` to a nonzero scalar in Z_order.

    Expands SHA-256 output to cover the scalar width with negligible
    bias (64 surplus bits), then reduces.
    """
    width = (order.bit_length() + 7) // 8 + 8
    material = b""
    block = 0
    while len(material) < width:
        h = hashlib.sha256()
        h.update(domain)
        h.update(block.to_bytes(4, "big"))
        h.update(data)
        material += h.digest()
        block += 1
    value = int.from_bytes(material[:width], "big") % order
    return value if value != 0 else 1
