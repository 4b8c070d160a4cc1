"""Short-Weierstrass curves and point arithmetic for ECDSA.

Implements ``y^2 = x^3 + a*x + b`` over F_p.  Scalar multiplication
runs on the kernel shared with the pairing curve
(:mod:`repro.mathx.jacobian`): a lazily built fixed-base table for the
generator, interleaved wNAF for everything else.  Two SEC-2 curves are
shipped: secp160r1 (the "ECDSA-160" of the paper) and secp256r1 for a
modern comparison point.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Tuple

from repro.errors import NotOnCurveError, ParameterError
from repro.mathx import jacobian

#: Affine point as (x, y); ``None`` is the point at infinity.
AffinePoint = Optional[Tuple[int, int]]


@dataclass(frozen=True)
class WeierstrassCurve:
    """Domain parameters of a prime-field short-Weierstrass curve."""

    name: str
    p: int
    a: int
    b: int
    gx: int
    gy: int
    n: int   # order of the base point
    h: int   # cofactor

    # -- validation ------------------------------------------------------

    def is_on_curve(self, point: AffinePoint) -> bool:
        if point is None:
            return True
        x, y = point
        return (y * y - (x * x * x + self.a * x + self.b)) % self.p == 0

    def require_on_curve(self, point: AffinePoint) -> AffinePoint:
        if not self.is_on_curve(point):
            raise NotOnCurveError(f"point not on {self.name}")
        return point

    @property
    def generator(self) -> AffinePoint:
        return (self.gx, self.gy)

    @property
    def coordinate_bytes(self) -> int:
        return (self.p.bit_length() + 7) // 8

    @property
    def scalar_bytes(self) -> int:
        return (self.n.bit_length() + 7) // 8

    # -- scalar multiplication (shared Jacobian arithmetic) ---------------

    def scalar_mul(self, point: AffinePoint, k: int) -> AffinePoint:
        """Return ``k * point`` (the one-term :meth:`multi_mul`)."""
        return self.multi_mul([(point, k)])

    def multi_mul(self, pairs: "list[Tuple[AffinePoint, int]]"
                  ) -> AffinePoint:
        """Return ``sum(k_i * P_i)``, scalars reduced modulo ``n``, by
        interleaved wNAF on one doubling chain.  A term on the generator
        adds from its fixed-base table after the doublings, so ECDSA's
        ``u1*G + u2*Q`` doubles for ``Q`` alone."""
        generator = self.generator
        return jacobian.multi_mul(
            [(self._generator_table if point == generator else point,
              k % self.n) for point, k in pairs], self.a, self.p)

    def generator_mul(self, k: int) -> AffinePoint:
        """Return ``k * G`` from the generator's fixed-base table."""
        return self._generator_table.mul(k)

    @cached_property
    def _generator_table(self) -> jacobian.FixedBaseTable:
        # cached_property writes the instance dict, which frozen allows.
        return jacobian.FixedBaseTable(self.generator, self.n, self.a, self.p)


SECP160R1 = WeierstrassCurve(
    name="secp160r1",
    p=0xFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFF7FFFFFFF,
    a=0xFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFF7FFFFFFC,
    b=0x1C97BEFC54BD7A8B65ACF89F81D4D4ADC565FA45,
    gx=0x4A96B5688EF573284664698968C38BB913CBFC82,
    gy=0x23A628553168947D59DCC912042351377AC5FB32,
    n=0x0100000000000000000001F4C8F927AED3CA752257,
    h=1,
)

SECP256R1 = WeierstrassCurve(
    name="secp256r1",
    p=0xFFFFFFFF00000001000000000000000000000000FFFFFFFFFFFFFFFFFFFFFFFF,
    a=0xFFFFFFFF00000001000000000000000000000000FFFFFFFFFFFFFFFFFFFFFFFC,
    b=0x5AC635D8AA3A93E7B3EBBD55769886BC651D06B0CC53B0F63BCE3C3E27D2604B,
    gx=0x6B17D1F2E12C4247F8BCE6E563A440F277037D812DEB33A0F4A13945D898C296,
    gy=0x4FE342E2FE1A7F9B8EE7EB4A7C0F9E162BCE33576B315ECECBB6406837BF51F5,
    n=0xFFFFFFFF00000000FFFFFFFFFFFFFFFFBCE6FAADA7179E84F3B9CAC2FC632551,
    h=1,
)

_CURVES = {c.name: c for c in (SECP160R1, SECP256R1)}


def get_curve(name: str) -> WeierstrassCurve:
    """Look up a shipped curve by SEC-2 name."""
    try:
        return _CURVES[name]
    except KeyError as exc:
        raise ParameterError(
            f"unknown curve {name!r}; choose one of {sorted(_CURVES)}"
        ) from exc
