"""Elliptic-curve arithmetic for ``y^2 = x^3 + x`` over F_p.

The group law is affine: modular inversion in Python is a single
``pow(x, -1, p)`` call, which keeps additions simple.  Scalar
multiplication runs on the Jacobian arithmetic the ECDSA curves share
(:mod:`repro.mathx.jacobian`, with ``a = 1``); the pairing's Miller
line tables are built in :mod:`repro.pairing.fastpath`.

Points are immutable; the point at infinity is the singleton produced by
:meth:`Point.infinity`.
"""

from __future__ import annotations

from typing import Tuple, Union

from repro.errors import EncodingError, NotOnCurveError, ParameterError
from repro.mathx import (
    bytes_to_int,
    int_to_bytes,
    jacobi_symbol,
    jacobian,
    sqrt_mod_p34,
)
from repro.pairing.params import PairingParams


class Point:
    """An affine point on ``y^2 = x^3 + x`` over F_p, or infinity."""

    __slots__ = ("x", "y", "p", "inf")

    def __init__(self, x: int, y: int, p: int, inf: bool = False) -> None:
        self.p = p
        self.inf = inf
        if inf:
            self.x = 0
            self.y = 0
        else:
            self.x = x % p
            self.y = y % p

    @classmethod
    def infinity(cls, p: int) -> "Point":
        """Return the identity element of the curve group."""
        return cls(0, 0, p, inf=True)

    def is_infinity(self) -> bool:
        return self.inf

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Point):
            return NotImplemented
        if self.inf or other.inf:
            return self.inf == other.inf and self.p == other.p
        return (self.x, self.y, self.p) == (other.x, other.y, other.p)

    def __hash__(self) -> int:
        return hash((self.x, self.y, self.p, self.inf))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if self.inf:
            return "Point(infinity)"
        return f"Point({self.x:#x}, {self.y:#x})"


#: A multiplication base: a point or its prebuilt ladder.
Base = Union[Point, jacobian.Ladder]


class Curve:
    """Group operations on the order-``r`` subgroup of ``E(F_p)``.

    All methods validate nothing per-call for speed; use
    :meth:`require_on_curve` / :meth:`in_subgroup` at trust boundaries
    (deserialization does this automatically).
    """

    #: The ``a`` of ``y^2 = x^3 + a*x``, for the shared Jacobian formulas.
    a = 1

    def __init__(self, params: PairingParams) -> None:
        self.params = params
        self.p = params.p
        self.r = params.r
        self.h = params.h

    # -- predicates ----------------------------------------------------

    def is_on_curve(self, point: Point) -> bool:
        """Check the curve equation ``y^2 = x^3 + x``."""
        if point.is_infinity():
            return True
        x, y, p = point.x, point.y, self.p
        return (y * y - (x * x * x + x)) % p == 0

    def require_on_curve(self, point: Point) -> Point:
        """Return ``point`` or raise :class:`NotOnCurveError`."""
        if not self.is_on_curve(point):
            raise NotOnCurveError("point fails the curve equation")
        return point

    def in_subgroup(self, point: Point) -> bool:
        """Check membership in the prime-order-``r`` subgroup.

        Must bypass :meth:`mul` (which reduces scalars mod ``r`` and
        would trivially return infinity for every point).
        """
        return (self.is_on_curve(point)
                and self.multi_mul_raw([(point, self.r)]).is_infinity())

    # -- group law -----------------------------------------------------

    def neg(self, point: Point) -> Point:
        if point.is_infinity():
            return point
        return Point(point.x, -point.y, self.p)

    def add(self, lhs: Point, rhs: Point) -> Point:
        """Return ``lhs + rhs`` (affine chord-and-tangent)."""
        if lhs.is_infinity():
            return rhs
        if rhs.is_infinity():
            return lhs
        p = self.p
        x1, y1, x2, y2 = lhs.x, lhs.y, rhs.x, rhs.y
        if x1 == x2:
            if (y1 + y2) % p == 0:
                return Point.infinity(p)
            slope = (3 * x1 * x1 + 1) * pow(2 * y1, -1, p) % p
        else:
            slope = (y2 - y1) * pow(x2 - x1, -1, p) % p
        x3 = (slope * slope - x1 - x2) % p
        y3 = (slope * (x1 - x3) - y1) % p
        return Point(x3, y3, p)

    def mul(self, point: Point, scalar: int) -> Point:
        """Return ``scalar * point``, the scalar reduced modulo ``r``
        (subgroup checks and cofactor clearing use :meth:`multi_mul_raw`)."""
        return self.multi_mul_raw([(point, scalar % self.r)])

    def multi_mul(self, pairs: "list[Tuple[Base, int]]") -> Point:
        """Return ``sum(k_i * P_i)`` via interleaved width-4 wNAF.

        Scalars are reduced modulo ``r``.  All terms share one Jacobian
        doubling chain (the dominant cost), with per-point tables of odd
        multiples (a base may be its prebuilt :meth:`odd_multiples`
        table or :meth:`ladder`); the paper prices such a product as ONE
        multi-exponentiation, which the caller notes (this method notes
        nothing).
        """
        return self.multi_mul_raw([(base, scalar % self.r)
                                   for base, scalar in pairs])

    def multi_mul_raw(self, pairs: "list[Tuple[Base, int]]") -> Point:
        """Interleaved-wNAF ``sum(k_i * P_i)`` without scalar reduction
        (:func:`repro.mathx.jacobian.multi_mul`).

        A base is a point or its :meth:`odd_multiples` table or
        :meth:`ladder`.  Batched subgroup screening needs scalars
        ``delta_i * r`` that must NOT be reduced modulo ``r`` (they
        would vanish).
        """
        return self.from_affine(jacobian.multi_mul(
            [(self.to_affine(base) if isinstance(base, Point) else base,
              scalar) for base, scalar in pairs],
            self.a, self.p))

    def odd_multiples(self, point: Point) -> "jacobian.Ladder | None":
        """The affine odd-multiple table of ``point`` (its one-rung
        ladder): a :meth:`multi_mul` base built once for a point whose
        multiples share one chain."""
        return jacobian.odd_multiples(self.to_affine(point), self.a, self.p)

    def ladder(self, point: Point) -> "jacobian.Ladder | None":
        """The four-rung ladder of ``point`` (rungs a quarter of ``r``'s
        bits apart): a :meth:`multi_mul` base for a point whose
        multiples run in separate chains, each then a quarter as long."""
        return jacobian.ladder(self.to_affine(point), self.a, self.p,
                               self.r.bit_length())

    def ladder_in_subgroup(self, point: Point,
                           ladder: "jacobian.Ladder") -> bool:
        """:meth:`in_subgroup` on the prebuilt :meth:`ladder` of ``point``."""
        return (self.is_on_curve(point)
                and self.multi_mul_raw([(ladder, self.r)]).is_infinity())

    def to_affine(self, point: Point) -> "Tuple[int, int] | None":
        """The shared arithmetic's form: ``(x, y)``, ``None`` at infinity."""
        return None if point.inf else (point.x, point.y)

    def from_affine(self, affine: "Tuple[int, int] | None") -> Point:
        """Inverse of :meth:`to_affine`."""
        return Point(*affine, self.p) if affine else Point.infinity(self.p)

    def clear_cofactor(self, point: Point) -> Point:
        """Map an arbitrary curve point into the order-``r`` subgroup."""
        return self.multi_mul_raw([(point, self.h)])

    # -- encoding --------------------------------------------------------

    def lift_x(self, x: int, y_parity: int) -> Point:
        """Return the curve point with abscissa ``x`` and ``y`` parity.

        Raises :class:`NotOnCurveError` when ``x^3 + x`` is a non-residue.
        """
        p = self.p
        x %= p
        rhs = (x * x * x + x) % p
        try:
            y = sqrt_mod_p34(rhs, p)
        except ParameterError as exc:
            raise NotOnCurveError(f"no point with x = {x:#x}") from exc
        if y % 2 != y_parity:
            y = p - y
        return Point(x, y, p)

    def encode(self, point: Point) -> bytes:
        """Serialize compressed: tag byte (0 / 2 / 3) + big-endian x."""
        size = self.params.field_bytes
        if point.is_infinity():
            return b"\x00" + b"\x00" * size
        tag = 2 + (point.y & 1)
        return bytes([tag]) + int_to_bytes(point.x, size)

    def decode(self, data: bytes) -> Point:
        """Deserialize and validate a compressed point.

        Only the canonical encoding (:meth:`encode`'s) is accepted: ``x``
        must be a field element below ``p`` and the tag's parity that of
        a root (SEC 1 section 2.3.4), so every point has exactly one
        wire form.  The decoded point is checked against the curve
        equation; subgroup membership is the caller's concern (checked
        once at protocol boundaries, where it matters, because it costs
        a scalar mul).
        """
        size = self.params.field_bytes
        if len(data) != size + 1:
            raise EncodingError(
                f"point encoding must be {size + 1} bytes, got {len(data)}")
        tag = data[0]
        if tag == 0:
            if any(data[1:]):
                raise EncodingError("non-zero payload on infinity encoding")
            return Point.infinity(self.p)
        if tag not in (2, 3):
            raise EncodingError(f"bad point tag {tag}")
        x = bytes_to_int(data[1:])
        if x >= self.p:
            raise EncodingError("encoded x is not below p")
        try:
            point = self.lift_x(x, tag - 2)
        except NotOnCurveError as exc:
            raise EncodingError("encoded x lifts to no curve point") from exc
        if point.y & 1 != tag - 2:
            raise EncodingError("tag asks for an odd root of y = 0")
        return point

    # -- hashing ---------------------------------------------------------

    def point_from_digest_stream(self, stream) -> Point:
        """Map an infinite byte stream to a subgroup point (try-and-increment).

        ``stream`` is a callable ``counter -> bytes`` producing
        field-sized digests; the first abscissa that lifts and survives
        cofactor clearing wins.  Exposed for :mod:`repro.pairing.hashing`.
        """
        counter = 0
        size = self.params.field_bytes
        p = self.p
        while True:
            digest = stream(counter)
            x = bytes_to_int(digest[:size]) % p
            counter += 1
            # Jacobi prescreen: a non-residue x^3 + x is exactly the
            # abscissa ``lift_x`` rejects, and the symbol costs a
            # fraction of the square root that would find out.
            if jacobi_symbol((x * x % p * x + x) % p, p) < 0:
                continue
            cleared = self.clear_cofactor(
                self.lift_x(x, y_parity=digest[-1] & 1))
            if not cleared.is_infinity():
                return cleared

    def random_point(self, rng) -> Point:
        """Return a uniformly-ish random subgroup point (for tests)."""
        while True:
            x = rng.randrange(self.p)
            try:
                point = self.lift_x(x, y_parity=rng.randrange(2))
            except NotOnCurveError:
                continue
            cleared = self.clear_cofactor(point)
            if not cleared.is_infinity():
                return cleared


class FixedBaseTable(jacobian.FixedBaseTable):
    """Signed-window precomputation for ``k * P`` with ``P`` fixed: the
    shared :class:`repro.mathx.jacobian.FixedBaseTable` on :class:`Point`.
    Building it is not an instrumented operation; callers note the
    exponentiation a :meth:`mul` stands in for."""

    __slots__ = ("curve", "point")

    def __init__(self, curve: Curve, point: Point) -> None:
        super().__init__(curve.to_affine(point), curve.r, curve.a, curve.p)
        self.curve = curve
        self.point = point

    def mul(self, scalar: int) -> Point:
        """Return ``(scalar mod r) * P``; bit-exact vs :meth:`Curve.mul`."""
        return self.curve.from_affine(super().mul(scalar))
