"""High-level (G1, G2, GT, psi, e) interface -- the API PEACE is written on.

The paper (and Boneh-Shacham) describe the scheme over an asymmetric
pairing with an efficiently computable isomorphism ``psi : G2 -> G1``.
This package instantiates a Type-1 (symmetric) pairing where G1 and G2
are the same subgroup of ``E(F_p)`` and ``psi`` is the identity; the two
element types are nevertheless kept distinct so the scheme code reads
exactly like the paper and could be retargeted to an asymmetric backend.

Group notation is multiplicative to match the paper: ``g ** a`` is
exponentiation, ``x * y`` the group operation.  Every exponentiation,
``psi`` application, hash to the group and pairing reports itself to
:mod:`repro.instrument` so benchmarks can reproduce the paper's abstract
operation counts.
"""

from __future__ import annotations

import hashlib
import random
from typing import Iterable, List, Optional, Tuple, Union

from repro import instrument
from repro.errors import EncodingError, ParameterError
from repro.pairing import fastpath
from repro.pairing.curve import Curve, Point
from repro.pairing.fields import Fp2
from repro.pairing.hashing import (
    DOMAIN_G,
    hash_h0,
    hash_to_point,
    hash_to_scalar,
)
from repro.pairing.params import PairingParams, get_params


class _GroupElement:
    """Shared behaviour of G1 and G2 elements (multiplicative notation)."""

    __slots__ = ("point", "group")

    def __init__(self, point: Point, group: "PairingGroup") -> None:
        self.point = point
        self.group = group

    def _wrap(self, point: Point) -> "_GroupElement":
        return type(self)(point, self.group)

    def __mul__(self, other: "_GroupElement") -> "_GroupElement":
        if type(other) is not type(self):
            raise ParameterError("group operation across G1/G2")
        return self._wrap(self.group.curve.add(self.point, other.point))

    def __truediv__(self, other: "_GroupElement") -> "_GroupElement":
        if type(other) is not type(self):
            raise ParameterError("group operation across G1/G2")
        return self._wrap(
            self.group.curve.add(self.point,
                                 self.group.curve.neg(other.point)))

    def __pow__(self, exponent: int) -> "_GroupElement":
        instrument.note("exp")
        return self._wrap(self.group.curve.mul(self.point, exponent))

    def inverse(self) -> "_GroupElement":
        return self._wrap(self.group.curve.neg(self.point))

    def is_identity(self) -> bool:
        return self.point.is_infinity()

    def encode(self) -> bytes:
        """Compressed serialization (tag byte + x coordinate)."""
        return self.group.curve.encode(self.point)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, _GroupElement):
            return NotImplemented
        return type(self) is type(other) and self.point == other.point

    def __hash__(self) -> int:
        return hash((type(self).__name__, self.point))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self.encode().hex()[:16]}...)"


class G1Element(_GroupElement):
    """Element of G1."""

    __slots__ = ()


class G2Element(_GroupElement):
    """Element of G2 (same underlying subgroup in this Type-1 setting)."""

    __slots__ = ()


class GTElement:
    """Element of the target group GT (subgroup of F_p2*)."""

    __slots__ = ("value", "group")

    def __init__(self, value: Fp2, group: "PairingGroup") -> None:
        self.value = value
        self.group = group

    def __mul__(self, other: "GTElement") -> "GTElement":
        return GTElement(self.value * other.value, self.group)

    def __truediv__(self, other: "GTElement") -> "GTElement":
        return GTElement(self.value * other.value.inverse(), self.group)

    def __pow__(self, exponent: int) -> "GTElement":
        instrument.note("exp_gt")
        return GTElement(self.value ** (exponent % self.group.order),
                         self.group)

    def inverse(self) -> "GTElement":
        return GTElement(self.value.inverse(), self.group)

    def is_identity(self) -> bool:
        return self.value.is_one()

    def encode(self) -> bytes:
        """Serialize as two fixed-width F_p coefficients."""
        size = self.group.params.field_bytes
        return (self.value.a.to_bytes(size, "big")
                + self.value.b.to_bytes(size, "big"))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GTElement):
            return NotImplemented
        return self.value == other.value

    def __hash__(self) -> int:
        return hash(("GT", self.value))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"GTElement({self.encode().hex()[:16]}...)"


class PairingGroup:
    """Facade bundling parameters, generators, pairing, and hashing.

    Instances are cheap to construct; a single instance is typically
    shared by every entity of a PEACE deployment (it is part of the
    public system parameters).  Besides the frozen parameters an
    instance holds one decode memo, :attr:`url_memo`, which changes no
    result and notes no operation.
    """

    def __init__(self, params: Union[str, PairingParams] = "SS512") -> None:
        if isinstance(params, str):
            params = get_params(params)
        self.params = params
        self.curve = Curve(params)
        self.order = params.r
        generator_point = hash_to_point(self.curve, DOMAIN_G, b"g2")
        if generator_point.is_infinity():  # pragma: no cover - measure-zero
            raise ParameterError("generator hashing produced infinity")
        self.g2 = G2Element(generator_point, self)
        self.g1 = self.psi(self.g2, count=False)
        #: The last user revocation list decoded under this group, as
        #: one ``(blob, list)`` pair (see
        #: :meth:`repro.core.certs.UserRevocationList.decode`).  It is
        #: replaced by a single assignment, so readers need no lock.
        self.url_memo: Optional[tuple] = None

    # -- isomorphism ----------------------------------------------------

    def psi(self, element: G2Element, count: bool = True) -> G1Element:
        """The G2 -> G1 isomorphism (identity map in this Type-1 setting).

        Counted as one "psi" operation (priced like a G1 exponentiation
        by the paper) unless ``count=False``.
        """
        if count:
            instrument.note("psi")
        return G1Element(element.point, self)

    # -- pairing ----------------------------------------------------------

    def pair(self, lhs: G1Element, rhs: G2Element) -> GTElement:
        """Bilinear map ``e : G1 x G2 -> GT``: the modified Tate pairing
        ``f_{r,P}(phi(Q)) ^ ((p^2 - 1) / r)``.

        Its domain is the order-``r`` subgroup and ``O``: ``e(O, Q) =
        e(P, O) = 1``.  On other curve points the value is unspecified
        (a point of small odd order as ``lhs`` pairs differently from
        the textbook Miller loop), so an entry point that pairs a point
        from outside checks it first.  Points from another field raise
        :class:`ParameterError`.  One Miller pass over ``P``'s NAF line
        table (:func:`repro.pairing.fastpath.naf_steps`) and the final
        exponentiation; notes one pairing.
        """
        instrument.note("pairing")
        curve = self.curve
        p = curve.p
        point_p, point_q = lhs.point, rhs.point
        if point_p.p != p or point_q.p != p:
            raise ParameterError("points from a different field")
        if point_p.is_infinity() or point_q.is_infinity():
            return GTElement(Fp2.one(p), self)
        raw = fastpath.miller_eval(fastpath.naf_steps(curve, point_p),
                                   point_q, p)
        return GTElement(fastpath.final_exponentiation(curve, Fp2(*raw, p)),
                         self)

    # -- scalars -----------------------------------------------------------

    def random_scalar(self, rng: Optional[random.Random] = None,
                      nonzero: bool = True) -> int:
        """Sample a scalar from Z_r (Z_r* when ``nonzero``)."""
        rng = rng or random.SystemRandom()
        low = 1 if nonzero else 0
        return rng.randrange(low, self.order)

    def hash_to_scalar(self, *parts: bytes) -> int:
        """The paper's ``H``: hash byte strings into Z_r."""
        return hash_to_scalar(self.order, _join(parts))

    # -- hashing to groups ----------------------------------------------

    def hash_to_g1(self, *parts: bytes) -> G1Element:
        instrument.note("hash_to_group")
        return G1Element(
            hash_to_point(self.curve, b"repro/peace/G1", _join(parts)), self)

    def hash_h0(self, *parts: bytes) -> Tuple[G2Element, G2Element]:
        """The paper's ``H0``: hash to a pair ``(u_hat, v_hat)`` in G2^2."""
        instrument.note("hash_to_group", 2)
        u_hat, v_hat = hash_h0(self.curve, _join(parts))
        return G2Element(u_hat, self), G2Element(v_hat, self)

    # -- encoding ------------------------------------------------------------

    def encode_scalar(self, value: int) -> bytes:
        return (value % self.order).to_bytes(self.params.scalar_bytes, "big")

    def decode_scalar(self, data: bytes) -> int:
        if len(data) != self.params.scalar_bytes:
            raise EncodingError("bad scalar width")
        return int.from_bytes(data, "big") % self.order

    def decode_g1(self, data: bytes) -> G1Element:
        return G1Element(self.curve.decode(data), self)

    def decode_g2(self, data: bytes) -> G2Element:
        return G2Element(self.curve.decode(data), self)

    def random_g1(self, rng: Optional[random.Random] = None) -> G1Element:
        """Random G1 generator: a random curve point, cofactor cleared.

        Tests, benches and the adversary module draw points with it; a
        router draws its beacons' DH base on the fixed-base ``g1`` table
        instead (:meth:`repro.core.groupsig.CryptoEngine.g1_exp`).
        """
        rng = rng or random.SystemRandom()
        return G1Element(self.curve.random_point(rng), self)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PairingGroup):
            return NotImplemented
        return self.params == other.params

    def __hash__(self) -> int:
        return hash(self.params)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PairingGroup({self.params.name})"


def _join(parts: Iterable[bytes]) -> bytes:
    """Length-prefix concatenation (injective encoding of the tuple)."""
    out: List[bytes] = []
    for part in parts:
        out.append(len(part).to_bytes(4, "big"))
        out.append(part)
    return b"".join(out)


def sha256(data: bytes) -> bytes:
    """Convenience SHA-256 used across the package."""
    return hashlib.sha256(data).digest()
