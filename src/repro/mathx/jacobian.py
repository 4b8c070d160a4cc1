"""Jacobian-coordinate arithmetic on short-Weierstrass curves.

One implementation serves the ECDSA curves of :mod:`repro.sig.curves`
(``y^2 = x^3 + a*x + b``) and the pairing curve of
:mod:`repro.pairing.curve` (``a = 1``); the formulas never read ``b``.
Points enter and leave as affine ``(x, y)`` tuples (``None`` is the
point at infinity) and are Jacobian ``(X, Y, Z) = (X/Z^2, Y/Z^3)`` in
between, ``Z = 0`` at infinity.  Affine coordinates are canonical, so
each routine returns exactly the point the affine chord-and-tangent
references give.  :func:`multi_mul` is interleaved wNAF (one term is
plain scalar multiplication, two are Shamir's trick);
:class:`FixedBaseTable` is the signed-window table for a fixed base.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.errors import ParameterError
from repro.mathx.modular import signed_window_digits, wnaf_digits

#: Affine point ``(x, y)``; ``None`` is the point at infinity.
Affine = Optional[Tuple[int, int]]
Jacobian = Tuple[int, int, int]

INFINITY: Jacobian = (0, 1, 0)


def jdouble(x: int, y: int, z: int, a: int, p: int) -> Jacobian:
    """Return ``2 * (X:Y:Z)``."""
    if z == 0 or y == 0:
        return INFINITY
    ysq = y * y % p
    s = 4 * x * ysq % p
    zsq = z * z % p
    m = (3 * x * x + a * zsq * zsq) % p
    nx = (m * m - 2 * s) % p
    ny = (m * (s - nx) - 8 * ysq * ysq) % p
    return (nx, ny, 2 * y * z % p)


def jadd(x1: int, y1: int, z1: int, x2: int, y2: int, z2: int,
         a: int, p: int) -> Jacobian:
    """Return ``(X1:Y1:Z1) + (X2:Y2:Z2)``; equal inputs take the doubling."""
    if z1 == 0:
        return (x2, y2, z2)
    if z2 == 0:
        return (x1, y1, z1)
    z1sq = z1 * z1 % p
    z2sq = z2 * z2 % p
    u1 = x1 * z2sq % p
    u2 = x2 * z1sq % p
    s1 = y1 * z2sq * z2 % p
    s2 = y2 * z1sq * z1 % p
    if u1 == u2:
        if s1 != s2:
            return INFINITY
        return jdouble(x1, y1, z1, a, p)
    h = (u2 - u1) % p
    r = (s2 - s1) % p
    hsq = h * h % p
    hcu = hsq * h % p
    nx = (r * r - hcu - 2 * u1 * hsq) % p
    ny = (r * (u1 * hsq - nx) - s1 * hcu) % p
    return (nx, ny, h * z1 * z2 % p)


def to_affine(x: int, y: int, z: int, p: int) -> Affine:
    """Normalise a Jacobian triple (one field inversion)."""
    if z == 0:
        return None
    z_inv = pow(z, -1, p)
    z_inv_sq = z_inv * z_inv % p
    return (x * z_inv_sq % p, y * z_inv_sq * z_inv % p)


def odd_multiples(x: int, y: int, count: int, a: int,
                  p: int) -> List[Jacobian]:
    """Jacobian ``[1P, 3P, ..., (2*count-1)P]`` for affine ``P = (x, y)``."""
    table = [(x, y, 1)]
    if count > 1:
        twice = jdouble(x, y, 1, a, p)
        for _ in range(count - 1):
            table.append(jadd(*table[-1], *twice, a, p))
    return table


def multi_mul(terms: Sequence[Tuple[Affine, int]], a: int, p: int,
              width: int = 4) -> Affine:
    """Interleaved-wNAF ``sum(k_i * P_i)`` over affine ``(P_i, k_i)``.

    Scalars are never reduced (subgroup checks and cofactor clearing
    pass multiples of the order); a negative one negates its point.
    All terms share one doubling chain.
    """
    entries = []
    longest = 0
    for point, scalar in terms:
        if point is None or scalar == 0:
            continue
        x, y = point
        if scalar < 0:
            y, scalar = -y % p, -scalar
        digits = wnaf_digits(scalar, width)
        # Odd multiples up to the largest digit used (a sparse scalar,
        # e.g. a cofactor, needs P alone).
        count = (max(map(abs, digits)) + 1) >> 1
        entries.append((digits, odd_multiples(x, y, count, a, p)))
        longest = max(longest, len(digits))
    rx, ry, rz = INFINITY
    for i in range(longest - 1, -1, -1):
        rx, ry, rz = jdouble(rx, ry, rz, a, p)
        for digits, table in entries:
            digit = digits[i] if i < len(digits) else 0
            if digit:
                tx, ty, tz = table[(abs(digit) - 1) >> 1]
                rx, ry, rz = jadd(rx, ry, rz, tx, ty if digit > 0 else -ty % p,
                                  tz, a, p)
    return to_affine(rx, ry, rz, p)


class FixedBaseTable:
    """Signed-window precomputation for ``k * P`` with ``P`` fixed.

    Stores ``d * 2^(width*j) * P`` for every window ``j`` and digit
    ``d`` in ``1 .. 2^(width-1)`` (negative digits negate on the fly);
    a multiplication is then ~``ceil(bits/width)`` additions and no
    doublings.
    """

    __slots__ = ("a", "p", "order", "width", "_blocks")

    def __init__(self, point: Affine, order: int, a: int, p: int,
                 width: int = 4) -> None:
        if width < 2:
            raise ParameterError("fixed-base window width must be >= 2")
        self.a = a
        self.p = p
        self.order = order
        self.width = width
        self._blocks: List[List[Jacobian]] = []
        if point is None:
            return
        # Signed recoding of a scalar < order can carry one window more.
        blocks = (order.bit_length() + width - 1) // width + 1
        half = 1 << (width - 1)
        base = (point[0], point[1], 1)
        for _ in range(blocks):
            row = [base]
            for _ in range(half - 1):
                row.append(jadd(*row[-1], *base, a, p))
            self._blocks.append(row)
            for _ in range(width):
                base = jdouble(*base, a, p)

    def mul(self, scalar: int) -> Affine:
        """Return ``(scalar mod order) * P``."""
        scalar %= self.order
        if scalar == 0 or not self._blocks:
            return None
        a, p = self.a, self.p
        rx, ry, rz = INFINITY
        for j, digit in enumerate(signed_window_digits(scalar, self.width)):
            if digit:
                tx, ty, tz = self._blocks[j][abs(digit) - 1]
                rx, ry, rz = jadd(rx, ry, rz, tx, ty if digit > 0 else -ty % p,
                                  tz, a, p)
        return to_affine(rx, ry, rz, p)
