"""Tate pairing via Miller's algorithm with denominator elimination.

For the supersingular curve ``y^2 = x^3 + x`` over F_p (``p = 3 mod 4``)
with distortion map ``phi(x, y) = (-x, i*y)``, the modified Tate pairing

    e(P, Q) = f_{r,P}(phi(Q)) ^ ((p^2 - 1) / r)

is bilinear, symmetric, and non-degenerate on the order-``r`` subgroup.

Denominator elimination: vertical-line evaluations at ``phi(Q)`` depend
only on its x-coordinate ``-x_Q``, which lies in F_p, and every F_p*
value is annihilated by the ``(p - 1)`` factor of the final exponent --
so the Miller loop evaluates line numerators only.  The loop below works
on raw integer pairs ``(a, b)`` representing ``a + b*i`` for speed; the
result is wrapped into :class:`~repro.pairing.fields.Fp2` at the end.

This is the generic pairing behind
:meth:`repro.pairing.group.PairingGroup.pair` (the NO's audits and
opens, and ``CostModel.calibrate``) and the reference the
fixed-argument kernels of :mod:`repro.pairing.fastpath` are tested
against.  Every verification, a user's credential check and the
engine's base pairing run on those kernels, which share
:func:`final_exponentiation`.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.errors import ParameterError
from repro.mathx import wnaf_digits
from repro.pairing.curve import Curve, Point
from repro.pairing.fields import Fp2

#: wNAF digit strings keyed by ``(exponent, width)``.  The only exponent
#: that flows through here is the curve cofactor ``h``, once per preset,
#: so the cache stays tiny while saving a recoding pass per pairing.
_WNAF_CACHE: Dict[Tuple[int, int], List[int]] = {}


def _cached_wnaf(exponent: int, width: int) -> List[int]:
    digits = _WNAF_CACHE.get((exponent, width))
    if digits is None:
        digits = wnaf_digits(exponent, width)
        _WNAF_CACHE[(exponent, width)] = digits
    return digits


def final_exponentiation(curve: Curve, value: Fp2) -> Fp2:
    """Raise a Miller-loop output to ``(p^2 - 1) / r``.

    Factored as ``(p - 1) * h`` (the parameters guarantee
    ``p + 1 = h * r``): the ``p - 1`` part is one Frobenius (conjugation
    in F_p2) and one inversion, after which the result is *unitary*
    (norm 1), so the remaining ``h`` exponentiation runs on the unit
    circle where squaring costs one F_p square plus one F_p multiply and
    inversion is free (conjugation).  Identical output to the direct
    ``value ** ((p*p - 1) // r)``, several times faster.
    """
    p = curve.p
    easy = value.conjugate() * value.inverse()      # value^(p-1), unitary
    return _unitary_pow(easy.a, easy.b, curve.h, p)


def _unitary_pow(base_a: int, base_b: int, exponent: int, p: int) -> Fp2:
    """wNAF exponentiation of a norm-1 Fp2 element (raw-integer loop)."""
    digits = _cached_wnaf(exponent, 4)
    # Odd powers g, g^3, g^5, g^7; negative digits conjugate for free.
    square_a = (2 * base_a * base_a - 1) % p
    square_b = 2 * base_a * base_b % p
    odd = [(base_a, base_b)]
    for _ in range(3):
        prev_a, prev_b = odd[-1]
        odd.append(((prev_a * square_a - prev_b * square_b) % p,
                    (prev_a * square_b + prev_b * square_a) % p))
    result_a, result_b = 1, 0
    for digit in reversed(digits):
        # Unitary square: products of norm-1 elements stay norm-1.
        result_a, result_b = ((2 * result_a * result_a - 1) % p,
                              2 * result_a * result_b % p)
        if digit:
            g_a, g_b = odd[(abs(digit) - 1) >> 1]
            if digit < 0:
                g_b = -g_b
            result_a, result_b = ((result_a * g_a - result_b * g_b) % p,
                                  (result_a * g_b + result_b * g_a) % p)
    return Fp2(result_a, result_b, p)


def miller_loop(curve: Curve, point_p: Point, point_q: Point) -> Fp2:
    """Evaluate ``f_{r,P}`` at ``phi(Q)`` (numerator lines only).

    Both inputs must be non-infinity points of the order-``r`` subgroup;
    the caller (``tate_pairing``) enforces this.
    """
    p = curve.p
    xq, yq = point_q.x, point_q.y
    x_phi = (-xq) % p           # phi(Q).x in F_p
    # phi(Q).y = yq * i, i.e. the Fp2 element (0, yq).

    f_a, f_b = 1, 0             # accumulator in Fp2
    xv, yv = point_p.x, point_p.y
    xp_, yp_ = point_p.x, point_p.y
    at_infinity = False

    for bit in bin(curve.r)[3:]:
        # Square the accumulator.
        f_a, f_b = ((f_a + f_b) * (f_a - f_b) % p, 2 * f_a * f_b % p)
        if not at_infinity:
            if yv == 0:
                # Tangent at a 2-torsion point is vertical: contributes
                # (x_phi - xv) in F_p -- but we keep it since only the
                # *ratio* structure matters pre-final-exponentiation;
                # multiplying by an F_p value is killed by final exp.
                # Doubling lands at infinity.
                at_infinity = True
            else:
                slope = (3 * xv * xv + 1) * pow(2 * yv, -1, p) % p
                # line numerator: (y_phi - yv) - slope * (x_phi - xv)
                l_a = (-yv - slope * (x_phi - xv)) % p
                l_b = yq
                f_a, f_b = ((f_a * l_a - f_b * l_b) % p,
                            (f_a * l_b + f_b * l_a) % p)
                x3 = (slope * slope - 2 * xv) % p
                y3 = (slope * (xv - x3) - yv) % p
                xv, yv = x3, y3
        if bit == "1" and not at_infinity:
            if xv == xp_ and (yv + yp_) % p == 0:
                # Adding P to -P: vertical line, F_p-valued, killed by
                # the final exponentiation -- skip the multiply.
                at_infinity = True
            else:
                if xv == xp_:
                    slope = (3 * xv * xv + 1) * pow(2 * yv, -1, p) % p
                else:
                    slope = (yp_ - yv) * pow(xp_ - xv, -1, p) % p
                l_a = (-yv - slope * (x_phi - xv)) % p
                l_b = yq
                f_a, f_b = ((f_a * l_a - f_b * l_b) % p,
                            (f_a * l_b + f_b * l_a) % p)
                x3 = (slope * slope - xv - xp_) % p
                y3 = (slope * (xv - x3) - yv) % p
                xv, yv = x3, y3
    return Fp2(f_a, f_b, p)


def tate_pairing(curve: Curve, point_p: Point, point_q: Point) -> Fp2:
    """Return the modified Tate pairing ``e(P, Q)`` as an Fp2 element.

    Degenerate inputs (either point at infinity) pair to 1, matching the
    bilinear-map convention ``e(O, Q) = e(P, O) = 1``.
    """
    if point_p.p != curve.p or point_q.p != curve.p:
        raise ParameterError("points from a different field")
    if point_p.is_infinity() or point_q.is_infinity():
        return Fp2.one(curve.p)
    raw = miller_loop(curve, point_p, point_q)
    return final_exponentiation(curve, raw)
