"""The pairing kernels: the one way ``src/repro`` evaluates a pairing.

Every pairing -- :meth:`repro.pairing.group.PairingGroup.pair`, each
verification, a user's credential check, the engine's base pairing and
the revocation tag index -- runs on the NAF Miller line tables below and
the one :func:`final_exponentiation`.  Miller values here are the
textbook ones scaled by F_p* factors, which the ``(p - 1)`` part of the
final exponent annihilates, so outputs are identical after the final
exponentiation; ``tests/test_pairing_precompute.py`` and
``tests/test_pairing_tate.py`` hold them to the binary affine Miller
loop of ``tests/oracles.py`` on every shipped preset.  Scalar
multiplication is not here: every curve multiple -- the SPK's
multi-exps on shared tables and ladders and H0's cofactor clearing
included -- runs on the one kernel of :mod:`repro.mathx.jacobian`.

Nothing here reports to :mod:`repro.instrument` -- callers note the
abstract operations at the same milestones the naive path would, which
is what keeps measured operation counts invariant under the engine.

The kernels:

``fused_miller_subgroup``
    One Jacobian double-and-add pass over the bits of ``r`` that yields
    *both* the Miller value of ``e(P, Q)`` (lines evaluated without any
    modular inversion, scaled by F_p* factors) and the exact
    prime-order subgroup verdict for ``P``: an on-curve point distinct
    from infinity has order ``r`` iff the chain degenerates at exactly
    the final add step (``r`` is prime, so any earlier degeneration
    certifies a smaller order and no degeneration certifies
    ``r*P != O``).

``naf_steps``
    The Miller line coefficients of a fixed first argument along the
    non-adjacent form of ``r``: one Jacobian chain yields each line's
    numerators over one denominator, and a single batched inversion
    (Montgomery's trick) serves every line, instead of one inversion
    per Miller step.

``miller_eval`` / ``miller_eval_pair``
    Raw-integer helpers for evaluating stored lines -- one table, or
    two on one shared accumulator.

``final_exponentiation`` / ``final_exponentiation_each``
    The power ``(p^2 - 1) / r`` of one raw Miller value, or of many
    with one batched inversion: the easy part ``v^(p-1)`` lands on the
    unit circle of F_p2, where ``unitary_pow_h`` takes the cofactor
    power.

``unitary_pow_h`` / ``unitary_tag_is_one``
    The cofactor power ``z^h`` of a norm-1 element, and the revocation
    tag test ``z^h == 1`` (``h = (p + 1) / r`` has Hamming weight at
    most 6 on the shipped presets, so ``z^h`` is almost all cheap
    unitary squarings).

``GTFixedBase``
    Signed-window fixed-base exponentiation in GT for the cached base
    pairing ``e(g1, g2)`` and each period's ``e(v, g2)`` and ``e(v, w)``
    (unitary, so negative digits conjugate for free).

Throughout, squarings are spelled so the multiplication receives the
*same object* twice -- ``m * m``, ``3 * (X * X)`` rather than
``3 * X * X`` -- because CPython's schoolbook bigint multiply takes a
squaring fast path in that case (~25% cheaper at 512 bits).  The
parentheses only reassociate an exact integer product; residues are
unchanged.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.mathx import batch_inverse
from repro.pairing.curve import Curve, Point
from repro.pairing.fields import Fp2

#: Cached MSB-first bit strings keyed by the integer itself -- the
#: cofactor ``h`` of each curve in use (one entry per parameter preset).
_BITS_CACHE: Dict[int, str] = {}


def _bits_after_msb(value: int) -> str:
    bits = _BITS_CACHE.get(value)
    if bits is None:
        bits = bin(value)[3:]
        _BITS_CACHE[value] = bits
    return bits


#: Cached MSB-first NAF digit strings (leading digit, always 1,
#: stripped).  The group orders in use have dense binary expansions
#: (SS512's ``r`` has Hamming weight 79 over 160 bits) but NAF weight
#: around ``bits / 3``, so a NAF Miller chain trades ~26 chord-and-line
#: add steps for the same number of doublings -- the value changes only
#: by an F_p* scale, which the final exponentiation kills.
_NAF_CACHE: Dict[int, Tuple[int, ...]] = {}


def _naf_after_msd(value: int) -> Tuple[int, ...]:
    digits = _NAF_CACHE.get(value)
    if digits is None:
        from repro.mathx import wnaf_digits

        little = wnaf_digits(value, 2)
        digits = tuple(reversed(little[:-1]))
        _NAF_CACHE[value] = digits
    return digits


# ---------------------------------------------------------------------------
# Fused Miller pass + exact subgroup check
# ---------------------------------------------------------------------------


def fused_miller_subgroup(curve: Curve, point_p: Point, point_q: Point
                          ) -> Tuple[bool, int, int]:
    """Return ``(P_in_subgroup, f_a, f_b)`` for ``e(P, Q)`` in one pass.

    ``(f_a, f_b)`` is the Miller value ``f_{r,P}(phi(Q))`` up to an
    F_p* scale factor (exact after final exponentiation).  The chain
    walks the *NAF* digits of ``r`` (fewer add steps than the dense
    binary expansion; the omitted vertical lines evaluate in F_p at
    ``phi(Q)`` and are likewise killed by the final exponentiation) and
    computes ``r * P`` as a side effect.  Because ``r`` is prime, odd,
    and ``P`` is on-curve and not infinity, ``P`` lies in the
    order-``r`` subgroup iff the running point degenerates to infinity
    at exactly the last add step: the NAF partial scalars ``s_i``
    satisfy ``0 < |s_i| < r`` before the final digit, so an order-``r``
    point cannot hit infinity early (``2s`` with ``s != 0 mod r`` and
    ``r`` odd is never ``0 mod r`` either), while any early degeneration
    certifies a different order.  When the verdict is ``False`` the
    Miller value is meaningless and must be discarded.
    """
    p = curve.p
    xp_, yp_ = point_p.x, point_p.y
    yp_neg = (-yp_) % p
    x_phi = (-point_q.x) % p
    yq = point_q.y
    X, Y, Z = xp_, yp_, 1
    f_a, f_b = 1, 0
    at_inf = False
    digits = _naf_after_msd(curve.r)
    last = len(digits) - 1
    final_add_inf = False
    for idx, digit in enumerate(digits):
        f_a, f_b = ((f_a + f_b) * (f_a - f_b) % p, 2 * f_a * f_b % p)
        if not at_inf:
            if Y == 0:
                at_inf = True
            else:
                # Tangent line at V = (X : Y : Z), scaled by 2*Y*Z^3:
                #   D*l = M*(X - Z^2*x) - 2*Y^2 + (2*Y*Z^3)*y
                # with M = 3*X^2 + Z^4 (curve coefficient a = 1).
                ysq = Y * Y % p
                zsq = Z * Z % p
                m = (3 * (X * X) + zsq * zsq) % p
                nz = 2 * Y * Z % p
                l_a = (m * (X - zsq * x_phi % p) - 2 * ysq) % p
                l_b = nz * zsq % p * yq % p
                t1 = f_a * l_a
                t2 = f_b * l_b
                f_a, f_b = ((t1 - t2) % p,
                            ((f_a + f_b) * (l_a + l_b) - t1 - t2) % p)
                s = 4 * X * ysq % p
                nx = (m * m - 2 * s) % p
                Y = (m * (s - nx) - 8 * (ysq * ysq)) % p
                X, Z = nx, nz
        if digit and not at_inf:
            yd = yp_ if digit > 0 else yp_neg
            zsq = Z * Z % p
            u2 = xp_ * zsq % p
            s2 = yd * zsq % p * Z % p
            if X == u2:
                if (Y + s2) % p == 0:
                    at_inf = True
                    if idx == last:
                        final_add_inf = True
                    continue
                # V == digit*P exactly: chord degenerates to the tangent.
                ysq = Y * Y % p
                m = (3 * (X * X) + zsq * zsq) % p
                nz = 2 * Y * Z % p
                l_a = (m * (X - zsq * x_phi % p) - 2 * ysq) % p
                l_b = nz * zsq % p * yq % p
                t1 = f_a * l_a
                t2 = f_b * l_b
                f_a, f_b = ((t1 - t2) % p,
                            ((f_a + f_b) * (l_a + l_b) - t1 - t2) % p)
                s = 4 * X * ysq % p
                nx = (m * m - 2 * s) % p
                Y = (m * (s - nx) - 8 * (ysq * ysq)) % p
                X, Z = nx, nz
            else:
                # Chord through V and digit*P, scaled by hh*Z^3:
                #   D*l = rr*(X - Z^2*x) - hh*Y + (hh*Z^3)*y
                hh = (u2 - X) % p
                rr = (s2 - Y) % p
                hz = hh * Z % p
                l_a = (rr * (X - zsq * x_phi % p) - hh * Y) % p
                l_b = hz * zsq % p * yq % p
                t1 = f_a * l_a
                t2 = f_b * l_b
                f_a, f_b = ((t1 - t2) % p,
                            ((f_a + f_b) * (l_a + l_b) - t1 - t2) % p)
                hsq = hh * hh % p
                hcu = hsq * hh % p
                nx = (rr * rr - hcu - 2 * X * hsq) % p
                Y = (rr * (X * hsq - nx) - Y * hcu) % p
                X, Z = nx, hz
    return final_add_inf, f_a, f_b


# ---------------------------------------------------------------------------
# Fixed-argument Miller line tables (one batched inversion)
# ---------------------------------------------------------------------------


def naf_steps(curve: Curve, point: Point) -> List[List[Tuple[int, int]]]:
    """Line coefficients for a *NAF* Miller chain over ``r`` (fixed P).

    One list per chain step of the ``(c1, c0)`` pairs whose line
    ``(c0 + c1 * x_phi) + y_Q * i`` is evaluated at ``phi(Q)`` by
    :func:`miller_eval`.  The chain follows the non-adjacent form of
    ``r`` -- around a third the add steps of the dense binary expansion
    at SS512 -- so every evaluation of the table is proportionally
    cheaper.  The value differs from the binary Miller loop's (the
    tests' oracle) by an F_p* factor only (negative digits drop a
    vertical line that evaluates in F_p at ``phi(Q)``), i.e. it is
    *final-exponentiation-identical*: only callers that FE the result
    may use these tables, and the tests hold
    ``FE(miller_eval(naf_steps(P), Q))`` to the oracle's pairing of
    ``P`` and ``Q``.  The point at infinity has no steps.

    Each line's affine slope and constant come straight off the
    Jacobian chain over one common denominator ``D``, and all the
    denominators share one batched inversion (Montgomery's trick):

    * the tangent at ``V = (X : Y : Z)``: slope ``M*Z^2 / D`` and
      ``c0 = (M*X - 2*Y^2) / D``, with ``M = 3*X^2 + Z^4`` and
      ``D = 2*Y*Z^3`` (the doubled point's Z times ``Z^2``);
    * the chord from ``V`` towards ``d*P = (x_P, y_d)``: slope
      ``rr / D`` and ``c0 = (rr*x_P - y_d*D) / D``, with ``D = hh*Z``,
      the sum's Z (``hh``, ``rr`` the mixed addition's differences).

    ``(c1, c0) = (-slope, slope*x - y)`` for any point ``(x, y)`` of the
    line; the residues are exactly those of the affine Miller loop.
    """
    if point.is_infinity():
        return []
    p = curve.p
    xp_, yp_ = point.x, point.y
    yp_neg = (-yp_) % p
    X, Y, Z = xp_, yp_, 1
    at_inf = False
    # Per chain step, how many lines it holds; per line, the numerators
    # of its slope and of c0, and its denominator D.
    counts: List[int] = []
    nums: List[Tuple[int, int]] = []
    dens: List[int] = []
    for digit in _naf_after_msd(curve.r):
        lines = 0
        if not at_inf:
            if Y == 0:
                at_inf = True
            else:
                ysq = Y * Y % p
                zsq = Z * Z % p
                m = (3 * (X * X) + zsq * zsq) % p
                nz = 2 * Y * Z % p
                nums.append((m * zsq, m * X - 2 * ysq))
                dens.append(nz * zsq % p)
                lines = 1
                s = 4 * X * ysq % p
                nx = (m * m - 2 * s) % p
                Y = (m * (s - nx) - 8 * (ysq * ysq)) % p
                X, Z = nx, nz
        if digit and not at_inf:
            yd = yp_ if digit > 0 else yp_neg
            zsq = Z * Z % p
            u2 = xp_ * zsq % p
            s2 = yd * zsq % p * Z % p
            if X == u2:
                if (Y + s2) % p == 0:
                    at_inf = True
                else:
                    # V == digit*P exactly: the chord is V's tangent.
                    ysq = Y * Y % p
                    m = (3 * (X * X) + zsq * zsq) % p
                    nz = 2 * Y * Z % p
                    nums.append((m * zsq, m * X - 2 * ysq))
                    dens.append(nz * zsq % p)
                    lines += 1
                    s = 4 * X * ysq % p
                    nx = (m * m - 2 * s) % p
                    Y = (m * (s - nx) - 8 * (ysq * ysq)) % p
                    X, Z = nx, nz
            else:
                hh = (u2 - X) % p
                rr = (s2 - Y) % p
                hz = hh * Z % p
                nums.append((rr, rr * xp_ - yd * hz))
                dens.append(hz)
                lines += 1
                hsq = hh * hh % p
                hcu = hsq * hh % p
                nx = (rr * rr - hcu - 2 * X * hsq) % p
                Y = (rr * (X * hsq - nx) - Y * hcu) % p
                X, Z = nx, hz
        counts.append(lines)
    invs = batch_inverse(dens, p)
    steps: List[List[Tuple[int, int]]] = []
    k = 0
    for lines in counts:
        row: List[Tuple[int, int]] = []
        for _ in range(lines):
            slope_num, c0_num = nums[k]
            inv = invs[k]
            row.append((-slope_num * inv % p, c0_num * inv % p))
            k += 1
        steps.append(row)
    return steps


def miller_eval(steps: Sequence[Sequence[Tuple[int, int]]],
                point_q: Point, p: int) -> Tuple[int, int]:
    """Evaluate stored lines at ``phi(Q)``; raw ``(a, b)`` Miller value.

    Unwrapped integers rather than :class:`Fp2`: batch callers combine
    several raw values before one shared final exponentiation.
    """
    x_phi = (-point_q.x) % p
    yq = point_q.y
    yq2 = yq * yq % p
    f_a, f_b = 1, 0
    for lines in steps:
        f_a, f_b = ((f_a + f_b) * (f_a - f_b) % p, 2 * f_a * f_b % p)
        if len(lines) == 1:
            c1, c0 = lines[0]
            l_a = (c0 + c1 * x_phi) % p
            # Karatsuba: (f_a + f_b*i)(l_a + yq*i) in 3 multiplications.
            t1 = f_a * l_a
            t2 = f_b * yq
            f_a, f_b = ((t1 - t2) % p,
                        ((f_a + f_b) * (l_a + yq) - t1 - t2) % p)
        elif lines:
            # Two lines in one step: merge them first (the product of
            # the two degree-1 values costs 2 multiplications with
            # yq^2 cached), then one general Karatsuba into f -- one
            # multiplication fewer than folding them in sequentially,
            # and the residues are identical (associativity mod p).
            (c1a, c0a), (c1b, c0b) = lines
            la1 = (c0a + c1a * x_phi) % p
            la2 = (c0b + c1b * x_phi) % p
            m_a = (la1 * la2 - yq2) % p
            m_b = (la1 + la2) * yq % p
            t1 = f_a * m_a
            t2 = f_b * m_b
            f_a, f_b = ((t1 - t2) % p,
                        ((f_a + f_b) * (m_a + m_b) - t1 - t2) % p)
    return f_a, f_b


def miller_eval_pair(steps1: Sequence[Sequence[Tuple[int, int]]],
                     point_q1: Point,
                     steps2: Sequence[Sequence[Tuple[int, int]]],
                     point_q2: Point, p: int) -> Tuple[int, int]:
    """Raw product of two table evaluations sharing one accumulator.

    Computes ``miller_eval(steps1, q1) * miller_eval(steps2, q2)`` --
    the exact same F_p2 residue, by commutativity -- but the two Miller
    accumulators ride one shared square-and-multiply chain, so each
    iteration pays one F_p2 squaring instead of two.  A point at
    infinity contributes 1 (``e(P, O) = 1``).  Tables of unequal length
    (a table point of small order degenerates early) are evaluated
    apart.
    """
    if point_q1.is_infinity():
        return (1, 0) if point_q2.is_infinity() else miller_eval(
            steps2, point_q2, p)
    if point_q2.is_infinity():
        return miller_eval(steps1, point_q1, p)
    if len(steps1) != len(steps2):
        f1 = miller_eval(steps1, point_q1, p)
        f2 = miller_eval(steps2, point_q2, p)
        return ((f1[0] * f2[0] - f1[1] * f2[1]) % p,
                (f1[0] * f2[1] + f1[1] * f2[0]) % p)
    x1 = (-point_q1.x) % p
    y1 = point_q1.y
    x2 = (-point_q2.x) % p
    y2 = point_q2.y
    y1y2 = y1 * y2 % p
    f_a, f_b = 1, 0
    for lines1, lines2 in zip(steps1, steps2):
        f_a, f_b = ((f_a + f_b) * (f_a - f_b) % p, 2 * f_a * f_b % p)
        if len(lines1) == 1 and len(lines2) == 1:
            c1, c0 = lines1[0]
            la1 = (c0 + c1 * x1) % p
            c1, c0 = lines2[0]
            la2 = (c0 + c1 * x2) % p
            # (la1 + y1*i) * (la2 + y2*i) with y1*y2 cached: 3 mults.
            m_a = (la1 * la2 - y1y2) % p
            m_b = (la1 * y2 + la2 * y1) % p
            t1 = f_a * m_a
            t2 = f_b * m_b
            f_a, f_b = ((t1 - t2) % p,
                        ((f_a + f_b) * (m_a + m_b) - t1 - t2) % p)
            continue
        for c1, c0 in lines1:
            l_a = (c0 + c1 * x1) % p
            t1 = f_a * l_a
            t2 = f_b * y1
            f_a, f_b = ((t1 - t2) % p,
                        ((f_a + f_b) * (l_a + y1) - t1 - t2) % p)
        for c1, c0 in lines2:
            l_a = (c0 + c1 * x2) % p
            t1 = f_a * l_a
            t2 = f_b * y2
            f_a, f_b = ((t1 - t2) % p,
                        ((f_a + f_b) * (l_a + y2) - t1 - t2) % p)
    return f_a, f_b


def final_exponentiation(curve: Curve, value: Fp2) -> Fp2:
    """Raise a Miller value to ``(p^2 - 1) / r``: the one value of
    :func:`final_exponentiation_each`.

    Identical to the direct ``value ** ((p*p - 1) // r)``, several
    times faster."""
    return final_exponentiation_each([(value.a, value.b)], curve)[0]


def final_exponentiation_each(raws: Sequence[Tuple[int, int]],
                              curve: Curve) -> List[Fp2]:
    """:func:`final_exponentiation` of each raw Miller value, with one
    batched easy part.

    The exponent factors as ``(p - 1) * h`` (the parameters guarantee
    ``p + 1 = h * r``).  The easy part ``v^(p-1) = conj(v) / v =
    conj(v)^2 / norm(v)`` needs one field inversion per value, of the
    norm alone, so a Montgomery batch inversion shares a single
    ``pow(_, -1, p)`` across all of them (field inverses are unique, so
    each result is exactly the single-value one).  Its result is
    unitary (norm 1), so the hard part is :func:`unitary_pow_h`.
    """
    p = curve.p
    inverses = batch_inverse([fp2_norm(a, b, p) for a, b in raws], p)
    out = []
    for (a, b), inverse in zip(raws, inverses):
        out.append(Fp2(*unitary_pow_h((a * a - b * b) * inverse % p,
                                      (-2 * a * b) * inverse % p, curve),
                       p))
    return out


# ---------------------------------------------------------------------------
# Unit-circle arithmetic for revocation tags
# ---------------------------------------------------------------------------


def unitary_pow_h(a: int, b: int, curve: Curve) -> Tuple[int, int]:
    """Raise a norm-1 element to the cofactor ``h`` (plain square chain).

    ``h = (p + 1) / r`` has Hamming weight at most 6 on the shipped
    presets (6 at SS512, 3 at TEST), so MSB-first square-and-multiply is
    within a few multiplications of optimal and needs no recoding or
    table.
    """
    p = curve.p
    ra, rb = a, b
    for bit in _bits_after_msb(curve.h):
        ra, rb = ((2 * (ra * ra) - 1) % p, 2 * ra * rb % p)
        if bit == "1":
            ra, rb = ((ra * a - rb * b) % p, (ra * b + rb * a) % p)
    return ra, rb


#: Split ``h = 2^s + t`` (with ``t = h - 2^s < 2^s``) when the
#: real-part tag test below is provably exact for the curve, cached per
#: ``(p, h)``.  ``None`` means "use the full complex chain".
_H_SPLIT_CACHE: Dict[Tuple[int, int], Optional[Tuple[int, str]]] = {}


def _h_split(curve: Curve) -> Optional[Tuple[int, str]]:
    key = (curve.p, curve.h)
    try:
        return _H_SPLIT_CACHE[key]
    except KeyError:
        pass
    import math

    h = curve.h
    s = h.bit_length() - 1
    t = h - (1 << s)
    d = (1 << s) - t  # d > 0 because h < 2^(s+1)
    split: Optional[Tuple[int, str]] = None
    # The real-part test accepts z iff z^h == 1 OR z^d == 1.  Any z in
    # the unitary group (order p + 1) with z^d == 1 has order dividing
    # g = gcd(d, p + 1); when g | h that z also satisfies z^h == 1, so
    # the extra acceptance branch is vacuous and the test is exact.
    if h % math.gcd(d, curve.p + 1) == 0:
        split = (s, bin(t)[3:] if t else "")
    _H_SPLIT_CACHE[key] = split
    return split


def unitary_tag_is_one(z_a: int, z_b: int, curve: Curve) -> bool:
    """Decide ``z^h == 1`` for a norm-1 ``z`` -- the revocation tag test.

    Splitting ``h = 2^s + t`` turns the test into ``z^(2^s) ==
    z^(-t)``, i.e. ``Re(z^(2^s)) == Re(z^t)`` (conjugation inverts a
    unitary element and preserves the real part).  The real part of a
    unitary square needs no imaginary track -- ``Re(z^2) = 2*Re(z)^2 -
    1`` (the Chebyshev recursion, using ``norm(z) == 1``) -- so the
    ``s`` squarings cost one modular squaring each instead of the two
    multiplications of the complex chain, almost halving the dominant
    cost.  Comparing real parts also accepts ``z^(2^s) == z^t``, i.e.
    ``z^d == 1`` for ``d = 2^s - t``; :func:`_h_split` enables the
    shortcut only when every such ``z`` already satisfies ``z^h == 1``
    (``h % gcd(d, p+1) == 0``), so the verdict is exactly ``z^h == 1``
    -- on curves where that fails, the full complex chain runs instead.
    """
    split = _h_split(curve)
    if split is None:  # pragma: no cover - not hit by shipped presets
        ra, rb = unitary_pow_h(z_a, z_b, curve)
        return ra == 1 and rb == 0
    s, tail = split
    p = curve.p
    if tail or curve.h & ((1 << s) - 1):
        # a = z^t by MSB-first square-and-multiply on the unit circle.
        aa, ab = z_a, z_b
        for bit in tail:
            aa, ab = ((2 * (aa * aa) - 1) % p, 2 * aa * ab % p)
            if bit == "1":
                aa, ab = ((aa * z_a - ab * z_b) % p,
                          (aa * z_b + ab * z_a) % p)
        a_re = aa
    else:  # t == 0: z^t == 1
        a_re = 1
    c = z_a
    for _ in range(s):
        c = (2 * (c * c) - 1) % p
    return c == a_re


def fp2_norm(a: int, b: int, p: int) -> int:
    """The field norm ``a^2 + b^2 mod p`` of a raw pair."""
    return (a * a + b * b) % p


def mul_conj(m_a: int, m_b: int, t_a: int, t_b: int, p: int
             ) -> Tuple[int, int]:
    """Return the raw product ``m * conj(t)``."""
    return ((m_a * t_a + m_b * t_b) % p, (m_b * t_a - m_a * t_b) % p)


# ---------------------------------------------------------------------------
# Fixed-base exponentiation in GT
# ---------------------------------------------------------------------------


class GTFixedBase:
    """Signed-window fixed-base powers of one unitary GT element.

    Built once per engine for the cached base pairing ``e(g1, g2)``, and
    once per period for ``e(v, g2)`` and ``e(v, w)``; ``pow(k)`` then
    costs ~``bits/width`` unitary multiplications and no squarings
    (negative digits conjugate the stored entry for free).  Identical
    output to ``value ** (k % order)``.
    """

    __slots__ = ("p", "order", "width", "_blocks")

    def __init__(self, value: Fp2, order: int, width: int = 4) -> None:
        p = value.p
        self.p = p
        self.order = order
        self.width = width
        blocks = (order.bit_length() + width - 1) // width + 1
        half = 1 << (width - 1)
        self._blocks: List[List[Tuple[int, int]]] = []
        ba, bb = value.a, value.b
        for _ in range(blocks):
            row = [(ba, bb)]
            for _ in range(half - 1):
                ra, rb = row[-1]
                row.append(((ra * ba - rb * bb) % p,
                            (ra * bb + rb * ba) % p))
            self._blocks.append(row)
            for _ in range(width):
                ba, bb = ((ba + bb) * (ba - bb) % p, 2 * ba * bb % p)

    def pow(self, exponent: int) -> Fp2:
        from repro.mathx import signed_window_digits
        p = self.p
        exponent %= self.order
        if exponent == 0:
            return Fp2.one(p)
        ra, rb = 1, 0
        for j, digit in enumerate(signed_window_digits(exponent,
                                                       self.width)):
            if digit == 0:
                continue
            if digit > 0:
                ga, gb = self._blocks[j][digit - 1]
            else:
                ga, gb = self._blocks[j][-digit - 1]
                gb = -gb % p
            ra, rb = ((ra * ga - rb * gb) % p, (ra * gb + rb * ga) % p)
        return Fp2(ra, rb, p)
