"""The test oracles: the paper's verifier, the generic pairing and the
table builders' references.

:func:`reference_classify` is Section IV step 3.2 on generic pairings:
the Eq.2 SPK, then the linear Eq.3 scan.  Production runs the batch
core's kernels (:func:`repro.core.batch_core.classify_fast`) through
:func:`repro.core.groupsig.classify`; the differential suite, the
bit-identity tests and the benches hold every entry point and the
period tag index to this function on outcome class, message,
``token_index`` and op counts.  ``scripts/lint.sh`` keeps it out of
``src/repro``.

:func:`tate_pairing` is the generic pairing: the binary affine Miller
loop (:func:`miller_loop`, one field inversion per step) and the final
exponentiation.  It shares no Miller code with
:mod:`repro.pairing.fastpath`, whose NAF line tables every pairing of
``src/repro`` runs on (:meth:`~repro.pairing.group.PairingGroup.pair`
included), so it is the reference those kernels are held to.
:func:`generic_pair` is it on group elements, noting one pairing as
``PairingGroup.pair`` does, and :func:`multi_exp` the product of powers
the paper prices as one exponentiation; :func:`reference_classify`
computes with these alone (its Eq.3 is :func:`token_encoded`).

:func:`two_inversion_naf_steps` and :func:`jadd_fixed_base_blocks` are
the straightforward builds of the engine's two precomputed tables: the
NAF Miller lines of a fixed point by a Jacobian chain, an affine pass
and a second batched inversion for the slopes, and the fixed-base
window entries by general Jacobian additions.  The production builders
(:func:`repro.pairing.fastpath.naf_steps`, one batched inversion;
:class:`repro.mathx.jacobian.FixedBaseTable`, batched affine additions)
must give exactly their entries.  :func:`affine_add` and
:func:`affine_neg` are the ECDSA curves' affine chord-and-tangent law,
the reference of their Jacobian arithmetic.

:func:`signed_crl` and :func:`signed_url` are the operator's list
issuance with nothing remembered: every call builds the list from the
operator's current state and signs it.  Each list
:meth:`~repro.core.operator_entity.NetworkOperator.issue_crl` /
``issue_url`` publishes must equal theirs, byte for byte.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro import instrument
from repro.core.certs import CertificateRevocationList, UserRevocationList
from repro.core.groupsig import (
    GroupPublicKey,
    GroupSignature,
    RevocationToken,
    derive_generators,
)
from repro.core.operator_entity import NetworkOperator
from repro.errors import InvalidSignature, ParameterError, RevokedKeyError
from repro.mathx import batch_inverse
from repro.mathx.jacobian import (
    FIXED_WINDOW,
    Affine,
    Jacobian,
    _normalise,
    jadd,
    jdouble,
)
from repro.pairing.curve import Curve, Point
from repro.pairing.fastpath import _naf_after_msd, final_exponentiation
from repro.pairing.fields import Fp2
from repro.pairing.group import GTElement, PairingGroup
from repro.sig.curves import AffinePoint, WeierstrassCurve


def reference_classify(gpk: GroupPublicKey, message: bytes,
                       signature: GroupSignature,
                       url: Sequence[RevocationToken] = (),
                       period: Optional[bytes] = None,
                       check_revocation: bool = True
                       ) -> Optional[Exception]:
    """The paper's verification algorithm on generic pairings.

    Structural and subgroup rejection (no counted operation), the Eq.1
    generators, the SPK challenge of Eq.2 (6 exps + 3 pairings + 1 GT
    exp) and the linear Eq.3 scan (2 pairings per token examined, the
    first match wins) -- no engine state, no fast kernel: every product
    of powers is :func:`multi_exp` and every pairing
    :func:`generic_pair`.
    :func:`repro.core.groupsig.classify` must agree with it on outcome,
    message, ``token_index`` and op counts for every input.
    """
    group = gpk.group
    curve = group.curve
    order = group.order
    t1, t2, c = signature.t1, signature.t2, signature.c
    if t1.is_identity() or t2.is_identity():
        return InvalidSignature("degenerate T1/T2")
    # Small-subgroup hardening: decoded points satisfy the curve
    # equation, but the curve's cofactor is large; T1/T2 must lie in
    # the prime-order subgroup or the SPK algebra is off-group.
    if not (curve.in_subgroup(t1.point) and curve.in_subgroup(t2.point)):
        return InvalidSignature("T1/T2 outside the prime-order subgroup")
    u_hat, v_hat, u, v = derive_generators(gpk, message, signature.r,
                                           period)
    r1 = multi_exp(group, [(u, signature.s_alpha), (t1, -c % order)])
    # R2 = e(T2^s_x * v^-s_delta, g2) * e(v^-s_alpha * T2^c, w)
    #      * e(g1, g2)^-c
    left = multi_exp(group, [(t2, signature.s_x),
                             (v, -signature.s_delta % order)])
    right = multi_exp(group, [(v, -signature.s_alpha % order), (t2, c)])
    r2 = (generic_pair(group, left, gpk.g2)
          * generic_pair(group, right, gpk.w)
          * generic_pair(group, gpk.g1, gpk.g2) ** (-c % order))
    r3 = multi_exp(group, [(t1, signature.s_x),
                           (u, -signature.s_delta % order)])
    if gpk.challenge(message, signature.r, t1, t2, r1, r2, r3) != c:
        return InvalidSignature("challenge mismatch (Eq.2 failed)")
    if check_revocation:
        for token_index, token in enumerate(url):
            if token_encoded(group, signature, token, u_hat, v_hat):
                return RevokedKeyError.for_token(token_index)
    return None


def token_encoded(group: PairingGroup, signature: GroupSignature,
                  token: RevocationToken, u_hat, v_hat) -> bool:
    """Eq.3 on generic pairings: ``e(T2 / A, u_hat) == e(T1, v_hat)``
    (2 pairings noted)."""
    return (generic_pair(group, signature.t2 / token.a, u_hat)
            == generic_pair(group, signature.t1, v_hat))


def multi_exp(group: PairingGroup, terms):
    """``prod(base_i ** k_i)`` over ``(base, k)`` terms of one group,
    noted as ONE exponentiation (the paper, after Boneh-Shacham, prices
    a product of powers as one multi-exponentiation)."""
    if not terms:
        raise ParameterError("multi_exp of no terms")
    instrument.note("exp")
    kind = type(terms[0][0])
    pairs = []
    for base, exponent in terms:
        if type(base) is not kind:
            raise ParameterError("multi_exp across G1/G2")
        pairs.append((base.point, exponent))
    return kind(group.curve.multi_mul(pairs), group)


def generic_pair(group: PairingGroup, lhs, rhs) -> GTElement:
    """``e(lhs, rhs)`` by :func:`tate_pairing`, noting one pairing as
    :meth:`~repro.pairing.group.PairingGroup.pair` does."""
    instrument.note("pairing")
    return GTElement(tate_pairing(group.curve, lhs.point, rhs.point), group)


def miller_loop(curve: Curve, point_p: Point, point_q: Point) -> Fp2:
    """Evaluate ``f_{r,P}`` at ``phi(Q)`` (numerator lines only).

    The binary affine Miller loop over the bits of ``r``, one field
    inversion per step.  Denominator elimination: vertical-line
    evaluations at ``phi(Q) = (-x_Q, i*y_Q)`` depend only on ``-x_Q``,
    which lies in F_p, and every F_p* value is annihilated by the
    ``(p - 1)`` factor of the final exponent, so only line numerators
    are evaluated.  Works on raw integer pairs ``(a, b)`` for
    ``a + b*i``.  Both inputs must be non-infinity points of the
    order-``r`` subgroup; the caller (``tate_pairing``) enforces this.
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
    """Return the modified Tate pairing ``e(P, Q)`` as an Fp2 element:
    ``f_{r,P}(phi(Q)) ^ ((p^2 - 1) / r)`` with the distortion map
    ``phi(x, y) = (-x, i*y)``.

    Degenerate inputs (either point at infinity) pair to 1, matching the
    bilinear-map convention ``e(O, Q) = e(P, O) = 1``.
    """
    if point_p.p != curve.p or point_q.p != curve.p:
        raise ParameterError("points from a different field")
    if point_p.is_infinity() or point_q.is_infinity():
        return Fp2.one(curve.p)
    raw = miller_loop(curve, point_p, point_q)
    return final_exponentiation(curve, raw)


def affine_add(curve: WeierstrassCurve, lhs: AffinePoint,
               rhs: AffinePoint) -> AffinePoint:
    """``lhs + rhs`` on an ECDSA curve by the affine chord-and-tangent
    law (``None`` is the point at infinity)."""
    if lhs is None:
        return rhs
    if rhs is None:
        return lhs
    p = curve.p
    x1, y1 = lhs
    x2, y2 = rhs
    if x1 == x2:
        if (y1 + y2) % p == 0:
            return None
        slope = (3 * x1 * x1 + curve.a) * pow(2 * y1, -1, p) % p
    else:
        slope = (y2 - y1) * pow(x2 - x1, -1, p) % p
    x3 = (slope * slope - x1 - x2) % p
    return (x3, (slope * (x1 - x3) - y1) % p)


def affine_neg(curve: WeierstrassCurve, point: AffinePoint) -> AffinePoint:
    """``-point`` on an ECDSA curve."""
    if point is None:
        return None
    return (point[0], (-point[1]) % curve.p)


def two_inversion_naf_steps(curve: Curve, point: Point
                            ) -> List[List[Tuple[int, int]]]:
    """The NAF Miller lines of ``point`` in three passes.

    A Jacobian chain records each line's point (the running point, and
    for an add step the digit's ``+-P``), one batched inversion takes
    those points to affine, and a second one inverts the affine slope
    denominators (``2*y`` for a tangent, ``x_P - x`` for a chord).
    """
    if point.is_infinity():
        return []
    p = curve.p
    xp_, yp_ = point.x, point.y
    yp_neg = (-yp_) % p
    X, Y, Z = xp_, yp_, 1
    at_inf = False
    events: List[List[Tuple[str, int, int, int, int]]] = []
    for digit in _naf_after_msd(curve.r):
        evs: List[Tuple[str, int, int, int, int]] = []
        if not at_inf:
            if Y == 0:
                at_inf = True
            else:
                evs.append(("d", X, Y, Z, 0))
                X, Y, Z = jdouble(X, Y, Z, curve.a, p)
        if digit and not at_inf:
            yd = yp_ if digit > 0 else yp_neg
            zsq = Z * Z % p
            u2 = xp_ * zsq % p
            s2 = yd * zsq % p * Z % p
            if X == u2 and (Y + s2) % p == 0:
                at_inf = True
            else:
                evs.append(("a", X, Y, Z, yd))
                X, Y, Z = jadd(X, Y, Z, xp_, yd, 1, curve.a, p)
        events.append(evs)
    zinvs = batch_inverse([ev[3] for evs in events for ev in evs], p)
    flat: List[Tuple[str, int, int, int]] = []
    k = 0
    for evs in events:
        for kind, ex, ey, _ez, yd in evs:
            zi = zinvs[k]
            k += 1
            zi2 = zi * zi % p
            flat.append((kind, ex * zi2 % p, ey * zi2 % p * zi % p, yd))
    dens = [2 * yv % p if kind == "d" or xv == xp_ else (xp_ - xv) % p
            for kind, xv, yv, _yd in flat]
    dinvs = batch_inverse(dens, p)
    steps: List[List[Tuple[int, int]]] = []
    k = 0
    for evs in events:
        lines: List[Tuple[int, int]] = []
        for _ in evs:
            kind, xv, yv, yd = flat[k]
            if kind == "d" or xv == xp_:
                slope = (3 * (xv * xv) + 1) * dinvs[k] % p
            else:
                slope = (yd - yv) * dinvs[k] % p
            lines.append((-slope % p, (slope * xv - yv) % p))
            k += 1
        steps.append(lines)
    return steps


def jadd_fixed_base_blocks(point: Affine, order: int, a: int, p: int
                           ) -> List[List[Affine]]:
    """The fixed-base window entries ``d * 2^(6*j) * P`` (``d`` in
    ``1 .. 32``, one list per window ``j``) by general Jacobian
    additions and doublings, normalised with one batched inversion;
    ``None`` marks an entry at infinity."""
    if point is None:
        return []
    blocks = (order.bit_length() + FIXED_WINDOW - 1) // FIXED_WINDOW + 1
    half = 1 << (FIXED_WINDOW - 1)
    base = (point[0], point[1], 1)
    entries: List[Jacobian] = []
    for _ in range(blocks):
        entry = base
        entries.append(entry)
        for _ in range(half - 1):
            entry = jadd(*entry, *base, a, p)
            entries.append(entry)
        for _ in range(FIXED_WINDOW):
            base = jdouble(*base, a, p)
    flat = _normalise(entries, p)
    return [flat[i:i + half] for i in range(0, len(flat), half)]


def signed_crl(operator: NetworkOperator,
               now: float) -> CertificateRevocationList:
    """The CRL ``operator`` stands for at ``now``, freshly signed."""
    crl = CertificateRevocationList(
        version=operator.list_versions()[0], issued_at=now,
        update_period=operator.crl_update_period,
        revoked_router_ids=frozenset(operator._revoked_routers),
        signature=b"")
    return CertificateRevocationList(
        crl.version, crl.issued_at, crl.update_period,
        crl.revoked_router_ids,
        operator.signing_key.sign(crl.signed_payload()))


def signed_url(operator: NetworkOperator, now: float) -> UserRevocationList:
    """The URL ``operator`` stands for at ``now``, freshly signed."""
    url = UserRevocationList(
        version=operator.list_versions()[1], issued_at=now,
        update_period=operator.url_update_period,
        tokens=tuple(operator._revoked_tokens.values()), signature=b"")
    return url.signed(operator.signing_key.sign(url.signed_payload()))
