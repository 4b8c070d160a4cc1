"""The test oracles: the paper's verifier and the table builders' references.

:func:`reference_classify` is Section IV step 3.2 on generic pairings:
the Eq.2 SPK, then the linear Eq.3 scan.  Production runs the batch
core's kernels (:func:`repro.core.batch_core.classify_fast`) through
:func:`repro.core.groupsig.classify`; the differential suite, the
bit-identity tests and the benches hold every entry point and the
period tag index to this function on outcome class, message,
``token_index`` and op counts.  ``scripts/lint.sh`` keeps it out of
``src/repro``.

:func:`two_inversion_naf_steps` and :func:`jadd_fixed_base_blocks` are
the straightforward builds of the engine's two precomputed tables: the
NAF Miller lines of a fixed point by a Jacobian chain, an affine pass
and a second batched inversion for the slopes, and the fixed-base
window entries by general Jacobian additions.  The production builders
(:func:`repro.pairing.fastpath.naf_steps`, one batched inversion;
:class:`repro.mathx.jacobian.FixedBaseTable`, batched affine additions)
must give exactly their entries.

:func:`signed_crl` and :func:`signed_url` are the operator's list
issuance with nothing remembered: every call builds the list from the
operator's current state and signs it.  Each list
:meth:`~repro.core.operator_entity.NetworkOperator.issue_crl` /
``issue_url`` publishes must equal theirs, byte for byte.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.core.certs import CertificateRevocationList, UserRevocationList
from repro.core.groupsig import (
    GroupPublicKey,
    GroupSignature,
    RevocationToken,
    _token_encoded,
    derive_generators,
)
from repro.core.operator_entity import NetworkOperator
from repro.errors import InvalidSignature, RevokedKeyError
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
from repro.pairing.fastpath import _naf_after_msd


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
    first match wins) -- no engine state, no fast kernel.
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
    r1 = group.multi_exp([(u, signature.s_alpha), (t1, -c % order)])
    # R2 = e(T2^s_x * v^-s_delta, g2) * e(v^-s_alpha * T2^c, w)
    #      * e(g1, g2)^-c
    left = group.multi_exp([(t2, signature.s_x),
                            (v, -signature.s_delta % order)])
    right = group.multi_exp([(v, -signature.s_alpha % order), (t2, c)])
    r2 = (group.pair(left, gpk.g2) * group.pair(right, gpk.w)
          * group.pair(gpk.g1, gpk.g2) ** (-c % order))
    r3 = group.multi_exp([(t1, signature.s_x),
                          (u, -signature.s_delta % order)])
    if gpk.challenge(message, signature.r, t1, t2, r1, r2, r3) != c:
        return InvalidSignature("challenge mismatch (Eq.2 failed)")
    if check_revocation:
        for token_index, token in enumerate(url):
            if _token_encoded(group, signature, token, u_hat, v_hat):
                return RevokedKeyError.for_token(token_index)
    return None


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
