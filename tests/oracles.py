"""The paper's verifier, kept as the single test oracle for every verify path.

:func:`reference_classify` is Section IV step 3.2 on generic pairings:
the Eq.2 SPK, then the linear Eq.3 scan.  Production runs the batch
core's kernels (:func:`repro.core.batch_core.classify_fast`) through
:func:`repro.core.groupsig.classify`; the differential suite, the
bit-identity tests and the benches hold every entry point and the
period tag index to this function on outcome class, message,
``token_index`` and op counts.  ``scripts/lint.sh`` keeps it out of
``src/repro``.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.core.groupsig import (
    GroupPublicKey,
    GroupSignature,
    RevocationToken,
    _token_encoded,
    derive_generators,
)
from repro.errors import InvalidSignature, RevokedKeyError


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
