"""The batch verification core: the fast kernels behind every verify.

:func:`repro.core.groupsig.classify` -- the one classifier that
``groupsig.verify``, ``groupsig.verify_batch`` and the verifier pool's
workers call -- runs every item through :func:`classify_fast`, and
through nothing else.  The contract is strict bit-identity with the
paper's algorithm (the tests' oracle in ``tests/oracles.py``): the same
accept/reject outcome, the same error messages, the same
``token_index`` on revocation hits, and the same :mod:`repro.instrument`
operation counts -- only the wall-clock changes.
``tests/test_batch_core.py`` pins all four across randomized chaos
batches and ``tests/test_verify_differential.py`` on adversarial input,
where it also checks the kernel is total: no decodable signature makes
it raise.

How the speed is found (pairing kernels in :mod:`repro.pairing.fastpath`;
H0 and the SPK's multi-exps on the one scalar-multiplication kernel of
:mod:`repro.mathx.jacobian`, the SPK building each base's odd-multiple
table once for its two multi-exps -- in period mode only T1 is
laddered, its ladder also serving T1's subgroup check, each multiple
then doubling a quarter as often):

* **Fused Miller + subgroup pass.**  The paper's path pays two
  scalar multiplications by ``r`` for the small-subgroup check and then
  two more Miller loops for the revocation-tag legs ``e(T2, u_hat)``
  and ``e(T1, v_hat)``.  ``fused_miller_subgroup`` computes each leg's
  Miller value (inversion-free, scaled lines) *and* the exact subgroup
  verdict for T1/T2 in a single double-and-add chain -- the mul-by-r is
  the Miller chain.

* **Period-mode R2 on T2's chain.**  With per-period generators, u
  and v are fixed, so by bilinearity (``g2`` is ``g1``'s point in
  this Type-1 group)

      R2 = e(T2, g2)^s_x * e(v, w)^-s_alpha * e(v, g2)^-s_delta
           * (e(T2, w) / e(g1, g2))^c
         = e(T2, X) * e(v, g2)^-s_delta * e(v, w)^-s_alpha
           * e(g1, g2)^-c,    X = g2^s_x * w^c.

  X comes off the engine's fixed-base tables of ``g1`` and ``w``,
  e(T2, X) is the fused pass above (so it is also T2's exact subgroup
  check, before any note), and the two v factors are powers in the
  period's GT tables.  T2 needs no ladder, no multi-exp and no table
  pairing; at ``X = O`` (``s_x = -gamma*c``) e(T2, X) = 1 and T2 takes
  the plain subgroup check.

* **Deferred final exponentiations.**  Raw Miller values are carried
  as integer pairs; the SPK's ``R2`` pays one final exponentiation
  (for its two table evaluations in flat mode, for e(T2, X) in period
  mode), and the Eq.3 scan pays *none*: ``FE(m) == FE(t)`` is decided
  on the unit circle via ``z^h == 1`` with the norm inversions batched
  across tokens (Montgomery's trick).

* **Fixed-argument tables.**  ``e(A_k, u_hat)`` evaluates through a
  per-token line table (the pairing is symmetric, ``A_k`` is the fixed
  argument) cached on the engine per token -- in period mode through the
  period's NAF steps of ``u_hat`` -- and ``e(g1, g2)^-c`` goes through
  a signed-window GT table -- all amortized over the gpk's or the
  period's lifetime like every other engine table.

Operation accounting is decoupled from evaluation: the fast path notes
each abstract operation at the milestone where the reference performs
it (nothing before the subgroup check passes, pairings in the scan only
up to the short-circuit hit), so shared tails and speculative token
evaluations are wall-clock-only -- the convention documented in
DESIGN.md.

This module takes the gpk and signature by duck type and imports
nothing from :mod:`repro.core.groupsig`.  It has no fallback: should a
kernel raise all the same, the classifier fails the item closed as an
:class:`InvalidSignature` and counts ``batch_core.fallback_total``.
"""

from __future__ import annotations

from typing import Optional

from repro import instrument, obs
from repro.errors import InvalidSignature, RevokedKeyError
from repro.pairing import fastpath, hashing
from repro.mathx import batch_inverse
from repro.pairing.fastpath import final_exponentiation
from repro.pairing.fields import Fp2
from repro.pairing.group import G1Element, GTElement, _join


def classify_fast(gpk, message: bytes, signature, url, period,
                  check_revocation: bool) -> Optional[Exception]:
    """Classify one item on the fast kernels; milestone-exact accounting.

    Returns ``None`` / :class:`InvalidSignature` /
    :class:`RevokedKeyError` exactly as the paper's algorithm would, and
    raises on no decodable input.
    """
    group = gpk.group
    curve = group.curve
    order = group.order
    p = curve.p
    engine = gpk.engine
    scan = bool(check_revocation and url)

    # Milestone 1: structural + subgroup rejection, zero notes (the
    # reference rejects these before deriving any generators).  When a
    # per-signature scan lies ahead, the subgroup check rides the fused
    # Miller pass below; otherwise the plain exact check is cheaper.  In
    # period mode T1 has three multiples (the check, R1 and R3), so one
    # ladder serves all three, and T2's check rides R2's one pairing
    # e(T2, X), X = g2^s_x * w^c (no counted operation either).
    t1, t2 = signature.t1, signature.t2
    if t1.is_identity() or t2.is_identity():
        return InvalidSignature("degenerate T1/T2")
    c = signature.c
    fused = scan and period is None
    if period is None:
        check = curve.is_on_curve if fused else curve.in_subgroup
        in_subgroup = check(t1.point) and check(t2.point)
    else:
        t1_base = curve.ladder(t1.point)
        in_subgroup = (curve.ladder_in_subgroup(t1.point, t1_base)
                       and curve.is_on_curve(t2.point))
        if in_subgroup:
            x_pt = engine.g2_w_mul(signature.s_x, c)
            if x_pt.is_infinity():
                # e(T2, O) = 1: no Miller chain to ride.
                in_subgroup = curve.in_subgroup(t2.point)
                t2x_a, t2x_b = 1, 0
            else:
                in_subgroup, t2x_a, t2x_b = fastpath.fused_miller_subgroup(
                    curve, t2.point, x_pt)
    if not in_subgroup:
        return InvalidSignature("T1/T2 outside the prime-order subgroup")

    if period is None:
        # Per-signature generators: derive silently (uninstrumented
        # hashing), fuse the subgroup checks with the revocation-tag
        # Miller legs, and note the derivation only once the item
        # survives -- exactly the reference's note milestones.
        data = _join((gpk.encode(), message, group.encode_scalar(
            signature.r)))
        u_pt, v_pt = hashing.hash_h0(curve, data)
        if fused:
            ok2, t2u_a, t2u_b = fastpath.fused_miller_subgroup(
                curve, t2.point, u_pt)
            ok1, t1v_a, t1v_b = fastpath.fused_miller_subgroup(
                curve, t1.point, v_pt)
            if not (ok1 and ok2):
                return InvalidSignature(
                    "T1/T2 outside the prime-order subgroup")
        instrument.note("hash_to_group", 2)
        instrument.note("psi", 2)
        u = G1Element(u_pt, group)
        v = G1Element(v_pt, group)
    else:
        # Period mode: generators are item-independent and already
        # tabulated (NAF steps, ladders, GT tables) by the engine's LRU
        # (which notes the derivation / replays it on a hit), so two
        # step evaluations (only when a scan needs them) give the
        # revocation-tag legs.
        context = engine.generators(period)
        u_base = context.u_ladder
        if scan:
            t2u_a, t2u_b = fastpath.miller_eval(context.u_steps, t2.point, p)
            t1v_a, t1v_b = fastpath.miller_eval(context.v_steps, t1.point, p)

    # Milestone 2: the SPK challenge (Eq.2) -- 4 exps + 3 pairings +
    # 1 GT exp, like the reference.
    with obs.span("groupsig.spk"):
        s_alpha, s_x, s_delta = (signature.s_alpha, signature.s_x,
                                 signature.s_delta)
        # The SPK multi-exps share two base pairs, {u, T1} and {T2, v},
        # so each base's table is built once: one-rung odd-multiple
        # tables in flat mode (each pair already shares one chain), the
        # ladders of u and T1 in period mode.  Each multi-exp is one
        # exponentiation of the abstract cost model, noted once, and so
        # are the two R2 multi-exps period mode folds into its pairing.
        if period is None:
            u_base, t1_base, t2_base, v_base = (
                curve.odd_multiples(base.point) for base in (u, t1, t2, v))
        instrument.note("exp")
        r1 = G1Element(curve.multi_mul([(u_base, s_alpha),
                                        (t1_base, -c)]), group)
        # R2 = e(left, g2) * e(right, w) * e(g1, g2)^-c, left = T2^s_x *
        # v^-s_delta, right = v^-s_alpha * T2^c: 2 exps, 3 pairings and 1
        # GT exp of the cost model; the last factor goes through the
        # fixed-base GT table.
        engine.base_pairing()
        instrument.note("exp_gt")
        instrument.note("exp", 2)
        if period is None:
            # Two NAF table evaluations on one Miller chain and one
            # final exponentiation (noting the 2 pairings).
            left = G1Element(curve.multi_mul([(t2_base, s_x),
                                              (v_base, -s_delta)]), group)
            right = G1Element(curve.multi_mul([(t2_base, c),
                                               (v_base, -s_alpha)]), group)
            r2 = engine.pair_g2_w(left, right)
        else:
            # By bilinearity R2 = e(T2, X) * e(v, g2)^-s_delta *
            # e(v, w)^-s_alpha * e(g1, g2)^-c: milestone 1's Miller
            # value and the period's GT tables.
            instrument.note("pairing", 2)
            r2 = (final_exponentiation(curve, Fp2(t2x_a, t2x_b, p))
                  * context.v_g2_gt.pow(-s_delta)
                  * context.v_w_gt.pow(-s_alpha))
        r2 = GTElement(r2 * engine.gt_table.pow(-c % order), group)
        instrument.note("exp")
        r3 = G1Element(curve.multi_mul([(u_base, -s_delta),
                                        (t1_base, s_x)]), group)
        expected = gpk.challenge(message, signature.r, t1, t2, r1, r2, r3)
    if expected != c:
        return InvalidSignature("challenge mismatch (Eq.2 failed)")

    # Milestone 3: the Eq.3 revocation scan.  Token Miller values come
    # from per-token line tables; FE(e(A_k, u_hat)) == tau is decided as
    # z^h == 1 on the unit circle with the norm inversions batched.
    # The speculative evaluation of every token is wall-clock-only:
    # pairings are noted in scan order up to the short-circuit hit,
    # exactly like the reference scan.
    if not scan:
        return None
    hit: Optional[int] = None
    with obs.span("groupsig.scan"):
        if period is None:
            steps_list = engine.token_steps(url)
            token_raws = [
                fastpath.miller_eval(steps, u_pt, p) if steps else (1, 0)
                for steps in steps_list
            ]
        else:
            token_raws = [
                (1, 0) if token.a.point.is_infinity()
                else fastpath.miller_eval(context.u_steps, token.a.point, p)
                for token in url
            ]
        # Test FE(m_k * t1v) == FE(t2u): w_k = (m_k * t1v) * conj(t2u)
        # = m_k * T for T = t1v * conj(t2u) (associativity -- T costs
        # one product per item instead of two per token), then
        # z = w^(p-1) = conj(w)^2 / norm(w), match iff z^h == 1.
        big_t_a, big_t_b = fastpath.mul_conj(t1v_a, t1v_b, t2u_a, t2u_b, p)
        sum_t = big_t_a + big_t_b
        ws = []
        for m_a, m_b in token_raws:
            f1 = m_a * big_t_a
            f2 = m_b * big_t_b
            ws.append(((f1 - f2) % p,
                       ((m_a + m_b) * sum_t - f1 - f2) % p))
        ninvs = batch_inverse([fastpath.fp2_norm(w_a, w_b, p)
                               for w_a, w_b in ws], p)
        for k, (w_a, w_b) in enumerate(ws):
            instrument.note("pairing", 2)
            z_a = (w_a * w_a - w_b * w_b) % p * ninvs[k] % p
            z_b = (-2 * w_a * w_b) % p * ninvs[k] % p
            if fastpath.unitary_tag_is_one(z_a, z_b, curve):
                hit = k
                break
    obs.counter("groupsig.scan_tokens_total",
                len(url) if hit is None else hit + 1)
    if hit is not None:
        return RevokedKeyError.for_token(hit)
    return None
