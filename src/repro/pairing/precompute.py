"""Fixed-argument precomputation: the substrate of the crypto engine.

PEACE's hot paths repeat the same two expensive shapes with one operand
held fixed:

* exponentiations of a fixed base (``g1`` during member-key issuance,
  the per-period generators), and
* pairings whose first argument is a fixed system parameter (``g2``,
  ``w``, the per-period ``u_hat`` / ``v_hat``) -- Section V.C's
  verification equation and the Eq.3 revocation scan.

This module provides the two corresponding tables:

:class:`FixedBaseTable`
    The shared signed-window table of :mod:`repro.mathx.jacobian` on
    the pairing curve: ~``r.bit_length() / 6`` mixed additions, no
    doublings.

:class:`PairingTable`
    The Miller loop of ``e(P, .)`` depends on ``P`` through the
    tangent/chord *line coefficients* only.  Storing them replaces all
    per-pairing point arithmetic (and its modular inversions) with two
    coefficient multiplications per loop iteration.  Because the Type-1
    pairing here is symmetric (``e(P, Q) == e(Q, P)``), a table built
    for ``u_hat`` also serves checks written as ``e(X, u_hat)`` -- the
    swap behind the engine-accelerated Eq.3 scan.

Neither table reports to :mod:`repro.instrument`: precomputation is an
implementation strategy, not an operation of the paper's abstract cost
model.  Callers that evaluate a table in lieu of a pairing or an
exponentiation are responsible for noting the abstract operation (see
``CryptoEngine.pair_g2_w``).  Every code path here is cross-checked
against the naive reference implementations by
``tests/test_pairing_precompute.py``.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.errors import ParameterError
from repro.mathx import jacobian
from repro.pairing.curve import Curve, Point
from repro.pairing.fields import Fp2
from repro.pairing.tate import final_exponentiation


class FixedBaseTable(jacobian.FixedBaseTable):
    """Signed-window precomputation for ``k * P`` with ``P`` fixed: the
    shared :class:`repro.mathx.jacobian.FixedBaseTable` on :class:`Point`."""

    __slots__ = ("curve", "point")

    def __init__(self, curve: Curve, point: Point) -> None:
        super().__init__(curve.to_affine(point), curve.r, curve.a, curve.p)
        self.curve = curve
        self.point = point

    def mul(self, scalar: int) -> Point:
        """Return ``(scalar mod r) * P``; bit-exact vs :meth:`Curve.mul`."""
        return self.curve.from_affine(super().mul(scalar))


class PairingTable:
    """Miller-loop line coefficients for a fixed first pairing argument.

    For each loop iteration the tangent/chord line through the running
    multiple of ``P``, evaluated at ``phi(Q)``, is the Fp2 element
    ``(c0 + c1 * x_phi) + y_Q * i`` -- the pair ``(c1, c0)`` depends
    only on ``P`` and is stored at build time.  Evaluation then needs no
    point arithmetic and no modular inversions, reproducing
    ``miller_loop(curve, P, Q)`` bit-for-bit before the shared final
    exponentiation.
    """

    __slots__ = ("curve", "point", "_steps")

    def __init__(self, curve: Curve, point: Point) -> None:
        self.curve = curve
        self.point = point
        # One entry per Miller iteration: the (c1, c0) line coefficients
        # contributed by the doubling and (on set bits) addition steps.
        self._steps: List[List[Tuple[int, int]]] = []
        if point.is_infinity():
            return
        p = curve.p
        xp_, yp_ = point.x, point.y
        xv, yv = xp_, yp_
        at_infinity = False
        for bit in bin(curve.r)[3:]:
            lines: List[Tuple[int, int]] = []
            if not at_infinity:
                if yv == 0:
                    at_infinity = True
                else:
                    slope = (3 * xv * xv + 1) * pow(2 * yv, -1, p) % p
                    lines.append((-slope % p, (slope * xv - yv) % p))
                    x3 = (slope * slope - 2 * xv) % p
                    y3 = (slope * (xv - x3) - yv) % p
                    xv, yv = x3, y3
            if bit == "1" and not at_infinity:
                if xv == xp_ and (yv + yp_) % p == 0:
                    at_infinity = True
                else:
                    if xv == xp_:
                        slope = (3 * xv * xv + 1) * pow(2 * yv, -1, p) % p
                    else:
                        slope = (yp_ - yv) * pow(xp_ - xv, -1, p) % p
                    lines.append((-slope % p, (slope * xv - yv) % p))
                    x3 = (slope * slope - xv - xp_) % p
                    y3 = (slope * (xv - x3) - yv) % p
                    xv, yv = x3, y3
            self._steps.append(lines)

    @classmethod
    def build_fast(cls, curve: Curve, point: Point) -> "PairingTable":
        """Build a table via two batched inversions instead of one per step.

        Delegates the chain walk to ``fastpath.table_steps``, which
        replays the exact affine double-and-add above in Jacobian
        coordinates and recovers bit-identical ``(c1, c0)`` line
        coefficients with two Montgomery batch inversions (one for the
        ``Z`` coordinates, one for the slope denominators).  The result
        is indistinguishable from ``PairingTable(curve, point)`` --
        ``tests/test_batch_core.py`` pins the step-for-step equality.
        """
        from repro.pairing import fastpath

        table = cls.__new__(cls)
        table.curve = curve
        table.point = point
        if point.is_infinity():
            table._steps = []
        else:
            table._steps = fastpath.table_steps(curve, point)
        return table

    def miller(self, point_q: Point) -> Fp2:
        """Evaluate the stored lines at ``phi(Q)`` (pre-final-exp value)."""
        curve = self.curve
        p = curve.p
        if point_q.p != p:
            raise ParameterError("point from a different field")
        if self.point.is_infinity() or point_q.is_infinity():
            return Fp2.one(p)
        xq, yq = point_q.x, point_q.y
        x_phi = (-xq) % p
        f_a, f_b = 1, 0
        for lines in self._steps:
            f_a, f_b = ((f_a + f_b) * (f_a - f_b) % p, 2 * f_a * f_b % p)
            for c1, c0 in lines:
                l_a = (c0 + c1 * x_phi) % p
                f_a, f_b = ((f_a * l_a - f_b * yq) % p,
                            (f_a * yq + f_b * l_a) % p)
        return Fp2(f_a, f_b, p)

    def pairing(self, point_q: Point) -> Fp2:
        """Return ``e(P, Q)``; identical output to ``tate_pairing``."""
        if self.point.is_infinity() or point_q.is_infinity():
            if point_q.p != self.curve.p:
                raise ParameterError("point from a different field")
            return Fp2.one(self.curve.p)
        return final_exponentiation(self.curve, self.miller(point_q))
