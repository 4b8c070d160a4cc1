"""Scalar multiplication on short-Weierstrass curves: the one kernel.

One implementation serves the ECDSA curves of :mod:`repro.sig.curves`
(``y^2 = x^3 + a*x + b``) and the pairing curve of
:mod:`repro.pairing.curve` (``a = 1``); the formulas never read ``b``.
Points enter and leave as affine ``(x, y)`` tuples (``None`` is the
point at infinity) and are Jacobian ``(X, Y, Z) = (X/Z^2, Y/Z^3)`` in
between, ``Z = 0`` at infinity.  Affine coordinates are canonical, so
each routine returns exactly the point the affine chord-and-tangent
references give.

Every multiple runs one loop, :func:`_chain`: runs of inline doublings
separated by *mixed* additions, which add an affine table point to the
Jacobian accumulator (11 field multiplications and 10 reductions
against 16 and 11 for two Jacobian points).  :func:`multi_mul` feeds it
interleaved wNAF digits over affine odd-multiple tables (built per call
for a point, or a prebuilt :class:`Ladder`'s); :class:`FixedBaseTable`
feeds it one affine entry per signed window and no doublings, alone or
after a :func:`multi_mul` chain's last doubling.  :func:`jdouble` and
:func:`jadd` are the general Jacobian steps a ladder is built with; a
fixed-base table adds in affine coordinates instead, a column of
windows at a time over one batched inversion (:func:`_add_columns`).

A chain doubles as often as its widest scalar has bits, so a point
whose multiples run in separate chains pays for the same doublings in
each.  A *ladder* (:func:`ladder`) holds the odd-multiple tables of
``P``, ``2^d*P``, ``2^2d*P`` and ``2^3d*P``, ``d`` a quarter of the
order's bits, built with ``3d`` doublings and one batched inversion.  A
laddered term splits its scalar exactly into ``d``-bit chunks, one per
rung, so the chain runs ``d`` doublings instead of ``4d``; the split
never reduces the scalar, so subgroup checks (``r*P``) and cofactors
run on a ladder too, the top rung taking whatever exceeds ``4d`` bits.
A chain is only as short as its widest term, so a ladder gains beside
ladders and fixed-base terms alone.  Callers build one for a point with
two or more multiples in separate chains: period-mode T1 and T2 (a
subgroup check and two SPK multiples each) and the period's u and v; a
signer's u, v and A; a DH share that is subgroup-checked and then
raised.  :func:`odd_multiples` gives the one-rung ladder, the plain
table flat-mode verification keeps for its per-signature u, v, T1 and
T2: each of those already shares its chain with a partner, so a
ladder's ``3d`` doublings would cost more than its shorter chains save.

A reduction modulo a 512-bit ``p`` costs about twice a multiplication
in CPython, so the doubling is the form with the fewest (7); carrying
``W = a*Z^4`` saves a multiplication but adds a reduction.  Squarings
are spelled so the multiplication receives the *same object* twice
(``X * X``), which takes CPython's squaring fast path.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple, Union

from repro.mathx.modular import batch_inverse, signed_window_digits

#: Affine point ``(x, y)``; ``None`` is the point at infinity.
Affine = Optional[Tuple[int, int]]
Jacobian = Tuple[int, int, int]

INFINITY: Jacobian = (0, 1, 0)

#: :func:`multi_mul`'s wNAF width: digits are odd and below ``2^3``, so
#: a full table holds ``P, 3P, 5P, 7P``.
WNAF_WIDTH = 4
#: Rungs of a full :class:`Ladder`: ``P, 2^d*P, 2^2d*P, 2^3d*P``.
LADDER_RUNGS = 4
#: :class:`FixedBaseTable`'s signed window: ``ceil(bits / 6)`` mixed
#: additions a multiple, 32 entries a window.
FIXED_WINDOW = 6


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


def _add_columns(lhs: Sequence[Affine], rhs: Sequence[Affine], a: int,
                 p: int) -> List[Affine]:
    """``lhs[i] + rhs[i]`` for every ``i`` by the affine group law, the
    slope denominators sharing one batched inversion."""
    out: List[Affine] = []
    pending = []  # (index, slope numerator, x1, y1, x2)
    dens = []
    for i, (q, b) in enumerate(zip(lhs, rhs)):
        if q is None or b is None:
            out.append(b if q is None else q)
            continue
        out.append(None)
        (x1, y1), (x2, y2) = q, b
        if x1 == x2:
            if (y1 + y2) % p == 0:
                continue  # q == -b, including a 2-torsion doubling
            pending.append((i, 3 * (x1 * x1) + a, x1, y1, x2))
            dens.append(2 * y1)
        else:
            pending.append((i, y2 - y1, x1, y1, x2))
            dens.append(x2 - x1)
    for (i, num, x1, y1, x2), inv in zip(pending, batch_inverse(dens, p)):
        slope = num * inv % p
        x3 = (slope * slope - x1 - x2) % p
        out[i] = (x3, (slope * (x1 - x3) - y1) % p)
    return out


def _normalise(points: Sequence[Jacobian], p: int) -> List[Affine]:
    """Many Jacobian triples to affine with one batched inversion."""
    inverses = iter(batch_inverse([z for _x, _y, z in points if z], p))
    out: List[Affine] = []
    for x, y, z in points:
        if z:
            z_inv = next(inverses)
            z_inv_sq = z_inv * z_inv % p
            out.append((x * z_inv_sq % p, y * z_inv_sq % p * z_inv % p))
        else:
            out.append(None)
    return out


class Ladder:
    """Affine odd-multiple tables of ``P, 2^d*P, 2^2d*P, ...``, one per
    rung: a :func:`multi_mul` base whose scalar splits into ``d``-bit
    chunks (``spacing`` is ``d``; a one-rung ladder never splits).
    ``None`` marks an entry at infinity (a point of small order)."""

    __slots__ = ("spacing", "rungs")

    def __init__(self, spacing: int,
                 rungs: Tuple[Tuple[Affine, ...], ...]) -> None:
        self.spacing = spacing
        self.rungs = rungs


def ladder(point: Affine, a: int, p: int, bits: int,
           count: int = 1 << (WNAF_WIDTH - 2)) -> Optional[Ladder]:
    """The :data:`LADDER_RUNGS`-rung ladder of affine ``P`` for scalars of
    ``bits`` bits (rungs ``ceil(bits / LADDER_RUNGS)`` doublings apart),
    or the one-rung ladder when ``bits`` is 0: ``(2*count-1)P`` and the
    odd multiples below it on each rung, one batched inversion in all;
    ``None`` for the point at infinity."""
    if point is None:
        return None
    spacing = -(-bits // LADDER_RUNGS)
    entries: List[Jacobian] = []
    x, y, z = point[0], point[1], 1
    for rung in range(LADDER_RUNGS if spacing else 1):
        if rung:
            for _ in range(spacing):
                x, y, z = jdouble(x, y, z, a, p)
        entry = (x, y, z)
        entries.append(entry)
        if count > 1:
            twice = jdouble(x, y, z, a, p)
            for _ in range(count - 1):
                entry = jadd(*entry, *twice, a, p)
                entries.append(entry)
    flat = _normalise(entries, p)
    return Ladder(spacing, tuple(tuple(flat[i:i + count])
                                 for i in range(0, len(flat), count)))


def odd_multiples(point: Affine, a: int, p: int,
                  count: int = 1 << (WNAF_WIDTH - 2)) -> Optional[Ladder]:
    """The one-rung :class:`Ladder` ``(P, 3P, ..., (2*count-1)P)``;
    ``None`` for the point at infinity."""
    return ladder(point, a, p, 0, count)


def _chain(steps: List[Tuple[int, Optional[int], Optional[int]]],
           a: int, p: int) -> Affine:
    """The kernel: from infinity, for each ``(run, x, y)`` double the
    accumulator ``run`` times, then add the affine point ``(x, y)``
    (``x`` is ``None`` on a closing run of doublings alone)."""
    if a > p >> 1:
        a -= p  # secp's a = -3: a small factor multiplies cheaply
    X, Y, Z = INFINITY
    for run, ax, ay in steps:
        if run and Z:
            for _ in range(run):
                # Z = 0 or Y = 0 doubles to Z = 0 with no branch.
                ysq = Y * Y % p
                zsq = Z * Z % p
                s = 4 * X * ysq % p
                m = (3 * (X * X) + a * (zsq * zsq)) % p
                Z = 2 * Y * Z % p
                X = (m * m - 2 * s) % p
                Y = (m * (s - X) - 8 * (ysq * ysq)) % p
        if ax is None:
            break
        if Z == 0:
            X, Y, Z = ax, ay, 1
            continue
        zsq = Z * Z % p
        hh = (ax * zsq - X) % p
        rr = (ay * zsq % p * Z - Y) % p
        if hh == 0:
            # The accumulator is the entry (double it) or its negation.
            X, Y, Z = jdouble(ax, ay, 1, a, p) if rr == 0 else INFINITY
            continue
        hsq = hh * hh % p
        hcu = hsq * hh % p
        v = X * hsq % p
        X = (rr * rr - hcu - 2 * v) % p
        Y = (rr * (v - X) - Y * hcu) % p
        Z = hh * Z % p
    return to_affine(X, Y, Z, p)


def multi_mul(terms: Sequence[Tuple[Union[Affine, Ladder,
                                          "FixedBaseTable"], int]],
              a: int, p: int) -> Affine:
    """Interleaved-wNAF ``sum(k_i * P_i)`` over ``(P_i, k_i)`` terms.

    A base is an affine point, its prebuilt :class:`Ladder`, or a
    :class:`FixedBaseTable`, whose entries join the chain after its last
    doubling.  Scalars are never reduced (subgroup checks and cofactor
    clearing pass multiples of the order; a ladder splits its scalar
    exactly across its rungs; a fixed-base term reduces modulo its
    table's order); a negative one negates its digits.  All terms share
    one doubling chain.
    """
    adds: List[Tuple[int, int, int]] = []
    fixed = []
    for base, scalar in terms:
        if base is None or scalar == 0:
            continue
        if isinstance(base, FixedBaseTable):
            fixed += base._steps(scalar)
        elif isinstance(base, Ladder):
            sign = -1 if scalar < 0 else 1
            scalar *= sign
            mask = (1 << base.spacing) - 1
            top = len(base.rungs) - 1
            for rung, table in enumerate(base.rungs):
                chunk = scalar if rung == top else scalar & mask
                scalar >>= base.spacing
                if chunk:
                    _add_digits(adds, table, _wnaf(sign * chunk), p)
        else:
            digits = _wnaf(scalar)
            # Odd multiples up to the largest digit used (a sparse
            # scalar, e.g. a cofactor, needs P alone).
            table = odd_multiples(
                base, a, p, (max(abs(d) for _i, d in digits) + 1) >> 1)
            _add_digits(adds, table.rungs[0], digits, p)
    steps = []
    last = 0
    if adds:
        adds.sort(reverse=True)
        last = adds[0][0]
        for i, x, y in adds:
            steps.append((last - i, x, y))
            last = i
    if fixed:
        # The closing doublings run before the fixed-base entries.
        steps.append((last, *fixed[0][1:]))
        steps += fixed[1:]
    elif adds:
        steps.append((last, None, None))
    return _chain(steps, a, p)


def _add_digits(adds: List[Tuple[int, int, int]],
                table: Tuple[Affine, ...], digits: List[Tuple[int, int]],
                p: int) -> None:
    """Append ``(position, x, y)`` for each wNAF digit's table entry
    (negated for a negative digit; an entry at infinity adds nothing)."""
    for i, digit in digits:
        entry = table[abs(digit) >> 1]
        if entry is not None:
            x, y = entry
            adds.append((i, x, y if digit > 0 else -y % p))


def _wnaf(scalar: int) -> List[Tuple[int, int]]:
    """The non-zero width-4 wNAF digits of ``scalar`` as ``(position,
    digit)`` pairs (:func:`repro.mathx.modular.wnaf_digits` without its
    zeros); a negative scalar gives the negated digits of its absolute
    value."""
    modulus = 1 << WNAF_WIDTH
    sign = 1 if scalar > 0 else -1
    scalar *= sign
    out = []
    i = 0
    while scalar:
        zeros = (scalar & -scalar).bit_length() - 1
        scalar >>= zeros
        i += zeros
        digit = scalar & (modulus - 1)
        if digit > modulus >> 1:
            digit -= modulus
        out.append((i, sign * digit))
        # scalar - digit is a multiple of 2^width: the digits up to the
        # next position are zero.
        scalar = (scalar - digit) >> WNAF_WIDTH
        i += WNAF_WIDTH
    return out


class FixedBaseTable:
    """Signed-window precomputation for ``k * P`` with ``P`` fixed.

    Stores affine ``d * 2^(6*j) * P`` for every window ``j`` and digit
    ``d`` in ``1 .. 32`` (negative digits negate on the fly); a
    multiplication is then one mixed addition per non-zero window
    (~27 for a 160-bit order) and no doublings.

    Built column by column in affine coordinates: the window bases
    ``B_j = 2^(6*j) * P`` come off one Jacobian doubling chain and one
    batched inversion, then ``d * B_j = (d-1) * B_j + B_j`` for ``d =
    2 .. 32``, each column's slope denominators over all windows sharing
    one batched inversion (31 in all).  A base or entry at infinity (a
    point of small order) and the doubling a small order forces are
    ordinary cases of that addition.
    """

    __slots__ = ("a", "p", "order", "_blocks")

    def __init__(self, point: Affine, order: int, a: int, p: int) -> None:
        self.a = a
        self.p = p
        self.order = order
        self._blocks: List[List[Affine]] = []
        if point is None:
            return
        # Signed recoding of a scalar < order can carry one window more.
        blocks = (order.bit_length() + FIXED_WINDOW - 1) // FIXED_WINDOW + 1
        chain: List[Jacobian] = [(point[0], point[1], 1)]
        for _ in range(blocks - 1):
            x, y, z = chain[-1]
            for _ in range(FIXED_WINDOW):
                x, y, z = jdouble(x, y, z, a, p)
            chain.append((x, y, z))
        bases = _normalise(chain, p)
        columns = [bases]
        for _ in range((1 << (FIXED_WINDOW - 1)) - 1):
            columns.append(_add_columns(columns[-1], bases, a, p))
        self._blocks = [list(row) for row in zip(*columns)]

    def mul(self, scalar: int) -> Affine:
        """Return ``(scalar mod order) * P``."""
        return _chain(self._steps(scalar), self.a, self.p)

    def _steps(self, scalar: int) -> List[Tuple[int, int, int]]:
        """``(scalar mod order) * P`` as :func:`_chain` steps: one
        ``(0, x, y)`` addition per non-zero window, no doublings."""
        if not self._blocks:  # P is the point at infinity
            return []
        p = self.p
        steps = []
        for j, digit in enumerate(signed_window_digits(scalar % self.order,
                                                       FIXED_WINDOW)):
            if digit:
                entry = self._blocks[j][abs(digit) - 1]
                if entry is not None:
                    x, y = entry
                    steps.append((0, x, y if digit > 0 else -y % p))
        return steps
