"""Tests for the short-Weierstrass curve arithmetic.

The ECDSA curves (secp160r1, secp256r1) and the pairing curves (TEST,
SS512) share one scalar-multiplication kernel
(:mod:`repro.mathx.jacobian`).  Its fixed-base, one-term, two-term and
prebuilt-table multiplications, the pairing curve's cofactor clearing
and the H0 hash are checked here against :func:`double_and_add`, a
plain double-and-add over each curve's affine chord-and-tangent law
(``affine_add`` in ``tests/oracles.py`` for the ECDSA curves), and :func:`naive_hash_to_point`, the try-and-increment loop
without the Jacobi prescreen; so are ladders (four-rung bases whose
scalars split across the rungs), on every edge scalar, small-order
point and mix of base kinds.  :class:`TestFixedBaseBuild` holds every
entry of the batched-affine :class:`~repro.mathx.jacobian.FixedBaseTable`
build to the Jacobian-addition oracle ``jadd_fixed_base_blocks``
(``tests/oracles.py``), small-order bases and entries at infinity
included.  ``TestSmoke`` is the subset ``scripts/tier1.sh smoke`` runs.
"""

import functools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import groupsig
from repro.errors import NotOnCurveError, ParameterError
from repro.mathx import jacobian
from repro.pairing import PairingGroup, hashing
from repro.pairing.curve import Curve, FixedBaseTable, Point
from repro.pairing.params import get_params
from repro.sig.curves import SECP160R1, SECP256R1, get_curve
from tests.oracles import affine_add, affine_neg, jadd_fixed_base_blocks

scalars160 = st.integers(min_value=1, max_value=SECP160R1.n - 1)

PAIRING = Curve(get_params("TEST"))
SS512 = Curve(get_params("SS512"))


def double_and_add(add, point, k):
    """``k * point`` for ``k >= 0`` by right-to-left double-and-add.

    ``add`` is an affine group law on ``(x, y)`` tuples with ``None``
    at infinity; the loop touches no Jacobian code, so it is an oracle
    for everything in :mod:`repro.mathx.jacobian`.
    """
    result = None
    while k:
        if k & 1:
            result = add(result, point)
        point = add(point, point)
        k >>= 1
    return result


class _Spec:
    """One curve seen through the shared arithmetic's interface."""

    def __init__(self, name, a, p, order, base, add, cofactor=1):
        self.name, self.a, self.p = name, a, p
        self.order, self.base, self.add = order, base, add
        self.cofactor = cofactor

    def oracle(self, point, k):
        return double_and_add(self.add, point, k)

    def neg(self, point):
        return None if point is None else (point[0], -point[1] % self.p)

    def __repr__(self):
        return self.name


def _weierstrass_spec(curve):
    return _Spec(curve.name, curve.a, curve.p, curve.n, curve.generator,
                 functools.partial(affine_add, curve))


def _affine_law(curve):
    """The pairing curve's chord-and-tangent law on affine tuples."""
    def add(lhs, rhs):
        return curve.to_affine(curve.add(curve.from_affine(lhs),
                                         curve.from_affine(rhs)))
    return add


def _pairing_spec(curve, name):
    base = curve.to_affine(curve.random_point(random.Random(1601)))
    return _Spec(name, curve.a, curve.p, curve.r, base, _affine_law(curve),
                 curve.h)


SPECS = [_weierstrass_spec(SECP160R1), _weierstrass_spec(SECP256R1),
         _pairing_spec(PAIRING, "TEST-pairing"),
         _pairing_spec(SS512, "SS512-pairing")]
PAIRING_CURVES = [PAIRING, SS512]
#: The curves the ladder tests run on: an ECDSA curve and both pairing
#: presets the protocols use.
LADDER_SPECS = [SPECS[0], SPECS[2], SPECS[3]]


def naive_hash_to_point(curve, stream):
    """``Curve.point_from_digest_stream`` as the paper's try-and-increment:
    every candidate goes to the square root (no Jacobi prescreen), and
    :func:`double_and_add` clears the cofactor."""
    size = curve.params.field_bytes
    counter = 0
    while True:
        digest = stream(counter)
        counter += 1
        x = int.from_bytes(digest[:size], "big") % curve.p
        try:
            point = curve.lift_x(x, y_parity=digest[-1] & 1)
        except NotOnCurveError:
            continue
        cleared = double_and_add(_affine_law(curve), curve.to_affine(point),
                                 curve.h)
        if cleared is not None:
            return curve.from_affine(cleared)


def _point_of_order(curve, order):
    """A point of the given small prime order dividing ``h``."""
    rng = random.Random(order)
    while True:
        try:
            point = curve.lift_x(rng.randrange(curve.p), 0)
        except NotOnCurveError:
            continue
        small = double_and_add(_affine_law(curve), curve.to_affine(point),
                               (curve.p + 1) // order)
        if small is not None:
            return small


def _edge_scalars(order):
    return [0, 1, 2, order - 1, order, 2 * order]


class TestDomainParameters:
    @pytest.mark.parametrize("curve", [SECP160R1, SECP256R1])
    def test_generator_on_curve(self, curve):
        assert curve.is_on_curve(curve.generator)

    @pytest.mark.parametrize("curve", [SECP160R1, SECP256R1])
    def test_generator_order(self, curve):
        assert curve.scalar_mul(curve.generator, curve.n) is None

    def test_lookup(self):
        assert get_curve("secp160r1") is SECP160R1

    def test_unknown_curve_rejected(self):
        with pytest.raises(ParameterError):
            get_curve("secp127r9")

    def test_sizes(self):
        assert SECP160R1.coordinate_bytes == 20
        assert SECP160R1.scalar_bytes == 21   # n is 161 bits
        assert SECP256R1.scalar_bytes == 32


class TestGroupLaw:
    def test_infinity_identity(self):
        g = SECP160R1.generator
        assert affine_add(SECP160R1, g, None) == g
        assert affine_add(SECP160R1, None, g) == g

    def test_add_inverse(self):
        g = SECP160R1.generator
        assert affine_add(SECP160R1, g, affine_neg(SECP160R1, g)) is None

    def test_jacobian_matches_affine(self):
        g = SECP160R1.generator
        acc = None
        for k in range(1, 12):
            acc = affine_add(SECP160R1, acc, g)
            assert SECP160R1.scalar_mul(g, k) == acc
            assert SECP160R1.generator_mul(k) == acc

    def test_scalar_mul_zero(self):
        assert SECP160R1.scalar_mul(SECP160R1.generator, 0) is None

    def test_scalar_mul_of_infinity(self):
        assert SECP160R1.scalar_mul(None, 12345) is None

    def test_scalar_mul_two(self):
        # A two-term sum equals the sum of its one-term products.
        g = SECP160R1.generator
        h = SECP160R1.scalar_mul(g, 7)
        combined = SECP160R1.multi_mul([(g, 3), (h, 2)])
        assert combined == affine_add(SECP160R1, SECP160R1.scalar_mul(g, 3),
                                      SECP160R1.scalar_mul(h, 2))
        assert combined == SECP160R1.scalar_mul(g, 3 + 14)

    @given(scalars160, scalars160)
    @settings(max_examples=10, deadline=None)
    def test_property_distributive(self, a, b):
        g = SECP160R1.generator
        lhs = SECP160R1.scalar_mul(g, (a + b) % SECP160R1.n)
        rhs = affine_add(SECP160R1, SECP160R1.scalar_mul(g, a),
                         SECP160R1.scalar_mul(g, b))
        assert lhs == rhs

    def test_require_on_curve_rejects_forged_point(self):
        with pytest.raises(NotOnCurveError):
            SECP160R1.require_on_curve((1, 2))

    def test_generator_table_is_built_once_per_curve(self):
        table = SECP160R1._generator_table
        assert SECP160R1._generator_table is table
        assert SECP256R1._generator_table is not table


@pytest.mark.parametrize("spec", SPECS, ids=repr)
class TestSharedArithmetic:
    def test_fixed_base_edge_scalars(self, spec):
        table = jacobian.FixedBaseTable(spec.base, spec.order, spec.a, spec.p)
        for k in _edge_scalars(spec.order):
            assert table.mul(k) == spec.oracle(spec.base, k % spec.order), k

    def test_one_term_edge_scalars(self, spec):
        # Scalars are not reduced: n and 2n must still vanish.
        for k in _edge_scalars(spec.order):
            assert (jacobian.multi_mul([(spec.base, k)], spec.a, spec.p)
                    == spec.oracle(spec.base, k)), k

    def test_negative_scalar_negates(self, spec):
        expected = spec.neg(spec.oracle(spec.base, 5))
        assert jacobian.multi_mul([(spec.base, -5)], spec.a,
                                  spec.p) == expected

    def test_random_scalars(self, spec):
        rng = random.Random(0x5EC)
        table = jacobian.FixedBaseTable(spec.base, spec.order, spec.a, spec.p)
        for _ in range(4):
            k = rng.randrange(3 * spec.order)
            expected = spec.oracle(spec.base, k % spec.order)
            assert table.mul(k) == expected
            assert jacobian.multi_mul([(spec.base, k)], spec.a,
                                      spec.p) == expected

    def test_two_term_matches_oracle(self, spec):
        rng = random.Random(0x2AB)
        other = spec.oracle(spec.base, rng.randrange(1, spec.order))
        for _ in range(3):
            u1 = rng.randrange(spec.order)
            u2 = rng.randrange(spec.order)
            expected = spec.add(spec.oracle(spec.base, u1),
                                spec.oracle(other, u2))
            assert jacobian.multi_mul([(spec.base, u1), (other, u2)],
                                      spec.a, spec.p) == expected

    def test_two_term_sum_at_infinity(self, spec):
        # u1*G = -u2*Q: the accumulator meets the negation of itself.
        rng = random.Random(0x1F)
        q = rng.randrange(2, spec.order)
        other = spec.oracle(spec.base, q)
        u2 = rng.randrange(1, spec.order)
        u1 = -u2 * q % spec.order
        assert jacobian.multi_mul([(spec.base, u1), (other, u2)],
                                  spec.a, spec.p) is None

    def test_two_term_equal_points_take_the_doubling(self, spec):
        # Q = G, u1 = u2: both terms add the same entry at the top digit,
        # so jadd sees equal operands and must double.
        u = random.Random(0xD0).randrange(1, spec.order)
        assert (jacobian.multi_mul([(spec.base, u), (spec.base, u)],
                                   spec.a, spec.p)
                == spec.oracle(spec.base, 2 * u % spec.order))

    def test_jadd_doubling_and_cancel_branches(self, spec):
        x, y = spec.base
        doubled = jacobian.jdouble(x, y, 1, spec.a, spec.p)
        assert jacobian.jadd(x, y, 1, x, y, 1, spec.a, spec.p) == doubled
        assert jacobian.jadd(x, y, 1, x, -y % spec.p, 1, spec.a,
                             spec.p) == jacobian.INFINITY
        assert (jacobian.to_affine(*doubled, spec.p)
                == spec.add(spec.base, spec.base))


class TestCurveFrontEnds:
    """The curve classes route through the shared routines."""

    @pytest.mark.parametrize("curve", [SECP160R1, SECP256R1])
    def test_weierstrass_matches_oracle(self, curve):
        rng = random.Random(curve.n)
        g = curve.generator
        for k in _edge_scalars(curve.n) + [rng.randrange(curve.n)]:
            expected = double_and_add(functools.partial(affine_add, curve),
                                      g, k % curve.n)
            assert curve.generator_mul(k) == expected, k
            assert curve.scalar_mul(g, k) == expected, k

    def test_pairing_curve_matches_oracle(self):
        spec = SPECS[2]
        base = PAIRING.from_affine(spec.base)
        table = FixedBaseTable(PAIRING, base)
        for k in _edge_scalars(PAIRING.r):
            expected = PAIRING.from_affine(spec.oracle(spec.base,
                                                       k % PAIRING.r))
            assert PAIRING.mul(base, k) == expected, k
            assert table.mul(k) == expected, k

    def test_pairing_two_torsion_point(self):
        # (0, 0) is on y^2 = x^3 + x and has order 2: r*P = P for odd r,
        # so it is not in the order-r subgroup, and 2*P is infinity.
        torsion = Point(0, 0, PAIRING.p)
        assert PAIRING.is_on_curve(torsion)
        assert not PAIRING.in_subgroup(torsion)
        assert PAIRING.multi_mul_raw([(torsion, PAIRING.r)]) == torsion
        assert PAIRING.multi_mul_raw([(torsion, 2)]).is_infinity()
        assert PAIRING.clear_cofactor(torsion).is_infinity()

    def test_pairing_cofactor_clearing_matches_oracle(self):
        point = _first_curve_point()
        expected = SPECS[2].oracle(PAIRING.to_affine(point), PAIRING.h)
        assert PAIRING.clear_cofactor(point) == PAIRING.from_affine(expected)


def _first_curve_point():
    """The curve point with the smallest positive abscissa (generally
    outside the order-r subgroup)."""
    for x in range(1, 1000):
        try:
            return PAIRING.lift_x(x, 0)
        except NotOnCurveError:
            continue
    raise AssertionError("no liftable abscissa below 1000")


def _fixed_base_points(spec, count):
    """The bases the table-build identity covers on one curve: the
    spec's base and ``count - 1`` random multiples of it; on a pairing
    curve also ``g1``, a gpk's ``w``, the 2-torsion point, the odd
    small-order point (37 on TEST, 7 on SS512, whose table holds entries
    at infinity and doublings), a subgroup point plus it, and
    infinity."""
    rng = random.Random(spec.name)
    points = [spec.base] + [
        spec.oracle(spec.base, rng.randrange(2, spec.order))
        for _ in range(count - 1)]
    if spec.cofactor > 1:
        curve = PAIRING if spec.p == PAIRING.p else SS512
        group = PairingGroup("TEST" if curve is PAIRING else "SS512")
        gpk, _master = groupsig.keygen_master(group, rng)
        odd = _point_of_order(curve, 37 if curve is PAIRING else 7)
        points += [curve.to_affine(group.g1.point),
                   curve.to_affine(gpk.w.point), (0, 0), odd,
                   spec.add(points[0], odd), None]
    return points


@pytest.mark.parametrize("spec", SPECS, ids=repr)
class TestFixedBaseBuild:
    """The batched-affine fixed-base build against the Jacobian-addition
    oracle: every ``d * 2^(6*j) * P`` entry equal."""

    def test_entries_equal_oracle(self, spec):
        for point in _fixed_base_points(spec, 3):
            table = jacobian.FixedBaseTable(point, spec.order, spec.a, spec.p)
            assert table._blocks == jadd_fixed_base_blocks(
                point, spec.order, spec.a, spec.p), point


class TestSmoke:
    """Quick differential of the scalar-multiplication kernel against the
    double-and-add oracle and of H0 against the naive hash loop (run by
    ``scripts/tier1.sh smoke``)."""

    @pytest.mark.parametrize("spec", [SPECS[0], SPECS[2]], ids=repr)
    def test_fixed_base_build_equals_oracle(self, spec):
        for point in _fixed_base_points(spec, 1):
            table = jacobian.FixedBaseTable(point, spec.order, spec.a, spec.p)
            assert table._blocks == jadd_fixed_base_blocks(
                point, spec.order, spec.a, spec.p), point

    @pytest.mark.parametrize("spec", SPECS, ids=repr)
    def test_fixed_base_one_and_two_term_agree_with_oracle(self, spec):
        rng = random.Random(42)
        table = jacobian.FixedBaseTable(spec.base, spec.order, spec.a, spec.p)
        other = spec.oracle(spec.base, rng.randrange(1, spec.order))
        for k in (0, 1, spec.order - 1, rng.randrange(spec.order)):
            expected = spec.oracle(spec.base, k)
            assert table.mul(k) == expected
            assert jacobian.multi_mul([(spec.base, k)], spec.a,
                                      spec.p) == expected
        u1, u2 = rng.randrange(spec.order), rng.randrange(spec.order)
        assert (jacobian.multi_mul([(spec.base, u1), (other, u2)],
                                   spec.a, spec.p)
                == spec.add(spec.oracle(spec.base, u1),
                            spec.oracle(other, u2)))

    @pytest.mark.parametrize("spec", SPECS, ids=repr)
    def test_prebuilt_tables_reused_across_calls(self, spec):
        # A table built once serves every call, interchangeably with its
        # point (the SPK runs four multi-exps on two base pairs).
        rng = random.Random(7)
        other = spec.oracle(spec.base, rng.randrange(1, spec.order))
        tables = [jacobian.odd_multiples(point, spec.a, spec.p)
                  for point in (spec.base, other)]
        for _ in range(2):
            u1, u2 = rng.randrange(spec.order), rng.randrange(spec.order)
            expected = spec.add(spec.oracle(spec.base, u1),
                                spec.oracle(other, u2))
            assert jacobian.multi_mul([(tables[0], u1), (tables[1], u2)],
                                      spec.a, spec.p) == expected
            assert jacobian.multi_mul([(tables[0], u1), (other, u2)],
                                      spec.a, spec.p) == expected

    @pytest.mark.parametrize("spec", SPECS, ids=repr)
    def test_fixed_base_term_joins_the_chain(self, spec):
        # A fixed-base term adds its entries after the last doubling
        # (ECDSA's u1*G + u2*Q); alone, or beside terms that vanish.
        rng = random.Random(11)
        n = spec.order
        table = jacobian.FixedBaseTable(spec.base, n, spec.a, spec.p)
        other = spec.oracle(spec.base, rng.randrange(1, n))
        for u1, u2 in ((rng.randrange(n), rng.randrange(n)), (n + 5, 1),
                       (0, rng.randrange(n)), (rng.randrange(n), 0),
                       (n, n), (-3, 2)):
            expected = spec.add(spec.oracle(spec.base, u1 % n),
                                spec.oracle(other, u2 % n))
            assert jacobian.multi_mul([(table, u1), (other, u2)], spec.a,
                                      spec.p) == expected, (u1, u2)

    @pytest.mark.parametrize("spec", SPECS, ids=repr)
    def test_mixed_add_collisions(self, spec):
        # The accumulator meets the entry it adds (the add doubles) or
        # its negation (the sum is infinity): first as the entry it was
        # set to, then as a Jacobian point after four doublings.
        g = spec.base
        g16 = spec.oracle(g, 16)
        table = jacobian.odd_multiples(g, spec.a, spec.p)
        cases = [([(g, 1), (g, 1)], 2), ([(g, 1), (g, -1)], 0),
                 ([(g, 16), (g16, 1)], 32), ([(g, 16), (g16, -1)], 0),
                 ([(g, 16), (g16, -1), (g, 1)], 1),
                 ([(table, 7), (table, 7)], 14), ([(table, 7), (table, -7)], 0)]
        for terms, k in cases:
            assert (jacobian.multi_mul(terms, spec.a, spec.p)
                    == spec.oracle(g, k)), (terms, k)

    @pytest.mark.parametrize("spec", SPECS, ids=repr)
    def test_edge_scalars_on_points_and_tables(self, spec):
        # Zero, negative, at or past the order, multiples of it: never
        # reduced by the kernel, so each is the oracle's k mod order.
        n = spec.order
        table = jacobian.odd_multiples(spec.base, spec.a, spec.p)
        for k in (0, -1, -5, n - 1, n, n + 3, 2 * n, 7 * n, -n, -(n + 2)):
            expected = spec.oracle(spec.base, k % n)
            for base in (spec.base, table):
                assert jacobian.multi_mul([(base, k)], spec.a,
                                          spec.p) == expected, k

    @pytest.mark.parametrize("spec", SPECS, ids=repr)
    def test_fixed_base_window_boundaries(self, spec):
        n = spec.order
        table = jacobian.FixedBaseTable(spec.base, n, spec.a, spec.p)
        top = n.bit_length() // jacobian.FIXED_WINDOW
        for j in (1, 2, top):
            edge = 1 << (jacobian.FIXED_WINDOW * j)
            for k in (edge - 1, edge, edge + 1, 31 * edge, 32 * edge,
                      33 * edge, n - edge):
                assert table.mul(k) == spec.oracle(spec.base, k % n), k

    @pytest.mark.parametrize("curve", PAIRING_CURVES, ids=["TEST", "SS512"])
    def test_small_order_points(self, curve):
        # (0, 0) has order 2: every odd multiple is itself.  On SS512,
        # 7 | h: a point of order 7 has 7P = infinity in its table.
        torsion = (0, 0)
        table = jacobian.odd_multiples(torsion, curve.a, curve.p)
        assert table.rungs == ((torsion,) * 4,)
        cases = [(torsion, k, None if k % 2 == 0 else torsion)
                 for k in (1, 2, 3, -1, curve.r, curve.h)]
        if curve is SS512:
            seven = _point_of_order(curve, 7)
            cases += [(seven, k, double_and_add(_affine_law(curve), seven,
                                                k % 7))
                      for k in (7, 9, 14, 15, curve.r)]
        for point, k, expected in cases:
            for base in (point, jacobian.odd_multiples(point, curve.a,
                                                       curve.p)):
                assert jacobian.multi_mul([(base, k)], curve.a,
                                          curve.p) == expected, k

    @pytest.mark.parametrize("curve", PAIRING_CURVES, ids=["TEST", "SS512"])
    def test_clear_cofactor_and_h0_match_naive_loop(self, curve):
        size = curve.params.field_bytes
        for index in range(2):
            data = b"h0 kernel identity %d" % index
            expected = tuple(
                naive_hash_to_point(curve,
                                    hashing._digest_stream(domain, data,
                                                           size))
                for domain in (hashing.DOMAIN_H0_U, hashing.DOMAIN_H0_V))
            assert hashing.hash_h0(curve, data) == expected
        rng = random.Random(9090)
        for _ in range(2):
            try:
                point = curve.lift_x(rng.randrange(curve.p), 1)
            except NotOnCurveError:
                continue
            expected = double_and_add(_affine_law(curve),
                                      curve.to_affine(point), curve.h)
            assert curve.clear_cofactor(point) == curve.from_affine(expected)

    # -- ladders: P, 2^d P, 2^2d P, 2^3d P with d a quarter of the
    # order's bits; each scalar splits exactly across the rungs.

    @pytest.mark.parametrize("spec", LADDER_SPECS, ids=repr)
    def test_ladder_edge_scalars(self, spec):
        n = spec.order
        ladder = jacobian.ladder(spec.base, spec.a, spec.p, n.bit_length())
        d = ladder.spacing
        assert d == -(-n.bit_length() // 4)
        assert len(ladder.rungs) == jacobian.LADDER_RUNGS
        # The cofactor (wider than 4d on the pairing curves) and a square
        # of the order leave their excess on the top rung.
        wide = [n * n + 3, -(n * n) - 5]
        if spec.cofactor > 1:
            wide.append(spec.cofactor)
            assert spec.cofactor.bit_length() > 4 * d
        rng = random.Random(19)
        for k in ([0, 1, -1, n - 1, n, 2 * n, (1 << d) - 1, 1 << d,
                   (1 << 3 * d) + 1, rng.randrange(n), -rng.randrange(n)]
                  + wide):
            expected = spec.oracle(spec.base, k % n)
            assert jacobian.multi_mul([(ladder, k)], spec.a,
                                      spec.p) == expected, k

    @pytest.mark.parametrize("curve", PAIRING_CURVES, ids=["TEST", "SS512"])
    def test_ladder_small_order_points(self, curve):
        # The 2-torsion point vanishes from the first rung up; an odd
        # small order (SS512's 7) survives every rung, with infinity
        # among each rung's entries.
        bits = curve.r.bit_length()
        torsion = (0, 0)
        ladder = jacobian.ladder(torsion, curve.a, curve.p, bits)
        assert ladder.rungs == ((torsion,) * 4,) + ((None,) * 4,) * 3
        cases = [(torsion, k, None if k % 2 == 0 else torsion)
                 for k in (1, 2, 3, -1, curve.r, 2 * curve.r, curve.h)]
        if curve is SS512:
            seven = _point_of_order(curve, 7)
            ladder = jacobian.ladder(seven, curve.a, curve.p, bits)
            assert all(None in rung and rung != (None,) * 4
                       for rung in ladder.rungs)
            cases += [(seven, k, double_and_add(_affine_law(curve), seven,
                                                k % 7))
                      for k in (1, -1, 7, 9, 14, 15, curve.r, curve.h,
                                1 << ladder.spacing)]
        for point, k, expected in cases:
            ladder = jacobian.ladder(point, curve.a, curve.p, bits)
            assert jacobian.multi_mul([(ladder, k)], curve.a,
                                      curve.p) == expected, k
            point = curve.from_affine(point)
            assert not curve.ladder_in_subgroup(point, curve.ladder(point))
        point = curve.random_point(random.Random(5))
        assert curve.ladder_in_subgroup(point, curve.ladder(point))

    @pytest.mark.parametrize("spec", LADDER_SPECS, ids=repr)
    def test_ladder_terms_mix_with_other_bases(self, spec):
        # Ladder terms share one chain with point, one-rung and
        # fixed-base terms; the chain runs as long as its widest term.
        n = spec.order
        rng = random.Random(23)
        points = [spec.oracle(spec.base, rng.randrange(1, n))
                  for _ in range(3)]
        ladders = [jacobian.ladder(point, spec.a, spec.p, n.bit_length())
                   for point in points[:2]]
        one_rung = jacobian.odd_multiples(points[2], spec.a, spec.p)
        fixed = jacobian.FixedBaseTable(spec.base, n, spec.a, spec.p)
        for ks in ([rng.randrange(n) for _ in range(5)],
                   [n, -1, n - 1, 2 * n, 0], [-3, n * n, 1, -(n + 1), 7]):
            terms = [(ladders[0], ks[0]), (ladders[1], ks[1]),
                     (points[2], ks[2]), (one_rung, ks[3]), (fixed, ks[4])]
            expected = None
            for (_base, k), point in zip(terms, points + points[2:] +
                                         [spec.base]):
                expected = spec.add(expected, spec.oracle(point, k % n))
            assert jacobian.multi_mul(terms, spec.a, spec.p) == expected, ks
            assert jacobian.multi_mul(terms[:2], spec.a, spec.p) == spec.add(
                spec.oracle(points[0], ks[0] % n),
                spec.oracle(points[1], ks[1] % n)), ks

    @pytest.mark.parametrize("spec", LADDER_SPECS, ids=repr)
    def test_ladder_reused_across_calls(self, spec):
        n = spec.order
        ladder = jacobian.ladder(spec.base, spec.a, spec.p, n.bit_length())
        rungs = ladder.rungs
        rng = random.Random(29)
        for k in [rng.randrange(n) for _ in range(4)] + [n, 1]:
            assert jacobian.multi_mul([(ladder, k)], spec.a,
                                      spec.p) == spec.oracle(spec.base,
                                                             k % n)
        assert ladder.rungs is rungs
