"""Unit + property tests for the supersingular curve group."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import EncodingError, NotOnCurveError
from repro.pairing.curve import Curve, Point
from repro.pairing.params import get_params

PARAMS = get_params("TEST")
CURVE = Curve(PARAMS)
RNG = random.Random(99)


def random_points(n):
    return [CURVE.random_point(random.Random(1000 + i)) for i in range(n)]


POINTS = random_points(4)
scalars = st.integers(min_value=0, max_value=PARAMS.r - 1)


class TestGroupLaw:
    def test_identity(self):
        inf = Point.infinity(PARAMS.p)
        p = POINTS[0]
        assert CURVE.add(p, inf) == p
        assert CURVE.add(inf, p) == p
        assert CURVE.add(inf, inf) == inf

    def test_inverse(self):
        p = POINTS[0]
        assert CURVE.add(p, CURVE.neg(p)).is_infinity()

    def test_commutative(self):
        a, b = POINTS[0], POINTS[1]
        assert CURVE.add(a, b) == CURVE.add(b, a)

    def test_associative(self):
        a, b, c = POINTS[:3]
        assert CURVE.add(CURVE.add(a, b), c) == CURVE.add(a, CURVE.add(b, c))

    def test_points_on_curve(self):
        for p in POINTS:
            assert CURVE.is_on_curve(p)

    def test_subgroup_order(self):
        for p in POINTS:
            assert CURVE.mul(p, PARAMS.r - 1) == CURVE.neg(p)
            assert CURVE.multi_mul_raw([(p, PARAMS.r)]).is_infinity()

    def test_require_on_curve_rejects(self):
        bogus = Point(1, 1, PARAMS.p)
        if not CURVE.is_on_curve(bogus):
            with pytest.raises(NotOnCurveError):
                CURVE.require_on_curve(bogus)

    @given(scalars, scalars)
    @settings(max_examples=25)
    def test_scalar_distributive(self, a, b):
        p = POINTS[0]
        lhs = CURVE.mul(p, (a + b) % PARAMS.r)
        rhs = CURVE.add(CURVE.mul(p, a), CURVE.mul(p, b))
        assert lhs == rhs

    @given(scalars)
    @settings(max_examples=25)
    def test_mul_reduces_mod_r(self, a):
        p = POINTS[1]
        assert CURVE.mul(p, a) == CURVE.mul(p, a + PARAMS.r)


class TestMultiMul:
    def test_matches_separate_muls(self):
        a, b = POINTS[0], POINTS[1]
        combo = CURVE.multi_mul([(a, 3), (b, 5)])
        assert combo == CURVE.add(CURVE.mul(a, 3), CURVE.mul(b, 5))

    def test_empty_is_infinity(self):
        assert CURVE.multi_mul([]).is_infinity()


class TestEncoding:
    def test_roundtrip(self):
        for p in POINTS:
            assert CURVE.decode(CURVE.encode(p)) == p

    def test_infinity_roundtrip(self):
        inf = Point.infinity(PARAMS.p)
        assert CURVE.decode(CURVE.encode(inf)).is_infinity()

    def test_size(self):
        assert len(CURVE.encode(POINTS[0])) == PARAMS.point_bytes

    def test_bad_tag_rejected(self):
        blob = bytearray(CURVE.encode(POINTS[0]))
        blob[0] = 9
        with pytest.raises(EncodingError):
            CURVE.decode(bytes(blob))

    def test_bad_length_rejected(self):
        with pytest.raises(EncodingError):
            CURVE.decode(b"\x02\x01")

    def test_nonzero_infinity_payload_rejected(self):
        blob = b"\x00" + b"\x01" * PARAMS.field_bytes
        with pytest.raises(EncodingError):
            CURVE.decode(blob)

    def test_off_curve_x_rejected(self):
        # Find an x with no point, encode it, expect rejection.
        p = PARAMS.p
        for x in range(2, 200):
            rhs = (x ** 3 + x) % p
            if pow(rhs, (p - 1) // 2, p) != 1:
                blob = b"\x02" + x.to_bytes(PARAMS.field_bytes, "big")
                with pytest.raises(EncodingError) as excinfo:
                    CURVE.decode(blob)
                del excinfo
                return
        pytest.skip("no non-residue x found in range")

    def test_parity_bit_selects_y(self):
        p = POINTS[0]
        even = CURVE.lift_x(p.x, 0)
        odd = CURVE.lift_x(p.x, 1)
        assert even.y % 2 == 0 and odd.y % 2 == 1
        assert even == p or odd == p

    def test_x_plus_p_rejected(self):
        # x + p names the same point to lift_x, which reduces mod p.
        size = PARAMS.field_bytes
        points = (CURVE.random_point(random.Random(seed))
                  for seed in range(2000))
        point = next(p for p in points if p.x + PARAMS.p < 1 << (8 * size))
        canonical = CURVE.encode(point)
        alias = canonical[:1] + (point.x + PARAMS.p).to_bytes(size, "big")
        assert CURVE.lift_x(point.x + PARAMS.p, canonical[0] - 2) == point
        with pytest.raises(EncodingError):
            CURVE.decode(alias)
        assert CURVE.decode(canonical) == point

    def test_odd_tag_on_the_two_torsion_point_rejected(self):
        # (0, 0) has one root, y = 0, so only tag 2 names it.
        zero = Point(0, 0, PARAMS.p)
        assert CURVE.is_on_curve(zero)
        assert CURVE.encode(zero)[0] == 2
        assert CURVE.decode(CURVE.encode(zero)) == zero
        with pytest.raises(EncodingError):
            CURVE.decode(b"\x03" + bytes(PARAMS.field_bytes))

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from([0, 2, 3]),
           st.binary(min_size=PARAMS.field_bytes,
                     max_size=PARAMS.field_bytes))
    def test_every_accepted_encoding_is_canonical(self, tag, payload):
        blob = bytes([tag]) + payload
        try:
            point = CURVE.decode(blob)
        except EncodingError:
            return
        assert CURVE.encode(point) == blob


class TestCofactorClearing:
    def test_cleared_points_in_subgroup(self):
        rng = random.Random(5)
        for _ in range(3):
            point = CURVE.random_point(rng)
            assert CURVE.in_subgroup(point)
