"""Bilinearity and structure tests for the Tate pairing ``PairingGroup.pair``.

``pair`` runs on the NAF Miller line tables of
:mod:`repro.pairing.fastpath`; every test here also holds it to the
binary affine Miller loop of ``tests/oracles.py`` (:func:`tate_pairing`),
on TEST and SS512.  ``TestSmoke`` is the subset ``scripts/tier1.sh
smoke`` runs.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import instrument
from repro.errors import ParameterError
from repro.pairing import PairingGroup
from repro.pairing.curve import Point
from repro.pairing.group import G1Element, G2Element
from tests.oracles import tate_pairing

GROUP = PairingGroup("TEST")
CURVE = GROUP.curve
PARAMS = GROUP.params
P = G1Element(CURVE.random_point(random.Random(11)), GROUP)
Q = G2Element(CURVE.random_point(random.Random(22)), GROUP)
BASE = GROUP.pair(P, Q)

GROUPS = {preset: PairingGroup(preset) for preset in ("TEST", "SS512")}

scalars = st.integers(min_value=1, max_value=PARAMS.r - 1)


def _g1(point):
    return G1Element(point, GROUP)


def _g2(point):
    return G2Element(point, GROUP)


def _assert_pair_is_oracle(group, lhs, rhs):
    """``group.pair`` equals the binary-loop pairing and notes one
    pairing."""
    with instrument.count_operations() as ops:
        value = group.pair(lhs, rhs)
    assert ops.snapshot() == {"pairing": 1}
    assert value.value == tate_pairing(group.curve, lhs.point, rhs.point)
    return value


def _assert_pair_identities(group, rng):
    """Random subgroup points, either argument at infinity, and
    ``e(aP, bQ) = e(P, Q)^(ab)``, all equal to the oracle."""
    curve = group.curve
    lhs = G1Element(curve.random_point(rng), group)
    rhs = G2Element(curve.random_point(rng), group)
    base = _assert_pair_is_oracle(group, lhs, rhs)
    assert not base.is_identity()
    infinity = Point.infinity(curve.p)
    assert _assert_pair_is_oracle(
        group, G1Element(infinity, group), rhs).is_identity()
    assert _assert_pair_is_oracle(
        group, lhs, G2Element(infinity, group)).is_identity()
    a = rng.randrange(1, group.order)
    b = rng.randrange(1, group.order)
    scaled = _assert_pair_is_oracle(group, lhs ** a, rhs ** b)
    assert scaled.value == base.value ** (a * b % group.order)


class TestStructure:
    def test_non_degenerate(self):
        assert not BASE.is_identity()
        assert BASE.value == tate_pairing(CURVE, P.point, Q.point)

    def test_order_r(self):
        assert (BASE.value ** PARAMS.r).is_one()

    def test_symmetric(self):
        assert GROUP.pair(_g1(Q.point), _g2(P.point)) == BASE

    def test_infinity_maps_to_one(self):
        inf = Point.infinity(PARAMS.p)
        assert GROUP.pair(_g1(inf), Q).is_identity()
        assert GROUP.pair(P, _g2(inf)).is_identity()
        assert tate_pairing(CURVE, inf, Q.point).is_one()
        assert tate_pairing(CURVE, P.point, inf).is_one()

    def test_wrong_field_rejected(self):
        foreign = Point(1, 1, 7)
        with pytest.raises(ParameterError):
            GROUP.pair(_g1(foreign), Q)
        with pytest.raises(ParameterError):
            GROUP.pair(P, _g2(foreign))
        with pytest.raises(ParameterError):
            tate_pairing(CURVE, foreign, Q.point)

    def test_inverse_point(self):
        assert GROUP.pair(P.inverse(), Q) == BASE.inverse()

    def test_deterministic(self):
        assert GROUP.pair(P, Q) == GROUP.pair(P, Q)


class TestBilinearity:
    @given(scalars, scalars)
    @settings(max_examples=10, deadline=None)
    def test_full_bilinearity(self, a, b):
        lhs = GROUP.pair(P ** a, Q ** b)
        assert lhs == BASE ** (a * b % PARAMS.r)

    @given(scalars)
    @settings(max_examples=10, deadline=None)
    def test_left_linearity(self, a):
        assert GROUP.pair(P ** a, Q) == BASE ** a

    @given(scalars)
    @settings(max_examples=10, deadline=None)
    def test_right_linearity(self, b):
        assert GROUP.pair(P, Q ** b) == BASE ** b

    def test_additive_in_first_argument(self):
        p2 = _g1(CURVE.random_point(random.Random(33)))
        lhs = GROUP.pair(P * p2, Q)
        rhs = GROUP.pair(P, Q) * GROUP.pair(p2, Q)
        assert lhs == rhs

    def test_additive_in_second_argument(self):
        q2 = _g2(CURVE.random_point(random.Random(44)))
        lhs = GROUP.pair(P, Q * q2)
        rhs = GROUP.pair(P, Q) * GROUP.pair(P, q2)
        assert lhs == rhs


class TestAcrossPresets:
    @pytest.mark.parametrize("preset", ["TEST", "SS256"])
    def test_bilinear_on_preset(self, preset):
        group = PairingGroup(preset)
        rng = random.Random(55)
        p = group.random_g1(rng)
        q = G2Element(group.random_g1(rng).point, group)
        base = _assert_pair_is_oracle(group, p, q)
        assert not base.is_identity()
        a, b = 123457, 987653
        assert (group.pair(p ** a, q ** b)
                == base ** (a * b % group.order))


class TestOracleIdentity:
    """``PairingGroup.pair`` against the binary-loop oracle on
    hypothesis-drawn points of the order-r subgroup, on TEST and SS512
    (``TestSmoke`` adds O on either side and bilinearity)."""

    @pytest.mark.parametrize("preset", ["TEST", "SS512"])
    @given(seed=st.integers(min_value=0, max_value=2 ** 32))
    @settings(max_examples=6, deadline=None)
    def test_subgroup_points_match_oracle(self, preset, seed):
        group = GROUPS[preset]
        rng = random.Random(seed)
        lhs = G1Element(group.curve.random_point(rng), group)
        rhs = G2Element(group.curve.random_point(rng), group)
        _assert_pair_is_oracle(group, lhs, rhs)


class TestSmoke:
    """``pair`` against the oracle on TEST and SS512: random subgroup
    points, O on either side, and bilinearity (which also fails when the
    final exponentiation both sides share is wrong;
    ``test_pairing_precompute.py::TestFinalExponentiation`` holds it to
    the direct power)."""

    @pytest.mark.parametrize("preset", ["TEST", "SS512"])
    def test_pair_matches_oracle(self, preset):
        _assert_pair_identities(GROUPS[preset], random.Random(7))
