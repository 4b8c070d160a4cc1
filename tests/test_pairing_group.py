"""Tests for the PairingGroup facade (G1/G2/GT, psi, hashing, counting),
and for the oracles' multi-exponentiation on its elements."""

import random

import pytest

from repro import instrument
from repro.errors import EncodingError, ParameterError
from repro.pairing import PairingGroup
from repro.pairing.group import G1Element, G2Element
from tests.oracles import multi_exp


@pytest.fixture(scope="module")
def g():
    return PairingGroup("TEST")


class TestGenerators:
    def test_generators_not_identity(self, g):
        assert not g.g1.is_identity()
        assert not g.g2.is_identity()

    def test_g1_is_psi_of_g2(self, g):
        assert g.psi(g.g2, count=False) == g.g1

    def test_generators_deterministic(self):
        assert PairingGroup("TEST").g1 == PairingGroup("TEST").g1

    def test_pair_of_generators_nondegenerate(self, g):
        assert not g.pair(g.g1, g.g2).is_identity()


class TestElementAlgebra:
    def test_multiplicative_notation(self, g):
        a = g.g1 ** 3
        b = g.g1 ** 4
        assert a * b == g.g1 ** 7
        assert b / a == g.g1 ** 1

    def test_inverse(self, g):
        a = g.g1 ** 5
        assert (a * a.inverse()).is_identity()

    def test_exponent_reduced_mod_order(self, g):
        assert g.g1 ** (g.order + 3) == g.g1 ** 3

    def test_cross_group_operation_rejected(self, g):
        with pytest.raises(ParameterError):
            g.g1 * g.g2  # noqa: B018

    def test_gt_algebra(self, g):
        e = g.pair(g.g1, g.g2)
        assert (e ** 2) * e == e ** 3
        assert (e / e).is_identity()
        assert (e ** g.order).is_identity()

    def test_equality_distinguishes_types(self, g):
        assert G1Element(g.g1.point, g) != G2Element(g.g1.point, g)


class TestPairing:
    def test_bilinear_via_facade(self, g):
        rng = random.Random(8)
        a, b = g.random_scalar(rng), g.random_scalar(rng)
        assert (g.pair(g.g1 ** a, g.g2 ** b)
                == g.pair(g.g1, g.g2) ** (a * b))

    def test_psi_compatibility(self, g):
        """e(psi(Q), R) is symmetric in this Type-1 setting."""
        u = G2Element(g.hash_to_g1(b"u").point, g)
        v = G2Element(g.hash_to_g1(b"v").point, g)
        assert (g.pair(g.psi(u, count=False), v)
                == g.pair(g.psi(v, count=False), u))


class TestHashing:
    def test_hash_to_g1_deterministic(self, g):
        assert g.hash_to_g1(b"x") == g.hash_to_g1(b"x")

    def test_hash_to_g1_distinct(self, g):
        assert g.hash_to_g1(b"x") != g.hash_to_g1(b"y")

    def test_h0_returns_pair(self, g):
        u, v = g.hash_h0(b"ctx")
        assert u != v
        assert not u.is_identity() and not v.is_identity()

    def test_hash_injective_framing(self, g):
        """Length-prefixing prevents concatenation collisions."""
        assert g.hash_to_g1(b"ab", b"c") != g.hash_to_g1(b"a", b"bc")

    def test_hash_to_scalar_in_range(self, g):
        for i in range(10):
            s = g.hash_to_scalar(b"msg%d" % i)
            assert 1 <= s < g.order

    def test_hashed_points_in_subgroup(self, g):
        p = g.hash_to_g1(b"subgroup-check")
        assert g.curve.in_subgroup(p.point)


class TestMultiExp:
    def test_matches_manual(self, g):
        a = g.g1 ** 2
        b = g.g1 ** 3
        assert multi_exp(g, [(a, 5), (b, 7)]) == (a ** 5) * (b ** 7)

    def test_counts_as_one_exp(self, g):
        base = g.g1 ** 2
        with instrument.count_operations() as ops:
            multi_exp(g, [(g.g1, 3), (base, 4)])
        assert ops.total("exp") == 1

    def test_empty_rejected(self, g):
        with pytest.raises(ParameterError):
            multi_exp(g, [])

    def test_mixed_groups_rejected(self, g):
        with pytest.raises(ParameterError):
            multi_exp(g, [(g.g1, 1), (g.g2, 1)])


class TestEncoding:
    def test_g1_roundtrip(self, g):
        p = g.g1 ** 9
        assert g.decode_g1(p.encode()) == p

    def test_scalar_roundtrip(self, g):
        assert g.decode_scalar(g.encode_scalar(12345)) == 12345

    def test_scalar_width_enforced(self, g):
        with pytest.raises(EncodingError):
            g.decode_scalar(b"\x01")

    def test_gt_encoding_fixed_width(self, g):
        e = g.pair(g.g1, g.g2)
        assert len(e.encode()) == 2 * g.params.field_bytes


class TestScalars:
    def test_random_scalar_range(self, g):
        rng = random.Random(3)
        for _ in range(20):
            s = g.random_scalar(rng)
            assert 1 <= s < g.order

    def test_random_scalar_zero_allowed(self, g):
        rng = random.Random(4)
        values = {g.random_scalar(rng, nonzero=False) for _ in range(200)}
        assert all(0 <= v < g.order for v in values)
