"""Unit + property tests for the F_p2 tower."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ParameterError
from repro.pairing.fields import Fp2

P = 0xF06D3FEF70196720BA09F7338D7E8587

elements = st.builds(lambda a, b: Fp2(a, b, P),
                     st.integers(min_value=0, max_value=P - 1),
                     st.integers(min_value=0, max_value=P - 1))
ZERO = Fp2(0, 0, P)
nonzero = elements.filter(lambda x: x != ZERO)


class TestBasics:
    def test_one_and_zero(self):
        assert Fp2.one(P).is_one()
        assert Fp2.one(P) == Fp2(1, 0, P)
        assert not ZERO.is_one()
        assert Fp2.one(P) + ZERO == Fp2.one(P)

    def test_i_squared_is_minus_one(self):
        i = Fp2(0, 1, P)
        assert i * i == Fp2(P - 1, 0, P)

    def test_reduction_on_construction(self):
        assert Fp2(P + 3, 2 * P + 5, P) == Fp2(3, 5, P)

    def test_mixed_modulus_rejected(self):
        with pytest.raises(ParameterError):
            Fp2(1, 1, P) * Fp2(1, 1, 7)

    def test_conjugate_is_frobenius(self):
        x = Fp2(123456, 789012, P)
        assert Fp2(x.a, -x.b, P) == x ** P

    def test_norm_is_in_fp(self):
        x = Fp2(5, 7, P)
        assert x.norm() == (25 + 49) % P

    def test_inverse_of_zero_raises(self):
        with pytest.raises(ParameterError):
            ZERO.inverse()

    def test_pow_negative_exponent(self):
        x = Fp2(3, 4, P)
        assert x ** -2 == (x * x).inverse()

    def test_repr_and_hash(self):
        x = Fp2(1, 2, P)
        assert hash(x) == hash(Fp2(1, 2, P))
        assert x != Fp2(2, 1, P)


class TestFieldAxioms:
    @given(elements, elements, elements)
    @settings(max_examples=40)
    def test_mul_associative(self, x, y, z):
        assert (x * y) * z == x * (y * z)

    @given(elements, elements)
    @settings(max_examples=40)
    def test_mul_commutative(self, x, y):
        assert x * y == y * x

    @given(elements, elements, elements)
    @settings(max_examples=40)
    def test_distributive(self, x, y, z):
        assert x * (y + z) == x * y + x * z

    @given(nonzero)
    @settings(max_examples=40)
    def test_inverse(self, x):
        assert (x * x.inverse()).is_one()

    @given(elements)
    @settings(max_examples=40)
    def test_add_neg_is_zero(self, x):
        assert x + (-x) == ZERO

    @given(nonzero, st.integers(min_value=0, max_value=2 ** 32))
    @settings(max_examples=30)
    def test_pow_homomorphism(self, x, e):
        assert x ** (e + 1) == (x ** e) * x

    @given(nonzero)
    @settings(max_examples=20)
    def test_fermat_in_extension(self, x):
        """x^(p^2 - 1) = 1 for nonzero x (F_p2 multiplicative order)."""
        assert (x ** (P * P - 1)).is_one()

    @given(nonzero, nonzero)
    @settings(max_examples=30)
    def test_division(self, x, y):
        assert (x / y) * y == x
