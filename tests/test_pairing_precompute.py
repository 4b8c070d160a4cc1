"""Randomized cross-checks of the precomputation layer.

Every fast path the engine runs -- interleaved-wNAF multi-scalar
multiplication, the unitary final exponentiation, fixed-base
exponentiation tables, and the NAF Miller line tables of fixed pairing
arguments (:func:`repro.pairing.fastpath.naf_steps` evaluated by
``miller_eval`` and ``miller_eval_pair``) -- is compared here against
the naive reference computation on random inputs, the pairing tables
against the binary-loop oracle ``tate_pairing`` (``tests/oracles.py``)
on TEST and SS512.
:class:`TestNafStepsBuild` holds every line the one-inversion builder
produces to the three-pass oracle ``two_inversion_naf_steps``
(``tests/oracles.py``), small-order and degenerate chains included.  The
``TestSmoke`` class at the bottom is the subset ``scripts/tier1.sh``
runs as its quick cross-check.
"""

import random

import pytest

from repro.core import groupsig
from repro.pairing import PairingGroup, fastpath
from repro.pairing.curve import Curve, FixedBaseTable, Point
from repro.pairing.fields import Fp2
from repro.pairing.fastpath import final_exponentiation
from repro.pairing.params import PRESETS
from tests.oracles import miller_loop, tate_pairing, two_inversion_naf_steps
from tests.test_sig_curves import _point_of_order
from tests.test_verify_differential import ODD_TORSION


@pytest.fixture(scope="module")
def curve():
    return Curve(PRESETS["TEST"])


@pytest.fixture(scope="module")
def curves(curve):
    """The shipped presets' curves, TEST and SS512, with a trial count
    each (generic SS512 pairings are the slow side)."""
    return ((curve, 8), (Curve(PRESETS["SS512"]), 4))


@pytest.fixture(scope="module")
def module_rng():
    return random.Random(0xEC0DE)


def _random_point(curve, rng):
    point = curve.random_point(rng)
    assert curve.in_subgroup(point)
    return point


class TestMultiMul:
    def test_matches_sum_of_single_muls(self, curve, module_rng):
        for trial in range(20):
            size = module_rng.randrange(1, 5)
            pairs = [(_random_point(curve, module_rng),
                      module_rng.randrange(-2 * curve.r, 2 * curve.r))
                     for _ in range(size)]
            expected = Point.infinity(curve.p)
            for point, scalar in pairs:
                expected = curve.add(expected,
                                     curve.mul(point, scalar % curve.r))
            assert curve.multi_mul(pairs) == expected, trial

    def test_empty_and_zero_terms(self, curve, module_rng):
        point = _random_point(curve, module_rng)
        assert curve.multi_mul([]).is_infinity()
        assert curve.multi_mul([(point, 0)]).is_infinity()
        assert curve.multi_mul(
            [(Point.infinity(curve.p), 5)]).is_infinity()

    def test_raw_keeps_unreduced_scalars(self, curve, module_rng):
        # multi_mul_raw must NOT reduce mod r: multiples of r vanish.
        point = _random_point(curve, module_rng)
        assert curve.multi_mul_raw([(point, 7 * curve.r)]).is_infinity()
        assert curve.multi_mul_raw(
            [(point, curve.r + 3)]) == curve.mul(point, 3)

    def test_cancelling_terms(self, curve, module_rng):
        point = _random_point(curve, module_rng)
        k = module_rng.randrange(1, curve.r)
        assert curve.multi_mul([(point, k), (point, -k)]).is_infinity()


class TestFinalExponentiation:
    def test_matches_direct_power(self, curves, module_rng):
        """On Miller values and on random F_p2 values, TEST and SS512;
        ``final_exponentiation_each`` gives each value's power."""
        for curve, trials in curves:
            p = curve.p
            exponent = (p * p - 1) // curve.r
            values = [Fp2(module_rng.randrange(1, p), module_rng.randrange(p),
                          p) for _ in range(trials)]
            for _ in range(2):
                values.append(miller_loop(curve,
                                          _random_point(curve, module_rng),
                                          _random_point(curve, module_rng)))
            expected = [value ** exponent for value in values]
            assert [final_exponentiation(curve, value)
                    for value in values] == expected
            assert fastpath.final_exponentiation_each(
                [(value.a, value.b) for value in values], curve) == expected


class TestFixedBaseTable:
    def test_matches_curve_mul(self, curve, module_rng):
        base = _random_point(curve, module_rng)
        table = FixedBaseTable(curve, base)
        for _ in range(20):
            k = module_rng.randrange(0, 3 * curve.r)
            assert table.mul(k) == curve.mul(base, k % curve.r)

    def test_edge_scalars(self, curve, module_rng):
        base = _random_point(curve, module_rng)
        table = FixedBaseTable(curve, base)
        assert table.mul(0).is_infinity()
        assert table.mul(curve.r).is_infinity()
        assert table.mul(1) == base
        assert table.mul(curve.r - 1) == curve.neg(base)

    def test_infinity_base(self, curve):
        table = FixedBaseTable(curve, Point.infinity(curve.p))
        assert table.mul(12345).is_infinity()


def _table_pairing(curve, point_p, point_q):
    """``e(P, Q)`` through P's NAF line table: one ``miller_eval`` and
    the final exponentiation."""
    raw = fastpath.miller_eval(fastpath.naf_steps(curve, point_p), point_q,
                               curve.p)
    return final_exponentiation(curve, Fp2(*raw, curve.p))


class TestPairingTable:
    """The NAF Miller line table of a fixed first argument against the
    generic pairing, on every shipped preset."""

    def test_matches_tate_pairing(self, curves, module_rng):
        for curve, trials in curves:
            for trial in range(trials):
                p1 = _random_point(curve, module_rng)
                p2 = _random_point(curve, module_rng)
                assert _table_pairing(curve, p1, p2) == \
                    tate_pairing(curve, p1, p2), trial

    def test_symmetric_swap(self, curves, module_rng):
        # e(P, Q) == e(Q, P): a table for P evaluates pairings written
        # with P on either side -- the identity the engine's revocation
        # scan and tag index rely on.
        for curve, trials in curves:
            for _ in range(max(1, trials // 2)):
                p1 = _random_point(curve, module_rng)
                p2 = _random_point(curve, module_rng)
                assert _table_pairing(curve, p1, p2) == \
                    tate_pairing(curve, p2, p1)

    def test_degenerate_points(self, curves, module_rng):
        for curve, _trials in curves:
            p = curve.p
            point = _random_point(curve, module_rng)
            infinity = Point.infinity(p)
            steps = fastpath.naf_steps(curve, point)
            # e(O, Q) = 1: the point at infinity has no steps, and an
            # empty table evaluates to the Miller value 1.
            assert fastpath.naf_steps(curve, infinity) == []
            assert fastpath.miller_eval([], point, p) == (1, 0)
            assert tate_pairing(curve, infinity, point).is_one()
            # e(P, O) = 1 on the shared accumulator.
            assert fastpath.miller_eval_pair(steps, infinity, steps,
                                             infinity, p) == (1, 0)
            assert fastpath.miller_eval_pair(steps, point, steps,
                                             infinity, p) == \
                fastpath.miller_eval(steps, point, p)
            assert fastpath.miller_eval_pair(steps, infinity, steps,
                                             point, p) == \
                fastpath.miller_eval(steps, point, p)

    def test_bilinear_through_table(self, curves, module_rng):
        for curve, _trials in curves:
            point = _random_point(curve, module_rng)
            other = _random_point(curve, module_rng)
            a = module_rng.randrange(2, curve.r)
            assert (_table_pairing(curve, point, curve.mul(other, a))
                    == _table_pairing(curve, point, other) ** a)

    def test_pair_is_the_product(self, curves, module_rng):
        """``miller_eval_pair`` is the exact residue of the two
        evaluations' product -- also against the table of the 2-torsion
        point, whose lines stop after its first doubling -- and after the
        final exponentiation the product of the two pairings."""
        for curve, _trials in curves:
            p = curve.p
            p1, p2, q1, q2 = (_random_point(curve, module_rng)
                              for _ in range(4))
            short = Point(0, 0, p)
            for table_point in (p2, short):
                s1 = fastpath.naf_steps(curve, p1)
                s2 = fastpath.naf_steps(curve, table_point)
                a1, b1 = fastpath.miller_eval(s1, q1, p)
                a2, b2 = fastpath.miller_eval(s2, q2, p)
                raw = fastpath.miller_eval_pair(s1, q1, s2, q2, p)
                assert raw == ((a1 * a2 - b1 * b2) % p,
                               (a1 * b2 + b1 * a2) % p)
            s2 = fastpath.naf_steps(curve, p2)
            raw = fastpath.miller_eval_pair(s1, q1, s2, q2, p)
            assert final_exponentiation(curve, Fp2(*raw, p)) == (
                tate_pairing(curve, p1, q1) * tate_pairing(curve, p2, q2))


def _builder_points(preset, count):
    """The table points the builder identity covers on one preset:
    ``count`` random subgroup points, ``g1`` and a gpk's ``w``, the
    2-torsion point, the odd small-order point (its SS512 chain takes
    the tangent-add branch), a subgroup point plus it, and infinity."""
    group = PairingGroup(preset)
    curve = group.curve
    rng = random.Random(preset)
    gpk, _master = groupsig.keygen_master(group, rng)
    odd = curve.from_affine(_point_of_order(curve, ODD_TORSION[preset]))
    randoms = [_random_point(curve, rng) for _ in range(count)]
    return curve, randoms + [
        group.g1.point, gpk.w.point, Point(0, 0, curve.p), odd,
        curve.add(randoms[0], odd), Point.infinity(curve.p)]


def _tangent_add_steps(curve, order):
    """The NAF chain steps at which a point of the odd ``order`` adds
    ``digit * P`` to itself (``V == digit * P``, so the chord is V's
    tangent), found on the partial scalars modulo ``order``."""
    partial, steps = 1, []
    for index, digit in enumerate(fastpath._naf_after_msd(curve.r)):
        partial = 2 * partial % order
        if digit:
            if (partial + digit) % order == 0:
                break  # V == -digit * P: the chain ends at infinity
            if (partial - digit) % order == 0:
                steps.append(index)
            partial = (partial + digit) % order
    return steps


class TestNafStepsBuild:
    """The one-inversion line-table builder against the three-pass
    oracle: equal ``(c1, c0)`` lines, step for step."""

    @pytest.mark.parametrize("preset", ["TEST", "SS512"])
    def test_lines_equal_oracle(self, preset):
        curve, points = _builder_points(preset, 8)
        for point in points:
            assert fastpath.naf_steps(curve, point) == \
                two_inversion_naf_steps(curve, point), point

    def test_tangent_add_chain_covered(self):
        # SS512's order-7 point meets V == -P at an add step: the step
        # holds its doubling's tangent and the add's tangent.
        curve = Curve(PRESETS["SS512"])
        steps = _tangent_add_steps(curve, 7)
        assert steps
        seven = curve.from_affine(_point_of_order(curve, 7))
        table = fastpath.naf_steps(curve, seven)
        assert all(len(table[index]) == 2 for index in steps)
        assert table == two_inversion_naf_steps(curve, seven)
        # No TEST chain of an odd small order takes the branch.
        assert _tangent_add_steps(Curve(PRESETS["TEST"]), 37) == []


class TestSmoke:
    """~10s subset exercised by scripts/tier1.sh."""

    def test_naf_steps_equal_oracle_on_test_grid(self):
        curve, points = _builder_points("TEST", 2)
        for point in points:
            assert fastpath.naf_steps(curve, point) == \
                two_inversion_naf_steps(curve, point), point

    def test_table_and_multiexp_agree_with_naive(self, curves):
        rng = random.Random(42)
        for curve, _trials in curves:
            p1 = _random_point(curve, rng)
            p2 = _random_point(curve, rng)
            assert _table_pairing(curve, p1, p2) == \
                tate_pairing(curve, p1, p2)
            assert _table_pairing(curve, p1, p2) == \
                tate_pairing(curve, p2, p1)
        curve = curves[0][0]
        p1 = _random_point(curve, rng)
        p2 = _random_point(curve, rng)
        fixed = FixedBaseTable(curve, p1)
        k = rng.randrange(1, curve.r)
        assert fixed.mul(k) == curve.mul(p1, k)
        pairs = [(p1, rng.randrange(1, curve.r)),
                 (p2, rng.randrange(1, curve.r))]
        expected = curve.add(curve.mul(*pairs[0]), curve.mul(*pairs[1]))
        assert curve.multi_mul(pairs) == expected
