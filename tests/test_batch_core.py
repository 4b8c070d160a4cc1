"""The batch verification core: soundness, bit-identity, and kernels.

Pins for the randomized multi-pairing batch core and its satellites:

* **Adversarial cancellation.**  Two tampered SDH member keys whose
  pairing error terms cancel in an *unrandomized* product equation are
  both caught by the randomized ``batch_pairing_check`` and localized
  by ``validate_member_keys_batch``'s bisection.
* **Bit-identity.**  ``groupsig.classify`` (the batch core's kernels)
  matches ``groupsig.reference_classify`` on chaos batches (seeds
  101/202/303): outcome type, error message, ``token_index``, and
  replayed operation counts.
* **Accounting.**  ``pair_product`` bills one pairing per *evaluated*
  term; degenerate (identity) terms are free -- the regression pin for
  the earlier bill-len(terms) over-count.
* **Scan table cache.**  Repeat Eq.3 scans on one period context
  note the same counts.
* **Kernel identity.**  The split-exponent ``unitary_tag_is_one``
  agrees with the full unitary power, and ``_h_split``'s exactness
  condition ``h % gcd(2^s - t, p+1) == 0`` holds where the split is
  used.  (The H0 hash and cofactor clearing the classifier shares with
  signing are pinned in ``tests/test_sig_curves.py``.)
* **Pool auto-sizing.**  ``VerifierPool(processes=None)`` engages
  auto-serial on 1-core hosts and sizes from the host elsewhere.
"""

import math
import random
from dataclasses import replace

import pytest

from repro import instrument, obs
from repro.core import batch_core, groupsig
from repro.core import verifier_pool
from repro.errors import InvalidSignature, ParameterError, RevokedKeyError
from repro.pairing import PairingGroup
from repro.pairing import fastpath


@pytest.fixture(scope="module")
def ss512_curve():
    return PairingGroup("SS512").curve


def _tampered(signature, **fields):
    return replace(signature, **fields)


# ---------------------------------------------------------------------------
# pair_product / batch_pairing_check accounting
# ---------------------------------------------------------------------------

class TestPairProductAccounting:
    def test_bills_only_evaluated_terms(self, group, rng):
        a = group.random_g1(rng)
        b = group.g2 ** group.random_scalar(rng)
        identity = group.g1 ** 0
        expected = group.pair(a, b)
        expected = expected * expected
        with instrument.count_operations() as ops:
            product = group.pair_product([(a, b), (identity, b), (a, b)])
        assert ops.total("pairing") == 2
        assert product == expected

    def test_all_degenerate_terms_bill_nothing(self, group, rng):
        b = group.g2 ** group.random_scalar(rng)
        identity = group.g1 ** 0
        with instrument.count_operations() as ops:
            product = group.pair_product([(identity, b)])
        assert ops.total("pairing") == 0
        assert product.is_identity()

    def test_empty_product_raises(self, group):
        with pytest.raises(ParameterError):
            group.pair_product([])

    def test_batch_check_billing_convention(self, group, rng):
        a = group.random_g1(rng)
        b = group.g2 ** group.random_scalar(rng)
        identity = group.g1 ** 0
        expected = group.pair(a, b)
        checks = [([(a, b)], expected),
                  ([(a, b), (identity, b)], expected)]
        with instrument.count_operations() as ops:
            assert group.batch_pairing_check(checks, rng)
        # One pairing per evaluated term, one GT exp (delta) per check;
        # the shared Miller tail and single FE are wall-clock-only.
        assert ops.total("pairing") == 2
        assert ops.total("exp_gt") == 2


# ---------------------------------------------------------------------------
# Satellite 4: adversarial cancellation vs the randomized batch
# ---------------------------------------------------------------------------

class TestAdversarialCancellation:
    def _cancelling_pair(self, gpk, master, k1, k2):
        """Tamper two keys so their error terms cancel unrandomized.

        With ``s_i = gamma + grp_i + x_i`` the honest relations are
        ``e(A_i, g2^s_i) == e(g1, g2)``.  Shifting ``A_1`` by ``g1^e``
        and ``A_2`` by ``g1^f`` with ``e*s_1 + f*s_2 == 0 (mod r)``
        multiplies the two left sides by ``e(g1, g2)^(e*s_1)`` and its
        inverse: each equation is false, their plain product still
        holds.  Only an attacker who already knows ``gamma`` (here: the
        test, playing the network operator) can solve for ``f``, which
        is exactly the insider threat the randomized fold defends
        against.
        """
        order = gpk.group.order
        s1 = (master.gamma + k1.exponent_sum) % order
        s2 = (master.gamma + k2.exponent_sum) % order
        e = 123457
        f = -e * s1 * pow(s2, -1, order) % order
        bad1 = replace(k1, a=k1.a * gpk.g1 ** e)
        bad2 = replace(k2, a=k2.a * gpk.g1 ** f)
        return bad1, bad2

    def test_errors_cancel_without_randomization(self, scheme):
        gpk, master, keys = scheme
        group = gpk.group
        order = group.order
        bad1, bad2 = self._cancelling_pair(gpk, master, keys["a1"],
                                           keys["b2"])
        base = group.pair(group.g1, group.g2)
        sides = []
        for bad in (bad1, bad2):
            rhs = gpk.w * gpk.g2 ** (bad.exponent_sum % order)
            sides.append(group.pair(bad.a, rhs))
        # Individually false, jointly "true" under a naive delta=1 fold:
        # the construction this suite exists to catch.
        assert sides[0] != base and sides[1] != base
        assert sides[0] * sides[1] == base * base

    def test_randomized_batch_rejects_both(self, scheme):
        gpk, master, keys = scheme
        bad1, bad2 = self._cancelling_pair(gpk, master, keys["a1"],
                                           keys["b2"])
        results = groupsig.validate_member_keys_batch(
            gpk, [bad1, keys["a2"], bad2, keys["b1"]],
            rng=random.Random(404))
        assert results == [False, True, False, True]

    def test_randomized_fold_fails_directly(self, scheme):
        gpk, master, keys = scheme
        group = gpk.group
        order = group.order
        bad1, bad2 = self._cancelling_pair(gpk, master, keys["a1"],
                                           keys["b2"])
        base = gpk.engine.base_pairing()
        checks = []
        for bad in (bad1, bad2):
            rhs = gpk.w * gpk.g2 ** (bad.exponent_sum % order)
            checks.append(([(bad.a, rhs)], base))
        assert not group.batch_pairing_check(checks, random.Random(7))


# ---------------------------------------------------------------------------
# Bit-identity: classify vs the reference classifier
# ---------------------------------------------------------------------------

class TestBitIdentity:
    SEEDS = (101, 202, 303)

    def _chaos_batch(self, gpk, member_keys, seed):
        rng = random.Random(seed)
        names = sorted(member_keys)
        batch = []
        for index in range(10):
            name = rng.choice(names)
            message = b"chaos-%d-%d" % (seed, index)
            signature = groupsig.sign(gpk, member_keys[name], message,
                                      rng=rng)
            kind = rng.choice(("ok", "ok", "c", "s_x", "r"))
            if kind == "c":
                signature = _tampered(signature, c=(signature.c + 1)
                                      % gpk.group.order)
            elif kind == "s_x":
                signature = _tampered(signature, s_x=(signature.s_x + 1)
                                      % gpk.group.order)
            elif kind == "r":
                signature = _tampered(signature, r=(signature.r + 1)
                                      % gpk.group.order)
            batch.append((message, signature))
        return batch

    @pytest.mark.parametrize("seed", SEEDS)
    def test_classify_matches_serial_reference(self, gpk, member_keys,
                                               seed):
        url = [groupsig.RevocationToken(member_keys["a1"].a),
               groupsig.RevocationToken(member_keys["b1"].a)]
        outcomes = set()
        for message, signature in self._chaos_batch(gpk, member_keys,
                                                    seed):
            with instrument.count_operations() as fast_ops:
                fast = groupsig.classify(gpk, [(message, signature)],
                                         url)[0]
            with instrument.count_operations() as ref_ops:
                ref = groupsig.reference_classify(gpk, message, signature,
                                                  url)
            assert type(fast) is type(ref)
            assert str(fast) == str(ref)
            assert getattr(fast, "token_index", None) == \
                getattr(ref, "token_index", None)
            assert fast_ops.snapshot() == ref_ops.snapshot()
            outcomes.add(type(fast))
        # The chaos mix must actually exercise accept, reject and
        # revocation paths, or the identity above proves too little.
        assert outcomes == {type(None), InvalidSignature, RevokedKeyError}

    def test_period_mode_matches_serial_reference(self, gpk, member_keys):
        rng = random.Random(55)
        period = b"epoch-chaos"
        url = [groupsig.RevocationToken(member_keys["b1"].a)]
        for name in ("a1", "b1"):
            message = b"period chaos " + name.encode()
            signature = groupsig.sign(gpk, member_keys[name], message,
                                      rng=rng, period=period)
            with instrument.count_operations() as fast_ops:
                fast = groupsig.classify(gpk, [(message, signature)], url,
                                         period)[0]
            with instrument.count_operations() as ref_ops:
                ref = groupsig.reference_classify(gpk, message, signature,
                                                  url, period)
            assert type(fast) is type(ref)
            assert getattr(fast, "token_index", None) == \
                getattr(ref, "token_index", None)
            assert fast_ops.snapshot() == ref_ops.snapshot()

    @pytest.mark.forces_fallback
    def test_fallback_path_stays_exact(self, gpk, member_keys,
                                       monkeypatch):
        """A fast-path crash discards its tally and reruns the reference."""
        rng = random.Random(66)
        message = b"fallback probe"
        signature = groupsig.sign(gpk, member_keys["a1"], message, rng=rng)

        def boom(*args, **kwargs):
            raise RuntimeError("kernel off its domain")

        monkeypatch.setattr(batch_core, "classify_fast", boom)
        with obs.collecting() as reg, \
                instrument.count_operations() as ops:
            assert groupsig.classify(gpk, [(message, signature)]) == [None]
        assert reg.counter_value("batch_core.fallback_total") == 1
        with instrument.count_operations() as ref_ops:
            assert groupsig.reference_classify(gpk, message,
                                               signature) is None
        assert ops.snapshot() == ref_ops.snapshot()


# ---------------------------------------------------------------------------
# Satellite 2: repeat Eq.3 scans on one period context
# ---------------------------------------------------------------------------

class TestScanTableCache:
    def test_cached_scan_counts_unchanged(self, gpk, member_keys):
        rng = random.Random(322)
        message = b"cache counts"
        period = b"cache-period"
        signature = groupsig.sign(gpk, member_keys["a2"], message, rng=rng,
                                  period=period)
        url = [groupsig.RevocationToken(member_keys["b1"].a),
               groupsig.RevocationToken(member_keys["b2"].a)]
        context = gpk.engine.generators(period)
        snapshots = []
        for _ in range(2):
            with instrument.count_operations() as ops:
                groupsig._scan_url(gpk, signature, url, context)
            snapshots.append(ops.snapshot())
        assert snapshots[0] == snapshots[1]
        assert snapshots[0]["pairing"] == 2 * len(url)


# ---------------------------------------------------------------------------
# Kernel identity: fastpath vs reference, on both shipped presets
# ---------------------------------------------------------------------------

def _fp2_pow(a, b, exponent, p):
    """Reference square-and-multiply in F_p2 = F_p(i), i^2 = -1."""
    ra, rb = 1, 0
    while exponent:
        if exponent & 1:
            ra, rb = (ra * a - rb * b) % p, (ra * b + rb * a) % p
        a, b = (a * a - b * b) % p, 2 * a * b % p
        exponent >>= 1
    return ra, rb


def _random_unitary(curve, rng):
    """A uniform norm-1 element: w^(p-1) for random nonzero w."""
    p = curve.p
    while True:
        a, b = rng.randrange(p), rng.randrange(p)
        if a or b:
            break
    ninv = pow(a * a + b * b, p - 2, p)
    return (a * a - b * b) % p * ninv % p, -2 * a * b % p * ninv % p


class TestKernels:
    def _curves(self, group, ss512_curve):
        return (group.curve, ss512_curve)

    def test_h_split_exactness_condition(self, group, ss512_curve):
        for curve in self._curves(group, ss512_curve):
            split = fastpath._h_split(curve)
            if split is None:
                continue  # fallback path; nothing to verify
            s, tail = split
            t = int("1" + tail, 2) if tail else 0
            assert (1 << s) + t == curve.h
            d = (1 << s) - t
            # The soundness condition that makes the real-part compare
            # exact: every z with z^d == 1 already has z^h == 1.
            assert curve.h % math.gcd(d, curve.p + 1) == 0

    def test_ss512_uses_the_split(self, ss512_curve):
        assert fastpath._h_split(ss512_curve) is not None

    def test_unitary_tag_matches_full_power(self, group, ss512_curve):
        rng = random.Random(2718)
        for curve in self._curves(group, ss512_curve):
            for _ in range(40):
                z_a, z_b = _random_unitary(curve, rng)
                full = fastpath.unitary_pow_h(z_a, z_b, curve)
                assert fastpath.unitary_tag_is_one(z_a, z_b, curve) == \
                    (full == (1, 0))

    def test_unitary_tag_forced_hits(self, group, ss512_curve):
        rng = random.Random(31415)
        for curve in self._curves(group, ss512_curve):
            assert fastpath.unitary_tag_is_one(1, 0, curve)
            for _ in range(4):
                y = _random_unitary(curve, rng)
                # y^r has order dividing h = (p+1)/r: a forced tag hit.
                hit = _fp2_pow(y[0], y[1], curve.r, curve.p)
                assert fastpath.unitary_pow_h(*hit, curve) == (1, 0)
                assert fastpath.unitary_tag_is_one(*hit, curve)
                # y^h lands in the order-r subgroup: a miss unless 1.
                miss = fastpath.unitary_pow_h(y[0], y[1], curve)
                if miss != (1, 0):
                    assert not fastpath.unitary_tag_is_one(*miss, curve)


# ---------------------------------------------------------------------------
# Satellite 3: pool auto-sizing
# ---------------------------------------------------------------------------

class TestPoolAutoSizing:
    def test_one_core_engages_auto_serial(self, gpk, member_keys,
                                          monkeypatch):
        monkeypatch.setattr(verifier_pool, "available_cores", lambda: 1)
        rng = random.Random(9)
        message = b"auto-serial"
        signature = groupsig.sign(gpk, member_keys["a1"], message, rng=rng)
        with verifier_pool.VerifierPool(gpk, processes=None) as pool:
            assert pool.auto_serial
            assert pool.processes == 0
            assert pool.host_cores == 1
            assert not pool.is_parallel
            assert pool.verify_batch([(message, signature)]) == [None]

    def test_multi_core_sizes_from_host(self, gpk, monkeypatch):
        monkeypatch.setattr(verifier_pool, "available_cores", lambda: 2)
        with verifier_pool.VerifierPool(gpk, processes=None) as pool:
            assert not pool.auto_serial
            assert pool.processes == 2
            assert pool.host_cores == 2

    def test_explicit_processes_always_honored(self, gpk, monkeypatch):
        monkeypatch.setattr(verifier_pool, "available_cores", lambda: 1)
        with verifier_pool.VerifierPool(gpk, processes=2) as pool:
            assert not pool.auto_serial
            assert pool.processes == 2
