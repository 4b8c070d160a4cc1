"""The batch verification core: soundness, bit-identity, and kernels.

Pins for the batch core's kernels and their satellites:

* **Adversarial cancellation.**  Two tampered SDH member keys whose
  pairing error terms cancel in an *unrandomized* product equation
  each fail the per-key SDH check a user runs on its credential.
* **Bit-identity.**  ``groupsig.classify`` (the batch core's kernels)
  matches the tests' ``reference_classify`` on chaos batches (seeds
  101/202/303): outcome type, error message, ``token_index``, and
  operation counts.
* **Fail-closed.**  A kernel that raises yields an
  :class:`InvalidSignature` and one ``batch_core.fallback_total``
  count; nothing reruns the item, and the operations noted before the
  exception are recorded once.
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
from repro.core.identity import RoleAttribute, UserIdentity
from repro.core.user import NetworkUser
from repro.errors import AuthenticationError, InvalidSignature, RevokedKeyError
from repro.pairing import PairingGroup
from repro.pairing import fastpath
from tests import oracles


@pytest.fixture(scope="module")
def ss512_curve():
    return PairingGroup("SS512").curve


def _tampered(signature, **fields):
    return replace(signature, **fields)


# ---------------------------------------------------------------------------
# Adversarial cancellation vs the per-key credential check
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
        is exactly the insider threat a per-key check defends
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

    def test_credential_check_rejects_both(self, scheme):
        """The SDH check a user runs on its assembled credential
        evaluates each key alone, so neither cancelling key passes."""
        gpk, master, keys = scheme
        bad1, bad2 = self._cancelling_pair(gpk, master, keys["a1"],
                                           keys["b2"])
        user = NetworkUser(
            UserIdentity.build("mallory", {"ssn": "0"},
                               [RoleAttribute("engineer", "Company X")]),
            gpk, None, rng=random.Random(404))
        for bad in (bad1, bad2):
            with pytest.raises(AuthenticationError):
                user._validate_credential(bad)
        for honest in (keys["a2"], keys["b1"]):
            user._validate_credential(honest)


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
                ref = oracles.reference_classify(gpk, message, signature,
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
                ref = oracles.reference_classify(gpk, message, signature,
                                                 url, period)
            assert type(fast) is type(ref)
            assert getattr(fast, "token_index", None) == \
                getattr(ref, "token_index", None)
            assert fast_ops.snapshot() == ref_ops.snapshot()

    @pytest.mark.forces_kernel_error
    def test_kernel_error_fails_closed(self, gpk, member_keys, monkeypatch):
        """A kernel exception rejects the item: an InvalidSignature
        carrying the exception, one count, and no rerun anywhere."""
        rng = random.Random(66)
        message = b"fail-closed probe"
        signature = groupsig.sign(gpk, member_keys["a1"], message, rng=rng)

        def boom(*args, **kwargs):
            raise RuntimeError("kernel off its domain")

        def no_rerun(*args, **kwargs):
            raise AssertionError("the classifier reran the item")

        monkeypatch.setattr(batch_core, "classify_fast", boom)
        monkeypatch.setattr(oracles, "reference_classify", no_rerun)
        with obs.collecting() as reg:
            [error] = groupsig.classify(gpk, [(message, signature)])
        assert type(error) is InvalidSignature
        assert str(error) == "verification kernel error"
        assert isinstance(error.__cause__, RuntimeError)
        assert reg.counter_value("batch_core.fallback_total") == 1
        assert reg.counter_value("groupsig.verify_reject_invalid_total") == 1
        with pytest.raises(InvalidSignature) as raised:
            groupsig.verify(gpk, message, signature)
        assert isinstance(raised.value.__cause__, RuntimeError)

    @pytest.mark.forces_kernel_error
    def test_notes_before_a_kernel_error_stay_recorded(
            self, gpk, member_keys, monkeypatch):
        """Operations the kernel noted before raising reach the ambient
        counter and the item's span alike, once."""
        rng = random.Random(67)
        message = b"partial notes"
        signature = groupsig.sign(gpk, member_keys["a2"], message, rng=rng)

        def notes_then_boom(*args, **kwargs):
            instrument.note("hash_to_group", 2)
            raise RuntimeError("kernel off its domain")

        monkeypatch.setattr(batch_core, "classify_fast", notes_then_boom)
        with obs.collecting() as reg, \
                instrument.count_operations() as ops:
            with reg.span("probe"):
                groupsig.classify(gpk, [(message, signature)])
        assert ops.snapshot() == {"hash_to_group": 2}
        by_name = {record.name: dict(record.ops) for record in reg.spans()}
        assert by_name == {"groupsig.verify": {"hash_to_group": 2},
                           "probe": {}}
        assert reg.counter_value("batch_core.fallback_total") == 1


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
