"""The paper's operation-count claims, verified exactly (Section V.C)."""

import pytest

from repro import instrument
from repro.core import groupsig


class TestSignCost:
    def test_eight_exponentiations_two_pairings(self, gpk, member_keys,
                                                rng):
        """'Signature generation requires about 8 exponentiations (or
        multiexponentiations) and 2 bilinear map computations.'"""
        with instrument.count_operations() as ops:
            groupsig.sign(gpk, member_keys["a1"], b"cost", rng=rng)
        assert ops.exponentiations() == 8
        assert ops.pairings() == 2

    def test_psi_counted_like_exponentiation(self, gpk, member_keys, rng):
        """'Computing the isomorphism takes roughly the same time as an
        exponentiation in G1' -- 2 of the 8 are psi applications."""
        with instrument.count_operations() as ops:
            groupsig.sign(gpk, member_keys["a1"], b"cost", rng=rng)
        assert ops.total("psi") == 2
        assert ops.total("exp") == 6


class TestVerifyCost:
    @pytest.mark.parametrize("url_size", [0, 1, 2, 3])
    def test_pairings_scale_as_3_plus_2url(self, gpk, member_keys, rng,
                                           url_size):
        """'Signature verification takes 6 exponentiations and
        3 + 2|URL| computations of the bilinear map.'"""
        decoys = [groupsig.RevocationToken(member_keys[n].a)
                  for n in ("a2", "b1", "b2")]
        sig = groupsig.sign(gpk, member_keys["a1"], b"cost", rng=rng)
        with instrument.count_operations() as ops:
            groupsig.verify(gpk, b"cost", sig, url=decoys[:url_size])
        assert ops.pairings() == 3 + 2 * url_size
        assert ops.exponentiations() == 6

    def test_signer_match_short_circuits_scan(self, gpk, member_keys, rng):
        """The scan stops at the matching token (cost <= 3 + 2|URL|)."""
        sig = groupsig.sign(gpk, member_keys["a1"], b"cost", rng=rng)
        url = [groupsig.RevocationToken(member_keys["a1"].a),
               groupsig.RevocationToken(member_keys["a2"].a)]
        with instrument.count_operations() as ops:
            with pytest.raises(groupsig.RevokedKeyError):
                groupsig.verify(gpk, b"cost", sig, url=url)
        assert ops.pairings() == 3 + 2   # matched on the first token

    def test_verification_delay_grows_with_url(self, gpk, member_keys,
                                               rng):
        """Wall-clock sanity check of the linear scaling claim: 16 decoy
        tokens add 32 pairings, far more than the few per cent that
        separate the empty-URL path from the scanning one."""
        import time
        sig = groupsig.sign(gpk, member_keys["a1"], b"cost", rng=rng)
        decoys = [groupsig.RevocationToken(gpk.group.random_g1(rng))
                  for _ in range(16)]

        def timed(url):
            start = time.perf_counter()
            with instrument.count_operations() as ops:
                groupsig.verify(gpk, b"cost", sig, url=url)
            return time.perf_counter() - start, ops.pairings()

        small = [timed([]) for _ in range(3)]
        large = [timed(decoys) for _ in range(3)]
        assert {pairings for _, pairings in small} == {3}
        assert {pairings for _, pairings in large} == {3 + 2 * 16}
        assert min(large)[0] > min(small)[0]
