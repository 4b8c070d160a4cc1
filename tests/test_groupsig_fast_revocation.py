"""Tests for the period-based O(1) revocation-check variant (V.C)."""

import random

import pytest

from repro import instrument
from repro.core import groupsig
from repro.core.revocation import RevocationState, epoch_period
from repro.errors import RevokedKeyError

PERIOD = b"2026-07-06T00"
MSG = b"fast-revocation-message"


class TestPeriodMode:
    def test_sign_verify_with_period(self, gpk, member_keys, rng):
        sig = groupsig.sign(gpk, member_keys["a1"], MSG, rng=rng,
                            period=PERIOD)
        groupsig.verify(gpk, MSG, sig, period=PERIOD)

    def test_wrong_period_rejected(self, gpk, member_keys, rng):
        sig = groupsig.sign(gpk, member_keys["a1"], MSG, rng=rng,
                            period=PERIOD)
        with pytest.raises(groupsig.InvalidSignature):
            groupsig.verify(gpk, MSG, sig, period=b"other-period")

    def test_period_mode_incompatible_with_default(self, gpk, member_keys,
                                                   rng):
        sig = groupsig.sign(gpk, member_keys["a1"], MSG, rng=rng,
                            period=PERIOD)
        with pytest.raises(groupsig.InvalidSignature):
            groupsig.verify(gpk, MSG, sig)   # no period


class TestRevocationTable:
    """The Section V.C table as :class:`RevocationState` keeps it: one
    tag per URL token under the epoch period, a 2-pairing check."""

    def _index(self, gpk, member_keys, names):
        state = RevocationState(gpk)
        state.update([groupsig.RevocationToken(member_keys[n].a)
                      for n in names])
        return state

    def _sign(self, gpk, member_keys, rng):
        return groupsig.sign(gpk, member_keys["a1"], MSG, rng=rng,
                             period=epoch_period(gpk.epoch))

    def test_detects_revoked_signer(self, gpk, member_keys, rng):
        sig = self._sign(gpk, member_keys, rng)
        state = self._index(gpk, member_keys, ["a1"])
        with pytest.raises(RevokedKeyError):
            state.check(MSG, sig)

    def test_clears_unrevoked_signer(self, gpk, member_keys, rng):
        sig = self._sign(gpk, member_keys, rng)
        state = self._index(gpk, member_keys, ["a2", "b1"])
        state.check(MSG, sig)

    def test_check_cost_independent_of_url_size(self, gpk, member_keys,
                                                rng):
        """The whole point: 2 pairings regardless of |URL|."""
        sig = self._sign(gpk, member_keys, rng)
        costs = []
        for url_names in (["a2"], ["a2", "b1", "b2"]):
            state = self._index(gpk, member_keys, url_names)
            with instrument.count_operations() as ops:
                state.check(MSG, sig)
            costs.append(ops.pairings())
        assert costs[0] == costs[1] == 2

    def test_total_verify_cost_matches_paper(self, gpk, member_keys, rng):
        """6 exponentiations and 5 pairings (Section V.C)."""
        sig = self._sign(gpk, member_keys, rng)
        state = self._index(gpk, member_keys, ["a2"])
        with instrument.count_operations() as ops:
            groupsig.verify(gpk, MSG, sig, period=state.period,
                            check_revocation=False)
            state.check(MSG, sig)
        assert ops.exponentiations() == 6
        assert ops.pairings() == 5


class TestLinkabilityTrade:
    def test_same_period_tags_link(self, gpk, member_keys, rng):
        """Within a period, one signer's tags repeat (the privacy cost)."""
        sig1 = groupsig.sign(gpk, member_keys["a1"], b"m1", rng=rng,
                             period=PERIOD)
        sig2 = groupsig.sign(gpk, member_keys["a1"], b"m2", rng=rng,
                             period=PERIOD)
        tag1 = groupsig.revocation_tag(gpk, b"m1", sig1, period=PERIOD)
        tag2 = groupsig.revocation_tag(gpk, b"m2", sig2, period=PERIOD)
        assert tag1 == tag2

    def test_different_signers_tags_differ(self, gpk, member_keys, rng):
        sig1 = groupsig.sign(gpk, member_keys["a1"], b"m", rng=rng,
                             period=PERIOD)
        sig2 = groupsig.sign(gpk, member_keys["a2"], b"m", rng=rng,
                             period=PERIOD)
        assert (groupsig.revocation_tag(gpk, b"m", sig1, period=PERIOD)
                != groupsig.revocation_tag(gpk, b"m", sig2, period=PERIOD))

    def test_across_periods_tags_unlink(self, gpk, member_keys, rng):
        """Fresh period, fresh generators: tags no longer match."""
        sig1 = groupsig.sign(gpk, member_keys["a1"], b"m", rng=rng,
                             period=b"epoch-1")
        sig2 = groupsig.sign(gpk, member_keys["a1"], b"m", rng=rng,
                             period=b"epoch-2")
        assert (groupsig.revocation_tag(gpk, b"m", sig1, period=b"epoch-1")
                != groupsig.revocation_tag(gpk, b"m", sig2,
                                           period=b"epoch-2"))

    def test_default_mode_tags_never_link(self, gpk, member_keys, rng):
        """Per-signature generators: even one signer's tags differ."""
        sig1 = groupsig.sign(gpk, member_keys["a1"], b"m1", rng=rng)
        sig2 = groupsig.sign(gpk, member_keys["a1"], b"m2", rng=rng)
        assert (groupsig.revocation_tag(gpk, b"m1", sig1)
                != groupsig.revocation_tag(gpk, b"m2", sig2))
