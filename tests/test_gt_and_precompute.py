"""Verify on the engine's precomputed base pairing."""

import pytest

import random

from repro import instrument, obs
from repro.core import groupsig
from repro.errors import InvalidSignature
from repro.pairing import fastpath
from tests.oracles import reference_classify


class TestPrecomputedVerify:
    """The engine caches ``e(g1, g2)``; verify still bills it."""

    def test_accepts_valid_signatures(self, gpk, member_keys, rng):
        signature = groupsig.sign(gpk, member_keys["a1"], b"pc", rng=rng)
        groupsig.verify(gpk, b"pc", signature)

    def test_rejects_invalid_signatures(self, gpk, member_keys, rng):
        signature = groupsig.sign(gpk, member_keys["a1"], b"pc", rng=rng)
        with pytest.raises(InvalidSignature):
            groupsig.verify(gpk, b"other", signature)

    def test_default_keeps_paper_accounting(self, gpk, member_keys, rng):
        """A warm base-pairing cache hit still counts as a pairing."""
        signature = groupsig.sign(gpk, member_keys["a1"], b"pc2",
                                  rng=rng)
        groupsig.verify(gpk, b"pc2", signature)  # warm
        with instrument.count_operations() as ops:
            groupsig.verify(gpk, b"pc2", signature)
        assert ops.pairings() == 3
        assert ops.exponentiations() == 6


def _verdict(error):
    return (type(error), str(error), getattr(error, "token_index", None))


class TestTokenTables:
    """Token line tables are cached per token across URL lists."""

    def test_one_token_delta_builds_one_table(self, group):
        rng = random.Random(2207)
        gpk, master = groupsig.keygen_master(group, rng)
        keys = [groupsig.issue_member_key(group, master, 9, (0, i), rng)
                for i in range(7)]
        tokens = [groupsig.RevocationToken(key.a) for key in keys[2:]]
        batch = [(b"tt %d" % i, groupsig.sign(gpk, key, b"tt %d" % i,
                                              rng=rng))
                 for i, key in enumerate(keys[:2] + keys[5:6])]
        engine = gpk.engine
        builds = []
        for url in (tokens[:3], tokens[:4], tokens[1:4]):
            with obs.collecting() as reg:
                with instrument.count_operations() as ops:
                    outcomes = groupsig.verify_batch(gpk, batch, url)
            builds.append(reg.counter_value("engine.token_table_build_total"))
            assert engine.token_steps(url) == [
                fastpath.naf_steps(group.curve, token.a.point)
                for token in url]
            with instrument.count_operations() as expected_ops:
                expected = [reference_classify(gpk, m, sig, url)
                            for m, sig in batch]
            assert [_verdict(o) for o in outcomes] == \
                [_verdict(e) for e in expected]
            assert ops.snapshot() == expected_ops.snapshot()
        # The first URL builds its 3 tables; adding a token builds one;
        # dropping one builds none.
        assert builds == [3, 1, 0]
