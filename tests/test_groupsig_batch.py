"""The engine-backed verification paths: equivalence and op counts.

Three properties pin the classifier down:

1. ``verify`` and the engine-free ``reference_classify``
   (``tests/oracles.py``) accept/reject identically;
2. ``verify_batch`` classifies every item exactly as per-item ``verify``
   would (including bad signatures and revoked signers);
3. the instrumented operation counts are the reference's -- tables
   move wall-clock time, never abstract cost.
"""

import random

import pytest

from repro import instrument
from repro.core import groupsig
from repro.errors import InvalidSignature, RevokedKeyError
from tests.oracles import reference_classify


@pytest.fixture(scope="module")
def signed_batch(gpk, member_keys):
    """Six valid (message, signature) pairs from three different signers."""
    rng = random.Random(501)
    batch = []
    signers = ["a1", "a2", "b1", "a1", "b2", "a2"]
    for index, name in enumerate(signers):
        message = b"batch message %d" % index
        batch.append((message,
                      groupsig.sign(gpk, member_keys[name], message,
                                    rng=rng)))
    return batch


def _reference_verify(gpk, message, signature, url=(), period=None):
    """The reference classifier with :func:`groupsig.verify`'s raising."""
    error = reference_classify(gpk, message, signature, url, period)
    if error is not None:
        raise error


def _verifiers():
    return (groupsig.verify, _reference_verify)


def _tampered(signature):
    return groupsig.GroupSignature(
        signature.r, signature.t1, signature.t2, signature.c,
        signature.s_alpha, signature.s_x + 1, signature.s_delta)


class TestEngineEquivalence:
    def test_valid_signature_both_paths(self, gpk, signed_batch):
        message, signature = signed_batch[0]
        for verify in _verifiers():
            verify(gpk, message, signature)

    def test_bad_signature_both_paths(self, gpk, signed_batch):
        message, signature = signed_batch[0]
        for verify in _verifiers():
            with pytest.raises(InvalidSignature):
                verify(gpk, message, _tampered(signature))

    def test_revoked_scan_both_paths(self, gpk, member_keys, signed_batch):
        url = [groupsig.RevocationToken(member_keys["a1"].a),
               groupsig.RevocationToken(member_keys["b1"].a),
               groupsig.RevocationToken(member_keys["b2"].a)]
        for index, (message, signature) in enumerate(signed_batch):
            outcomes = set()
            for verify in _verifiers():
                try:
                    verify(gpk, message, signature, url=url)
                    outcomes.add("ok")
                except RevokedKeyError:
                    outcomes.add("revoked")
            assert len(outcomes) == 1, (index, outcomes)

    def test_engine_counts_match_naive(self, gpk, member_keys):
        rng = random.Random(77)
        message = b"count parity"
        signature = groupsig.sign(gpk, member_keys["a1"], message, rng=rng)
        url = [groupsig.RevocationToken(member_keys["b1"].a),
               groupsig.RevocationToken(member_keys["b2"].a),
               groupsig.RevocationToken(member_keys["a2"].a)]
        snapshots = []
        for verify in _verifiers():
            with instrument.count_operations() as ops:
                verify(gpk, message, signature, url=url)
            snapshots.append(ops.snapshot())
        assert snapshots[0] == snapshots[1]
        assert snapshots[0]["pairing"] == 3 + 2 * len(url)

    def test_period_mode_counts_match_naive(self, gpk, member_keys):
        rng = random.Random(78)
        message = b"period count parity"
        period = b"2026-08"
        signature = groupsig.sign(gpk, member_keys["a1"], message,
                                  rng=rng, period=period)
        # Warm the period cache so the engine path is the cache-hit one.
        groupsig.verify(gpk, message, signature, period=period)
        snapshots = []
        for verify in _verifiers():
            with instrument.count_operations() as ops:
                verify(gpk, message, signature, period=period)
            snapshots.append(ops.snapshot())
        assert snapshots[0] == snapshots[1]

    def test_engine_is_per_gpk_and_bounded(self, gpk):
        engine = gpk.engine
        assert engine is gpk.engine          # cached on the instance
        assert not hasattr(groupsig, "_BASE_PAIRING_CACHE")
        for index in range(3 * engine.max_periods):
            engine.generators(b"period-%d" % index)
        assert len(engine._periods) == engine.max_periods


class TestVerifyBatch:
    def test_all_valid(self, gpk, signed_batch):
        results = groupsig.verify_batch(gpk, signed_batch)
        assert results == [None] * len(signed_batch)

    def test_one_bad_signature_rejected(self, gpk, signed_batch):
        batch = list(signed_batch)
        batch[2] = (batch[2][0], _tampered(batch[2][1]))
        results = groupsig.verify_batch(gpk, batch)
        for index, result in enumerate(results):
            if index == 2:
                assert isinstance(result, InvalidSignature)
            else:
                assert result is None

    def test_matches_per_item_verify_with_revocation(self, gpk, member_keys,
                                                     signed_batch):
        url = [groupsig.RevocationToken(member_keys["a1"].a),
               groupsig.RevocationToken(member_keys["b2"].a)]
        batch = list(signed_batch)
        batch[4] = (batch[4][0], _tampered(batch[4][1]))
        results = groupsig.verify_batch(gpk, batch, url=url)
        for (message, signature), result in zip(batch, results):
            try:
                groupsig.verify(gpk, message, signature, url=url)
                assert result is None
            except (InvalidSignature, RevokedKeyError) as exc:
                assert type(result) is type(exc)

    def test_period_mode(self, gpk, member_keys):
        rng = random.Random(93)
        period = b"epoch-9"
        url = [groupsig.RevocationToken(member_keys["b1"].a)]
        batch = []
        for index, name in enumerate(["a1", "b1", "a2"]):
            message = b"period batch %d" % index
            batch.append((message,
                          groupsig.sign(gpk, member_keys[name], message,
                                        rng=rng, period=period)))
        results = groupsig.verify_batch(gpk, batch, url=url, period=period)
        assert results[0] is None
        assert isinstance(results[1], RevokedKeyError)
        assert results[2] is None

    def test_empty_batch(self, gpk):
        assert groupsig.verify_batch(gpk, []) == []

    def test_batch_counts_are_per_item(self, gpk, signed_batch):
        with instrument.count_operations() as ops:
            groupsig.verify_batch(gpk, signed_batch[:3])
        assert ops.pairings() == 3 * 3
        assert ops.exponentiations() == 3 * 6


class TestSmoke:
    """~10s subset exercised by scripts/tier1.sh."""

    def test_batch_and_engine_agree(self, gpk, member_keys):
        rng = random.Random(5)
        message = b"smoke"
        good = groupsig.sign(gpk, member_keys["a1"], message, rng=rng)
        for verify in _verifiers():
            verify(gpk, message, good)
        results = groupsig.verify_batch(
            gpk, [(message, good), (message, _tampered(good))])
        assert results[0] is None
        assert isinstance(results[1], InvalidSignature)
