"""The period tag index + the epoch tag cache (repro.core.revocation).

The contract under test: the cached tag index produces
*bit-identical* outcomes to the paper's verifier
(``tests/oracles.py``'s ``reference_classify`` under the index's
period, whose Eq.3 scan stops at the first match) -- same accept/reject
decision, same error message, same ``token_index`` -- for every URL
ordering, duplicate tokens included; its tags are the generic
pairing's, byte for byte; and the cache invalidates strictly on epoch
bumps and URL delta removals.
"""

import random

import pytest

from repro import instrument, obs
from repro.core import groupsig
from repro.core.certs import UrlDelta
from repro.core.groupsig import GroupPublicKey, RevocationToken
from repro.core.revocation import (
    RevocationState,
    RevocationTagCache,
    epoch_period,
)
from repro.errors import CertificateError, ParameterError, RevokedKeyError
from repro.pairing.group import G1Element, GTElement
from tests.oracles import reference_classify, tate_pairing

CHAOS_SEEDS = (101, 202, 303)


def _outcome(fn):
    try:
        fn()
    except RevokedKeyError as exc:
        return exc
    return None


@pytest.fixture
def period(gpk):
    return epoch_period(gpk.epoch)


@pytest.fixture
def decoys(group, rng):
    return [RevocationToken(group.random_g1(rng)) for _ in range(12)]


class TestPrimitives:
    def test_epoch_period_distinct_and_deterministic(self):
        assert epoch_period(0) == epoch_period(0)
        assert epoch_period(0) != epoch_period(1)
        with pytest.raises(ParameterError):
            epoch_period(-1)

    def test_entries_follow_url_order(self, gpk, decoys):
        state = RevocationState(gpk)
        state.update(decoys, url_version=1)
        entries = state.entries()
        assert [token for token, _ in entries] \
            == [token.encode() for token in decoys]
        assert len({tag for _, tag in entries}) == len(decoys)
        assert state.url_version == 1


class TestBitIdentity:
    """Tag-index check vs the paper's verifier: identical, always."""

    def _signatures(self, gpk, member_keys, period, rng):
        revoked = groupsig.sign(gpk, member_keys["a1"], b"identity",
                                rng=rng, period=period)
        clean = groupsig.sign(gpk, member_keys["a2"], b"identity",
                              rng=rng, period=period)
        return revoked, clean

    def test_outcome_message_and_token_index(self, gpk, member_keys,
                                             period, decoys, rng):
        sig_revoked, sig_clean = self._signatures(gpk, member_keys,
                                                  period, rng)
        url = tuple(decoys) + (RevocationToken(member_keys["a1"].a),)
        state = RevocationState(gpk)
        state.update(url, url_version=1)
        reference = reference_classify(gpk, b"identity", sig_revoked,
                                       url, period)
        indexed = _outcome(lambda: state.check(b"identity", sig_revoked))
        assert reference is not None and indexed is not None
        assert str(reference) == str(indexed)
        assert reference.token_index == indexed.token_index == len(decoys)
        assert reference_classify(gpk, b"identity", sig_clean,
                                  url, period) is None
        assert _outcome(lambda: state.check(b"identity", sig_clean)) is None

    def test_shuffled_orderings_chaos_seeds(self, gpk, member_keys,
                                            period, decoys, rng):
        sig_revoked, _ = self._signatures(gpk, member_keys, period, rng)
        cache = RevocationTagCache()
        for seed in CHAOS_SEEDS:
            url = list(decoys) + [RevocationToken(member_keys["a1"].a)]
            random.Random(seed).shuffle(url)
            state = RevocationState(gpk, cache=cache)
            state.update(url, url_version=seed)
            reference = reference_classify(
                gpk, b"identity", sig_revoked, url, period)
            indexed = _outcome(
                lambda: state.check(b"identity", sig_revoked))
            assert reference is not None and indexed is not None
            assert str(reference) == str(indexed)
            assert reference.token_index == indexed.token_index

    def test_duplicate_token_reports_first_match(self, gpk, member_keys,
                                                 period, decoys, rng):
        sig_revoked, _ = self._signatures(gpk, member_keys, period, rng)
        token = RevocationToken(member_keys["a1"].a)
        url = (decoys[0], decoys[1], token, decoys[2], token, decoys[3])
        state = RevocationState(gpk)
        state.update(url, url_version=1)
        reference = reference_classify(gpk, b"identity", sig_revoked,
                                       url, period)
        indexed = _outcome(lambda: state.check(b"identity", sig_revoked))
        assert reference is not None and indexed is not None
        assert reference.token_index == indexed.token_index == 2

    def test_epoch_rotation_rebalances_and_stays_identical(
            self, group, gpk, member_keys, period, decoys, rng):
        """Rotating the gpk re-derives every tag under the new epoch's
        generators; outcomes must track the new epoch's verifier."""
        state = RevocationState(gpk)
        url = tuple(decoys) + (RevocationToken(member_keys["a1"].a),)
        state.update(url, url_version=1)
        old = state.entries()

        new_gpk = GroupPublicKey(group, gpk.w, epoch=gpk.epoch + 1)
        state.rotate(new_gpk, url=url, url_version=2)
        assert state.epoch == gpk.epoch + 1
        assert len(state.entries()) == len(old)
        # Same tokens, different epoch => every tag is re-derived, not
        # carried over.
        old_tags = {tag for _, tag in old}
        new_tags = {tag for _, tag in state.entries()}
        assert old_tags.isdisjoint(new_tags)

        new_period = epoch_period(new_gpk.epoch)
        sig = groupsig.sign(new_gpk, member_keys["a1"], b"rot", rng=rng,
                            period=new_period)
        reference = reference_classify(new_gpk, b"rot", sig, url,
                                       new_period)
        indexed = _outcome(lambda: state.check(b"rot", sig))
        assert reference is not None and indexed is not None
        assert str(reference) == str(indexed)
        assert reference.token_index == indexed.token_index == len(decoys)


class TestTagCache:
    def test_hit_miss_evict_counters(self):
        registry = obs.MetricsRegistry()
        previous = obs.install(registry)
        try:
            cache = RevocationTagCache(capacity=2)
            assert cache.get(0, b"A") is None
            cache.put(0, b"A", b"tag-a")
            assert cache.get(0, b"A") == b"tag-a"
            cache.put(0, b"B", b"tag-b")
            cache.put(0, b"C", b"tag-c")     # evicts the LRU entry
            assert len(cache) == 2
            assert registry.counter_value("revocation.cache.miss") == 1
            assert registry.counter_value("revocation.cache.hit") == 1
            assert registry.counter_value("revocation.cache.evict") == 1
        finally:
            obs.install(previous)

    def test_rejects_zero_capacity(self):
        with pytest.raises(ParameterError):
            RevocationTagCache(capacity=0)

    def test_epoch_bump_strictly_invalidates(self, group, gpk, decoys):
        cache = RevocationTagCache()
        state = RevocationState(gpk, cache=cache)
        state.update(decoys, url_version=1)
        assert len(cache) == len(decoys)
        new_gpk = GroupPublicKey(group, gpk.w, epoch=gpk.epoch + 1)
        state.rotate(new_gpk, url=decoys, url_version=2)
        # Only the new epoch's tags remain: the retired epoch's entries
        # were dropped, not aged out.
        assert len(cache) == len(decoys)
        for token in decoys:
            assert cache.get(gpk.epoch, token.encode()) is None
            assert cache.get(new_gpk.epoch, token.encode()) is not None

    def test_delta_removal_evicts_then_rederives(self, gpk, decoys):
        cache = RevocationTagCache()
        state = RevocationState(gpk, cache=cache)
        state.update(decoys, url_version=1)

        # Warm rebuild: every tag hits, no pairings at all.
        with instrument.count_operations() as warm:
            state.update(decoys, url_version=2)
        assert warm.total("pairing") == 0

        # Remove one token: its cache entry is strictly evicted...
        survivor_urls = decoys[1:]
        state.update(survivor_urls, url_version=3)
        assert cache.get(gpk.epoch, decoys[0].encode()) is None

        # ...so a re-add re-derives exactly that one tag.
        with instrument.count_operations() as readd:
            state.update(decoys, url_version=4)
        assert readd.total("pairing") == 1

    def test_revoked_then_unrevoked_then_rerevoked(self, fresh_deployment):
        deployment = fresh_deployment()
        operator = deployment.operator
        bob_credential = deployment.users["bob"].credentials[
            "University Z"]
        period = epoch_period(operator.gpk.epoch)
        signature = groupsig.sign(operator.gpk, bob_credential, b"cycle",
                                  rng=deployment.rng, period=period)
        state = RevocationState(operator.gpk)

        operator.revoke_user_key(bob_credential.index)
        url = operator.issue_url()
        state.update(url.tokens, url.version)
        revoked = _outcome(lambda: state.check(b"cycle", signature))
        assert isinstance(revoked, RevokedKeyError)
        assert revoked.token_index == 0

        operator.unrevoke_user_key(bob_credential.index)
        url = operator.issue_url()
        state.update(url.tokens, url.version)
        assert _outcome(lambda: state.check(b"cycle", signature)) is None

        operator.revoke_user_key(bob_credential.index)
        url = operator.issue_url()
        state.update(url.tokens, url.version)
        again = _outcome(lambda: state.check(b"cycle", signature))
        assert isinstance(again, RevokedKeyError)
        assert str(again) == str(revoked)


class TestTagKernel:
    """The tag kernel (NAF steps of u_hat and v_hat, one shared Miller
    chain per check, one batched easy part per update) against the
    generic pairing, byte for byte."""

    @staticmethod
    def _inputs(group, rng):
        points = [group.random_g1(rng).point for _ in range(4)]
        infinity = (group.g1 ** group.order).point
        return points + [points[0], infinity]      # duplicate, identity

    def _assert_pinned(self, state, group, rng):
        context = state.gpk.engine.generators(state.period)
        curve = group.curve
        u_hat, v_hat = context.u_hat.point, context.v_hat.point
        points = self._inputs(group, rng)
        for t1 in points:
            for t2 in (points[1], points[0], points[-1]):
                expected = (tate_pairing(curve, t2, u_hat)
                            * tate_pairing(curve, t1, v_hat).inverse())
                assert state._tag(t1, t2) == GTElement(
                    expected, group).encode()
        tokens = [RevocationToken(G1Element(point, group))
                  for point in points]
        state.update(tokens, url_version=state.url_version + 1)
        assert [tag for _, tag in state.entries()] == [
            GTElement(tate_pairing(curve, point, u_hat), group).encode()
            for point in points]

    def test_check_and_update_match_generic_pairings(self, group, gpk,
                                                     rng):
        self._assert_pinned(RevocationState(gpk), group, rng)

    def test_pinned_across_rotate(self, group, gpk, rng):
        state = RevocationState(gpk)
        self._assert_pinned(state, group, rng)
        state.rotate(GroupPublicKey(group, gpk.w, epoch=gpk.epoch + 1))
        self._assert_pinned(state, group, rng)

    def test_check_uses_the_pinned_tag(self, gpk, member_keys, rng):
        state = RevocationState(gpk)
        signature = groupsig.sign(gpk, member_keys["a1"], b"m", rng=rng,
                                  period=state.period)
        state._first_by_tag = {
            state._tag(signature.t1.point, signature.t2.point): 3}
        with instrument.count_operations() as ops:
            revoked = _outcome(lambda: state.check(b"m", signature))
        assert revoked.token_index == 3
        assert ops.snapshot() == {"pairing": 2}

    def test_update_with_no_tokens(self, gpk):
        state = RevocationState(gpk)
        state.update([], url_version=1)
        assert state.entries() == ()


class TestRouterIntegration:
    def test_serial_and_sharded_classify_identically(self,
                                                     fresh_deployment):
        deployment = fresh_deployment()
        router = deployment.routers["MR-1"]
        bob = deployment.users["bob"]
        deployment.operator.revoke_user_key(
            bob.credentials["University Z"].index)
        router.refresh_lists()

        state = router.enable_sharded_revocation()
        assert router.revocation_state is state
        period = epoch_period(deployment.operator.gpk.epoch)
        for user in deployment.users.values():
            user.auth_period = period

        deployment.connect("alice", "MR-1")          # clean user passes
        beacon = router.make_beacon()
        request, _ = bob.connect_to_router(beacon)
        with pytest.raises(RevokedKeyError):
            router.process_request(request)
        assert router.stats["rejected_revoked"] == 1

    def test_batch_path_classifies_with_state(self, fresh_deployment):
        deployment = fresh_deployment()
        router = deployment.routers["MR-1"]
        alice = deployment.users["alice"]
        bob = deployment.users["bob"]
        deployment.operator.revoke_user_key(
            bob.credentials["University Z"].index)
        router.refresh_lists()
        router.enable_sharded_revocation()
        period = epoch_period(deployment.operator.gpk.epoch)
        alice.auth_period = period
        bob.auth_period = period

        beacon = router.make_beacon()
        good, pending = alice.connect_to_router(beacon)
        beacon = router.make_beacon()
        revoked, _ = bob.connect_to_router(beacon)
        outcomes = router.process_request_batch([good, revoked])
        confirm, router_session = outcomes[0]
        user_session = alice.complete_router_handshake(pending, confirm)
        assert user_session.session_id == router_session.session_id
        assert isinstance(outcomes[1], RevokedKeyError)
        assert outcomes[1].token_index == 0

    def test_refresh_keeps_state_in_sync(self, fresh_deployment):
        deployment = fresh_deployment()
        router = deployment.routers["MR-1"]
        state = router.enable_sharded_revocation()
        assert state.entries() == ()
        deployment.operator.revoke_user_key(
            deployment.users["bob"].credentials["University Z"].index)
        router.refresh_lists()
        assert len(state.entries()) == 1
        assert state.url_version == router.url.version


class TestUrlDeltaInteraction:
    def test_tampered_delta_fails_validation(self, fresh_deployment):
        deployment = fresh_deployment()
        operator = deployment.operator
        base = operator.issue_url()
        operator.revoke_user_key(
            deployment.users["bob"].credentials["University Z"].index)
        operator.revoke_user_key(
            deployment.users["alice"].credentials["Company X"].index)
        delta = operator.issue_url_delta(base.version)
        assert delta is not None

        applied = delta.apply(base)
        applied.validate(operator.public_key, deployment.clock.now())
        assert applied.version == operator.issue_url().version

        forged = UrlDelta(
            from_version=delta.from_version,
            to_version=delta.to_version,
            issued_at=delta.issued_at,
            update_period=delta.update_period,
            added=delta.added[:1],           # drop one revocation
            removed=delta.removed,
            list_signature=delta.list_signature)
        tampered = forged.apply(base)
        with pytest.raises(CertificateError):
            tampered.validate(operator.public_key,
                              deployment.clock.now())

    def test_delta_version_checks(self, fresh_deployment):
        deployment = fresh_deployment()
        operator = deployment.operator
        base = operator.issue_url()
        operator.revoke_user_key(
            deployment.users["bob"].credentials["University Z"].index)
        delta = operator.issue_url_delta(base.version)
        assert delta is not None
        with pytest.raises(CertificateError):
            delta.apply(operator.issue_url())   # wrong base version
        assert operator.issue_url_delta(
            operator.issue_url().version) is None   # already current
